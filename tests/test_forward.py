import numpy as np
import pytest

from polyscat.forward import (FarFieldPattern, assemble_nest, build_mesh, farfield_diff,
                              solve_assembled, solve_scatter, uniform_directions)
from polyscat.geometry import NestPartition, Polygon
from polyscat.medium import IncidentField, NestMedium, incident_eval

ANGLES = uniform_directions(64)


def _cauchy_fit(result, x0, nrm, side):
    """One-sided boundary value and normal derivative by polynomial fit."""
    ts = side * np.array([0.02, 0.03, 0.04, 0.05, 0.06, 0.08])
    vals = np.array([result.field_at(x0 + t * nrm) for t in ts])
    coef = np.polynomial.polynomial.polyfit(ts, vals, 4)
    return coef[0], coef[1]


def test_zero_contrast_scatters_nothing(unit_square, plane_inc):
    med = NestMedium(NestPartition([unit_square]), q=[1.0], lam=[0.0], k=1.0)
    res = solve_scatter(med, plane_inc, nodes_per_edge=32)
    ff = res.far_field(ANGLES)
    assert np.max(np.abs(ff.values)) < 1e-10
    # total field equals the incident field everywhere
    pts = np.array([[0.1, 0.2], [0.0, 0.0], [2.0, 1.0]])
    ui, _ = incident_eval(plane_inc, 1.0, pts)
    assert np.max(np.abs(res.field_at(pts) - ui)) < 1e-10


def test_self_convergence_order(unit_square, plane_inc):
    med = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.0], k=1.0)
    ffs = [solve_scatter(med, plane_inc, nodes_per_edge=n).far_field(ANGLES)
           for n in (16, 32, 64)]
    d1 = farfield_diff(ffs[0], ffs[2])
    d2 = farfield_diff(ffs[1], ffs[2])
    order = np.log2(d1 / d2)
    assert order >= 2.0


def test_transmission_conditions_at_interface(conductive_square_solution):
    med, res = conductive_square_solution
    x0, nrm = np.array([0.5, 0.13]), np.array([1.0, 0.0])
    uo, dno = _cauchy_fit(res, x0, nrm, +1)
    ui, dni = _cauchy_fit(res, x0, nrm, -1)
    assert abs(uo - ui) < 1e-6  # Dirichlet continuity
    lam = med.lam[0]
    # dnu u_out + lambda u_out = dnu u_in, with 10x headroom over the fit error
    assert abs(dno + lam * uo - dni) < 1e-4 * max(abs(dni), 1.0)


def test_field_eval_rejects_interface_points(conductive_square_solution):
    _, res = conductive_square_solution
    with pytest.raises(ValueError):
        res.field_at(np.array([0.5, 0.0]))


def test_two_layer_jump_conditions(nested_squares, plane_inc):
    med = NestMedium(nested_squares, q=[2.0, 3.0 + 0.2j], lam=[0.5j, 0.3], k=1.0)
    res = solve_scatter(med, plane_inc, nodes_per_edge=48)
    for x0, lam in [(np.array([1.0, 0.23]), 0.5j), (np.array([0.5, 0.11]), 0.3)]:
        nrm = np.array([1.0, 0.0])
        uo, dno = _cauchy_fit(res, x0, nrm, +1)
        ui, dni = _cauchy_fit(res, x0, nrm, -1)
        assert abs(uo - ui) < 1e-5
        assert abs(dno + lam * uo - dni) < 1e-3 * max(abs(dni), 1.0)


def test_farfield_consistency_with_large_radius(conductive_square_solution, plane_inc):
    med, res = conductive_square_solution
    ang = 0.7
    uinf = res.far_field(np.array([ang, ang + 1.0])).values[0]
    errs = []
    for radius in (1e2, 1e3, 1e4):
        x = radius * np.array([np.cos(ang), np.sin(ang)])
        ui, _ = incident_eval(plane_inc, med.k, x)
        us = res.field_at(x) - ui
        errs.append(abs(us * np.sqrt(radius) * np.exp(-1j * med.k * radius) - uinf))
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.2)


def test_reciprocity(unit_square):
    med = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.5j], k=1.0)
    mesh = build_mesh([unit_square], 32)
    system = assemble_nest(med, mesh)
    rng = np.random.default_rng(7)
    for _ in range(3):
        a1, a2 = rng.uniform(0, 2 * np.pi, 2)
        d1 = np.array([np.cos(a1), np.sin(a1)])
        d2 = np.array([np.cos(a2), np.sin(a2)])
        r1 = solve_assembled(system, IncidentField("plane", direction=d1))
        r2 = solve_assembled(system, IncidentField("plane", direction=-d2))
        lhs = _uinf_at(r1, a2)
        rhs = _uinf_at(r2, a1 + np.pi)
        assert abs(lhs - rhs) < 1e-6


def _uinf_at(res, ang):
    from polyscat.forward.layerops import farfield_row

    dirs = np.array([[np.cos(ang), np.sin(ang)]])
    fs, fd = farfield_row(res.mesh.curves[0], res.medium.k, dirs)
    phi, psi = res.densities[0]
    return (fd @ phi + fs @ psi)[0]


def test_farfield_linear_in_amplitude(unit_square):
    med = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.5j], k=1.0)
    mesh = build_mesh([unit_square], 16)
    system = assemble_nest(med, mesh)
    r1 = solve_assembled(system, IncidentField("plane", direction=[1, 0], amplitude=1.0))
    r2 = solve_assembled(system, IncidentField("plane", direction=[1, 0], amplitude=2.0))
    assert np.allclose(2 * r1.far_field(ANGLES).values, r2.far_field(ANGLES).values,
                       rtol=1e-12, atol=1e-300)


def test_solve_reports_diagnostics(conductive_square_solution):
    _, res = conductive_square_solution
    assert res.residual < 1e-8
    assert res.cond_estimate < 1e12
    assert res.converged


def test_farfield_diff_properties():
    vals = np.exp(1j * np.linspace(0, 3, 16))
    p1 = FarFieldPattern(uniform_directions(16), vals)
    assert farfield_diff(p1, p1) == 0.0
    bumped = vals.copy()
    bumped[3] += 1e-3
    p2 = FarFieldPattern(uniform_directions(16), bumped)
    assert farfield_diff(p1, p2) == pytest.approx(1e-3 / np.linalg.norm(vals))
    with pytest.raises(ValueError):
        farfield_diff(p1, FarFieldPattern(uniform_directions(8), vals[:8]))


def test_farfield_pattern_validation():
    with pytest.raises(ValueError):
        FarFieldPattern(np.array([0.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        FarFieldPattern(np.array([0.5, 0.1]), np.array([1.0 + 0j, 2.0]))


def test_total_field_operation_signature(conductive_square_solution):
    _, res = conductive_square_solution
    v = res.field_at(np.array([2.0, 0.5]))
    assert isinstance(v, complex)


def test_point_source_scattering_runs(nested_squares):
    med = NestMedium(nested_squares, q=[2.0, 3.0], lam=[0.5j, 0.0], k=1.0)
    inc = IncidentField("point", location=[3.0, 1.5])
    res = solve_scatter(med, inc, nodes_per_edge=16)
    assert res.converged
    ff = res.far_field(ANGLES)
    assert np.all(np.isfinite(ff.values))
    with pytest.raises(ValueError, match="strictly outside"):
        solve_scatter(med, IncidentField("point", location=[0.2, 0.0]),
                      nodes_per_edge=16)


# ---------------------------------------------------------------- layer operators


_Y1_SERIES_K = np.arange(30)
KINDS = ("S", "K", "Kp", "T")   # stacking order of assemble_block


def _y1_regular(z):
    """Y1(z) + 2/(pi z) for scalar z: full ascending series (A&S 9.1.11) for
    |z| < 2, where subtracting the pole from scipy's Y1 would cancel digits."""
    from scipy.special import digamma, factorial, jv, yv

    if abs(z) >= 2.0:
        return yv(1, z) + 2 / (np.pi * z)
    k = _Y1_SERIES_K
    coef = (digamma(k + 1) + digamma(k + 2)) / (factorial(k) * factorial(k + 1))
    series = coef @ (-(z**2) / 4) ** k
    return 2 / np.pi * np.log(z / 2) * jv(1, z) - z / (2 * np.pi) * series


def _lagrange_basis(tj, t):
    """L_j(t) = prod_{k != j} (t - t_k) / (t_j - t_k), shape (len(t), len(tj))."""
    off = ~np.eye(len(tj), dtype=bool)
    gap = np.where(off, tj[:, None] - tj[None, :], 1.0)
    return np.prod(np.where(off, (np.atleast_1d(t)[:, None, None] - tj) / gap, 1.0), axis=2)


def _ref_kernel(kind, kap, kap2, x, tn, y, sn):
    """Helmholtz kernels from hankel1 alone; T is the difference T(kap) - T(kap2),
    with the 2i/(pi r) parts of kap H1(kap r) cancelled analytically."""
    from scipy.special import hankel1, jv

    d = x - y
    r = np.hypot(*d)
    a, b = d @ tn / r, d @ sn / r
    if kind == "S":
        return 0.25j * hankel1(0, kap * r)
    if kind == "K":
        return 0.25j * kap * hankel1(1, kap * r) * b
    if kind == "Kp":
        return -0.25j * kap * hankel1(1, kap * r) * a

    def kh1_reg(k):
        z = complex(k * r)
        return k * (jv(1, z) + 1j * _y1_regular(z))

    h0 = 0.25j * (kap**2 * hankel1(0, kap * r) - kap2**2 * hankel1(0, kap2 * r))
    h1r = 0.25j * (kh1_reg(kap) - kh1_reg(kap2)) / r
    return h0 * a * b + h1r * (tn @ sn - 2 * a * b)


def _ref_row(kind, kap, kap2, x, tn, panel):
    """Integral of kernel x Lagrange basis over one panel by adaptive quadrature,
    split at the parameter of the point closest to the target."""
    from scipy.integrate import quad_vec

    tj = panel.t_nodes
    ab = panel.b - panel.a
    mid = 0.5 * (panel.a + panel.b)
    t_star = float(np.clip(2 * (x - panel.a) @ ab / (ab @ ab) - 1, -1, 1))

    def integrand(t):
        basis = _lagrange_basis(tj, t)[0]
        y = mid + 0.5 * t * ab
        val = _ref_kernel(kind, kap, kap2, x, tn, y, panel.normal) * 0.5 * panel.length
        return np.concatenate([(val * basis).real, (val * basis).imag])

    pts = [t_star] if -1 < t_star < 1 else None
    res, _ = quad_vec(integrand, -1.0, 1.0, epsabs=1e-13, epsrel=1e-11, points=pts,
                      limit=2000)
    return res[: len(tj)] + 1j * res[len(tj):]


@pytest.mark.parametrize("q", [3.0, 3.0 + 0.2j])
@pytest.mark.parametrize("kind", ["S", "K", "Kp", "T"])
def test_near_block_entries_match_adaptive_quadrature(kind, q):
    from polyscat.forward.layerops import assemble_block

    outer = Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    inner = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    mesh = build_mesh([outer, inner], 24)
    c0, c1 = mesh.curves
    kap = np.sqrt(complex(q))
    kap2 = 1.0 if kind == "T" else None
    per_edge = len(c0.panels) // 4
    cases = [
        # self panel: collocation node on a middle panel of the bottom edge
        (c0, c0, 1, c0.panels[1].start + 3),
        # across the corner (1, -1): first panel of the right edge, last node of the bottom
        (c0, c0, per_edge, per_edge * c0.n_gl - 1),
        # cross curve: inner-square node 0.5 above a middle panel of the outer bottom edge
        (c0, c1, 1, c1.panels[1].start + 2),
    ]
    for src, tgt, pi, row in cases:
        block = assemble_block(kap, src, tgt.nodes, tgt.normals, kappa2=kap2)[KINDS.index(kind)]
        panel = src.panels[pi]
        ref = _ref_row(kind, kap, kap2, tgt.nodes[row], tgt.normals[row], panel)
        got = block[row, panel.start:panel.start + src.n_gl]
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(block)), (pi, row)


def _near_rows_per_target(kind, kap, kap2, src, x, tn):
    """Near-pass rows one target and one panel at a time: the geometric fine
    rule interval by interval and the Lagrange basis by its product formula."""
    from polyscat.forward.layerops import (NEAR_MULT, _FINE_LEVELS, _FINE_N, _FINE_RATIO,
                                           _kernels)
    from polyscat.quadrature import gauss_legendre

    tg, wg = gauss_legendre(_FINE_N)
    fracs = _FINE_RATIO ** np.arange(_FINE_LEVELS, -1, -1.0)
    rows = {}
    for pi, p in enumerate(src.panels):
        ab = p.b - p.a
        for i in range(len(x)):
            s = np.clip((x[i] - p.a) @ ab / (ab @ ab), 0.0, 1.0)
            if np.hypot(*(x[i] - p.a - s * ab)) >= NEAR_MULT * p.length:
                continue
            t_star = 2 * s - 1
            nodes, wts = [], []
            for end in (-1.0, 1.0):
                if abs(end - t_star) < 1e-14:
                    continue
                brk = np.concatenate(([t_star], t_star + (end - t_star) * fracs))
                for lo, hi in zip(brk[:-1], brk[1:]):
                    nodes.append(0.5 * (lo + hi) + 0.5 * abs(hi - lo) * tg)
                    wts.append(0.5 * abs(hi - lo) * wg)
            tf, wf = np.concatenate(nodes), np.concatenate(wts)
            d = x[i] - (0.5 * (p.a + p.b) + 0.5 * tf[:, None] * ab)
            r = np.hypot(d[:, 0], d[:, 1])
            keep = r > 1e-15 * max(1.0, p.length)
            vals = np.zeros(len(tf), dtype=complex)
            kinds = _kernels(kap, kap2, d[keep], r[keep],
                             np.broadcast_to(p.normal, d[keep].shape),
                             None if tn is None else np.broadcast_to(tn[i], d[keep].shape))
            vals[keep] = kinds[KINDS.index(kind)]
            rows[i, pi] = (wf * 0.5 * p.length * vals) @ _lagrange_basis(p.t_nodes, tf)
    return rows


@pytest.mark.parametrize("kap", [np.sqrt(3.0), np.sqrt(3 + 0.2j)])
def test_near_pass_matches_per_target_reference(kap):
    from polyscat.forward.layerops import assemble_block

    outer = Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    inner = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    c0, c1 = build_mesh([outer, inner], 12).curves
    for kind, kap2 in (("S", None), ("K", 1.0), ("Kp", None), ("T", 1.0)):
        for src, tgt in ((c0, c0), (c0, c1)):
            tn = tgt.normals if kind in ("Kp", "T") else None
            block = assemble_block(kap, src, tgt.nodes, tn, kappa2=kap2)[KINDS.index(kind)]
            ref = _near_rows_per_target(kind, kap, kap2, src, tgt.nodes, tn)
            assert ref
            got = np.array([block[i, src.panels[pi].start:src.panels[pi].start + src.n_gl]
                            for i, pi in ref])
            err = np.max(np.abs(got - np.array(list(ref.values()))))
            assert err <= 1e-12 * np.max(np.abs(block)), (kind, src is tgt)
    # without target normals: the same S and K, bit for bit
    for kap2 in (None, 1.0):
        for src, tgt in ((c0, c0), (c0, c1)):
            plain = assemble_block(kap, src, tgt.nodes, kappa2=kap2)
            full = assemble_block(kap, src, tgt.nodes, tgt.normals, kappa2=kap2)
            assert plain.shape == (2, tgt.n_nodes, src.n_nodes)
            assert np.array_equal(plain, full[:2]), (kap2, src is tgt)


def test_hankel_helper_matches_hankel1(monkeypatch):
    from scipy.special import hankel1

    import polyscat.forward.layerops as lo

    z = np.geomspace(1e-8, 200.0, 4001)
    for order in (0, 1):
        for kap in (1.0, 2.5 + 0j, np.sqrt(3.0)):
            r = z / abs(kap)
            ref = hankel1(order, kap * r)
            got = lo._hankel(order, kap, r)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14
    r = z
    calls = []
    monkeypatch.setattr(lo, "hankel1", lambda n, z: calls.append(n) or hankel1(n, z))
    lo._hankel(0, 1.0, r)
    assert calls == []
    kap = np.sqrt(3 + 0.2j)
    assert np.array_equal(lo._hankel(1, kap, r), hankel1(1, kap * r))
    assert calls == [1]


def test_hankel_values_shared_by_all_kinds(monkeypatch):
    """One assemble_block call evaluates each Hankel order of the complex
    wavenumber once per pass: the far pass and each near chunk."""
    from scipy.special import hankel1

    import polyscat.forward.layerops as lo

    outer = Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    inner = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    c0, c1 = build_mesh([outer, inner], 12).curves
    orders, chunks = [], []
    monkeypatch.setattr(lo, "hankel1", lambda n, z: orders.append(n) or hankel1(n, z))
    fine_rule = lo._fine_rule
    monkeypatch.setattr(lo, "_fine_rule", lambda *a: chunks.append(a) or fine_rule(*a))
    for src, tgt in ((c0, c0), (c0, c1)):
        assert 4 * tgt.n_nodes * src.n_nodes <= lo._FAR_BUDGET   # one far chunk
        orders.clear()
        chunks.clear()
        block = lo.assemble_block(np.sqrt(3 + 0.2j), src, tgt.nodes, tgt.normals, kappa2=1.0)
        assert block.shape == (4, tgt.n_nodes, src.n_nodes)
        passes = 1 + len(chunks)
        assert len(chunks) > 0
        assert sorted(orders) == [0] * passes + [1] * passes, src is tgt


INNER_MOVED = [[-0.5 - 0.1 / np.sqrt(2), -0.5 - 0.1 / np.sqrt(2)], [0.5, -0.5], [0.5, 0.5],
               [-0.5, 0.5]]


@pytest.mark.parametrize("target, q, lam, inner", [
    ("lambda:1", [2.0, 3.0], [0.1 + 0.5j, 0.0], None),
    ("lambda:2", [2.0, 3.0], [0.5j, 0.1], None),       # base lambda_2 = 0: new plain block
    ("q:1", [2.1, 3.0], [0.5j, 0.0], None),
    ("q:2", [2.0, 3.1], [0.5j, 0.0], None),
    ("vertex:2:0", [2.0, 3.0], [0.5j, 0.0], INNER_MOVED),
], ids=["lambda:1", "lambda:2", "q:1", "q:2", "vertex:2:0"])
def test_block_store_reuse_is_bitwise(nested_squares, plane_inc, target, q, lam, inner):
    """A perturbed solve reading a copy of the base solve's block store equals
    a fresh solve bit for bit, and leaves the base store as it was."""
    base = NestMedium(nested_squares, q=[2.0, 3.0], lam=[0.5j, 0.0], k=1.0)
    part = nested_squares if inner is None else NestPartition(
        [nested_squares.layers[0], Polygon(inner)])
    med = NestMedium(part, q=q, lam=lam, k=1.0)
    store = {}
    solve_scatter(base, plane_inc, nodes_per_edge=12, blocks=store)
    kept = dict(store)
    reused = solve_scatter(med, plane_inc, nodes_per_edge=12, blocks=dict(store))
    fresh = solve_scatter(med, plane_inc, nodes_per_edge=12)
    assert store.keys() == kept.keys()
    assert all(store[key] is blk for key, blk in kept.items())
    for (phi, psi), (phi0, psi0) in zip(reused.densities, fresh.densities):
        assert phi.tobytes() == phi0.tobytes() and psi.tobytes() == psi0.tobytes()
    assert reused.far_field(ANGLES).values.tobytes() == fresh.far_field(ANGLES).values.tobytes()
