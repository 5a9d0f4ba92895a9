from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest

from polyscat.forward import (FarFieldPattern, assemble_nest, build_mesh, farfield_diff,
                              incident_jumps, solve_assembled, solve_scatter,
                              uniform_directions)
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
        inc1 = IncidentField("plane", direction=d1)
        inc2 = IncidentField("plane", direction=-d2)
        r1 = solve_assembled(system, inc1, incident_jumps(system, inc1))
        r2 = solve_assembled(system, inc2, incident_jumps(system, inc2))
        lhs = _uinf_at(r1, a2)
        rhs = _uinf_at(r2, a1 + np.pi)
        assert abs(lhs - rhs) < 1e-6


def _uinf_at(res, ang):
    from polyscat.forward.layerops import farfield_row

    dirs = np.array([[np.cos(ang), np.sin(ang)]])
    curve, phi, psi = res.layers[0][0]
    fs, fd = farfield_row(curve, res.medium.k, dirs)
    return (fd @ phi + fs @ psi)[0]


@pytest.mark.parametrize("k", [1.0, 1.7])
def test_farfield_row_matches_a_per_direction_loop(nested_squares, k):
    """The (FS, FD) rows on a nest curve and on a cell segment against one
    direction at a time: c e^{-ik d.y} w and its -ik (d.n) multiple."""
    from polyscat.forward.cellsolver import Segment, SegmentCurve
    from polyscat.forward.layerops import farfield_row

    seg = Segment(np.array([0.0, -0.5]), np.array([0.0, 0.5]), 1, 2, np.array([1.0, 0.0]))
    angles = uniform_directions(256)
    c = np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
    for src in (build_mesh(nested_squares.layers, 16).curves[0], SegmentCurve(seg, 32, 3.0)):
        fs, fd = farfield_row(src, k, np.column_stack([np.cos(angles), np.sin(angles)]))
        for j, a in enumerate(angles):
            d = np.array([np.cos(a), np.sin(a)])
            fs_j = c * np.exp(-1j * k * (src.nodes @ d)) * src.weights
            fd_j = -1j * k * (src.normals @ d) * fs_j
            assert np.max(np.abs(fs[j] - fs_j)) <= 1e-15 * np.max(np.abs(fs_j))
            assert np.max(np.abs(fd[j] - fd_j)) <= 1e-15 * np.max(np.abs(fd_j))


def test_farfield_linear_in_amplitude(unit_square):
    med = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.5j], k=1.0)
    mesh = build_mesh([unit_square], 16)
    system = assemble_nest(med, mesh)
    inc1 = IncidentField("plane", direction=[1, 0], amplitude=1.0)
    inc2 = IncidentField("plane", direction=[1, 0], amplitude=2.0)
    r1 = solve_assembled(system, inc1, incident_jumps(system, inc1))
    r2 = solve_assembled(system, inc2, incident_jumps(system, inc2))
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


# Exact transmission solutions: the field of region R is a sum of point
# sources c (i/4) H0(kappa_R |x - z|), each at least 0.45 from the boundary
# of R, so every region field solves its Helmholtz equation and the exterior
# one radiates.  The jumps of these fields across the interfaces are the
# data; the solved layer potentials must reproduce every field and the far
# field of the exterior sources.
OUTER = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
INNER = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]
EXTERIOR_SOURCES = [((0.05, 0.1), 1.0), ((-0.1, -0.05), 0.6 - 0.4j)]
ANNULUS_SOURCES = [((0.0, 0.05), 0.8 + 0.3j), ((3.0, 1.0), -0.5 + 0.7j)]
CORE_SOURCES = [((2.5, -1.5), 0.9 - 0.2j), ((-2.0, 2.2), 0.4 + 0.5j)]
_D = 1e-6 / np.sqrt(2)   # a vertex offset of 1e-6 along the diagonal
# per region: interior points and points 1e-6 from a vertex and from an edge
EXTERIOR_PTS = [(1.7, 0.4), (-2.0, 3.0), (1 + _D, 1 + _D), (1 + 1e-6, 0.3)]
NEST_PTS = [EXTERIOR_PTS,
            [(0.8, 0.1), (-0.7, -0.75), (1 - _D, 1 - _D), (0.5 + _D, 0.5 + _D),
             (1 - 1e-6, 0.3), (0.5 + 1e-6, 0.1)],
            [(0.1, -0.2), (0.5 - _D, 0.5 - _D), (0.5 - 1e-6, 0.1)]]
SINGLE_PTS = [EXTERIOR_PTS, [(0.1, -0.2), (0.8, 0.1), (1 - _D, 1 - _D), (1 - 1e-6, 0.3)]]


def _sources_field(kappa, sources, x):
    """Value and gradient of sum c (i/4) H0(kappa |x - z|) at points x."""
    from scipy.special import hankel1

    u = np.zeros(len(x), dtype=complex)
    grad = np.zeros((len(x), 2), dtype=complex)
    for z, c in sources:
        d = x - np.asarray(z)
        r = np.hypot(d[:, 0], d[:, 1])
        u += c * 0.25j * hankel1(0, kappa * r)
        grad += (c * 0.25j * -kappa * hankel1(1, kappa * r) / r)[:, None] * d
    return u, grad


def _solve_jumps(layers, q, lam, sources, nodes_per_edge):
    """Solution of the nest with the jumps of the exact region fields as data:
    f = u_out - u_in and g = dnu u_out + lambda u_out - dnu u_in per interface."""
    med = NestMedium(NestPartition([Polygon(v) for v in layers]), q=q, lam=lam, k=1.0)
    mesh = build_mesh(med.partition.layers, nodes_per_edge)
    system = assemble_nest(med, mesh)
    kap = system["kappas"]
    jumps = []
    for i, curve in enumerate(mesh.curves):
        u_out, g_out = _sources_field(kap[i], sources[i], curve.nodes)
        u_in, g_in = _sources_field(kap[i + 1], sources[i + 1], curve.nodes)
        dnu_out = (g_out * curve.normals).sum(axis=1)
        dnu_in = (g_in * curve.normals).sum(axis=1)
        jumps.append((u_out - u_in, dnu_out + lam[i] * u_out - dnu_in))
    sol = solve_assembled(system, IncidentField("none"), jumps)
    assert sol.converged
    return sol


@pytest.mark.parametrize("layers, q, lam, sources, pts", [
    ([OUTER, INNER], [2.0, 3.0], [0.5j, 0.3 + 0.1j],
     [EXTERIOR_SOURCES, ANNULUS_SOURCES, CORE_SOURCES], NEST_PTS),
    ([OUTER, INNER], [2.0, 3.0], [0.0, 0.0],
     [EXTERIOR_SOURCES, ANNULUS_SOURCES, CORE_SOURCES], NEST_PTS),
    ([OUTER], [2.0], [0.5j], [EXTERIOR_SOURCES, CORE_SOURCES], SINGLE_PTS),
], ids=["nest-conductive", "nest-lambda0", "single-conductive"])
def test_exact_point_source_transmission_solution(layers, q, lam, sources, pts):
    dirs = np.column_stack([np.cos(ANGLES), np.sin(ANGLES)])
    # far field of c (i/4) H0(k |x - z|): c e^{i pi/4} / sqrt(8 pi k) e^{-i k xhat.z}, k = 1
    exact = sum(c * np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi) * np.exp(-1j * dirs @ z)
                for z, c in sources[0])
    errs = []
    for n in (16, 32, 64):
        sol = _solve_jumps(layers, q, lam, sources, n)
        got = sol.far_field(ANGLES).values
        errs.append(np.linalg.norm(got - exact) / np.linalg.norm(exact))
    assert errs[2] <= 2e-9
    assert errs[0] / errs[1] >= 30 and errs[1] / errs[2] >= 30
    for reg, region_pts in enumerate(pts):
        x = np.array(region_pts)
        u = _sources_field(sol.kappas[reg], sources[reg], x)[0]
        assert np.abs(sol.field_at(x) - u).max() <= 1e-7 * np.abs(u).max()


# ---------------------------------------------------------------- layer operators


@lru_cache(maxsize=1)
def _y1_series():
    """Powers and coefficients of the 30-term Y1 series in `_y1_regular`."""
    from scipy.special import digamma, factorial

    k = np.arange(30)
    return k, (digamma(k + 1) + digamma(k + 2)) / (factorial(k) * factorial(k + 1))


KINDS = ("S", "K", "Kp", "T")   # stacking order of assemble_block


class _Panel(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray
    length: float
    start: int              # index of the panel's first node in the mesh
    t_nodes: np.ndarray     # its Gauss nodes on [-1, 1]


def _panels(mesh):
    """Per-panel view of a mesh's arrays, for the one-panel-at-a-time references."""
    from polyscat.quadrature import gauss_legendre

    t = gauss_legendre(mesh.n_gl)[0]
    return [_Panel(a, b, mesh.normals[i * mesh.n_gl], length, i * mesh.n_gl, t)
            for i, (a, b, length) in enumerate(zip(mesh.pa, mesh.pb, mesh.plen))]


def _y1_regular(z):
    """Y1(z) + 2/(pi z) for scalar z: full ascending series (A&S 9.1.11) for
    |z| < 2, where subtracting the pole from scipy's Y1 would cancel digits."""
    from scipy.special import jv, yv

    if abs(z) >= 2.0:
        return yv(1, z) + 2 / (np.pi * z)
    k, coef = _y1_series()
    series = coef @ (-(z**2) / 4) ** k
    return 2 / np.pi * np.log(z / 2) * jv(1, z) - z / (2 * np.pi) * series


def _lagrange_basis(tj, t):
    """L_j(t) = prod_{k != j} (t - t_k) / (t_j - t_k), shape (len(t), len(tj))."""
    off = ~np.eye(len(tj), dtype=bool)
    gap = np.where(off, tj[:, None] - tj[None, :], 1.0)
    return np.prod(np.where(off, (np.atleast_1d(t)[:, None, None] - tj) / gap, 1.0), axis=2)


def _ref_kernel(kind, kap, kap2, x, tn, y, sn):
    """Helmholtz kernels from hankel1 alone; S is the difference S(kap) - S(kap2)
    when kap2 is given, T always the difference T(kap) - T(kap2), with the
    2i/(pi r) parts of kap H1(kap r) cancelled analytically."""
    from scipy.special import hankel1, jv

    d = x - y
    r = np.hypot(*d)
    a, b = d @ tn / r, d @ sn / r
    if kind == "S":
        return 0.25j * (hankel1(0, kap * r) - (0 if kap2 is None else hankel1(0, kap2 * r)))
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


def _ref_row(kind, kap, kap2, x, tn, panel, basis=None):
    """Integral of kernel x Lagrange basis over one panel by adaptive quadrature.

    `kind` and `kap2` may be tuples, for one row per (kind, kap2) from one
    adaptive quadrature, and `basis` (t -> values) replaces the panel's
    Lagrange basis.  The integrand is taken in s = t - t*, t* the parameter
    of the panel point c closest to the target, with x - c formed once, so
    that x - y stays exact near c.  A target on the panel (within 1e-12 of
    its length) splits it at t*; any other, at distance delta from c (in
    units of t), has each side of t* integrated in u with s = +-delta
    sinh(u), which leaves the near-singular integrand smooth."""
    from scipy.integrate import quad_vec

    kinds = [(kind, kap2)] if isinstance(kind, str) else list(zip(kind, kap2))
    basis = basis or (lambda t: _lagrange_basis(panel.t_nodes, t)[0])
    ab = panel.b - panel.a
    t_star = float(np.clip(2 * (x - panel.a) @ ab / (ab @ ab) - 1, -1, 1))
    xc = x - (0.5 * (panel.a + panel.b) + 0.5 * t_star * ab)
    delta = 2 * np.hypot(*xc) / panel.length

    def integrand(s):
        val = np.array([_ref_kernel(k, kap, k2, xc, tn, 0.5 * s * ab, panel.normal)
                        for k, k2 in kinds])
        v = np.multiply.outer(0.5 * panel.length * val, basis(t_star + s)).ravel()
        return np.concatenate([v.real, v.imag])

    opts = dict(epsabs=1e-13, epsrel=1e-11, limit=2000)
    if delta <= 2e-12:
        pts = [0.0] if -1 < t_star < 1 else None
        res = quad_vec(integrand, -1.0 - t_star, 1.0 - t_star, points=pts, **opts)[0]
    else:
        res = 0
        for side in (-1.0, 1.0):
            span = abs(side - t_star)
            if span:
                res = res + quad_vec(
                    lambda u: integrand(side * delta * np.sinh(u)) * delta * np.cosh(u),
                    0.0, np.arcsinh(span / delta), **opts)[0]
    n = len(res) // 2
    out = (res[:n] + 1j * res[n:]).reshape(len(kinds), -1)
    return out[0] if isinstance(kind, str) else out


@pytest.mark.parametrize("q", [3.0, 3.0 + 0.2j])
@pytest.mark.parametrize("kind", ["S", "S-diff", "K", "Kp", "T"])
def test_near_block_entries_match_adaptive_quadrature(kind, q):
    """Near entries against adaptive quadrature on the 24- and the 8-nodes/edge
    nested squares (n_gl = 8 and 4); T is the difference T(kap) - T(1)."""
    from polyscat.forward.layerops import _OWN_M, assemble_block
    from polyscat.quadrature import gauss_legendre

    outer = Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    inner = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    kap = np.sqrt(complex(q))
    kap2 = 1.0 if kind in ("S-diff", "T") else None
    kind = kind.removesuffix("-diff")
    for nodes_per_edge in (24, 8):
        c0, c1 = build_mesh([outer, inner], nodes_per_edge).curves
        panels = _panels(c0)
        per_edge = len(panels) // 4
        own = panels[1]
        # two more targets inside a middle panel of the bottom edge: at t = 0.3,
        # off every node, and exactly on a node of the product rule
        extra = [own.a + (0.5 + 0.5 * t) * (own.b - own.a)
                 for t in (0.3, gauss_legendre(_OWN_M)[0][5])]
        pts, nrm = np.vstack([c0.nodes, extra]), np.vstack([c0.normals, [own.normal] * 2])
        cases = [
            # self panel: collocation node on a middle panel of the bottom edge
            (pts, nrm, 1, own.start + 3),
            # across the corner (1, -1): first panel of the right edge, last node of the bottom
            (pts, nrm, per_edge, per_edge * c0.n_gl - 1),
            # self panel, off the collocation nodes and on a product-rule node
            (pts, nrm, 1, c0.n_nodes),
            (pts, nrm, 1, c0.n_nodes + 1),
            # cross curve: inner-square node 0.5 above a middle panel of the outer bottom edge
            (c1.nodes, c1.normals, 1, c1.n_gl + 2),
        ]
        for x, tn, pi, row in cases:
            block = assemble_block(kap, c0, x, tn, kappa2=kap2)[KINDS.index(kind)]
            panel = panels[pi]
            ref = _ref_row(kind, kap, kap2, x[row], tn[row], panel)
            got = block[row, panel.start:panel.start + c0.n_gl]
            err = np.max(np.abs(got - ref))
            assert err <= 1e-11 * np.max(np.abs(block)), (nodes_per_edge, pi, row)


def _own_log_weights(t0, m):
    """Integrals of log|t - t0| times each Lagrange basis polynomial of the
    m Gauss nodes over [-1, 1]: 200 Gauss points on each side of t0 after
    t = t0 + (end - t0) u^6, which leaves a bounded smooth-enough integrand."""
    from polyscat.quadrature import gauss_legendre

    tj, _ = gauss_legendre(m)
    u, wu = gauss_legendre(200)
    u, wu = 0.5 * (u + 1), 0.5 * wu
    total = 0.0
    for end in (-1.0, 1.0):
        span = abs(end - t0)
        t = t0 + (end - t0) * u**6
        total = total + (wu * span * 6 * u**5 * np.log(span * u**6)) @ _lagrange_basis(tj, t)
    return total


def _own_panel_row(kind, kap, kap2, p, x, tn):
    """Product-rule row of a target x inside panel p: kernel = A log|t - t0| + B~
    with A in closed form from scipy's jv, B~ sampled at the Gauss nodes."""
    from scipy.special import jv

    from polyscat.forward.layerops import _OWN_M, _kernels
    from polyscat.quadrature import gauss_legendre

    if kind in ("K", "Kp"):
        return np.zeros(len(p.t_nodes), dtype=complex)
    ab = p.b - p.a
    t0 = 2 * (x - p.a) @ ab / (ab @ ab) - 1
    to, wo = gauss_legendre(_OWN_M)
    d = x - (0.5 * (p.a + p.b) + 0.5 * to[:, None] * ab)
    r = np.hypot(d[:, 0], d[:, 1])
    vals = _kernels(kap, kap2, d.T, r, p.normal, tn)[KINDS.index(kind)]
    k2 = 0.0 if kap2 is None else kap2
    if kind == "S":
        a = -(jv(0, kap * r) - (0.0 if kap2 is None else jv(0, k2 * r))) / (2 * np.pi)
    else:
        a = -(kap * jv(1, kap * r) - k2 * jv(1, k2 * r)) / (2 * np.pi * r) * (p.normal @ tn)
    smooth = vals - a * np.log(np.abs(to - t0))
    c = 0.5 * p.length * (wo * smooth + _own_log_weights(t0, _OWN_M) * a)
    return c @ _lagrange_basis(p.t_nodes, to)


def _near_rows_per_target(kind, kap, kap2, src, x, tn):
    """Near-pass rows one target and one panel at a time: on the target's own
    panel the product rule; elsewhere the least single Gauss rule on the
    whole panel whose bound rho^(-2n) meets the rule's epsilon, rho =
    |z + sqrt(z - 1) sqrt(z + 1)| for the target's panel coordinate z, and
    past the largest size the geometric fine rule with its level count sized
    to the distance, interval by interval; the Lagrange basis by its product
    formula."""
    from polyscat.forward.layerops import (_FINE_LEVELS, _FINE_N, _FINE_RATIO, _NEAR_FRAC,
                                           _RULE_EPS, _SINGLE_SIZES, NEAR_MULT, _kernels)
    from polyscat.quadrature import gauss_legendre

    tg, wg = gauss_legendre(_FINE_N)
    rows = {}
    for pi, p in enumerate(_panels(src)):
        ab = p.b - p.a
        for i in range(len(x)):
            s = np.clip((x[i] - p.a) @ ab / (ab @ ab), 0.0, 1.0)
            dist = np.hypot(*(x[i] - p.a - s * ab))
            if dist >= NEAR_MULT * p.length:
                continue
            t_star = 2 * s - 1
            if dist <= 1e-14 * p.length and abs(t_star) < 1:
                rows[i, pi] = _own_panel_row(kind, kap, kap2, p, x[i],
                                             None if tn is None else tn[i])
                continue
            rel = x[i] - 0.5 * (p.a + p.b)
            z = complex(rel @ ab, abs(ab[0] * rel[1] - ab[1] * rel[0])) * 2 / (ab @ ab)
            rho = abs(z + np.sqrt(z - 1) * np.sqrt(z + 1))
            n = np.ceil(np.log(1 / _RULE_EPS) / (2 * np.log(rho))) if rho > 1 else np.inf
            fits = [size for size in _SINGLE_SIZES if size >= n]
            if fits:
                tf, wf = gauss_legendre(fits[0])
            else:
                nodes, wts = [], []
                for end in (-1.0, 1.0):
                    if abs(end - t_star) < 1e-14:
                        continue
                    span = 0.5 * p.length * abs(end - t_star)
                    levels = _FINE_LEVELS
                    if dist > 0:
                        ratio = np.log(_NEAR_FRAC * dist / span) / np.log(_FINE_RATIO)
                        levels = int(np.clip(np.ceil(ratio), 0, _FINE_LEVELS))
                    fracs = _FINE_RATIO ** np.arange(levels, -1, -1.0)
                    brk = np.concatenate(([t_star], t_star + (end - t_star) * fracs))
                    for lo, hi in zip(brk[:-1], brk[1:]):
                        nodes.append(0.5 * (lo + hi) + 0.5 * abs(hi - lo) * tg)
                        wts.append(0.5 * abs(hi - lo) * wg)
                tf, wf = np.concatenate(nodes), np.concatenate(wts)
            d = x[i] - (0.5 * (p.a + p.b) + 0.5 * tf[:, None] * ab)
            r = np.hypot(d[:, 0], d[:, 1])
            vals = _kernels(kap, kap2, d.T, r, p.normal, None if tn is None else tn[i])
            rows[i, pi] = (wf * 0.5 * p.length * vals[KINDS.index(kind)]) @ _lagrange_basis(
                p.t_nodes, tf)
    return rows


def _rule_grid(eps, sizes):
    """Targets around the panel [(0, 0), (1, 0)] (length 1), which ends at a
    right-angle corner with the edge up to (1, 2): (points, the regime each
    was placed for: a rule size, 0 for the geometric rule, None for any)."""
    def on_normal(n):      # through the midpoint, where the rule needs n points
        return [0.5, 0.5 * np.sinh(np.log(1 / eps) / (2 * n))]

    def on_line(n):        # on the panel's line past its end
        return [0.5 + 0.5 * np.cosh(np.log(1 / eps) / (2 * n)), 0.0]

    grid = [([0.5, y], None) for y in np.geomspace(1e-8, 1.49, 8)]           # beside the middle
    grid += [([0.9, 1e-6], 0), ([0.2, 0.02], 0), ([0.8, 0.4], None)]         # beside, off centre
    grid += [([x, 0.0], None) for x in (-1e-6, -0.4, 1 + 1e-6, 1.3, 2.45)]  # past each end
    grid += [([1.0, y], None) for y in (1e-6, 0.03, 0.6)]                    # across the corner
    grid += [([0.99, 0.01], 0), ([1.2, 0.3], None)]
    for n in sizes:        # just inside each size, and just past the largest
        grid += [(on_normal(n * (1 - 1e-6)), n), (on_line(n * (1 - 1e-6)), n)]
    grid += [(on_normal(sizes[-1] * (1 + 1e-6)), 0), (on_line(sizes[-1] * (1 + 1e-6)), 0)]
    pts, regime = zip(*grid)
    return np.array(pts, dtype=float), regime


@pytest.mark.parametrize("kap", [np.sqrt(3.0), np.sqrt(3 + 0.2j)])
def test_near_rule_regimes_match_adaptive_quadrature(kap):
    """Near rows of every rule regime against adaptive quadrature, within 1e-11
    of the block's largest entry: targets from 1e-8 to 1.49 panel lengths
    beside one panel, on its line past each end and across its corner, just
    inside each single-rule size and just past the largest; n_gl = 4, 6, 8;
    S, K, Kp and the T difference.  The references integrate the kernels
    against Legendre polynomials once per target, shared by the three n_gl,
    whose meshes have the same panel."""
    from polyscat.forward.layerops import (_RULE_EPS, _SINGLE_SIZES, _single_sizes,
                                           assemble_block)
    from polyscat.forward.mesh import CurveMesh

    x, regime = _rule_grid(_RULE_EPS, _SINGLE_SIZES)
    tn = np.broadcast_to([0.6, 0.8], x.shape)
    edges = [([-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]), ([1.0, 0.0], [1.0, 2.0], [1.0, 0.0])]
    meshes = [CurveMesh(edges, 2 * n_gl, 3.0) for n_gl in (4, 6, 8)]
    panel = _panels(meshes[-1])[1]
    got = _single_sizes(x - panel.a, np.broadcast_to(panel.b - panel.a, x.shape))
    assert all(want is None or n == want for n, want in zip(got, regime))
    assert set(got) == {0, *_SINGLE_SIZES}
    legendre = lambda t: np.polynomial.legendre.legvander(t, 7)[0]   # noqa: E731
    kinds, kap2 = ("S", "K", "Kp", "T"), (None, None, None, 1.0)
    ref = np.array([_ref_row(kinds, kap, kap2, xi, ti, panel, legendre)
                    for xi, ti in zip(x, tn)])                     # (targets, kinds, 8)
    for mesh in meshes:
        n_gl = mesh.n_gl
        p = _panels(mesh)[1]
        assert np.array_equal(p.a, panel.a) and np.array_equal(p.b, panel.b)
        # Lagrange basis of the panel nodes in Legendre polynomials
        coeffs = np.linalg.inv(np.polynomial.legendre.legvander(p.t_nodes, n_gl - 1))
        blocks = [*assemble_block(kap, mesh, x, tn)[:3], assemble_block(kap, mesh, x, tn, 1.0)[3]]
        for k, block in enumerate(blocks):
            err = np.abs(block[:, p.start:p.start + n_gl] - ref[:, k, :n_gl] @ coeffs)
            assert err.max() <= 1e-11 * np.abs(block).max(), (n_gl, kinds[k], err.argmax())


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
            got = np.array([block[i, pi * src.n_gl:(pi + 1) * src.n_gl]
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
    wavenumber once per pass: the far pass and each near batch or chunk."""
    from scipy.special import hankel1

    import polyscat.forward.layerops as lo

    outer = Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    inner = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    c0, c1 = build_mesh([outer, inner], 12).curves
    orders, passes = [], []
    monkeypatch.setattr(lo, "hankel1", lambda n, z: orders.append(n) or hankel1(n, z))
    kernels = lo._kernels
    monkeypatch.setattr(lo, "_kernels", lambda *a: passes.append(a[3].shape) or kernels(*a))
    for src, tgt in ((c0, c0), (c0, c1)):
        assert 4 * tgt.n_nodes * src.n_nodes <= lo._FAR_BUDGET   # one far chunk
        orders.clear()
        passes.clear()
        block = lo.assemble_block(np.sqrt(3 + 0.2j), src, tgt.nodes, tgt.normals, kappa2=1.0)
        assert block.shape == (4, tgt.n_nodes, src.n_nodes)
        near = passes[1:]
        assert passes[0] == (tgt.n_nodes, src.n_nodes) and near
        # near batches and chunks hold whole pairs: each at most one pair (2 x 170 nodes)
        # past the chunk size; fixed layouts are (nodes, pairs) planes, geometric ones flat
        assert all(len(shape) in (1, 2) and np.prod(shape) < lo._NEAR_CHUNK + 340
                   for shape in near)
        assert sorted(orders) == [0] * len(passes) + [1] * len(passes), src is tgt


def _near_pair_count(src, tgt_pts):
    from polyscat.forward.layerops import NEAR_MULT

    count = 0
    for p in _panels(src):
        ab = p.b - p.a
        s = np.clip((tgt_pts - p.a) @ ab / (ab @ ab), 0.0, 1.0)
        count += np.sum(np.hypot(*(tgt_pts - p.a - s[:, None] * ab).T) < NEAR_MULT * p.length)
    return int(count)


def test_near_pass_kernel_points_fit_the_distance(nested_squares, monkeypatch):
    """The near pass evaluates at least 3x fewer kernel points than a fixed
    16-level rule (2 sides x 17 sub-intervals x 10 points per near pair) on
    the 24-nodes/edge nested squares, at most two thirds of the points of
    the geometric rule on every off-panel pair (23,872 / 23,360 / 4,000 /
    23,872), and exactly the points of the rule sized by each pair's
    Bernstein ellipse."""
    import polyscat.forward.layerops as lo

    c0, c1 = build_mesh(list(nested_squares.layers), 24).curves
    points = []
    kernels = lo._kernels
    monkeypatch.setattr(lo, "_kernels", lambda *a: points.append(a[3].size) or kernels(*a))
    counts = {(0, 0): (14912, 23872), (0, 1): (8832, 23360), (1, 0): (1632, 4000),
              (1, 1): (14912, 23872)}
    for (i, j), (count, geometric) in counts.items():
        src, tgt = (c0, c1)[i], (c0, c1)[j]
        points.clear()
        lo.assemble_block(np.sqrt(2.0), src, tgt.nodes, tgt.normals, kappa2=1.0)
        near_points = sum(points) - tgt.n_nodes * src.n_nodes   # minus the far pass
        assert near_points == count, (i, j)
        assert 3 * near_points <= 2 * geometric, (i, j)
        assert 3 * near_points <= 2 * 170 * _near_pair_count(src, tgt.nodes), (i, j)


def _near_pass_cases():
    """(kappa, kappa2, source curve, targets, target normals, kinds, plain) per
    case: the outer self group of the nested squares at 24 and 12 nodes/edge
    with lambda != 0 (the difference and the plain S, K, Kp), the plain self
    block (NaN T on own panels), a cross pair each way, the stacked targets
    of the left cell of a split square at 64 nodes/edge on each of its
    segments, the self group of a 32-gon at 8 nodes/edge, and field points:
    one on the line of an edge past the corner, one just off a corner, one
    near an edge."""
    from polyscat.forward.cellsolver import SegmentCurve, build_skeleton
    from polyscat.geometry import CellPartition

    sq = lambda a, b, c, d: Polygon([[a, b], [c, b], [c, d], [a, d]])   # noqa: E731
    squares = [sq(-1, -1, 1, 1), sq(-0.5, -0.5, 0.5, 0.5)]
    c0, c1 = build_mesh(squares, 24).curves
    coarse = build_mesh(squares, 12).curves[0]   # 6 nodes per panel, not 8
    k, k2 = np.sqrt(3 + 0.2j), 1.0
    cases = {"self-plain": (k, k2, c0, c0.nodes, c0.normals, 6, True),
             "self-plain-12": (k, k2, coarse, coarse.nodes, coarse.normals, 6, True),
             "self-nan": (k, None, c1, c1.nodes, c1.normals, 4, False),
             "cross": (k, k2, c0, c1.nodes, c1.normals, 4, False),
             "cross-back": (k, None, c1, c0.nodes, c0.normals, 4, False)}
    split = CellPartition([sq(-0.5, -0.5, 0.0, 0.5), sq(0.0, -0.5, 0.5, 0.5)],
                          sq(-0.5, -0.5, 0.5, 0.5))
    segs = build_skeleton(split)
    left = [SegmentCurve(s, 64, 3.0) for s in segs if 1 in (s.owner_a, s.owner_b)]
    x = np.concatenate([c.nodes for c in left])
    for i, c in enumerate(left):
        cases[f"cell-{i}"] = (np.sqrt(2.0), None, c, x, None, 2, False)
    th = 2 * np.pi * np.arange(32) / 32
    disk = build_mesh([Polygon(np.column_stack([np.cos(th), np.sin(th)]))], 8).curves[0]
    cases["disk-self-plain"] = (1.0, 1.7, disk, disk.nodes, disk.normals, 6, True)
    pts = np.array([[1.0, 1.0 + 1e-3], [1.0 + 1e-3, 1.0 + 2e-3], [0.99, 0.3]])
    cases["points"] = (1.0, None, c0, pts, None, 2, False)
    return cases


def test_near_pass_does_not_depend_on_the_chunk(monkeypatch):
    """Every near entry depends only on its own (target, panel) pair: each
    `_near_pass_cases` case writes the same bytes with node chunks of 1
    (one pair per batch or chunk), 24, 100 and the default."""
    import polyscat.forward.layerops as lo

    for name, (kap, kap2, src, x, tn, kinds, plain) in _near_pass_cases().items():
        results = set()
        for chunk in (1, 24, 100, lo._NEAR_CHUNK):
            monkeypatch.setattr(lo, "_NEAR_CHUNK", chunk)
            got = np.zeros((kinds, len(x), src.n_nodes), dtype=complex)
            lo._fix_near(kap, kap2, src, x, tn, got, plain)
            results.add(got.tobytes())
        assert len(results) == 1, name


def test_block_rows_do_not_depend_on_the_other_targets():
    """`assemble_block` gives a target the same row alone as in a batch: field
    points with one near pair each beside the 64-nodes/edge unit square, and
    the collocation rows of a 16-nodes/edge self block with normals and
    kappa2."""
    from polyscat.forward.layerops import _near_pairs, assemble_block

    square = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    c = build_mesh([square], 64).curves[0]
    # off each panel's midpoint by about 1.45 of its lengths along the normal
    rng = np.random.default_rng(5)
    p = rng.integers(0, len(c.plen), 200)
    pts = (0.5 * (c.pa + c.pb)[p] + (rng.uniform(1.4, 1.5, 200) * c.plen[p])[:, None]
           * c.normals[::c.n_gl][p])
    ti = _near_pairs(c.pa, c.pb - c.pa, c.plen, pts)[0]
    pts = pts[np.bincount(ti, minlength=len(pts)) == 1][:40]
    assert len(pts) >= 20
    batch = assemble_block(1.3, c, pts)
    for i, x in enumerate(pts):
        assert assemble_block(1.3, c, x).tobytes() == batch[:, i:i + 1].tobytes(), i
    c = build_mesh([square], 16).curves[0]
    kap = np.sqrt(3 + 0.2j)
    batch = assemble_block(kap, c, c.nodes, c.normals, kappa2=1.0)
    for i in range(c.n_nodes):
        one = assemble_block(kap, c, c.nodes[i], c.normals[i], kappa2=1.0)
        assert one.tobytes() == batch[:, i:i + 1].tobytes(), i


def test_field_values_do_not_depend_on_the_other_points(nested_squares, plane_inc):
    """`field_at` gives a point the same value alone as in a batch, in every
    region of a solved nest and of a solved split-square cell medium, at
    points near the interfaces and away from them."""
    from polyscat.geometry import CellPartition, locate
    from polyscat.medium import CellMedium

    inc = IncidentField("plane", direction=[0.6, 0.8])
    nest = NestMedium(nested_squares, q=[2.0, 3.0 + 0.2j], lam=[0.5j, 0.3], k=1.0)
    sq = lambda a, b, c, d: Polygon([[a, b], [c, b], [c, d], [a, d]])   # noqa: E731
    cells = CellMedium(CellPartition([sq(-0.5, -0.5, 0.0, 0.5), sq(0.0, -0.5, 0.5, 0.5)],
                                     sq(-0.5, -0.5, 0.5, 0.5)),
                       q=[2.0, 3.0 + 0.1j], lambda_star=0.5j, k=1.0)
    rng = np.random.default_rng(7)
    for med, scale in ((nest, 1.0), (cells, 0.5)):
        res = solve_scatter(med, inc, nodes_per_edge=12)
        # uniform points, and points within 2e-2 of an edge
        edge = rng.uniform(-1.0, 1.0, 30) * scale
        pts = np.vstack([rng.uniform(-1.4, 1.4, (30, 2)) * scale,
                         np.column_stack([scale + rng.uniform(-2e-2, 2e-2, 30), edge])])
        pts = pts[[lb.kind != "interface" for lb in locate(med.partition, pts)]]
        assert len({lb.index for lb in locate(med.partition, pts)}) == len(med.q) + 1
        batch = res.field_at(pts)
        alone = np.array([res.field_at(x) for x in pts])
        assert alone.tobytes() == batch.tobytes()


def test_plain_T_is_nan_on_own_panels_and_systems_are_finite(nested_squares, plane_inc,
                                                               monkeypatch):
    import polyscat.forward.solver as solver
    from polyscat.forward.layerops import assemble_block
    from polyscat.geometry import CellPartition
    from polyscat.medium import CellMedium

    c0 = build_mesh(list(nested_squares.layers), 12).curves[0]
    T = assemble_block(np.sqrt(2.0), c0, c0.nodes, c0.normals)[KINDS.index("T")]
    own = np.zeros(T.shape, dtype=bool)
    for i0 in range(0, c0.n_nodes, c0.n_gl):
        own[i0:i0 + c0.n_gl, i0:i0 + c0.n_gl] = True
    assert np.all(np.isnan(T[own])) and np.all(np.isfinite(T[~own]))

    med = NestMedium(nested_squares, q=[2.0, 3.0 + 0.2j], lam=[0.5j, 0.3], k=1.0)
    assert np.all(np.isfinite(assemble_nest(med, build_mesh(list(nested_squares.layers),
                                                            12))["A"]))
    systems = []
    solve = solver.solve_system
    monkeypatch.setattr(solver, "solve_system", lambda A, b: systems.append(A) or solve(A, b))
    hull = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    cells = [Polygon([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]]),
             Polygon([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])]
    solve_scatter(CellMedium(CellPartition(cells, hull), q=[2.0, 3.0], lambda_star=0.5j, k=1.0),
                  plane_inc, nodes_per_edge=12)
    assert len(systems) == 1 and np.all(np.isfinite(systems[0]))


INNER_MOVED = [[-0.5 - 0.1 / np.sqrt(2), -0.5 - 0.1 / np.sqrt(2)], [0.5, -0.5], [0.5, 0.5],
               [-0.5, 0.5]]


def _layer_bytes(result):
    """The bytes of every (phi, psi) of every region's layers."""
    return [[(phi.tobytes(), psi.tobytes()) for _, phi, psi in layer] for layer in result.layers]


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
    assert _layer_bytes(reused) == _layer_bytes(fresh)
    assert reused.far_field(ANGLES).values.tobytes() == fresh.far_field(ANGLES).values.tobytes()


def _reference_nest_matrix(medium, mesh):
    """The nest matrix from one `assemble_block` call per block: the self
    difference block and, where lambda != 0, the plain (S, K) self block of
    each interface, and both cross blocks between neighbours."""
    from polyscat.forward.layerops import assemble_block
    from polyscat.forward.solver import region_wavenumbers

    kap = region_wavenumbers(medium)
    sizes = [c.n_nodes for c in mesh.curves]
    off = np.cumsum([0] + [2 * s for s in sizes])
    span = [(slice(o, o + m), slice(o + m, o + 2 * m)) for o, m in zip(off, sizes)]
    A = np.zeros((off[-1], off[-1]), dtype=complex)
    for i, c in enumerate(mesh.curves):
        (d, n), eye, lam = span[i], np.eye(sizes[i]), medium.lam[i]
        s, k, kp, t = assemble_block(kap[i], c, c.nodes, c.normals, kappa2=kap[i + 1])
        A[d, d], A[d, n], A[n, d], A[n, n] = eye + k, s, t, -eye + kp
        if lam != 0:
            so, ko = assemble_block(kap[i], c, c.nodes)
            A[n, d] += lam * (0.5 * eye + ko)
            A[n, n] += lam * so
        if i >= 1:
            (od, on), prev = span[i - 1], mesh.curves[i - 1]
            s, k, kp, t = assemble_block(kap[i], prev, c.nodes, c.normals)
            A[d, od], A[d, on], A[n, od], A[n, on] = k, s, t + lam * k, kp + lam * s
            s, k, kp, t = assemble_block(kap[i], c, prev.nodes, prev.normals)
            A[od, d], A[od, n], A[on, d], A[on, n] = -k, -s, -t, -kp
    return A


@pytest.mark.parametrize("budget", [None, 3000], ids=["one-far-chunk", "far-chunks"])
def test_nest_blocks_match_per_block_assembly_bitwise(monkeypatch, budget):
    """Every block `assemble_nest` writes equals its own `assemble_block` call
    bit for bit, up to the signs of zeros (== ignores them): on a 3-interface
    nest with complex q, lambda = 0 and lambda != 0 interfaces, with the far
    pass in one chunk or in many uneven ones."""
    import polyscat.forward.layerops as lo
    import polyscat.forward.solver as solver

    if budget is not None:
        monkeypatch.setattr(lo, "_FAR_BUDGET", budget)
        monkeypatch.setattr(lo, "_TRI_ROWS", 7)
    squares = [Polygon([[-a, -a], [a, -a], [a, a], [-a, a]]) for a in (1.0, 0.6, 0.3)]
    med = NestMedium(NestPartition(squares), q=[2.0 + 0.3j, 3.0, 1.5 + 0.2j],
                     lam=[0.5j, 0.0, 0.2 - 0.1j], k=1.0)
    mesh = build_mesh(squares, 10)
    groups = []
    nest_blocks = solver.assemble_nest_blocks
    monkeypatch.setattr(solver, "assemble_nest_blocks",
                        lambda *a: groups.append((a, nest_blocks(*a))) or groups[-1][1])
    A = assemble_nest(med, mesh)["A"]
    # per interface a self group, with its plain block where lambda != 0, and
    # per neighbour pair a cross group
    assert [len(out) for _, out in groups] == [2, 1, 2, 2, 2]
    for (kap, src, tgt, kap2, plain), out in groups:
        ref = [lo.assemble_block(kap, src, tgt.nodes, tgt.normals, kappa2=kap2)]
        if plain:
            ref.append(lo.assemble_block(kap, tgt, tgt.nodes))
        if src is not tgt:
            ref.append(lo.assemble_block(kap, tgt, src.nodes, src.normals))
        assert len(out) == len(ref)
        for got, want in zip(out, ref):
            assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(A, _reference_nest_matrix(med, mesh))


def test_nest_assembly_frees_each_group_before_the_next(monkeypatch):
    """Without a store, `assemble_nest` holds no array of an
    `assemble_nest_blocks` group when the next group's call starts: on a
    3-interface nest, with lambda = 0 and lambda != 0 interfaces."""
    import weakref

    import polyscat.forward.solver as solver

    squares = [Polygon([[-a, -a], [a, -a], [a, a], [-a, a]]) for a in (1.0, 0.6, 0.3)]
    med = NestMedium(NestPartition(squares), q=[2.0, 3.0, 1.5], lam=[0.5j, 0.0, 0.2], k=1.0)
    held, alive_at_start = [], []
    nest_blocks = solver.assemble_nest_blocks

    def watched(*args):
        alive_at_start.append(sum(ref() is not None for ref in held))
        out = nest_blocks(*args)
        held.extend(weakref.ref(a) for a in out)
        return out

    monkeypatch.setattr(solver, "assemble_nest_blocks", watched)
    assemble_nest(med, build_mesh(squares, 8), blocks=None)
    assert len(alive_at_start) == 5 and len(held) == 9
    assert alive_at_start == [0] * 5
    assert all(ref() is None for ref in held)


def test_solve_system_refuses_non_finite_matrices():
    """A NaN or an inf entry is refused with scipy's ValueError, found by the
    1-norm scan alone; a finite matrix solves."""
    from polyscat.forward.solver import solve_system

    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 4 * np.eye(6)
    b = np.ones(6, dtype=complex)
    x, resid, cond, steps, dtype = solve_system(A, b)
    assert np.all(np.isfinite(x)) and resid < 1e-15 and 1.0 <= cond < 1e3
    assert dtype == "complex64" and steps <= 3
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        B = A.copy()
        B[2, 4] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_system(B, b)


def _conditioned(n, cond, seed):
    """A complex n x n matrix of 2-norm condition `cond`: unitary factors
    around geometric singular values from 1 to 1 / cond."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
              for _ in range(2))
    return (q1 * np.geomspace(1.0, 1.0 / cond, n)) @ q2


@pytest.mark.parametrize("case", ["condition-1e10", "entry-1e39"])
def test_solve_system_falls_back_to_the_complex128_lu(case):
    """A system complex64 cannot solve, one of condition 1e10 or one with an
    entry beyond complex64's range, gets the bits of the complex128 LU solve
    and that LU's gecon estimate, with no warning (warnings are errors)."""
    import scipy.linalg as sla

    from polyscat.forward.solver import solve_system

    A = _conditioned(60, 1e10 if case == "condition-1e10" else 10.0, 5)
    if case == "entry-1e39":
        A[7, 11] = 1e39
    b = np.random.default_rng(6).standard_normal(60) + 0j
    x, resid, cond, steps, dtype = solve_system(A, b)
    lu, piv = sla.lu_factor(A)
    rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, np.linalg.norm(A, 1))
    assert dtype == "complex128" and steps == 0
    assert x.tobytes() == sla.lu_solve((lu, piv), b).tobytes()
    assert cond == 1.0 / rcond


def test_solve_system_refines_to_double_accuracy():
    """Up to condition 1e6 the complex64 LU refines to the complex128 LU's
    solution, within the condition times double rounding."""
    import scipy.linalg as sla

    from polyscat.forward.solver import solve_system

    for cond in (1e2, 1e4, 1e6):
        A = _conditioned(60, cond, 7)
        b = np.random.default_rng(8).standard_normal(60) + 0j
        x, resid, est, steps, dtype = solve_system(A, b)
        ref = sla.lu_solve(sla.lu_factor(A), b)
        assert dtype == "complex64" and 1 <= steps <= 5
        assert np.linalg.norm(x - ref) <= 60 * cond * 2.0**-53 * np.linalg.norm(ref)
        assert 0.1 * cond <= est <= 100 * cond


def _hankel_points(monkeypatch):
    """Count the Hankel points that `layerops` evaluates, as {"far": ...,
    "near": ...}: a point is near while `_fix_near` runs, far otherwise."""
    import polyscat.forward.layerops as lo

    points, in_near = {"far": 0, "near": 0}, []
    hankel, fix_near = lo._hankel, lo._fix_near

    def counted(order, kappa, r):
        points["near" if in_near else "far"] += r.size
        return hankel(order, kappa, r)

    def near(*args):
        in_near.append(True)
        try:
            return fix_near(*args)
        finally:
            in_near.pop()

    monkeypatch.setattr(lo, "_hankel", counted)
    monkeypatch.setattr(lo, "_fix_near", near)
    return points


def _triangle(n, rows):
    """The pairs of one triangle of an n x n self block with the diagonal
    tiles of its chunks of `rows` rows."""
    return sum((min(i0 + rows, n) - i0) * (n - i0) for i0 in range(0, n, rows))


def test_nest_assembly_evaluates_each_far_hankel_value_once(nested_squares, monkeypatch):
    """On a 2-interface nest with lambda_1 != 0, per (target, source node)
    pair the far passes of one assembly take 6 Hankel values, against 12
    for one `assemble_block` call per block plus H0 and H1 of kappa_0 on one
    triangle for the plain self block (its targets are its own nodes): H0
    and H1 of kappa_0 and kappa_1 on one triangle of the outer self pairs
    (shared with the plain block), of kappa_1 once for both cross blocks,
    and of kappa_1 and kappa_2 on one triangle of the inner self pairs.
    Only the diagonal tiles of the triangle's row chunks are extra.  The
    plain block's near pass adds no Hankel value either."""
    import polyscat.forward.layerops as lo
    from polyscat.forward.solver import region_wavenumbers

    med = NestMedium(nested_squares, q=[2.0, 3.0 + 0.1j], lam=[0.5j, 0.0], k=1.0)
    mesh = build_mesh(list(nested_squares.layers), 12)
    (c0, c1), (k0, k1, k2) = mesh.curves, region_wavenumbers(med)
    n = c0.n_nodes
    assert c1.n_nodes == n
    points = _hankel_points(monkeypatch)
    for block in ((k0, c0, c0.nodes, c0.normals, k1), (k0, c0, c0.nodes, None, None),
                  (k1, c0, c1.nodes, c1.normals, None), (k1, c1, c0.nodes, c0.normals, None),
                  (k1, c1, c1.nodes, c1.normals, k2)):
        lo.assemble_block(*block[:4], kappa2=block[4])
    assert points["far"] == 12 * n * n + 2 * _triangle(n, lo._TRI_ROWS)
    for rows in (1, lo._TRI_ROWS):
        monkeypatch.setattr(lo, "_TRI_ROWS", rows)
        points.update(far=0, near=0)
        assemble_nest(med, mesh)
        tri = _triangle(n, rows)
        assert points["far"] == 2 * 4 * tri + 2 * n * n, rows
        assert rows > 1 or points["far"] == 6 * n * n + 4 * n
    # the plain block's near pass rides on the difference block's
    points.update(far=0, near=0)
    lo.assemble_nest_blocks(k0, c0, c0, k1, True)
    shared = points["near"]
    points.update(far=0, near=0)
    lo.assemble_block(k0, c0, c0.nodes, c0.normals, kappa2=k1)
    assert shared == points["near"] > 0


def _cell_regions(nodes_per_edge):
    """(kappa, source curve, targets) of each `assemble_cell` region block of
    a split square (q = 2, 3 + 0.1i) and of a T-junction (q = 2, 3 + 0.2i,
    1.5), both with lambda* = 0.5i and k = 1."""
    from unittest import mock

    import polyscat.forward.cellsolver as cs
    from polyscat.forward.cellsolver import assemble_cell
    from polyscat.geometry import CellPartition
    from polyscat.medium import CellMedium

    sq = lambda a, b, c, d: Polygon([[a, b], [c, b], [c, d], [a, d]])   # noqa: E731
    hull = sq(-0.5, -0.5, 0.5, 0.5)
    split = CellPartition([sq(-0.5, -0.5, 0.0, 0.5), sq(0.0, -0.5, 0.5, 0.5)], hull)
    tee = CellPartition([sq(-0.5, -0.5, 0.0, 0.5), sq(0.0, 0.0, 0.5, 0.5),
                         sq(0.0, -0.5, 0.5, 0.0)], hull)
    calls = []
    block = cs.assemble_block
    with mock.patch.object(cs, "assemble_block", lambda *a: calls.append(a) or block(*a)):
        for part, q in ((split, [2.0, 3.0 + 0.1j]), (tee, [2.0, 3.0 + 0.2j, 1.5])):
            assemble_cell(CellMedium(part, q=q, lambda_star=0.5j, k=1.0), nodes_per_edge)
    assert len(calls) == 7
    return calls


def test_cell_region_far_pass_evaluates_one_triangle(monkeypatch):
    """A cell region's block takes the region's own nodes as targets, so its
    far pass evaluates H0 and H1 on one triangle of pairs and the diagonal
    tiles of its row chunks, counted as in
    `test_nest_assembly_evaluates_each_far_hankel_value_once`, and its near
    pass is that of the same targets in two halves."""
    import polyscat.forward.layerops as lo

    regions = _cell_regions(16)
    points = _hankel_points(monkeypatch)
    for rows in (1, 7, lo._TRI_ROWS):
        monkeypatch.setattr(lo, "_TRI_ROWS", rows)
        for kap, src, x in regions:
            n = src.n_nodes
            assert x is src.nodes and 3 * n * lo._TRI_ROWS <= lo._FAR_BUDGET
            points.update(far=0, near=0)
            lo.assemble_block(kap, src, x)
            far, near = points["far"], points["near"]
            points.update(far=0, near=0)
            for half in (x[:n // 2], x[n // 2:]):
                lo.assemble_block(kap, src, half)
            assert far == 2 * _triangle(n, rows) < points["far"] == 2 * n * n, (rows, n)
            assert near == points["near"] > 0


@pytest.mark.parametrize("kap", [np.sqrt(2.0), np.sqrt(3 + 0.2j)], ids=["sqrt2", "complex"])
@pytest.mark.parametrize("budget", [None, 3000], ids=["default-chunks", "uneven-chunks"])
def test_own_node_blocks_equal_the_rectangle_bitwise(monkeypatch, kap, budget):
    """With targets equal to its own nodes and no target normals,
    `assemble_block` (one triangle of far pairs) equals the rectangle bit
    for bit, signs of zeros included, on every region of a split square and
    of a T-junction, with and without kappa2.  The reference passes the
    targets in two halves, which takes the rectangle, since a row does not
    depend on the other targets of its call."""
    import polyscat.forward.layerops as lo

    regions = _cell_regions(16)
    if budget is not None:
        monkeypatch.setattr(lo, "_FAR_BUDGET", budget)
        monkeypatch.setattr(lo, "_TRI_ROWS", 7)
    for _, src, x in regions:
        h = src.n_nodes // 2 + 1
        for kap2 in (None, 1.0):
            got = lo.assemble_block(kap, src, x, kappa2=kap2)
            ref = np.concatenate([lo.assemble_block(kap, src, x[:h], kappa2=kap2),
                                  lo.assemble_block(kap, src, x[h:], kappa2=kap2)], axis=1)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), kap2


def test_self_block_rows_with_shared_t_star_equal_per_target_rows():
    """On a 32-gon self block, where many own-panel pairs share the closest
    point t* (by bits) and so share one column of product-rule log weights,
    every row equals its own single-target `assemble_block` row bit for bit:
    with target normals and kappa2, and on own nodes without normals."""
    from polyscat.forward.layerops import _OWN_TOL, _near_pairs, assemble_block

    th = 2 * np.pi * np.arange(32) / 32
    c = build_mesh([Polygon(np.column_stack([np.cos(th), np.sin(th)]))], 8).curves[0]
    ti, pi, t_star, dist = _near_pairs(c.pa, c.pb - c.pa, c.plen, c.nodes)
    own = (dist <= _OWN_TOL * c.plen[pi]) & (np.abs(t_star) < 1.0)
    assert own.sum() == c.n_nodes
    assert 2 * len(np.unique(t_star[own].view(np.int64))) <= own.sum()
    kap = np.sqrt(3 + 0.2j)
    for tn, kap2 in ((c.normals, 1.7), (None, None)):
        block = assemble_block(kap, c, c.nodes, tn, kappa2=kap2)
        for i in range(c.n_nodes):
            one = assemble_block(kap, c, c.nodes[i], None if tn is None else tn[i], kappa2=kap2)
            assert one.tobytes() == block[:, i:i + 1].tobytes(), (i, kap2)
