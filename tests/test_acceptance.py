"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configured.

Criterion 2 note: the tail-decay inequality is asserted over the full
(sector, s, h) grid with its published prefactor, which is provably valid
only for large delta_W*sqrt(h*s); on most of this grid the quadrature of
the left side exceeds the bound, so the criterion fails honestly.  The
analysis and the sharp-prefactor variant that does hold everywhere live in
cgo.tail_bound_sharp and the cgo module notes; see also
tests/test_cgo.py::test_published_tail_bound_fails_at_small_arguments.
"""

import time

import numpy as np
from scipy.integrate import quad as scipy_quad

from polyscat import cgo, probe
from polyscat.forward import (assemble_nest, build_mesh, disk_series_oracle,
                              farfield_diff, incident_jumps, solve_assembled,
                              solve_scatter, uniform_directions)
from polyscat.forward.layerops import farfield_row
from polyscat.geometry import NestPartition, Polygon, corner_sectors
from polyscat.medium import IncidentField, NestMedium

SECTORS = [(0.0, np.pi / 2), (-np.pi / 4, np.pi / 4), (-np.pi / 3, np.pi / 6)]
S_GRID = [50.0, 100.0, 200.0, 400.0, 800.0]


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def _ngon(radius, m):
    th = np.arange(m) * 2 * np.pi / m
    return Polygon(np.column_stack([radius * np.cos(th), radius * np.sin(th)]))


def test_criterion_01_cgo_exact_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for tm, tM in SECTORS:
        sec = cgo.SectorSpec(tm, tM)
        for s in (1.0, 10.0, 100.0):
            exact = cgo.sector_integral_exact(sec, s)
            quadr = cgo.sector_integral_quad(sec, s, tol=1e-10 * abs(exact))
            worst = max(worst, abs(quadr.value - exact) / abs(exact))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    assert _report(1, ok, f"sector integral quadrature vs closed form: "
                          f"worst rel err {worst:.2e} (<1e-8), {elapsed:.1f}s (<10s)")


def test_criterion_02_cgo_bounds():
    t0 = time.perf_counter()
    violations = []
    for tm, tM in SECTORS:
        sec = cgo.SectorSpec(tm, tM)
        for alpha in (0.25, 0.5, 0.75):
            for s in (1.0, 10.0, 100.0):
                lhs = cgo.weighted_lhs_quad(sec, alpha, s, tol=1e-9).value
                rhs = cgo.weighted_bound(sec, alpha, s)
                if not lhs <= rhs:
                    violations.append(("weighted", tm, tM, alpha, s, lhs, rhs))
        for s in (1.0, 10.0, 100.0):
            for h in (0.5, 1.0, 2.0):
                lhs = cgo.tail_lhs_quad(sec, s, h, tol=1e-9).value
                rhs = cgo.tail_bound(sec, s, h)
                if not lhs <= rhs:
                    violations.append(("tail", tm, tM, h, s, lhs, rhs))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    detail = (f"weighted+tail bounds on the 27+27 grid: "
              f"{len(violations)} violations, {elapsed:.1f}s (<30s)")
    if violations:
        detail += ("; all violations are the published tail prefactor at small "
                   "delta_W*sqrt(h*s), where it is not a bound (see module notes)")
    assert _report(2, ok, detail), (
        "published tail-decay prefactor fails off its asymptotic regime; "
        f"violating grid points: {[(v[0], v[3], v[4]) for v in violations]}")


def test_criterion_03_edge_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(27):
        theta = rng.uniform(-np.pi + 0.2, np.pi - 0.2)
        s = 10 ** rng.uniform(0, 3)
        h = 10 ** rng.uniform(-1, 0.5)
        m = cgo.mu(theta)
        re, _ = scipy_quad(lambda r: np.exp(-np.sqrt(s * r) * m).real, 0, h,
                           epsabs=1e-13, limit=200)
        im, _ = scipy_quad(lambda r: np.exp(-np.sqrt(s * r) * m).imag, 0, h,
                           epsabs=1e-13, limit=200)
        worst = max(worst, abs(cgo.edge_integral_exact(theta, s, h) - complex(re, im)))
    ok = worst < 1e-10
    assert _report(3, ok, f"edge closed form vs 1D quadrature on 27 random triples: "
                          f"worst abs err {worst:.2e} (<1e-10)")


def test_criterion_04_forward_disk_oracle(plane_inc):
    t0 = time.perf_counter()
    angles = uniform_directions(256)
    oracle = disk_series_oracle([1.0, 0.5], [2.0, 3.0], [0.5j, 0.0], 1.0, [1.0, 0.0],
                                angles=angles)
    errs = {}
    for m in (64, 128):
        med = NestMedium(NestPartition([_ngon(1.0, m), _ngon(0.5, m)]),
                         q=[2.0, 3.0], lam=[0.5j, 0.0], k=1.0)
        res = solve_scatter(med, plane_inc, nodes_per_edge=8)
        errs[m] = farfield_diff(res.far_field(angles), oracle)
    elapsed = time.perf_counter() - t0
    ok = errs[64] < 1e-2 and errs[128] < errs[64] and elapsed < 300.0
    assert _report(4, ok, f"polygonal solver vs disk series: 64-gon err {errs[64]:.2e} "
                          f"(<1e-2), 128-gon err {errs[128]:.2e} (decreasing), "
                          f"{elapsed:.0f}s (<300s)")


def test_criterion_05_zero_contrast(unit_square, plane_inc):
    med = NestMedium(NestPartition([unit_square]), q=[1.0], lam=[0.0], k=1.0)
    res = solve_scatter(med, plane_inc, nodes_per_edge=32)
    sup = float(np.max(np.abs(res.far_field(uniform_directions(256)).values)))
    ok = sup < 1e-10
    assert _report(5, ok, f"zero-contrast far-field sup norm {sup:.2e} (<1e-10)")


def test_criterion_06_reciprocity(unit_square):
    med = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.5j], k=1.0)
    mesh = build_mesh([unit_square], 128)
    system = assemble_nest(med, mesh)

    def uinf(res, ang):
        dirs = np.array([[np.cos(ang), np.sin(ang)]])
        fs, fd = farfield_row(mesh.curves[0], med.k, dirs)
        _, phi, psi = res.layers[0][0]
        return (fd @ phi + fs @ psi)[0]

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        a1, a2 = rng.uniform(0, 2 * np.pi, 2)
        inc1 = IncidentField("plane", direction=[np.cos(a1), np.sin(a1)])
        inc2 = IncidentField("plane", direction=[-np.cos(a2), -np.sin(a2)])
        r1 = solve_assembled(system, inc1, incident_jumps(system, inc1))
        r2 = solve_assembled(system, inc2, incident_jumps(system, inc2))
        worst = max(worst, abs(uinf(r1, a2) - uinf(r2, a1 + np.pi)))
    ok = worst < 1e-6
    assert _report(6, ok, f"reciprocity over 5 direction pairs at mesh 128: "
                          f"worst |diff| {worst:.2e} (<1e-6)")


def test_criterion_07_probe_eta_recovery(eta_scenario, omega_scenario):
    t0 = time.perf_counter()
    res = probe.extract_eta_diff(eta_scenario, S_GRID)
    true = 0.3 + 0.1j
    rel = abs(res.eta_extrapolated - true) / abs(true)
    res0 = probe.extract_eta_diff(omega_scenario, S_GRID)
    mags = np.array([abs(e) for _, e in res0.eta_estimates])
    slope = float(np.polyfit(np.log(S_GRID), np.log(mags), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = rel < 0.01 and -1.1 <= slope <= -0.9 and elapsed < 120.0
    assert _report(7, ok, f"eta recovery rel err {rel:.2e} (<1e-2) after "
                          f"extrapolation; zero-difference decay slope {slope:.3f} "
                          f"(-1 +/- 0.1); {elapsed:.0f}s (<120s)")


def test_criterion_08_probe_omega_recovery(omega_scenario):
    res = probe.extract_omega_diff(omega_scenario, S_GRID, eta_diff=0.0)
    est = dict(res.omega_estimates)[800.0]
    rel = abs(est - 0.5) / 0.5
    ok = rel < 0.02
    assert _report(8, ok, f"omega recovery at s=800: rel err {rel:.2e} (<2e-2)")


def test_criterion_09_identity_closure(eta_scenario):
    worst_ratio = 0.0
    for s in S_GRID:
        resid, qerr, _ = probe.identity_residual(eta_scenario, s, tol=1e-10)
        worst_ratio = max(worst_ratio, resid / max(10 * max(qerr, 1e-10), 1e-300))
    ok = worst_ratio <= 1.0
    assert _report(9, ok, f"assembled identity closes at every s: worst "
                          f"residual/(10 x quadrature tol) = {worst_ratio:.2e} (<=1)")


def test_criterion_10_uniqueness_sweep(nested_squares):
    n = 24
    angles = uniform_directions(256)

    def run(inc):
        base_med = NestMedium(nested_squares, q=[2.0, 3.0], lam=[0.5j, 0.0], k=1.0)
        base = solve_scatter(base_med, inc, nodes_per_edge=n)
        fine = solve_scatter(base_med, inc, nodes_per_edge=2 * n)
        ff = base.far_field(angles)
        floor = farfield_diff(ff, fine.far_field(angles))
        out = {"floor": floor}
        for name, med in [
            ("q2", NestMedium(nested_squares, q=[2.0, 3.1], lam=[0.5j, 0.0], k=1.0)),
            ("lambda1", NestMedium(nested_squares, q=[2.0, 3.0], lam=[0.5j + 0.1, 0.0], k=1.0)),
            ("zero", base_med),
        ]:
            res = solve_scatter(med, inc, nodes_per_edge=n)
            out[name] = farfield_diff(ff, res.far_field(angles))
        return out

    active = run(IncidentField("plane", direction=[1.0, 0.0]))
    passive = run(IncidentField("point", location=[3.0, 1.5]))
    ok = True
    for tag, r in (("active", active), ("passive", passive)):
        ok &= r["q2"] > 10 * r["floor"] and r["lambda1"] > 10 * r["floor"]
        ok &= r["zero"] <= r["floor"] * 1.001 + 1e-15
    assert _report(10, ok,
                   "perturbation discrepancies vs self-calibrated noise floor: "
                   f"active q2 {active['q2']:.1e} / lam1 {active['lambda1']:.1e} "
                   f"vs floor {active['floor']:.1e}; "
                   f"passive q2 {passive['q2']:.1e} / lam1 {passive['lambda1']:.1e} "
                   f"vs floor {passive['floor']:.1e}; zero perturbation at floor")


def test_criterion_11_admissibility(unit_square, plane_inc):
    med = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.5j], k=0.1)
    res = solve_scatter(med, plane_inc, nodes_per_edge=64)
    tau = probe.admissibility_tau(res.field_at(probe.admissibility_points(unit_square)))
    vals = [abs(probe.extrapolate_vertex_value(res.field_at(probe.midline_points(sec)), sec))
            for sec in corner_sectors(unit_square, 0.05)]
    ok = all(v > 0.5 for v in vals) and all(v > tau for v in vals)
    assert _report(11, ok, "low-wavenumber square vertices: |u(x_c)| = "
                           + ", ".join(f"{v:.3f}" for v in vals)
                           + f" (all > 0.5 and > tau={tau:.1e})")
