from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from polyscat import cgo, probe
from polyscat.geometry import CornerSector
from polyscat.probe import (FieldSampler, ProbeScenario, bessel_series_sampler,
                            extract_eta_diff, extract_omega_diff, identity_residual,
                            manufactured_scenario, richardson_extrapolate)
from polyscat.quadrature import edge_u0_integral

S_GRID = [50.0, 100.0, 200.0, 400.0, 800.0]


def const_sampler(c):
    return FieldSampler(lambda pts: (np.full(len(pts), c, dtype=complex),
                                     np.zeros((len(pts), 2), dtype=complex)))


def zero_sampler():
    return const_sampler(0.0)


def power_sampler(alpha):
    def fn(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        vals = r.astype(complex) ** alpha
        rs = np.where(r == 0, 1.0, r)
        grads = (alpha * rs ** (alpha - 2))[:, None] * pts
        grads[r == 0] = 0.0
        return vals, grads
    return FieldSampler(fn)


def I1(v, sector, s, tol=1e-12):
    """The arc functional int_{Lambda_h} (dnu v u0 - dnu u0 v) dsigma."""
    return probe._arc_functional(probe._arc_values(v, sector), sector, s, tol)


def I2(dv, sector, s, tol=1e-11):
    """The area functional int_{S_h} dv(x) u0(s x) dx."""
    return probe._area_functional(partial(dv.on_grid, sector), sector, s, tol)


def I3(u2, sector, s, side, tol=1e-12):
    """(I31, I32) on one edge: the exact edge integral, which u2(0) multiplies,
    and the integral of the remainder u2 - u2(0)."""
    theta = probe._edge(sector, side).theta
    i31 = cgo.edge_integral_exact(theta, s, sector.h)
    edges, row = probe._edge_traces(u2, sector), probe._SIDES.index(side)
    u2_0 = probe.corner_value(u2, sector)
    return i31, edge_u0_integral(theta, s, sector.h, g=lambda r: edges(r)[row] - u2_0,
                                 tol=tol).value


def test_I1_zero_field(quarter_sector):
    assert abs(I1(zero_sampler(), quarter_sector, 100.0).value) == 0.0


def test_I1_constant_field_matches_dense_simpson(quarter_sector):
    from scipy.integrate import simpson

    s = 25.0
    val = I1(const_sampler(1.0), quarter_sector, s).value
    # independent oracle: dense Simpson rule of -dnu u0 over the arc
    th = np.linspace(0.0, np.pi / 2, 4001)
    h = quarter_sector.h
    integrand = -cgo.u0_radial_deriv(h, th, s) * h
    ref = simpson(integrand, x=th)
    assert abs(val - ref) < 1e-10


def test_I1_exponential_decay_in_sqrt_s(quarter_sector):
    sm = bessel_series_sampler(1.4, [1.0, 0.4], [0.0, 0.2], quarter_sector)
    svals = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
    mags = np.array([abs(I1(sm, quarter_sector, s).value) for s in svals])
    # log-linear in sqrt(s): fit and check the decay constant is negative
    slope = np.polyfit(np.sqrt(svals), np.log(mags), 1)[0]
    assert slope < -0.5
    predicted = np.exp(np.polyfit(np.sqrt(svals), np.log(mags), 1)[1]
                       + slope * np.sqrt(svals))
    assert np.all(np.abs(np.log(predicted / mags)) < 1.0)


def test_I2_zero_remainder(quarter_sector):
    assert abs(I2(zero_sampler(), quarter_sector, 100.0).value) == 0.0


def test_I2_power_remainder_within_bound(quarter_sector):
    sec = cgo.SectorSpec(0.0, np.pi / 2)
    dv = power_sampler(0.5)
    for s in (50.0, 200.0, 800.0):
        val = abs(I2(dv, quarter_sector, s).value)
        assert val <= cgo.weighted_bound(sec, 0.5, s)
        assert val * s**2.5 < 2 * cgo.weighted_bound(sec, 0.5, 1.0)


def test_I2_linear_remainder_against_dblquad(quarter_sector):
    from scipy.integrate import dblquad

    def dv(pts):
        return pts[:, 0].astype(complex), np.tile([1.0, 0.0], (len(pts), 1)).astype(complex)

    s = 30.0
    val = I2(FieldSampler(dv), quarter_sector, s).value

    def integrand(r, t, part):
        u0 = np.exp(-np.sqrt(s * r) * np.exp(0.5j * t))
        f = r * np.cos(t) * u0 * r
        return f.real if part == "re" else f.imag

    re, _ = dblquad(lambda r, t: integrand(r, t, "re"), 0, np.pi / 2, 0, 1.0,
                    epsabs=1e-12)
    im, _ = dblquad(lambda r, t: integrand(r, t, "im"), 0, np.pi / 2, 0, 1.0,
                    epsabs=1e-12)
    assert abs(val - complex(re, im)) < 1e-9


def test_I3_constant_field(quarter_sector):
    s = 120.0
    i31, i32 = I3(const_sampler(1.0), quarter_sector, s, "+")
    assert i32 == pytest.approx(0.0, abs=1e-13)
    assert i31 == pytest.approx(cgo.edge_integral_exact(np.pi / 2, s, 1.0))


def test_I3_remainder_scaling(quarter_sector):
    u2 = FieldSampler(lambda pts: (1.0 + np.hypot(pts[:, 0], pts[:, 1]) ** 0.5 + 0j *
                                   pts[:, 0], np.zeros((len(pts), 2), complex)))
    svals = (100.0, 400.0, 1600.0)
    scaled = [abs(I3(u2, quarter_sector, s, "+")[1]) * s ** 1.5
              for s in svals]
    assert max(scaled) / min(scaled) < 3.0


def test_I3_edge_quadrature_against_exact(quarter_sector):
    # constant density: the remainder machinery must reproduce the closed form
    s = 75.0
    from polyscat.quadrature import edge_u0_integral
    q = edge_u0_integral(np.pi / 2, s, 1.0, tol=1e-13)
    assert abs(q.value - cgo.edge_integral_exact(np.pi / 2, s, 1.0)) < 1e-10


def test_I5_zero_and_bound(quarter_sector):
    # the area functional of the u2 remainder, here with Hoelder data
    # (alpha, C_alpha) = (0.5, 1), stays under C_alpha * weighted_bound
    assert I2(zero_sampler(), quarter_sector, 100.0).value == 0.0
    sec = cgo.SectorSpec(0.0, np.pi / 2)
    du2 = power_sampler(0.5)
    for s in (10.0, 100.0):
        assert abs(I2(du2, quarter_sector, s).value) <= 1.0 * cgo.weighted_bound(sec, 0.5, s)


def test_eta_recovery_manufactured(eta_scenario):
    res = extract_eta_diff(eta_scenario, S_GRID)
    true = 0.3 + 0.1j
    assert abs(res.eta_extrapolated - true) / abs(true) < 0.01
    # all residual diagnostics at quadrature level
    assert max(res.residuals) < 1e-8


def test_eta_estimates_decay_when_equal(omega_scenario):
    res = extract_eta_diff(omega_scenario, S_GRID)
    mags = np.array([abs(e) for _, e in res.eta_estimates])
    slope = np.polyfit(np.log(S_GRID), np.log(mags), 1)[0]
    assert -1.1 <= slope <= -0.9


def test_eta_extraction_scale_invariant(eta_scenario, quarter_sector):
    c = 3.7 - 1.2j

    def scaled(sm):
        return FieldSampler(lambda pts: tuple(c * x for x in sm(pts)))

    sc2 = ProbeScenario(quarter_sector, eta_scenario.k, eta_scenario.omega1,
                        eta_scenario.omega2, eta_scenario.eta1, eta_scenario.eta2,
                        scaled(eta_scenario.u1), scaled(eta_scenario.u2))
    e1 = extract_eta_diff(eta_scenario, [100.0]).eta_estimates[0][1]
    e2 = extract_eta_diff(sc2, [100.0]).eta_estimates[0][1]
    assert abs(e1 - e2) < 1e-10


def test_exponential_corrections_matter(eta_scenario):
    """At s = 50 the exact edge integral of each sector edge differs from its
    2/(s mu^2) limit by more than 10x the identity residual, relative to the
    integral, so the extraction has to keep the exponential corrections."""
    sec = eta_scenario.sector
    kept = extract_eta_diff(eta_scenario, [50.0])
    for theta in (sec.theta_m, sec.theta_M):
        exact = cgo.edge_integral_exact(theta, 50.0, sec.h)
        limit = 2.0 / 50.0 * cgo.mu(theta) ** -2
        assert abs(exact - limit) > 10 * max(kept.residuals[0], 1e-12) * abs(exact)


def test_omega_recovery_manufactured(omega_scenario):
    res = extract_omega_diff(omega_scenario, S_GRID, eta_diff=0.0)
    est_800 = dict(res.omega_estimates)[800.0]
    assert abs(est_800 - 0.5) / 0.5 < 0.02


def test_omega_estimates_decay_when_equal(eta_scenario):
    res = extract_omega_diff(eta_scenario, S_GRID,
                             eta_diff=eta_scenario.eta1 - eta_scenario.eta2)
    mags = [abs(e) for _, e in res.omega_estimates]
    assert mags[-1] < 0.02
    assert mags[-1] < mags[0]


def test_omega_k_scaling_invariance(quarter_sector):
    """Doubling k while quartering omega2-omega1 leaves k^2(omega2-omega1) fixed;
    the recovered difference must scale accordingly."""
    sc_a = manufactured_scenario(quarter_sector, 1.0, 2.0 + 0.4, 2.0, 0.3, 0.3)
    sc_b = manufactured_scenario(quarter_sector, 2.0, 2.0 + 0.1, 2.0, 0.3, 0.3)
    ra = extract_omega_diff(sc_a, [200.0, 400.0], eta_diff=0.0)
    rb = extract_omega_diff(sc_b, [200.0, 400.0], eta_diff=0.0)
    assert abs(dict(ra.omega_estimates)[400.0] - 0.4) < 0.01
    assert abs(dict(rb.omega_estimates)[400.0] - 0.1) < 0.01


def test_identity_closure_master(eta_scenario):
    for s in S_GRID:
        resid, qerr, _ = identity_residual(eta_scenario, s, tol=1e-10)
        assert resid <= 10 * max(qerr, 1e-10)


def test_identity_closure_with_omega_contrast(omega_scenario):
    for s in (50.0, 400.0):
        resid, qerr, _ = identity_residual(omega_scenario, s, tol=1e-10)
        assert resid <= 10 * max(qerr, 1e-10)


def test_extraction_requires_nonzero_corner_value(quarter_sector):
    sc = ProbeScenario(quarter_sector, 1.0, 2.0, 2.0, 0.5, 0.2,
                       zero_sampler(), zero_sampler())
    with pytest.raises(ValueError, match="vanishes at the corner"):
        extract_eta_diff(sc, [50.0])


def test_richardson_extrapolation_exact_for_polynomial():
    svals = [50.0, 100.0, 200.0, 400.0]
    target = 0.7 - 0.2j
    ests = [target + (3 + 1j) / s + (5 - 2j) / s**2 for s in svals]
    ex = richardson_extrapolate(svals, ests)
    assert abs(ex.limit - target) < 1e-10
    # degree n-2 data: the degree n-2 fit is exact too, so the estimate vanishes
    assert ex.error < 1e-12


def test_richardson_error_estimate_sees_degree_n_minus_1():
    svals = [50.0, 100.0, 200.0, 400.0]
    target = 0.7 - 0.2j
    ests = [target + (3 + 1j) / s + (5 - 2j) / s**2 + (40 + 9j) / s**3 for s in svals]
    ex = richardson_extrapolate(svals, ests)
    assert abs(ex.limit - target) < 1e-10
    assert ex.error > 1e-8
    one = richardson_extrapolate([100.0], [1 + 1j])
    assert one.limit == 1 + 1j and one.error is None


def _counting(sm, name, log, grid=True):
    """sm with every evaluation logged as (name, kind, nodes): kind "grad"
    or "values" with the points, or "grid" with the (r, t) of a table.
    Without grid, the sampler has no grid form."""

    def fn(pts):
        log.append((name, "grad", pts.copy()))
        return sm(pts)

    def values_fn(pts):
        log.append((name, "values", pts.copy()))
        return sm.values(pts)

    def grid_fn(sector, r, t):
        log.append((name, "grid", (r, t)))
        return sm.grid_fn(sector, r, t)

    return FieldSampler(fn, values_fn=values_fn, grid_fn=grid_fn if grid else None)


def _is_area_grid(pts, apex):
    """Points that spread in r over more angles than the two edges have."""
    r = np.hypot(*(pts - apex).T)
    ang = np.arctan2(*(pts - apex).T[::-1])
    return np.ptp(r) > 1e-9 and np.unique(np.round(ang, 9)).size > 2


@pytest.mark.parametrize("s_grid", [[100.0], S_GRID])
def test_extraction_samples_each_grid_once(eta_scenario, s_grid):
    """Each area level is tabulated once per field through the grid form, or
    sampled once per field at its points when there is none."""
    apex = eta_scenario.sector.apex
    for grid in (True, False):
        log = []
        sc = replace(eta_scenario, u1=_counting(eta_scenario.u1, "u1", log, grid),
                     u2=_counting(eta_scenario.u2, "u2", log, grid))
        probe.extract_both(sc, s_grid)
        for name in ("u1", "u2"):
            tables = [rt for n, kind, rt in log if n == name and kind == "grid"]
            area = [pts for n, kind, pts in log
                    if n == name and kind != "grid" and _is_area_grid(pts, apex)]
            # sector_area_integral refines over three levels
            sizes = [len(r) * len(t) for r, t in tables] if grid else [len(p) for p in area]
            assert not (area if grid else tables)
            assert 1 <= len(sizes) <= 3
            assert len(set(sizes)) == len(sizes)
        # gradients are taken on the arc r = h only
        grad_pts = [pts for _, kind, pts in log if kind == "grad"]
        assert grad_pts
        for pts in grad_pts:
            assert np.allclose(np.hypot(*(pts - apex).T), sc.sector.h, rtol=0, atol=1e-12)


AREA_LEVELS = ((10, 12), (14, 24), (20, 48))   # the levels of sector_area_integral
ROTATED = CornerSector([0.3, -0.2], -2.0, 0.5, 0.7, rotation=2.1)


@pytest.mark.parametrize("kappa", [1.4, np.sqrt(3 + 0.2j)], ids=["real", "complex"])
def test_series_grid_form_is_its_values_at_the_grid_points(quarter_sector, kappa):
    """On every area level of the quarter sector and of a rotated sector off
    the origin, the series sampler's table is its values at the grid's
    points to rounding; it has no table in another frame, nor as a
    world-frame series."""
    from polyscat import quadrature

    a, b = [0.8, 0.3, -0.2, 0.1j], [0.0, 0.4, 0.1j, -0.05]
    for sector in (quarter_sector, ROTATED):
        sm = bessel_series_sampler(kappa, a, b, sector)
        for lv in AREA_LEVELS:
            rule = quadrature._area_rule(sector.theta_m, sector.theta_M, sector.h, *lv)
            table = sm.grid_fn(sector, rule.r, rule.t)
            pts = quadrature.polar_points(rule.r, rule.t)
            vals = sm.values(sector.to_world(pts)).reshape(len(rule.r), len(rule.t))
            assert table.shape == vals.shape
            assert np.abs(table - vals).max() <= 1e-15 * np.abs(vals).max()
            assert sm.on_grid(sector, rule.r, rule.t).tobytes() == table.tobytes()
        other = quarter_sector if sector is ROTATED else ROTATED
        assert sm.grid_fn(other, rule.r, rule.t) is None
    assert bessel_series_sampler(kappa, a, b).grid_fn is None


def test_area_integrals_without_grid_form_sample_the_grid_points(quarter_sector):
    """A sampler with no grid form is sampled at the r-major points of each
    area level, rr cos tt and rr sin tt, and its area integrals are bitwise
    those of that point integrand."""
    from polyscat import quadrature

    for sector in (quarter_sector, ROTATED):
        series = bessel_series_sampler(1.4, [0.8, 0.3, -0.2], [0.0, 0.4, 0.1j], sector)
        for sm in (power_sampler(0.5), FieldSampler(series.fn, series.values_fn)):
            def on_points(r, t):
                rr, tt = np.repeat(r, len(t)), np.tile(t, len(r))
                pts = np.column_stack([rr * np.cos(tt), rr * np.sin(tt)])
                return sm.values(sector.to_world(pts)).reshape(len(r), len(t))

            for s in (50.0, 800.0):
                got = I2(sm, sector, s)
                ref = quadrature.sector_area_integral(on_points, sector.theta_m, sector.theta_M,
                                                      sector.h, s, 1e-11)
                assert np.array([got.value, got.error]).tobytes() == \
                    np.array([ref.value, ref.error]).tobytes()


def test_values_path_is_bit_identical(quarter_sector):
    rng = np.random.default_rng(7)
    r = np.sqrt(rng.uniform(0.0, 1.0, 40))
    th = rng.uniform(0.0, np.pi / 2, 40)
    pts = np.vstack([[0.0, 0.0], np.column_stack([r * np.cos(th), r * np.sin(th)])])
    sm = bessel_series_sampler(1.4, [1.0, 0.4, 0.1], [0.0, 0.2, -0.3], quarter_sector)
    world = bessel_series_sampler(np.sqrt(2.5), [0.3, 0.1], [0.0, 0.7])
    for f in (sm, world, sm - world):
        assert f.values(pts).tobytes() == f(pts)[0].tobytes()


def test_bessel_rows_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    size = 21
    for kappa in (np.sqrt(2), np.sqrt(2.5), 12.0, np.sqrt(3 + 0.2j), 30 + 1j):
        # r = 0, tiny r, and |kappa r| up to 30
        r = np.r_[0.0, np.geomspace(1e-18, 1.0, 25),
                  np.linspace(0, 30, 61)[1:] / abs(kappa)]
        got = probe._bessel_rows(kappa, r, size)
        with mpmath.workdps(30):
            ref = np.array([[complex(mpmath.besselj(n, mpmath.mpc(kappa) * mpmath.mpf(x)))
                             for x in r] for n in range(size)])
        assert got.shape == ref.shape
        assert (got[:, 0] == np.eye(size)[:, 0]).all()
        assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()


def test_bessel_sampler_bits_do_not_depend_on_batch(monkeypatch):
    from scipy.special import jv, jvp

    from polyscat import quadrature

    # an area grid of more points than one Bessel chunk, and the apex, on a
    # rotated sector off the origin, where few radii or angles repeat
    rotated = CornerSector([0.3, -0.2], -2.0, 0.5, 0.7, rotation=2.1)
    rr = rotated.h * np.geomspace(1e-3, 1.0, 70)
    tt = np.linspace(rotated.theta_m, rotated.theta_M, 66)
    R, T = np.meshgrid(rr, tt, indexing="ij")
    grid = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
    # and the probe's own second area level (its first fits in one chunk) on
    # a sector at the origin with rotation 0, whose chunks repeat radii and
    # angles: there the sampler evaluates each distinct value once
    origin = CornerSector([0.0, 0.0], 0.0, np.pi / 2, 1.0)
    rule = quadrature._area_rule(origin.theta_m, origin.theta_M, origin.h, 14, 24)
    level = quadrature.polar_points(rule.r, rule.t)
    rows_radii = []
    bessel_rows = probe._bessel_rows
    monkeypatch.setattr(probe, "_bessel_rows",
                        lambda kappa, r, size: rows_radii.append(len(r))
                        or bessel_rows(kappa, r, size))
    a, b = [0.8, 0.3, -0.2, 0.1j], [0.0, 0.4, 0.1j, -0.05]
    for sector, points in ((rotated, grid), (origin, level)):
        canon = np.vstack([[0.0, 0.0], points])
        assert len(canon) > probe._CHUNK
        pts = sector.to_world(canon)
        seen = sector.to_canonical(pts)     # the points as the sampler sees them
        chunks = [seen[lo:lo + probe._CHUNK] for lo in range(0, len(seen), probe._CHUNK)]
        if sector is origin:
            for xy in chunks:
                assert len(np.unique(np.hypot(*xy.T))) < len(xy) / 4
                assert len(np.unique(np.arctan2(xy[:, 1], xy[:, 0]))) < len(xy) / 4
        for kappa in (1.4, np.sqrt(3 + 0.2j)):
            sm = bessel_series_sampler(kappa, a, b, sector)
            rows_radii.clear()
            vals, grads = sm(pts)
            # one Bessel row per distinct radius of each chunk, the apex's
            # r = 0 read as r = 1
            assert rows_radii == [len(np.unique(np.where(np.hypot(*xy.T) == 0, 1.0,
                                                         np.hypot(*xy.T))))
                                  for xy in chunks]
            assert sm.values(pts).tobytes() == vals.tobytes()
            # each point alone, or on the 9,409-point level each pair of
            # neighbours (half the calls), has the bits it has in the chunk
            step = 2 if sector is origin else 1
            for i in range(0, len(pts), step):
                v, g = sm(pts[i:i + step])
                assert v.tobytes() == vals[i:i + step].tobytes()
                assert g.tobytes() == grads[i:i + step].tobytes()
            if sector is origin:
                continue
            # the gradient against the series with scipy's jv and jvp
            r, th = np.hypot(*canon[1:].T), np.arctan2(canon[1:, 1], canon[1:, 0])
            d_r = d_t = 0j
            for n in range(len(a)):
                ang = a[n] * np.cos(n * th) + b[n] * np.sin(n * th)
                dang = n * (-a[n] * np.sin(n * th) + b[n] * np.cos(n * th))
                d_r += kappa * jvp(n, kappa * r) * ang
                d_t += jv(n, kappa * r) / r * dang
            rhat = np.column_stack([np.cos(th), np.sin(th)])
            that = np.column_stack([-np.sin(th), np.cos(th)])
            ref = sector.vec_to_world(d_r[:, None] * rhat + d_t[:, None] * that)
            assert np.abs(grads[1:] - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("kappa", [1.4, np.sqrt(3 + 0.2j)], ids=["real", "complex"])
def test_bessel_sampler_near_the_apex_is_the_series(kappa):
    """Off the apex the sampler sums the series, however close: at r = 1e-13,
    1e-15 and 1e-17 its value and gradient are the series of scipy's jv and
    jvp, to rounding; only r = 0 takes the limit a_0, (kappa / 2) (a_1, b_1)."""
    from scipy.special import jv, jvp

    a, b = [0.8, 0.3, -0.2, 0.1j], [0.0, 0.4, 0.1j, -0.05]
    # the probe's sector, whose apex and frame are the world's: the edge and
    # area rules reach r = 1.3e-12 there
    sector = CornerSector([0.0, 0.0], 0.0, np.pi / 2, 1.0)
    r = np.repeat([1e-13, 1e-15, 1e-17], 3)
    th = np.tile([0.0, 0.7, np.pi / 2], 3)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    assert sector.to_canonical(pts).tobytes() == pts.tobytes()
    r, th = np.hypot(*pts.T), np.arctan2(pts[:, 1], pts[:, 0])
    val = d_r = d_t = 0j
    for n in range(len(a)):
        ang = a[n] * np.cos(n * th) + b[n] * np.sin(n * th)
        dang = n * (-a[n] * np.sin(n * th) + b[n] * np.cos(n * th))
        val += jv(n, kappa * r) * ang
        d_r += kappa * jvp(n, kappa * r) * ang
        d_t += jv(n, kappa * r) / r * dang
    rhat = np.column_stack([np.cos(th), np.sin(th)])
    that = np.column_stack([-np.sin(th), np.cos(th)])
    ref = d_r[:, None] * rhat + d_t[:, None] * that
    vals, grads = bessel_series_sampler(kappa, a, b, sector)(pts)
    assert np.abs(vals - val).max() <= 1e-15
    # the reference's own rounding: at r = 1e-17 the exact limit is 1.1e-15 off it
    assert np.abs(grads - ref).max() <= 1e-14 * np.abs(ref).max()


def _scalar_reference(sc, s_grid, tol=1e-12):
    """extract_both assembled per s from the scalar functionals, fields
    evaluated through their gradient path, except on the area grids, which
    both sample through the fields' grid form."""
    sec = sc.sector
    sc = replace(sc, u1=FieldSampler(sc.u1.fn, grid_fn=sc.u1.grid_fn),
                 u2=FieldSampler(sc.u2.fn, grid_fn=sc.u2.grid_fn))
    u1_0, u2_0 = probe.corner_value(sc.u1, sec), probe.corner_value(sc.u2, sec)
    v = sc.u1 - sc.u2
    nums, dens, resid = [], [], []
    for s in s_grid:
        dv = probe._area_functional(
            lambda r, t: sc.u1.on_grid(sec, r, t) - sc.u2.on_grid(sec, r, t) - (u1_0 - u2_0),
            sec, s,
            max(tol, 1e-12))
        nums.append(I1(v, sec, s, tol).value + sc.k**2 * sc.omega1 * dv.value)
        (p31, p32), (m31, m32) = (I3(sc.u2, sec, s, side, tol) for side in ("+", "-"))
        dens.append(u2_0 * (p31 + m31) + (p32 + m32))
        resid.append(identity_residual(sc, s, tol)[0])
    eta = [-n / d for n, d in zip(nums, dens)]
    eta_x = richardson_extrapolate(s_grid, eta).limit
    spec = cgo.SectorSpec(sec.theta_m, sec.theta_M)
    omega = [-(n + eta_x * d) / (sc.k**2 * u1_0 * cgo.sector_integral_exact(spec, s))
             for s, n, d in zip(s_grid, nums, dens)]
    return eta, omega, resid, eta_x, richardson_extrapolate(s_grid, omega).limit


@pytest.mark.parametrize("name", ["eta_scenario", "omega_scenario"])
def test_extract_both_matches_scalar_assembly(name, request):
    sc = request.getfixturevalue(name)
    eta, omega, resid, eta_x, omega_x = _scalar_reference(sc, S_GRID)
    res = probe.extract_both(sc, S_GRID)
    assert [s for s, _ in res.eta_estimates] == S_GRID
    assert [s for s, _ in res.omega_estimates] == S_GRID
    for got, ref in ((res.eta_estimates, eta), (res.omega_estimates, omega)):
        for (_, g), r in zip(got, ref):
            assert abs(g - r) <= 1e-12 * abs(r)
    for g, r in zip(res.residuals, resid):
        assert abs(g - r) <= 1e-12 * abs(r)
    assert abs(res.eta_extrapolated - eta_x) <= 1e-10
    assert abs(res.omega_extrapolated - omega_x) <= 1e-10


def _record_refinements(monkeypatch):
    """Log (kind, levels evaluated, converged, error) for every quadrature
    refined, one entry per row of a refined table, with the level that row
    stopped at: the first that agrees with the one before within half the
    row's tolerance."""
    import polyscat.quadrature as quad

    kinds = {3: "area", 4: "edge", 5: "arc"}
    log = []
    orig = quad._refine

    def refine(levels, eval_fn, tol):
        seen = []

        def counted(lv):
            out = eval_fn(lv)
            seen.append(np.ravel(out).tolist())
            return out

        val, err, ok = orig(levels, counted, tol)
        kind = kinds[len(levels)]
        if not isinstance(val, list):
            log.append((kind, len(seen), ok, err))
            return val, err, ok
        for i, half in enumerate(0.5 * np.broadcast_to(tol, len(val))):
            stop = next((n + 1 for n in range(1, len(seen))
                         if abs(seen[n][i] - seen[n - 1][i]) <= half), len(seen))
            log.append((kind, stop, err[i] <= half, err[i]))
        return val, err, ok

    monkeypatch.setattr(quad, "_refine", refine)
    return log


@pytest.mark.parametrize("name, tol, expected, converged", [
    ("eta_scenario", 1e-12,
     {("arc", 5): 2, ("arc", 3): 3, ("area", 3): 10, ("area", 2): 5, ("edge", 2): 20},
     (False, False, True, True, True)),
    ("omega_scenario", 1e-10,
     {("arc", 2): 5, ("area", 3): 8, ("area", 2): 7, ("edge", 2): 20},
     (True,) * 5),
])
def test_extraction_stop_levels_and_convergence(name, tol, expected, converged,
                                                request, monkeypatch):
    """Every integral stops at the refinement level it reached when each
    functional sampled its own fields (counts of that code on this grid),
    and per-s convergence reaches the diagnostics."""
    import collections

    sc = request.getfixturevalue(name)
    log = _record_refinements(monkeypatch)
    res = probe.extract_both(sc, S_GRID, tol=tol)
    assert collections.Counter((k, n) for k, n, _, _ in log) == expected
    assert res.diagnostics["quad_converged"] == converged
    assert len(res.diagnostics["quad_error"]) == len(S_GRID)
    # 8 quadratures per s, in s order: the worst error estimate of each block
    worst = [max(e for *_, e in log[8 * j:8 * j + 8]) for j in range(len(S_GRID))]
    assert res.diagnostics["quad_error"] == tuple(worst)
    for key in ("eta_extrapolation_err", "omega_extrapolation_err"):
        assert res.diagnostics[key] > 0


def test_scenario_records_fit_quadrature_convergence(quarter_sector, monkeypatch):
    log = _record_refinements(monkeypatch)
    sc = manufactured_scenario(quarter_sector, 1.0, 2.0, 2.0, 0.5 + 0.1j, 0.2)
    edges = [(ok, err) for kind, _, ok, err in log if kind == "edge"]
    # 2 edges x 5 fit s x (25 basis elements + 1 target) moments
    assert len(edges) == len(log) == 2 * 5 * 26
    assert sc.meta["fit_quad_unconverged"] == sum(not ok for ok, _ in edges)
    assert sc.meta["fit_quad_error_max"] == max(err for _, err in edges)


def vanishing_test(v, w, sector, s_grid, k, q, lam, tol=1e-12):
    """Estimates of v(0) for a pair with w = v, dnu v + lam v = dnu w on the
    edges, lam != 0, as ((s, estimate), ...) and their extrapolated limit.

    A(s) = k^2 (1 - q) int w u0 - k^2 int (w - v) u0 - I1(w - v) equals
    lam int_edges v u0 for exact-jump pairs; dividing by the exact edge
    factor gives a per-s estimate of v(0) that decays iff v(0) = 0.
    """
    ests = []
    for s in sorted(s_grid):
        d_area = I2(w - v, sector, s, tol).value
        A = k**2 * (1 - q) * I2(w, sector, s, tol).value - k**2 * d_area
        A -= I1(w - v, sector, s, tol).value
        i31 = (cgo.edge_integral_exact(sector.theta_M, s, sector.h)
               + cgo.edge_integral_exact(sector.theta_m, s, sector.h))
        ests.append((s, A / (lam * i31)))
    return ests, richardson_extrapolate([s for s, _ in ests], [e for _, e in ests]).limit


def test_vanishing_pair_with_zero_corner_value(quarter_sector):
    k, q, lam = 1.0, 2.5, 0.4 + 0.2j
    sc = manufactured_scenario(quarter_sector, k, omega1=q, omega2=1.0,
                               eta1=lam, eta2=0.0, u2_cos=(0.0, 0.4, 0.2),
                               u2_sin=(0.0, 0.15))
    estimates, _ = vanishing_test(sc.u2, sc.u1, quarter_sector, S_GRID, k, q, lam)
    mags = [abs(e) for _, e in estimates]
    assert mags[-1] < 1e-3
    assert mags[-1] < 0.2 * mags[0]


def test_vanishing_pair_with_nonzero_corner_value(quarter_sector):
    k, q, lam = 1.0, 2.5, 0.4 + 0.2j
    c = 0.7 - 0.2j
    sc = manufactured_scenario(quarter_sector, k, omega1=q, omega2=1.0,
                               eta1=lam, eta2=0.0, u2_cos=(c, 0.3, 0.15),
                               u2_sin=(0.0, 0.1))
    estimates, extrapolated = vanishing_test(sc.u2, sc.u1, quarter_sector, S_GRID, k, q, lam)
    assert abs(extrapolated - c) / abs(c) < 0.01
    # plateau: the last two per-s estimates agree with the corner value
    for _, e in estimates[-2:]:
        assert abs(e - c) / abs(c) < 0.02


def test_vanishing_zero_pair(quarter_sector):
    estimates, _ = vanishing_test(zero_sampler(), zero_sampler(), quarter_sector,
                                  [50.0, 100.0], 1.0, 2.5, 0.4)
    assert all(abs(e) == 0.0 for _, e in estimates)


def test_probe_result_requires_increasing_s(quarter_sector, eta_scenario):
    from polyscat.probe import ProbeResult

    with pytest.raises(ValueError):
        ProbeResult(((100.0, 0j), (50.0, 0j)), (), None, None, (), {})


def test_fit_moment_rows_are_the_per_element_integrands(quarter_sector, monkeypatch):
    """The fit makes one edge refinement per edge and s, whose table has one
    row per basis element and one for the target.  Each row is bitwise the
    element's own integrand, on u2 sampled on its edge alone, and its
    QuadResult is bitwise that of the element's lone refinement."""
    from polyscat import quadrature
    from polyscat.medium import sqrt_im_nonneg

    calls = []
    edge_u0 = probe.edge_u0_integral

    def logged(theta, s, h, g=None, tol=1e-12):
        qs = edge_u0(theta, s, h, g=g, tol=tol)
        calls.append((theta, s, g, qs))
        return qs

    monkeypatch.setattr(probe, "edge_u0_integral", logged)
    k, omega1, omega2, eta_diff = 1.0, 2.5, 2.0, 0.3 + 0.1j
    manufactured_scenario(quarter_sector, k, omega1, omega2, 0.5 + 0.1j, 0.2,
                          fit_s=[50.0, 400.0])
    basis = probe._BesselBasis(k * sqrt_im_nonneg(omega1), 13)
    u2 = bessel_series_sampler(k * sqrt_im_nonneg(omega2), probe.DEFAULT_U2_COS,
                               probe.DEFAULT_U2_SIN, quarter_sector)
    m = len(basis.labels) + 1
    assert [s for _, s, _, _ in calls] == [50.0, 400.0] * 2
    for j, (theta, s, g, qs) in enumerate(calls):
        edge = probe._edge(quarter_sector, "+" if j < 2 else "-")
        assert theta == edge.theta
        assert len(qs) == m
        ang, dang = basis.angular(edge.theta)

        def trace_u2(r):
            vals, grads = u2(quarter_sector.to_world(r[:, None] * edge.direction[None, :]))
            return vals, grads @ edge.normal

        for i, q in enumerate(qs):
            def element(r):
                fac = edge.sign * (-0.5j) * np.sqrt(s / r) * cgo.mu(edge.theta)
                if i < m - 1:
                    jn = basis.bessel(r)[basis.labels[i][0]]
                    return edge.sign * (jn / r) * dang[i] - fac * jn * ang[i]
                vals, dnu = trace_u2(r)
                return dnu + eta_diff * vals - fac * vals * 1.0

            for nr in (10, 16):
                r = quadrature._radial_rule(quarter_sector.h, nr)[0]
                assert g(r)[i].tobytes() == element(r).tobytes()
            ref = quadrature.edge_u0_integral(edge.theta, s, quarter_sector.h, g=element,
                                              tol=1e-12)
            assert np.array([q.value, q.error]).tobytes() == \
                np.array([ref.value, ref.error]).tobytes()
            assert q.converged is ref.converged


def test_scenario_samples_u2_gradients_once_per_edge_grid(quarter_sector, monkeypatch):
    log = []
    call = FieldSampler.__call__

    def logged(self, pts):
        log.append(np.atleast_2d(np.asarray(pts, dtype=float)).copy())
        return call(self, pts)

    monkeypatch.setattr(FieldSampler, "__call__", logged)
    manufactured_scenario(quarter_sector, 1.0, 2.0, 2.0, 0.5 + 0.1j, 0.2)
    # one call per grid for both edges: the pointwise fit grid of 64 radii,
    # then the two levels of edge_u0_integral (28 panels of 10 and 16
    # nodes) at which every fit moment stops, shared by every fit s and
    # basis element (the apex goes through the values path)
    assert [len(p) for p in log] == [2 * 64, 2 * 28 * 10, 2 * 28 * 16]
    for pts in log:
        n = len(pts) // 2
        plus, minus = pts[:n], pts[n:]
        assert np.abs(plus[:, 0]).max() <= 1e-15 * np.abs(plus[:, 1]).max()
        assert (minus[:, 1] == 0.0).all()
        assert plus[:, 1].tobytes() == minus[:, 0].tobytes()



def test_benchmark_probe_run_counts(tmp_path, monkeypatch):
    """The manufactured probe run of the benchmark (quarter sector, h = 1,
    s-grid 50-800, default --tol), counted twice in one process: 30
    refinements (the fit's one per edge and s, and per extraction s one
    arc, one area and two edge refinements), one kernel sum per table and
    level, 18 Bessel recurrences and the same sampler calls each time."""
    import collections
    import json

    from polyscat import _kernels, quadrature
    from polyscat.harness.cli import main as cli_main

    counts = collections.Counter()

    def counted(name, fn):
        def f(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return f

    for module, name in ((quadrature, "_refine"), (probe, "_bessel_rows"),
                         (_kernels, "edge_quad_sum"), (_kernels, "area_quad_sum"),
                         (FieldSampler, "__call__"), (FieldSampler, "values")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "medium": {"kind": "nest", "layers": [[[-1, -1], [1, -1], [1, 1], [-1, 1]]],
                   "q": [[2.0, 0.0]], "lambda": [[0.0, 0.0]], "k": 1.0},
        "incident": {"kind": "none"},
        "probe": {"mode": "manufactured",
                  "sector": {"theta_m": 0.0, "theta_M": np.pi / 2, "h": 1.0},
                  "k": [1.0, 0.0], "omega1": [2.5, 0.0], "omega2": [2.0, 0.0],
                  "eta1": [0.3, 0.0], "eta2": [0.3, 0.0]}}))
    runs = []
    for run in range(2):
        counts.clear()
        assert cli_main(["probe", "--config", str(cfg), "--out", str(tmp_path / f"out{run}"),
                         "--s-grid", "50,100,200,400,800"]) == 0
        runs.append(dict(counts))
    # edge sums: the fit's 2 edges x 5 s x 2 levels, the extraction's 5 s x
    # 2 edges x 2 levels; area sums: 5 s, at 3, 3, 3, 3 and 2 levels
    assert runs == [{"_refine": 30, "_bessel_rows": 18, "edge_quad_sum": 40,
                     "area_quad_sum": 14, "__call__": 9, "values": 6}] * 2


def test_apex_values_run_no_recurrence(monkeypatch):
    """A call whose points are all at the apex takes the limit a_0, and the
    gradient (kappa / 2) (a_1, b_1), without a Bessel recurrence."""
    calls = []
    bessel_rows = probe._bessel_rows
    monkeypatch.setattr(probe, "_bessel_rows",
                        lambda *args: calls.append(args) or bessel_rows(*args))
    a, b = [0.8 - 0.1j, 0.3, -0.2], [0.0, 0.4, 0.1j]
    for sector in (CornerSector([0.0, 0.0], 0.0, np.pi / 2, 1.0), ROTATED):
        sm = bessel_series_sampler(np.sqrt(3 + 0.2j), a, b, sector)
        apex = np.repeat(sector.apex[None, :], 3, axis=0)
        assert (sm.values(apex) == a[0]).all()
        assert probe.corner_value(sm, sector) == a[0]
        vals, grads = sm(apex)
        assert (vals == a[0]).all()
        ref = sector.vec_to_world(0.5 * np.sqrt(3 + 0.2j) * np.array([[a[1], b[1]]]))
        assert grads.tobytes() == np.repeat(ref, 3, axis=0).tobytes()
        assert calls == []
        # a chunk with a point off the apex runs it
        sm.values(np.vstack([sector.apex, sector.to_world([[0.1, 0.0]])]))
        assert len(calls) == 1
        calls.clear()
