import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from polyscat import cgo

SECTORS = [(0.0, np.pi / 2), (-np.pi / 4, np.pi / 4), (-np.pi / 3, np.pi / 6)]


def test_u0_on_positive_axis():
    assert cgo.u0_eval(np.array([1.0, 0.0]), 1.0) == pytest.approx(np.exp(-1))


def test_u0_up_axis_closed_form():
    # theta = pi/2, sqrt(s r) = 2
    expected = np.exp(-2 * np.exp(1j * np.pi / 4))
    assert cgo.u0_eval(np.array([0.0, 1.0]), 4.0) == pytest.approx(expected)


def test_u0_rejects_origin_and_cut():
    with pytest.raises(ValueError):
        cgo.u0_eval(np.array([0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        cgo.u0_eval(np.array([-1.0, 0.0]), 1.0)


@given(st.floats(0.01, 50), st.floats(-3.1, 3.1), st.floats(0.05, 200))
@settings(max_examples=60, deadline=None)
def test_u0_modulus_identity(r, theta, s):
    x = np.array([r * np.cos(theta), r * np.sin(theta)])
    val = cgo.u0_eval(x, s)
    assert abs(val) == pytest.approx(np.exp(-np.sqrt(s * r) * np.cos(theta / 2)), rel=1e-12)


def test_u0_harmonic_five_point():
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = rng.uniform(0.3, 1.5, 2) * rng.choice([-1, 1], 2)
        if x[0] < 0 and abs(x[1]) < 0.3:
            x[1] += 0.5  # stay clear of the cut
        s = 10 ** rng.uniform(-0.5, 1.5)
        h = 1e-4 * np.hypot(*x)
        pts = [x, x + [h, 0], x - [h, 0], x + [0, h], x - [0, h]]
        vals = [cgo.u0_eval(np.asarray(p), s) for p in pts]
        lap = (sum(vals[1:]) - 4 * vals[0]) / h**2
        scale = abs(vals[0]) * (s / np.hypot(*x) + 1.0)
        assert abs(lap) < 1e-4 * scale + 1e-8


def test_mu_and_omega_values():
    assert cgo.mu(0.0) == pytest.approx(1.0)
    assert cgo.omega_w(0.0) == pytest.approx(1.0)
    assert cgo.mu(np.pi / 2) == pytest.approx(np.exp(1j * np.pi / 4))


@given(st.floats(-3.14, 3.14))
@settings(max_examples=50, deadline=None)
def test_mu_unit_modulus(theta):
    assert abs(cgo.mu(theta)) == pytest.approx(1.0, rel=1e-14)


@given(st.floats(-3.1, 3.0), st.floats(1e-3, 3.0))
@settings(max_examples=80, deadline=None)
def test_mu_pair_sum_nonzero(theta_m, opening):
    theta_M = theta_m + opening
    if theta_M >= np.pi or abs(opening - np.pi) < 1e-4:
        return
    # the large-s limit 2 / (s mu^2) of each exact edge integral: the
    # extraction denominator's leading term is nonzero on every valid sector
    assert abs(cgo.mu(theta_M) ** -2 + cgo.mu(theta_m) ** -2) > 1e-8


def test_sector_spec_invariants():
    sec = cgo.SectorSpec(0.0, np.pi / 2)
    assert sec.delta_w == pytest.approx(np.cos(np.pi / 4))
    with pytest.raises(ValueError):
        cgo.SectorSpec(-np.pi / 2, np.pi / 2)  # opening exactly pi
    with pytest.raises(ValueError):
        cgo.SectorSpec(0.5, 0.4)


def test_sector_integral_symmetric_value():
    sec = cgo.SectorSpec(-np.pi / 4, np.pi / 4)
    val = cgo.sector_integral_exact(sec, 100.0)
    assert val == pytest.approx(1.2e-3)
    assert abs(val.imag) < 1e-18


def test_sector_integral_symmetric_form():
    for t0 in (0.3, 0.7, 1.2):
        sec = cgo.SectorSpec(-t0, t0)
        for s in (2.0, 30.0):
            assert cgo.sector_integral_exact(sec, s) == pytest.approx(
                12 * np.sin(2 * t0) / s**2)


@pytest.mark.parametrize("angles", SECTORS)
@pytest.mark.parametrize("s", [1.0, 10.0, 100.0])
def test_sector_quadrature_matches_exact(angles, s):
    sec = cgo.SectorSpec(*angles)
    exact = cgo.sector_integral_exact(sec, s)
    quadv = cgo.sector_integral_quad(sec, s, tol=1e-10 * abs(exact))
    assert quadv.converged
    assert abs(quadv.value - exact) / abs(exact) < 1e-8


def test_sector_quadrature_flags_small_rmax():
    sec = cgo.SectorSpec(0.0, np.pi / 2)
    res = cgo.sector_integral_quad(sec, 1.0, rmax=0.5, tol=1e-10)
    assert not res.converged
    assert res.error > 1e-10


@pytest.mark.parametrize("angles", SECTORS)
def test_weighted_bound_holds_on_grid(angles):
    sec = cgo.SectorSpec(*angles)
    for alpha in (0.25, 0.5, 0.75):
        for s in (1.0, 10.0, 100.0):
            lhs = cgo.weighted_lhs_quad(sec, alpha, s, tol=1e-10)
            assert lhs.converged
            assert lhs.value <= cgo.weighted_bound(sec, alpha, s)


def test_weighted_bound_scaling_and_monotonicity():
    sec = cgo.SectorSpec(0.0, np.pi / 2)
    alpha = 0.5
    b1 = cgo.weighted_bound(sec, alpha, 3.0)
    b2 = cgo.weighted_bound(sec, alpha, 30.0)
    assert b1 / b2 == pytest.approx(10 ** (alpha + 2))
    narrow = cgo.SectorSpec(-0.2, 0.2)  # larger delta_w
    wide = cgo.SectorSpec(-1.2, -0.8 + np.pi / 2)
    assert narrow.delta_w > wide.delta_w
    # same opening, so the bound is monotone decreasing in delta_w
    assert (cgo.weighted_bound(narrow, alpha, 5.0)
            < cgo.weighted_bound(wide, alpha, 5.0))


def test_tail_bound_value_at_h_zero():
    sec = cgo.SectorSpec(0.0, np.pi / 2)
    expected = 6 * sec.opening / sec.delta_w**4
    assert cgo.tail_bound(sec, 1.0, 0.0) == pytest.approx(expected)


def test_tail_bound_decays_superalgebraically():
    sec = cgo.SectorSpec(0.0, np.pi / 2)
    svals = np.array([10.0, 100.0, 1000.0, 10000.0])
    vals = np.array([cgo.tail_bound(sec, s, 1.0) for s in svals])
    # faster than any fixed power: local log-log slope keeps steepening
    slopes = np.diff(np.log(vals)) / np.diff(np.log(svals))
    assert np.all(np.diff(slopes) < 0)
    assert slopes[-1] < -4


def test_published_tail_bound_fails_at_small_arguments():
    """The published tail constant is a large-argument bound only.

    At delta_W*sqrt(h*s) below ~14 the quadrature of the left side
    provably exceeds it; the sharp variant holds everywhere.  This pins
    the known limitation so an accidental 'fix' is noticed.
    """
    sec = cgo.SectorSpec(-np.pi / 4, np.pi / 4)
    lhs = cgo.tail_lhs_quad(sec, 1.0, 0.5, tol=1e-8).value
    assert lhs > cgo.tail_bound(sec, 1.0, 0.5)
    assert lhs <= cgo.tail_bound_sharp(sec, 1.0, 0.5)


# (sector, h, s) of criterion 2's grid where the quadrature of the left side
# exceeds the published tail bound: every (h, s) with s <= 10, and h = 0.5
# at s = 100; h = 1 at s = 100 too on the two sectors with the smaller
# delta_W.  All have delta_W sqrt(h s) below 14.
PUBLISHED_TAIL_FAILS = sorted(
    [(sec, h, s) for sec in SECTORS for s in (1.0, 10.0) for h in (0.5, 1.0, 2.0)]
    + [(sec, 0.5, 100.0) for sec in SECTORS] + [(sec, 1.0, 100.0) for sec in SECTORS[1:]])


def test_criterion_2_fails_at_exactly_the_known_tail_points():
    """Criterion 2's known limitation, pinned: on its (sector, alpha, s) and
    (sector, h, s) grid at its tolerance, the weighted bound holds
    everywhere and the published tail bound fails at exactly these 23
    points, so a change of the quadrature cannot move the set unseen."""
    weighted, tail = [], []
    for angles in SECTORS:
        sec = cgo.SectorSpec(*angles)
        for s in (1.0, 10.0, 100.0):
            for alpha in (0.25, 0.5, 0.75):
                if not cgo.weighted_lhs_quad(sec, alpha, s, tol=1e-9).value \
                        <= cgo.weighted_bound(sec, alpha, s):
                    weighted.append((angles, alpha, s))
            for h in (0.5, 1.0, 2.0):
                if not cgo.tail_lhs_quad(sec, s, h, tol=1e-9).value <= cgo.tail_bound(sec, s, h):
                    assert sec.delta_w * np.sqrt(h * s) < 14.0
                    tail.append((angles, h, s))
    assert weighted == []
    assert len(PUBLISHED_TAIL_FAILS) == 23
    assert sorted(tail) == PUBLISHED_TAIL_FAILS


@pytest.mark.parametrize("angles", SECTORS)
def test_tail_bounds_hold_in_validity_regimes(angles):
    sec = cgo.SectorSpec(*angles)
    for s in (1.0, 10.0, 100.0):
        # published bound: large-argument regime
        h_big = (15.5 / sec.delta_w) ** 2 / s
        lhs = cgo.tail_lhs_quad(sec, s, h_big, tol=1e-10).value
        assert lhs <= cgo.tail_bound(sec, s, h_big)
        # sharp bound: everywhere, including the small-argument grid
        for h in (0.5, 1.0, 2.0):
            lhs = cgo.tail_lhs_quad(sec, s, h, tol=1e-10).value
            assert lhs <= cgo.tail_bound_sharp(sec, s, h)


def test_edge_integral_value_on_axis():
    assert cgo.edge_integral_exact(0.0, 1.0, 1.0) == pytest.approx(2 - 4 / np.e)
    ref, _ = quad(lambda r: np.exp(-np.sqrt(r)), 0, 1, epsabs=1e-14)
    assert cgo.edge_integral_exact(0.0, 1.0, 1.0) == pytest.approx(ref, abs=1e-12)


def test_edge_integral_large_s_limit():
    theta = 0.7
    m = cgo.mu(theta)
    for s in (1e6, 1e8):
        assert s * cgo.edge_integral_exact(theta, s, 1.0) == pytest.approx(
            2 * m**-2, rel=1e-6)


def test_edge_integral_matches_1d_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(12):
        theta = rng.uniform(-np.pi + 0.2, np.pi - 0.2)
        s = 10 ** rng.uniform(0, 2.5)
        h = 10 ** rng.uniform(-1, 0.4)
        m = cgo.mu(theta)
        re, _ = quad(lambda r: np.exp(-np.sqrt(s * r) * m).real, 0, h,
                     epsabs=1e-13, limit=200)
        im, _ = quad(lambda r: np.exp(-np.sqrt(s * r) * m).imag, 0, h,
                     epsabs=1e-13, limit=200)
        assert abs(cgo.edge_integral_exact(theta, s, h) - complex(re, im)) < 1e-10


def test_decay_on_arcs():
    sec = cgo.SectorSpec(-np.pi / 3, np.pi / 6)
    h, s = 1.3, 40.0
    thetas = np.linspace(sec.theta_m + 1e-9, sec.theta_M - 1e-9, 101)
    vals = np.abs(cgo.u0_polar(h, thetas, s))
    assert np.max(vals) <= np.exp(-sec.delta_w * np.sqrt(s * h)) * (1 + 1e-12)


def test_tail_lhs_quadrature_against_dblquad():
    sec = cgo.SectorSpec(-np.pi / 4, np.pi / 4)
    s, h = 10.0, 1.0
    mine = cgo.tail_lhs_quad(sec, s, h, tol=1e-10).value
    ref, _ = dblquad(lambda r, t: np.exp(-np.sqrt(s * r) * np.cos(t / 2)) * r,
                     sec.theta_m, sec.theta_M, h, 80.0, epsabs=1e-11)
    assert mine == pytest.approx(ref, abs=1e-7)
