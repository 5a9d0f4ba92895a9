import numpy as np
import pytest
from scipy.integrate import quad

from polyscat.quadrature import (arc_integral, edge_u0_integral, gauss_legendre,
                                 graded_breaks, panel_rule, sector_area_integral)


def test_gauss_legendre_cached_and_exact():
    x, w = gauss_legendre(12)
    assert gauss_legendre(12)[0] is x
    # degree-23 polynomial integrated exactly
    assert np.dot(w, x**22) == pytest.approx(2 / 23)


def test_panel_rule_integrates_smooth():
    breaks = np.array([0.0, 0.3, 1.0, 2.5])
    r, w = panel_rule(breaks, 12)
    assert np.dot(w, np.exp(-r)) == pytest.approx(1 - np.exp(-2.5), rel=1e-12)


def test_graded_breaks_reach_zero():
    b = graded_breaks(0.0, 2.0)
    assert b[0] == 0.0 and b[-1] == 2.0
    assert b[1] < 1e-15 * 2.0


def test_graded_breaks_log_uniform():
    b = graded_breaks(0.5, 8.0)
    ratios = b[1:] / b[:-1]
    assert np.allclose(ratios, ratios[0])


def test_edge_integral_handles_sqrt_singularity():
    # integrand r^(-1/2) e^(-sqrt(r)) over (0, 1]
    res = edge_u0_integral(0.0, 1.0, 1.0, g=lambda r: r**-0.5, tol=1e-9)
    ref, _ = quad(lambda r: r**-0.5 * np.exp(-np.sqrt(r)), 0, 1, epsabs=1e-13)
    assert res.converged
    assert abs(res.value - ref) < 1e-9


def test_arc_integral_oscillatory():
    res = arc_integral(lambda t: np.exp(12j * t), 0.0, np.pi / 2, tol=1e-12)
    ref = (np.exp(12j * np.pi / 2) - 1) / 12j
    assert abs(res.value - ref) < 1e-11


def test_sector_area_integral_of_one():
    # f = 1: area integral of u0 over the truncated sector
    from polyscat import cgo

    sec = cgo.SectorSpec(0.0, np.pi / 2)
    s = 40.0
    full = cgo.sector_integral_exact(sec, s)
    res = sector_area_integral(lambda r, t: np.ones((len(r), len(t)), complex),
                               0.0, np.pi / 2, 1.0, s, tol=1e-12)
    tail = cgo.tail_bound_sharp(sec, s, 1.0)
    assert abs(res.value - full) <= tail + 1e-10


EDGE_ANGLES = (0.0, np.pi / 2, 0.9 * np.pi, -0.9 * np.pi)
S_VALUES = (1.0, 50.0, 800.0, 1e4)
H_VALUES = (0.3, 1.0, 2.0)


@pytest.mark.parametrize("h", H_VALUES)
@pytest.mark.parametrize("s", S_VALUES)
def test_radial_rule_against_closed_forms(s, h):
    """The radial rule of edge rays and area rules against closed forms: on
    each edge ray, u0 (sqrt(r) at the apex) and r^(-1/2) u0 (the behaviour
    of the fit's edge flux), whose integral over [0, h] is
    2 (1 - e^(-sqrt(s h) mu)) / (sqrt(s) mu); over sectors with these edges,
    the area integral of u0, with the tail beyond h bounded by
    tail_bound_sharp.  Left out: s >= 1e5 at theta = 0.99 pi, where neither
    this rule nor one graded in r converges, and s = 1e4, h = 2 on the
    sectors with an edge at 0.9 pi, where the angular levels do not."""
    from polyscat import cgo

    for theta in EDGE_ANGLES:
        mu = cgo.mu(theta)
        for g, exact in ((None, cgo.edge_integral_exact(theta, s, h)),
                         (lambda r: r**-0.5,
                          2 * (1 - np.exp(-np.sqrt(s * h) * mu)) / (np.sqrt(s) * mu))):
            res = edge_u0_integral(theta, s, h, g=g, tol=1e-12)
            assert res.converged
            assert abs(res.value - exact) <= 1e-12 * abs(exact)
    for sec in (cgo.SectorSpec(0.0, np.pi / 2), cgo.SectorSpec(-0.9 * np.pi, 0.0),
                cgo.SectorSpec(np.pi / 2, 0.9 * np.pi)):
        if s == 1e4 and h == 2.0 and sec.theta_m != 0.0:
            continue
        full = cgo.sector_integral_exact(sec, s)
        res = sector_area_integral(lambda r, t: np.ones((len(r), len(t)), complex),
                                   sec.theta_m, sec.theta_M, h, s, tol=1e-12)
        assert res.converged
        assert abs(res.value - full) <= cgo.tail_bound_sharp(sec, s, h) + 1e-12 * abs(full)
