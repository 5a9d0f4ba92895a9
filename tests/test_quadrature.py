import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from polyscat import _kernels, quadrature
from polyscat.quadrature import (arc_integral, edge_u0_integral, gauss_legendre,
                                 panel_rule, sector_area_integral)


def test_gauss_legendre_cached_and_exact():
    x, w = gauss_legendre(12)
    assert gauss_legendre(12)[0] is x
    # degree-23 polynomial integrated exactly
    assert np.dot(w, x**22) == pytest.approx(2 / 23)


def test_panel_rule_integrates_smooth():
    breaks = np.array([0.0, 0.3, 1.0, 2.5])
    r, w = panel_rule(breaks, 12)
    assert np.dot(w, np.exp(-r)) == pytest.approx(1 - np.exp(-2.5), rel=1e-12)


def callers(text, name):
    """The top-level functions (or "<module>") of a module that call `name`,
    as a plain or an attribute call."""
    found = set()
    for top in ast.parse(text).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                found.add(where)
    return found


def test_scan_finds_callers():
    text = "def f():\n    g(1)\n\nclass C:\n    def m(self):\n        q.g()\n\ng()\n"
    assert callers(text, "g") == {"f", "C", "<module>"}


def test_one_radial_rule():
    """Every radial node in src/ comes from `_radial_rule`: it is the only
    caller of `panel_rule`, the composite Gauss rule a second radial rule
    would be built from."""
    src = Path(__file__).resolve().parent.parent / "src"
    found = {(path.name, f) for path in sorted(src.rglob("*.py"))
             for f in callers(path.read_text(), "panel_rule")}
    assert found == {("quadrature.py", "_radial_rule")}


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
    """The one radial rule, of edge rays and area rules, against closed
    forms: on each edge ray, u0 (sqrt(r) at the apex) and r^(-1/2) u0 (the
    behaviour of the fit's edge flux), whose integral over [0, h] is
    2 (1 - e^(-sqrt(s h) mu)) / (sqrt(s) mu), and u0 on [h/4, h], the form
    with a lower end that the CGO tail quadrature uses; over sectors with
    these edges, the area integral of u0, with the tail beyond h bounded by
    tail_bound_sharp.  Left out: s >= 1e5 at theta = 0.99 pi, where the
    rule's outermost u-panel holds too many oscillations to converge, and
    s = 1e4, h = 2 on the sectors with an edge at 0.9 pi, where the angular
    levels do not."""
    from polyscat import cgo

    lo = h / 4
    for theta in EDGE_ANGLES:
        mu = cgo.mu(theta)
        for g, exact in ((None, cgo.edge_integral_exact(theta, s, h)),
                         (lambda r: r**-0.5,
                          2 * (1 - np.exp(-np.sqrt(s * h) * mu)) / (np.sqrt(s) * mu))):
            res = edge_u0_integral(theta, s, h, g=g, tol=1e-12)
            assert res.converged
            assert abs(res.value - exact) <= 1e-12 * abs(exact)
        # [lo, h]: the exact value is a difference of two closed forms, so
        # it is known to rounding of the whole ray's integral, not its own
        full = cgo.edge_integral_exact(theta, s, h)
        exact = full - cgo.edge_integral_exact(theta, s, lo)

        def part(nr):
            r, wr = quadrature._radial_rule(h, nr, lo)
            assert lo < r.min() and r.max() < h
            return complex(np.sum(wr * _kernels.edge_u0(r, s, theta)))

        value, _, ok = quadrature._refine([10, 16, 24, 32], part, 1e-12 * abs(full))
        assert ok
        assert abs(value - exact) <= 1e-12 * abs(full)
    for sec in (cgo.SectorSpec(0.0, np.pi / 2), cgo.SectorSpec(-0.9 * np.pi, 0.0),
                cgo.SectorSpec(np.pi / 2, 0.9 * np.pi)):
        if s == 1e4 and h == 2.0 and sec.theta_m != 0.0:
            continue
        full = cgo.sector_integral_exact(sec, s)
        res = sector_area_integral(lambda r, t: np.ones((len(r), len(t)), complex),
                                   sec.theta_m, sec.theta_M, h, s, tol=1e-12)
        assert res.converged
        assert abs(res.value - full) <= cgo.tail_bound_sharp(sec, s, h) + 1e-12 * abs(full)


def test_radial_rule_from_the_apex_is_one_cache_entry():
    """lo = 0 is the rule from the apex, bitwise, and an area rule from the
    apex reads the edge rays' cached arrays, not a copy under a second key."""
    r, wr = quadrature._radial_rule(0.7, 16)
    assert quadrature._radial_rule(0.7, 16) is quadrature._radial_rule(0.7, 16)
    r0, wr0 = quadrature._radial_rule(0.7, 16, 0.0)
    assert r.tobytes() == r0.tobytes() and wr.tobytes() == wr0.tobytes()
    rule = quadrature._area_rule(0.0, 1.0, 0.7, 16, 24)
    assert rule.r is r and rule.t is quadrature._theta_rule(0.0, 1.0, 24)[0]
    assert quadrature._area_rule(0.0, 1.0, 0.7, 16, 24, 0.0).r is r
    assert quadrature._area_rule(0.0, 1.0, 0.7, 16, 24, 0.2).r is \
        quadrature._radial_rule(0.7, 16, 0.2)[0]


# (integrand, tolerance) rows, and the number of levels each refines to alone
EDGE_ROWS = (
    (lambda r: r**-0.5, 1e-12),                    # constant in u = sqrt(r)
    (lambda r: np.cos(30.0 * r), 1e-12),
    (lambda r: np.cos(30.0 * r), 1e-5),            # the same at a looser tolerance
    (lambda r: np.cos(60.0 * r), 1e-12),
    (lambda r: np.sign(np.sin(400.0 * r)), 1e-12),  # never converges
)
EDGE_LEVELS = (2, 3, 2, 4, 4)
AREA_ROWS = (
    (lambda r, t: np.ones((len(r), len(t))), 1e-12),
    (lambda r, t: np.cos(10.0 * t)[None, :] * r[:, None], 1e-12),
    (lambda r, t: np.cos(10.0 * t)[None, :] * r[:, None], 1e-6),
    (lambda r, t: np.sign(np.sin(40.0 * t))[None, :] * np.ones((len(r), 1)), 1e-12),
)
AREA_LEVELS = (2, 3, 2, 3)
QUARTER = (0.0, np.pi / 2)


def _edge(g, tol):
    return edge_u0_integral(0.3, 50.0, 1.0, g=g, tol=tol)


def _area(f, tol):
    return sector_area_integral(f, *QUARTER, 1.0, 50.0, tol)


def _bits(q):
    return np.array([q.value, q.error]).tobytes(), q.converged


@pytest.mark.parametrize("integral, rows, levels", [
    (_edge, EDGE_ROWS, EDGE_LEVELS), (_area, AREA_ROWS, AREA_LEVELS)], ids=["edge", "area"])
def test_stacked_refinement_rows_are_lone_refinements(integral, rows, levels):
    """A table of integrands refined as one gives, row by row, the bits of
    each integrand's lone refinement: rows stop at different levels, at
    their own tolerances, and one never converges.  The table is evaluated
    until its last row stops."""
    lone, evals = [], []
    for f, tol in rows:
        n = []
        lone.append(integral(lambda *x, f=f, n=n: n.append(1) or f(*x), tol))
        evals.append(len(n))
    assert tuple(evals) == levels
    assert [q.converged for q in lone] == [True] * (len(rows) - 1) + [False]
    n = []
    stacked = integral(lambda *x: n.append(1) or np.stack([f(*x) for f, _ in rows]),
                       [tol for _, tol in rows])
    assert len(n) == max(levels)
    assert stacked.shape == (len(rows),)
    assert [_bits(q) for q in stacked] == [_bits(q) for q in lone]


def test_theta_and_s_rows_are_lone_refinements():
    """Edge angles, s values and integrands broadcast into the rows of one
    refinement, each row with the bits of its lone refinement: an edge
    table over 2 angles x 3 s x 2 integrands and an area table over 3 s x 2
    integrands, each evaluated once per level for all its rows."""
    thetas, svals = np.array([0.3, -2.0]), np.array([50.0, 200.0, 800.0])
    edge_fs = (lambda r: np.cos(30.0 * r), lambda r: r**-0.5)
    n = []
    stacked = edge_u0_integral(thetas[:, None, None], svals[:, None], 1.0,
                               g=lambda r: n.append(1) or np.stack([f(r) for f in edge_fs]),
                               tol=1e-12)
    assert stacked.shape == (2, 3, 2) and len(n) == 3
    for (i, j, k), q in np.ndenumerate(stacked):
        lone = edge_u0_integral(thetas[i], svals[j], 1.0, g=edge_fs[k], tol=1e-12)
        assert _bits(q) == _bits(lone)
    area_fs, tols = AREA_ROWS[1:3], [tol for _, tol in AREA_ROWS[1:3]]
    n = []
    stacked = sector_area_integral(
        lambda r, t: n.append(1) or np.stack([f(r, t) for f, _ in area_fs]),
        *QUARTER, 1.0, svals, tols)
    assert stacked.shape == (3, 2) and len(n) == 3
    for (j, k), q in np.ndenumerate(stacked):
        lone = sector_area_integral(area_fs[k][0], *QUARTER, 1.0, svals[j], tols[k])
        assert _bits(q) == _bits(lone)


def test_one_integrand_is_the_scalar_refinement():
    """A 1-D edge integrand, or one area table, is one QuadResult with the
    bits of the scalar sums refined level by level until two agree within
    tol / 2."""
    def scalar(levels, value, tol):
        prev, err = None, np.inf
        for lv in levels:
            val = value(lv)
            if prev is not None:
                err = abs(val - prev)
                if err <= 0.5 * tol:
                    return val, err, True
            prev = val
        return prev, err, False

    def edge_value(g):
        def value(nr):
            r, wr = quadrature._radial_rule(1.0, nr)
            return complex(np.sum(wr * g(r) * _kernels.edge_u0(r, 50.0, 0.3)))
        return value

    def area_value(f):
        def value(lv):
            rule = quadrature._area_rule(*QUARTER, 1.0, *lv)
            u0 = _kernels.u0_polar(rule.r, rule.t, 50.0)
            return complex((rule.wrt * f(rule.r, rule.t) * u0 * rule.r[:, None]).sum())
        return value

    for f, tol in EDGE_ROWS:
        ref = scalar([10, 16, 24, 32], edge_value(f), tol)
        assert _bits(_edge(f, tol)) == _bits(quadrature.QuadResult(*ref))
    for f, tol in AREA_ROWS:
        ref = scalar([(10, 12), (14, 24), (20, 48)], area_value(f), tol)
        assert _bits(_area(f, tol)) == _bits(quadrature.QuadResult(*ref))


def test_refine_returns_one_plain_flag():
    """_refine's third value is one bool, every row converged, for one value
    and for a table; a table's rows are lists of values and errors."""
    for out in (1.0 + 2j, np.array([1.0, 2.0j])):
        for tol, converged in ((1e-3, True), (1e-9, False)):
            *_, ok = quadrature._refine([1, 2], lambda lv: out * (1 + 1e-6 / lv), tol)
            assert type(ok) is bool and ok is converged
    val, err, ok = quadrature._refine([1, 2, 3], lambda lv: np.array([1.0, 1.0 / lv]),
                                      [1e-3, 1.0])
    assert (val, err, ok) == ([1.0, 0.5], [0.0, 0.5], True)
