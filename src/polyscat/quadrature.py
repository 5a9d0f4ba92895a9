"""Quadrature rules for sector-domain integrals against the decaying test
function u0(s x) = exp(-sqrt(s r) e^{i theta/2}).

Radial direction (edge rays and area rules, `_radial_rule`): composite
Gauss-Legendre in u = sqrt(r) on panels geometric in u toward u = 0, where
u0's sqrt(r) behaviour at the apex and the scenario fit's r^(-1/2) edge
flux are both smooth; `polar_integral` (the CGO cross-checks) keeps its
own panels in r.  Angular direction: tensor
Gauss-Legendre, refined by doubling until two successive levels agree.

The rules depend only on the sector (or the edge length h) and the
refinement level, never on s or the integrand, so each level is built once
and shared: the area tensor rule per (sector, level), with its weights
wr (x) wt, the radial rule of an edge ray per (h, level), and the angular
rule per (angles, level).  Their arrays are read-only; a grid met again is
the same object.  An area integrand is handed the radial and angular nodes
of each level and returns its table on that polar grid, so a field with a
form in polar coordinates is evaluated once per radius and once per angle;
`polar_points` gives the grid's Cartesian points to an integrand without
one.  The weight u0(s .) on a
rule depends on s alone, so integrals that pass one `U0Tables` share it:
one table per (area rule, s) and one factor per (edge rule, edge angle, s).
The sums multiply in the order each integral always has, so sharing moves
no bit of any value.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    converged: bool

    def __complex__(self):
        return complex(self.value)


def _frozen(*arrays):
    """The arrays, made read-only: rules are shared between callers."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def gauss_legendre(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_rule(breaks, n):
    """Composite Gauss-Legendre nodes/weights over consecutive breakpoints."""
    x, w = gauss_legendre(n)
    a = breaks[:-1]
    b = breaks[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = (mid + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def graded_breaks(r_lo, r_hi):
    """Breakpoints from r_hi down toward r_lo: log-uniform when r_lo > 1e-16 r_hi,
    otherwise halving from r_hi until below 1e-16 r_hi, then 0."""
    if r_lo > 1e-16 * r_hi:
        # log-uniform between r_lo and r_hi
        m = max(8, int(np.ceil(np.log(r_hi / r_lo) / np.log(2.0))) * 2)
        return r_lo * (r_hi / r_lo) ** (np.arange(m + 1) / m)
    levels = int(np.ceil(np.log(1e-16) / np.log(0.5)))
    pts = r_hi * 0.5 ** np.arange(levels, -1, -1)
    return np.concatenate(([0.0], pts))


@lru_cache(maxsize=64)
def _theta_rule(theta_m, theta_M, nt):
    x, w = gauss_legendre(nt)
    mid = 0.5 * (theta_m + theta_M)
    half = 0.5 * (theta_M - theta_m)
    return _frozen(mid + half * x, half * w)


_U_RATIO = 2.0 ** -0.5   # ratio of consecutive radial panel ends in u = sqrt(r)
_U_PANELS = 28           # the innermost is [0, 2^-13.5 sqrt(h)] = [0, 8.6e-5 sqrt(h)]


@lru_cache(maxsize=64)
def _radial_rule(h, nr):
    """The radial rule on [0, h]: an edge ray's, and an area rule's radial
    factor.

    Gauss-Legendre in u = sqrt(r), nodes r = u^2 and weights 2 u w_u, on
    panels geometric in u toward u = 0.  Under this substitution the apex
    behaviour of the probe's integrands is smooth: u0(s x) =
    exp(-sqrt(s) u e^{i theta/2}) is analytic in u, and an r^(-1/2) edge
    flux times the Jacobian 2u is a constant.  In r, the innermost panel of
    any finite grading leaves the r^(-1/2) integrals an error of order the
    square root of its length.  The geometric panels resolve the decay
    length 1/sqrt(s) of u0 in u for every s with one panel count.  With
    ratio 1/2 instead of 1/sqrt(2), the edge integrals at theta = 0.9 pi,
    s = 1e4 and h = 2 stop unconverged at tol 1e-12.
    """
    ends = np.sqrt(h) * _U_RATIO ** np.arange(_U_PANELS - 1, -1, -1)
    u, wu = panel_rule(np.concatenate(([0.0], ends)), nr)
    return _frozen(u * u, 2.0 * u * wu)


class AreaRule(NamedTuple):
    """One level of the tensor rule on the sector S_h."""
    r: np.ndarray       # radial nodes
    t: np.ndarray       # angular nodes
    wrt: np.ndarray     # (len(r), len(t)) weights wr (x) wt


@lru_cache(maxsize=16)
def _area_rule(theta_m, theta_M, h, nr, nt):
    r, wr = _radial_rule(h, nr)
    t, wt = _theta_rule(theta_m, theta_M, nt)
    return AreaRule(r, t, *_frozen(wr[:, None] * wt[None, :]))


def polar_points(r, t):
    """The (len(r) * len(t), 2) Cartesian points of the polar grid r x t,
    r-major: for an integrand that has no form on the grid itself."""
    pts = np.empty((r.size * t.size, 2))
    rr = np.repeat(r, t.size)
    tt = np.tile(t, r.size)
    pts[:, 0] = rr * np.cos(tt)
    pts[:, 1] = rr * np.sin(tt)
    return pts


class U0Tables:
    """u0(s .) on the rules that the integrals given this store meet, each
    (rule, s) computed once.  A caller shares one store between the
    integrals of one s and drops it when that s is done."""

    def __init__(self):
        self._made = {}

    def get(self, key, make):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]


def _refine(levels, eval_fn, tol):
    """Run eval_fn at increasing refinement levels until agreement < tol/2."""
    prev = None
    err = np.inf
    for lv in levels:
        val = eval_fn(lv)
        if prev is not None:
            err = abs(val - prev)
            if err <= 0.5 * tol:
                return val, err, True
        prev = val
    return prev, err, False


def polar_integral(breaks, theta_m, theta_M, kernel, tol):
    """Tensor rule of radial panels over `breaks` times angular Gauss nodes,
    summed by kernel(r, wr, theta, wt) and refined over one level list."""

    def eval_fn(lv):
        nr, nt = lv
        r, wr = panel_rule(breaks, nr)
        t, wt = _theta_rule(theta_m, theta_M, nt)
        return kernel(r, wr, t, wt)

    return QuadResult(*_refine([(12, 12), (16, 24), (24, 48), (32, 96)], eval_fn, tol))


def edge_u0_integral(theta, s, h, g=None, tol=1e-12, u0_tables=None):
    """1D integral over an edge ray: int_0^h g(r) exp(-sqrt(s r) mu(theta)) dr.

    g is a vectorized callable of r (default: 1); u0_tables, when given,
    shares the factor exp(-sqrt(s r) mu(theta)) of each level with the other
    integrals passed the same store.
    """
    s, theta = float(s), float(theta)
    tables = U0Tables() if u0_tables is None else u0_tables

    def eval_fn(nr):
        r, wr = _radial_rule(h, nr)
        gv = np.ones_like(r, dtype=complex) if g is None else np.asarray(g(r), dtype=complex)
        e = tables.get(("edge", h, nr, theta, s), lambda: _kernels.edge_u0(r, s, theta))
        return _kernels.edge_quad_sum(wr, gv, e)

    val, err, ok = _refine([10, 16, 24, 32], eval_fn, tol)
    return QuadResult(val, err, ok)


def sector_area_integral(f, theta_m, theta_M, h, s, tol=1e-11, u0_tables=None):
    """Integral of f(x) u0(s x) over the sector S_h.  f(r, t) takes each
    level's radial and angular nodes and returns the (len(r), len(t)) table
    of f on the polar grid r x t (`polar_points` gives its points);
    u0_tables as for edge_u0_integral, one table per level."""
    s = float(s)
    tables = U0Tables() if u0_tables is None else u0_tables

    def eval_fn(lv):
        rule = _area_rule(theta_m, theta_M, h, *lv)
        vals = np.asarray(f(rule.r, rule.t), dtype=complex).reshape(rule.wrt.shape)
        u0 = tables.get(("area", theta_m, theta_M, h, lv, s),
                        lambda: _kernels.u0_polar(rule.r, rule.t, s))
        return _kernels.area_quad_sum(rule.wrt, vals, u0, rule.r)

    val, err, ok = _refine([(10, 12), (14, 24), (20, 48)], eval_fn, tol)
    return QuadResult(val, err, ok)


def arc_integral(F, theta_m, theta_M, tol=1e-12):
    """Adaptive Gauss-Legendre integral of a smooth vectorized F over [theta_m, theta_M]."""

    def eval_fn(nt):
        t, wt = _theta_rule(theta_m, theta_M, nt)
        return complex(np.sum(wt * np.asarray(F(t), dtype=complex)))

    val, err, ok = _refine([16, 32, 64, 128, 256], eval_fn, tol)
    return QuadResult(val, err, ok)
