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
one.

Integrals that share a rule and an s are refined as rows of one table:
an edge or area integrand may return one row per integral, and each level
builds the weight u0(s .) once and sums every row along the grid in one
kernel call.  `_refine` is the one refinement loop.  Each row stops at the
first level that agrees with its previous one within half its own
tolerance, keeping that level's value and difference, so a row is bit for
bit the integral refined alone; its third return value is one flag, every
row converged.
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


def _refine(levels, eval_fn, tol):
    """Run eval_fn at increasing refinement levels until agreement <= tol/2.

    eval_fn(level) returns one value, or a table of rows: a 1-D array of one
    value per row, refined together.  Each row stops at the first level
    that agrees with its previous level within half its own tolerance (tol
    a scalar, or one per row) and keeps that level's value and difference;
    a row that never does keeps the last level's.  The table is evaluated
    until every row has stopped, so each row has the bits it has refined
    alone.  Returns (value, error, converged) for one value, and (values,
    errors, every row converged) for a table; a row's own flag is
    error <= tol/2.
    """
    prev = None
    for lv in levels:
        out = eval_fn(lv)
        cur = np.ravel(out).tolist()
        if prev is None:
            rows = np.ndim(out) > 0
            half = (0.5 * np.broadcast_to(tol, len(cur))).tolist()
            val, err, live = list(cur), [np.inf] * len(cur), range(len(cur))
        else:
            for i in live:
                val[i], err[i] = cur[i], abs(cur[i] - prev[i])
            live = [i for i in live if not err[i] <= half[i]]
            if not live:
                break
        prev = cur
    ok = not live
    return (val, err, ok) if rows else (val[0], err[0], ok)


def polar_integral(breaks, theta_m, theta_M, kernel, tol):
    """Tensor rule of radial panels over `breaks` times angular Gauss nodes,
    summed by kernel(r, wr, theta, wt) and refined over one level list."""

    def eval_fn(lv):
        nr, nt = lv
        r, wr = panel_rule(breaks, nr)
        t, wt = _theta_rule(theta_m, theta_M, nt)
        return kernel(r, wr, t, wt)

    return QuadResult(*_refine([(12, 12), (16, 24), (24, 48), (32, 96)], eval_fn, tol))


def _results(refined, tol):
    """The QuadResult of a refinement of one value, or one per row of a
    refined table, each row's flag error <= tol/2."""
    val, err, ok = refined
    if not isinstance(val, list):
        return QuadResult(val, err, ok)
    half = 0.5 * np.broadcast_to(tol, len(val))
    return tuple(QuadResult(v, e, bool(e <= t)) for v, e, t in zip(val, err, half))


def edge_u0_integral(theta, s, h, g=None, tol=1e-12):
    """1D integral over an edge ray: int_0^h g(r) exp(-sqrt(s r) mu(theta)) dr.

    g is a vectorized callable of r (default: 1).  It may return a table,
    one row of values per integrand, which is refined as one (tol a scalar
    or one per row) and gives one QuadResult per row; a 1-D g is one
    integrand and gives one QuadResult.
    """
    s, theta = float(s), float(theta)

    def eval_fn(nr):
        r, wr = _radial_rule(h, nr)
        gv = np.ones_like(r, dtype=complex) if g is None else np.asarray(g(r), dtype=complex)
        return _kernels.edge_quad_sum(wr, gv, _kernels.edge_u0(r, s, theta))

    return _results(_refine([10, 16, 24, 32], eval_fn, tol), tol)


def sector_area_integral(f, theta_m, theta_M, h, s, tol=1e-11):
    """Integral of f(x) u0(s x) over the sector S_h.  f(r, t) takes each
    level's radial and angular nodes and returns the (len(r), len(t)) table
    of f on the polar grid r x t (`polar_points` gives its points), or an
    (m, len(r), len(t)) stack of m integrands' tables, refined as one with
    one QuadResult per integrand, as for edge_u0_integral."""
    s = float(s)

    def eval_fn(lv):
        rule = _area_rule(theta_m, theta_M, h, *lv)
        vals = np.asarray(f(rule.r, rule.t), dtype=complex)
        u0 = _kernels.u0_polar(rule.r, rule.t, s)
        return _kernels.area_quad_sum(rule.wrt, vals, u0, rule.r)

    return _results(_refine([(10, 12), (14, 24), (20, 48)], eval_fn, tol), tol)


def arc_integral(F, theta_m, theta_M, tol=1e-12):
    """Adaptive Gauss-Legendre integral of a smooth vectorized F over [theta_m, theta_M]."""

    def eval_fn(nt):
        t, wt = _theta_rule(theta_m, theta_M, nt)
        return complex(np.sum(wt * np.asarray(F(t), dtype=complex)))

    return QuadResult(*_refine([16, 32, 64, 128, 256], eval_fn, tol))
