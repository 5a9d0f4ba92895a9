"""Quadrature rules for sector-domain integrals against the decaying test
function u0(s x) = exp(-sqrt(s r) e^{i theta/2}).

Radial direction: one rule, `_radial_rule`, for the probe's edge rays and
area rules and the CGO cross-checks (`polar_integral`) alike: composite
Gauss-Legendre in u = sqrt(r) on panels geometric in u toward the lower end,
u = 0 from the apex, where u0's sqrt(r) behaviour and the fit's r^(-1/2) edge
flux are both smooth.  Angular direction: tensor Gauss-Legendre, refined by
doubling until two successive levels agree.

The rules depend only on the sector (or the edge length h) and the
refinement level, never on s or the integrand, so each level is built once
and shared: the area tensor rule per (sector, level), with its weights
wr (x) wt, the radial rule of an edge ray per (h, level), and the angular
rule per (angles, level).  Their arrays are read-only.  An area integrand
is handed the radial and angular nodes of each level and returns its table
on that polar grid, so a field with a form in polar coordinates is
evaluated once per radius and once per angle; `polar_points` gives the
grid's Cartesian points to an integrand without one.

Integrals that share a rule are refined as rows of one table, however
many s values and edge angles they span: an integrand may return one row
per integral, the edge integral takes arrays of edge angles and s values
and the area integral an array of s values, and each level calls the
integrand once, builds each row's weight u0(s .) and sums every row along
the grid.  `_refine` is the one refinement loop.  Each row stops at the
first level that agrees with its previous one within half its own
tolerance, keeping that level's value and difference, so a row is bit for
bit the integral refined alone; its third return value is one flag, every
row converged.  A row that has stopped is still evaluated while another
runs on.
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


@lru_cache(maxsize=64)
def _theta_rule(theta_m, theta_M, nt):
    x, w = gauss_legendre(nt)
    mid = 0.5 * (theta_m + theta_M)
    half = 0.5 * (theta_M - theta_m)
    return _frozen(mid + half * x, half * w)


_U_RATIO = 2.0 ** -0.5   # ratio of consecutive radial panel ends in u = sqrt(r)
_U_PANELS = 28           # the innermost is [0, 2^-13.5 sqrt(h)] = [0, 8.6e-5 sqrt(h)]


@lru_cache(maxsize=64)
def _radial_rule(h, nr, lo=0.0):
    """The radial rule on [lo, h]: an edge ray's, and an area rule's radial
    factor.  The rule from the apex is called without lo, so the edge rays
    and the area rule build it once.

    Gauss-Legendre in u = sqrt(r), nodes r = u^2 and weights 2 u w_u, on
    panels geometric in u toward u = sqrt(lo).  Under this substitution the apex
    behaviour of the probe's integrands is smooth: u0(s x) =
    exp(-sqrt(s) u e^{i theta/2}) is analytic in u, and an r^(-1/2) edge
    flux times the Jacobian 2u is a constant.  In r, the innermost panel of
    any finite grading leaves the r^(-1/2) integrals an error of order the
    square root of its length.  The geometric panels resolve the decay
    length 1/sqrt(s) of u0 in u for every s with one panel count.  With
    ratio 1/2 instead of 1/sqrt(2), the edge integrals at theta = 0.9 pi,
    s = 1e4 and h = 2 stop unconverged at tol 1e-12.
    """
    a = np.sqrt(lo)
    ends = a + (np.sqrt(h) - a) * _U_RATIO ** np.arange(_U_PANELS - 1, -1, -1)
    u, wu = panel_rule(np.concatenate(([a], ends)), nr)
    return _frozen(u * u, 2.0 * u * wu)


class AreaRule(NamedTuple):
    """One level of the tensor rule on the sector S_h (or on its part
    beyond radius lo)."""
    r: np.ndarray       # radial nodes
    t: np.ndarray       # angular nodes
    wrt: np.ndarray     # (len(r), len(t)) weights wr (x) wt


@lru_cache(maxsize=16)
def _area_rule(theta_m, theta_M, h, nr, nt, lo=0.0):
    r, wr = _radial_rule(h, nr, lo) if lo else _radial_rule(h, nr)
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

    eval_fn(level) returns one value, or a table of rows: an array of one
    value per row, refined together.  Each row stops at the first level
    that agrees with its previous level within half its own tolerance (tol
    a scalar, or an array that broadcasts against the table) and keeps
    that level's value and difference; a row that never does keeps the
    last level's.  The table is evaluated until every row has stopped, so
    each row has the bits it has refined alone.  Returns (value, error,
    converged) for one value, and (values, errors, every row converged),
    the table's rows flattened, for a table; a row's own flag is
    error <= tol/2.
    """
    prev = None
    for lv in levels:
        out = eval_fn(lv)
        cur = np.ravel(out).tolist()
        if prev is None:
            rows = np.ndim(out) > 0
            half = (0.5 * np.broadcast_to(tol, np.shape(out))).ravel().tolist()
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


def _refined(levels, eval_fn, tol):
    """The QuadResult of refining eval_fn (see _refine), or for a table the
    array, of the table's shape, of one QuadResult per row, each row's flag
    error <= tol/2."""
    shape = []

    def level(lv):
        out = eval_fn(lv)
        shape[:] = np.shape(out)
        return out

    val, err, ok = _refine(levels, level, tol)
    if not shape:
        return QuadResult(val, err, ok)
    half = (0.5 * np.broadcast_to(tol, shape)).ravel()
    return np.array([QuadResult(v, e, bool(e <= t)) for v, e, t in zip(val, err, half)],
                    dtype=object).reshape(shape)


def polar_integral(theta_m, theta_M, h, kernel, tol, lo=0.0):
    """kernel(rule) of the area rule between radii lo and h, refined over
    one level list."""
    return _refined([(12, 12), (16, 24), (24, 48), (32, 96)],
                    lambda lv: kernel(_area_rule(theta_m, theta_M, h, *lv, lo)), tol)


def edge_u0_integral(theta, s, h, g=None, tol=1e-12):
    """1D integral over an edge ray: int_0^h g(r) exp(-sqrt(s r) mu(theta)) dr.

    g is a vectorized callable of r (default: 1).  The edge angle theta, s
    and g's values broadcast together as numpy arrays do, the radii on g's
    last axis.  One theta, one s and a 1-D g give one QuadResult.  Otherwise
    every element of the broadcast shape is a row of one table, refined as
    one (tol a scalar or broadcast against the rows), and the result is the
    array of one QuadResult per row: each level weights every (theta, s)
    row once and sums the table in one kernel call.
    """
    def eval_fn(nr):
        r, wr = _radial_rule(h, nr)
        gv = np.ones_like(r, dtype=complex) if g is None else np.asarray(g(r), dtype=complex)
        return _kernels.edge_quad_sum(wr, gv, _kernels.edge_u0(r, s, theta))

    return _refined([10, 16, 24, 32], eval_fn, tol)


def sector_area_integral(f, theta_m, theta_M, h, s, tol=1e-11):
    """Integral of f(x) u0(s x) over the sector S_h.  f(r, t) takes each
    level's radial and angular nodes and returns the (len(r), len(t)) table
    of f on the polar grid r x t (`polar_points` gives its points), or a
    stack of such tables, one per integrand.  s is one value or an array;
    the table of rows refined as one, as for edge_u0_integral, has s's axes
    followed by the stack's.  f is called once per level for every s, and
    each s weights and sums the stack by itself, so the level's grid-sized
    arrays do not grow with the number of s values."""
    def eval_fn(lv):
        rule = _area_rule(theta_m, theta_M, h, *lv)
        vals = np.asarray(f(rule.r, rule.t), dtype=complex)
        sums = [_kernels.area_quad_sum(rule.wrt, vals, _kernels.u0_polar(rule.r, rule.t, si),
                                       rule.r)
                for si in np.ravel(s)]
        return np.reshape(sums, np.shape(s) + vals.shape[:-2])

    return _refined([(10, 12), (14, 24), (20, 48)], eval_fn, tol)


def arc_integral(F, theta_m, theta_M, tol=1e-12):
    """Adaptive Gauss-Legendre integral of a smooth vectorized F over
    [theta_m, theta_M].  F(t) may return a table, one row per integrand
    (one per s, say) with the nodes on its last axis, refined as one, as
    for edge_u0_integral."""

    def eval_fn(nt):
        t, wt = _theta_rule(theta_m, theta_M, nt)
        return (wt * np.asarray(F(t), dtype=complex)).sum(axis=-1)

    return _refined([16, 32, 64, 128, 256], eval_fn, tol)
