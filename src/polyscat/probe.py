"""Corner-probe functionals and parameter-difference extraction.

Given two fields u1, u2 sampled on a truncated corner sector S_h whose
traces on the two straight edges satisfy (at least approximately)
    v := u1 - u2 = 0,        dnu v = (eta1 - eta2) u2,
and whose interiors satisfy Helmholtz equations with potentials k^2 w1,
k^2 w2, pairing Green's identity on (v, u0(s .)) with the closed-form edge
and sector integrals of the decaying test function isolates eta1 - eta2 at
order 1/s and omega1 - omega2 at order 1/s^2.  The extractors assemble the
measurable side at each s on a grid and extrapolate the limit in powers
of 1/s.

The area, edge and arc quadrature grids of quadrature.py depend only on
the sector, never on s; only the weight u0(s x) does.  So every s of a
grid is a row of one refinement (quadrature._refine), and each level's
grid is sampled once for all of them by construction: an extraction makes
three refinements, the arc (I1, the one grid where the fields' normal
derivatives are sampled), the area (I2 and the identity residual's
integrals of u2 and v) and one edge refinement over both edges (the
remainder I32 and the residual's edge term).  Each row stops at the level
it would reach alone, with the same bits, and each level's u0(s .) weights
are built once for all its rows.  An area level reaches a field as its
polar grid (r, t) in the sector's canonical frame, and the field returns
its (len r, len t) table through its grid form (FieldSampler.grid_fn); a
Bessel series in the sector's own frame evaluates J_n once per radius and
its angular factors once per angle there.  A field with no grid form (a
world-frame series, or any other sampler) is sampled at the grid's
Cartesian points instead.  Edge and arc grids are always sampled at
their points, an edge grid on both edges in one call.  The numerator,
denominator and identity residual are assembled per s from the rows, and
the eta and omega estimates are both read off them.  The manufactured
scenario's fit makes one edge refinement the same way: its rows are the
Green moments of both edges, every fit s and every basis element and the
target, so J_n(kappa r) and the u2 Cauchy data are taken once per edge
grid.

The manufactured fields are Fourier-Bessel series
sum_n J_n(kappa r)(a_n cos n theta + b_n sin n theta).  Every order
J_0 ... J_{N-1} of a point comes from one backward run of the three-term
recurrence (Miller's algorithm, normalized by 1 = J_0 + 2 sum_k J_2k; see
_bessel_rows), and the derivatives from J_n' = (J_{n-1} - J_{n+1}) / 2 on
the same rows.  On points, the series sampler takes them in chunks of
_CHUNK, so the row table never spans more than one chunk.  Within a
chunk it runs the recurrence on the distinct radii only, and evaluates
cos n theta, sin n theta and the angular factors on the distinct angles
only, then gathers both back to the points; a chunk of apex points alone
(a corner value) takes the r -> 0 limit and runs no recurrence.  Every
step is elementwise, so each point's bits are those it gets alone.  Its
grid form sums the same products over n in the same order on the grid's
own radii and angles, which the points reproduce only to rounding.

Sign conventions: estimates are of eta1 - eta2 and omega1 - omega2.
The exact exponential corrections of the closed-form edge integral are
kept on the known side (inside the denominator), not bounded away.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import cgo
from .geometry import CornerSector
from .medium import sqrt_im_nonneg
from .quadrature import arc_integral, edge_u0_integral, polar_points, sector_area_integral


@dataclass(frozen=True)
class FieldSampler:
    """Vectorized field evaluator on (n,2) world points -> (values, gradients).

    values_fn, when given, returns the values alone, bit-identical to
    fn(pts)[0] without the gradient work; values() falls back to fn.
    grid_fn, when given, is the grid form: grid_fn(sector, r, t) returns the
    (len(r), len(t)) table of values on the polar grid r x t of the
    sector's canonical frame, or None for a frame it has no form in;
    on_grid() falls back to the values at the grid's points.
    """

    fn: Callable
    values_fn: Callable | None = None
    grid_fn: Callable | None = None

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals, grads = self.fn(pts)
        return np.asarray(vals, dtype=complex), np.asarray(grads, dtype=complex)

    def values(self, pts):
        if self.values_fn is None:
            return self(pts)[0]
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.values_fn(pts), dtype=complex)

    def on_grid(self, sector: CornerSector, r, t):
        """Values on the polar grid r x t of the sector's canonical frame,
        as a (len(r), len(t)) table."""
        table = None if self.grid_fn is None else self.grid_fn(sector, r, t)
        if table is None:
            table = self.values(sector.to_world(polar_points(r, t))).reshape(len(r), len(t))
        return np.asarray(table, dtype=complex)

    def __sub__(self, other):
        def diff(pts):
            v1, g1 = self(pts)
            v2, g2 = other(pts)
            return v1 - v2, g1 - g2

        def diff_values(pts):
            return self.values(pts) - other.values(pts)

        return FieldSampler(diff, values_fn=diff_values)


@dataclass(frozen=True)
class ProbeScenario:
    sector: CornerSector
    k: complex
    omega1: complex
    omega2: complex
    eta1: complex
    eta2: complex
    u1: FieldSampler
    u2: FieldSampler
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # raises for cut-touching or opening-pi sectors
        cgo.SectorSpec(self.sector.theta_m, self.sector.theta_M)
        if self.k == 0:
            raise ValueError("wavenumber k must be nonzero")


@dataclass(frozen=True)
class ProbeResult:
    eta_estimates: tuple      # ((s, estimate of eta1-eta2), ...)
    omega_estimates: tuple    # ((s, estimate of omega1-omega2), ...)
    eta_extrapolated: complex | None
    omega_extrapolated: complex | None
    residuals: tuple          # per-s identity-closure residuals (relative)
    diagnostics: dict

    def __post_init__(self):
        for seq in (self.eta_estimates, self.omega_estimates):
            svals = [s for s, _ in seq]
            if any(b <= a for a, b in zip(svals, svals[1:])):
                raise ValueError("s values must be strictly increasing")


class Extrapolation(NamedTuple):
    limit: complex
    error: float | None   # |degree n-1 fit - degree n-2 fit| at 1/s = 0


def corner_value(sampler: FieldSampler, sector: CornerSector):
    """The sampled field at the sector's apex, through the values path."""
    return complex(sampler.values(sector.apex[None, :])[0])


def _arc_functional(v: FieldSampler, sector: CornerSector, s, tol):
    """I1 of v: the arc r = h, the one grid that needs gradients, sampled
    for (v, dnu v) once per level.  A column of s values, shape (m, 1),
    gives one row per s of the table arc_integral refines."""
    h = sector.h

    def F(thetas):
        rad = np.column_stack([np.cos(thetas), np.sin(thetas)])
        vals, grads = v(sector.to_world(h * rad))
        dnu = (grads * sector.vec_to_world(rad)).sum(axis=1)
        u0 = cgo.u0_polar(h, thetas, s)
        du0 = cgo.u0_radial_deriv(h, thetas, s)
        return (dnu * u0 - du0 * vals) * h

    return arc_integral(F, sector.theta_m, sector.theta_M, tol)


def _area_functional(f, sector: CornerSector, s, tol):
    return sector_area_integral(f, sector.theta_m, sector.theta_M, sector.h, s, tol)


class _Edge(NamedTuple):
    theta: float            # canonical angle of the edge ray
    sign: float             # outward normal = sign * theta-hat: +1 on '+', -1 on '-'
    direction: np.ndarray   # canonical unit vector along the ray
    normal: np.ndarray      # outward unit normal in the world frame


_SIDES = ("+", "-")


def _edge(sector: CornerSector, side):
    if side not in _SIDES:
        raise ValueError("side must be '+' or '-'")
    theta, sign = (sector.theta_M, 1.0) if side == "+" else (sector.theta_m, -1.0)
    return _Edge(theta, sign, np.array([math.cos(theta), math.sin(theta)]),
                 sector.vec_to_world(sign * np.array([-math.sin(theta), math.cos(theta)])))


def _edge_traces(u: FieldSampler, sector: CornerSector, grad=False):
    """radii -> u on both edges, rows '+' then '-': the (2, len(r)) table of
    values, or with grad the pair (values, dnu u), both edges sampled in
    one call."""
    edges = [_edge(sector, side) for side in _SIDES]

    def f(r):
        r = np.asarray(r)
        pts = sector.to_world(np.concatenate([r[:, None] * e.direction[None, :]
                                              for e in edges]))
        if not grad:
            return u.values(pts).reshape(2, len(r))
        vals, grads = u(pts)
        grads = grads.reshape(2, len(r), 2)
        return vals.reshape(2, len(r)), np.stack([g @ e.normal for g, e in zip(grads, edges)])

    return f


def _residual(sc: ProbeScenario, i1, lhs_q, rhs_v, edge_qs):
    """Identity residual from I1, the area integrals of u2 and v and the edge
    integrals of u2; see identity_residual."""
    k2 = sc.k**2
    lhs = k2 * (sc.omega2 - sc.omega1) * lhs_q.value
    eta_d = sc.eta1 - sc.eta2
    edge_terms = 0j
    edge_err = 0.0
    for q in edge_qs:
        edge_terms += eta_d * q.value
        edge_err += abs(eta_d) * q.error
    term_v = k2 * sc.omega1 * rhs_v.value
    rhs = term_v + edge_terms + i1.value
    scale = max(abs(lhs), abs(term_v), abs(edge_terms), abs(i1.value), 1e-300)
    qerr = (abs(k2 * (sc.omega2 - sc.omega1)) * lhs_q.error
            + abs(k2 * sc.omega1) * rhs_v.error + i1.error + edge_err)
    return abs(lhs - rhs) / scale, qerr / scale, scale


def _functionals(sc: ProbeScenario, s_grid, u2_0, v0, tol):
    """Per s of s_grid: the numerator I1 + k^2 omega1 I2 (the measurable
    side), the denominator u2(0) (I31+ + I31-) + (I32+ + I32-), the identity
    residual and the quadratures behind them.

    Every s is a row of three refinements, so each grid is sampled once
    per level for all of them: the arc refinement of I1, which the
    numerator and the residual share; the area refinement of I2 and the
    residual's integrals of u2 and v; and one edge refinement over both
    edges of the remainder I32 and the residual's integral of u2.  Each row
    stops and rounds as it would alone."""
    sec = sc.sector
    s = np.array(s_grid)
    u2_edges = _edge_traces(sc.u2, sec)

    def area(r, t):
        u2 = sc.u2.on_grid(sec, r, t)
        v = sc.u1.on_grid(sec, r, t) - u2
        return np.stack([v - v0, u2, v])

    def edges(r):
        """(2, 1, 2, len(r)): per edge, '+' then '-', u2 - u2(0) and u2."""
        u2 = u2_edges(r)
        return np.stack([u2 - u2_0, u2], axis=1)[:, None]

    i1 = _arc_functional(sc.u1 - sc.u2, sec, s[:, None], tol)
    area_qs = _area_functional(area, sec, s, (max(tol, 1e-12), tol, tol))
    thetas = np.array([_edge(sec, side).theta for side in _SIDES])
    edge_qs = edge_u0_integral(thetas[:, None, None], s[:, None], sec.h, g=edges, tol=tol)
    out = []
    for j, sj in enumerate(s_grid):
        i2, lhs_q, rhs_v = area_qs[j]
        (rem_p, edge_p), (rem_m, edge_m) = edge_qs[:, j]
        num = i1[j].value + sc.k**2 * sc.omega1 * i2.value
        i31p = cgo.edge_integral_exact(sec.theta_M, sj, sec.h)
        i31m = cgo.edge_integral_exact(sec.theta_m, sj, sec.h)
        den = u2_0 * (i31p + i31m) + (rem_p.value + rem_m.value)
        out.append((num, den, _residual(sc, i1[j], lhs_q, rhs_v, (edge_p, edge_m)),
                    (i1[j], i2, rem_p, rem_m, lhs_q, rhs_v, edge_p, edge_m)))
    return out


def richardson_extrapolate(s_vals, estimates) -> Extrapolation:
    """Limit of estimates(s) as s -> inf assuming an expansion in powers of 1/s.

    The limit is the constant term of the degree n-1 polynomial through the
    n points in 1/s; the error estimate is its distance from the constant
    term of the degree n-2 least-squares fit (None for a single point).
    """
    x = 1.0 / np.asarray(s_vals, dtype=float)
    y = np.asarray(estimates, dtype=complex)
    if len(x) == 1:
        return Extrapolation(complex(y[0]), None)
    polyfit = np.polynomial.polynomial.polyfit
    limit = complex(polyfit(x, y, len(x) - 1)[0])
    return Extrapolation(limit, abs(limit - complex(polyfit(x, y, len(x) - 2)[0])))


def _extract(sc: ProbeScenario, s_grid, tol, eta, omega, eta_diff=None) -> ProbeResult:
    """The eta and/or omega pass, both read off one set of per-s functionals
    computed for every s at once.  The omega pass uses eta_diff,
    or the eta pass's extrapolated limit when eta_diff is None."""
    s_grid = sorted(float(s) for s in s_grid)
    u1_0 = corner_value(sc.u1, sc.sector)
    u2_0 = corner_value(sc.u2, sc.sector)
    if eta and abs(u2_0) < 1e-12:
        raise ValueError("u2 vanishes at the corner; eta extraction undefined")
    if omega and abs(u1_0) < 1e-12:
        raise ValueError("u1 vanishes at the corner; omega extraction undefined")
    v0 = u1_0 - u2_0
    nums, dens, residuals, quads = zip(*_functionals(sc, s_grid, u2_0, v0, tol))
    # per s: did every quadrature behind it converge, and its worst error estimate
    diag = {"u1_0": u1_0, "u2_0": u2_0, "v0": v0,
            "quad_converged": tuple(all(q.converged for q in qs) for qs in quads),
            "quad_error": tuple(max(q.error for q in qs) for qs in quads)}
    eta_ests = omega_ests = ()
    eta_x = omega_x = None
    if eta:
        for s, den in zip(s_grid, dens):
            if abs(den) < 1e-12 * abs(u2_0) / s:
                raise ValueError(f"degenerate extraction denominator at s={s}")
        eta_ests = tuple((s, -num / den) for s, num, den in zip(s_grid, nums, dens))
        eta_x, diag["eta_extrapolation_err"] = richardson_extrapolate(
            s_grid, [e for _, e in eta_ests])
        eta_diff = eta_x if eta_diff is None else eta_diff
    if omega:
        sec = cgo.SectorSpec(sc.sector.theta_m, sc.sector.theta_M)
        lead = [sc.k**2 * u1_0 * cgo.sector_integral_exact(sec, s) for s in s_grid]
        omega_ests = tuple((s, -((num + eta_diff * den) / ld))
                           for s, num, den, ld in zip(s_grid, nums, dens, lead))
        omega_x, diag["omega_extrapolation_err"] = richardson_extrapolate(
            s_grid, [e for _, e in omega_ests])
        diag["eta_diff_input"] = eta_diff
    return ProbeResult(eta_ests, omega_ests, eta_x, omega_x,
                       tuple(r[0] for r in residuals), diag)


def extract_eta_diff(sc: ProbeScenario, s_grid, tol=1e-12) -> ProbeResult:
    """Per-s estimates of eta1 - eta2 and their extrapolated limit.

    Requires u2(0) away from zero; the denominator u2(0)(I31+ + I31-) is
    nonzero for every admissible sector.
    """
    return _extract(sc, s_grid, tol, eta=True, omega=False)


def extract_omega_diff(sc: ProbeScenario, s_grid, eta_diff, tol=1e-12) -> ProbeResult:
    """Per-s estimates of omega1 - omega2, given (or assuming) eta1 - eta2."""
    return _extract(sc, s_grid, tol, eta=False, omega=True, eta_diff=eta_diff)


def extract_both(sc: ProbeScenario, s_grid, tol=1e-12) -> ProbeResult:
    """eta extraction, then omega extraction chained on its extrapolated limit."""
    return _extract(sc, s_grid, tol, eta=True, omega=True)


def identity_residual(sc: ProbeScenario, s, tol=1e-12):
    """Imbalance of the assembled integral identity at one s.

    Literal two-sided assembly:
      LHS = k^2 (omega2-omega1) int_{S_h} u2 u0
      RHS = k^2 omega1 int_{S_h} v u0 + (eta1-eta2) int_{edges} u2 u0 + I1
    Returns (relative residual, quadrature error estimate, scale), where
    the scale is the largest individual term so the relative residual is
    meaningful even when one side vanishes.  Computed as the extraction
    computes it, by _functionals on the one-s grid.
    """
    u2_0 = corner_value(sc.u2, sc.sector)
    v0 = corner_value(sc.u1, sc.sector) - u2_0
    ((_, _, residual, _),) = _functionals(sc, [float(s)], u2_0, v0, tol)
    return residual


def admissibility_points(hull):
    """The 64 points where `admissibility_tau` samples a solved field: the
    circle about the hull's vertex mean whose radius is twice the hull's
    bounding-box diagonal."""
    th = np.arange(64) * 2 * np.pi / 64
    center = hull.vertices.mean(axis=0)
    return center[None, :] + 2.0 * hull.bbox_diag() * np.column_stack([np.cos(th), np.sin(th)])


def admissibility_tau(values):
    """The refusal threshold of the vertex values of a solved field: 1e-6
    times the largest |value| of the field at `admissibility_points`."""
    return 1e-6 * float(np.max(np.abs(values)))


_CHUNK = 4096   # points per Bessel table in bessel_series_sampler


def _bessel_rows(kappa, r, size):
    """J_0(kappa r), ..., J_{size-1}(kappa r) as a (size, len(r)) table.

    Miller's algorithm: the ratios rho_n = J_n / J_{n-1} run down the
    three-term recurrence, rho_n = 1 / (2n / z - rho_{n+1}) with z = kappa r,
    from rho = 0 above a start order, and the same pass accumulates
    1 / J_0 = 1 + 2 rho_1 rho_2 (1 + rho_3 rho_4 (1 + ...)) in nested form.
    Then J_n = J_0 rho_1 ... rho_n.  Only rho_1 ... rho_{size-1} are kept:
    nothing overflows, and no table over the start order is stored.  Each
    point starts at its own order, max(size, |z| + 8 |z|^(1/3) + 10), so its
    bits do not depend on the other points of the call.  Real arithmetic
    for real positive kappa, complex otherwise; r = 0 gives J_0 = 1 and
    J_n = 0.  Against 30-digit references the rows are within about 1e-15
    of the largest |J_n| up to |z| = 30, as scipy's jv is.  For complex
    kappa the normalizing sum cancels down to 1 / |J_0|: relative to a
    point's largest |J_n| the error is 4e-15 at |Im z| = 5, 5e-13 at 10
    and 5e-9 at 20.
    """
    r = np.asarray(r, dtype=float)
    real = np.imag(kappa) == 0 and np.real(kappa) > 0
    z = (float(np.real(kappa)) if real else complex(kappa)) * r
    az = np.abs(z)
    top = np.maximum(np.ceil(az + 8.0 * np.cbrt(az) + 10.0), size)
    live = z != 0
    z = np.where(live, z, 1.0)
    rho = np.zeros_like(z)      # rho_{n+1} on entry to step n
    nest = np.zeros_like(z)     # rho_{n+1} rho_{n+2} (1 + ...), n odd
    rows = np.empty((size, len(z)), dtype=z.dtype)
    for n in range(int(top.max(initial=0)), 0, -1):
        new = np.where(live & (n <= top), 1.0 / (2 * n / z - rho), 0.0)
        if n % 2:
            nest = new * rho * (1.0 + nest)
        rho = new
        if n < size:
            rows[n] = rho
    rows[0] = 1.0 / (1.0 + 2.0 * nest)
    return np.cumprod(rows, axis=0)


class _BesselBasis(NamedTuple):
    """J_n(kappa r){cos, sin}(n theta) for n < size, in a sector's canonical
    polar frame: the label list, the J_n rows and the coefficient packing.
    The rows of all orders come from one backward recurrence,
    _bessel_rows, which bessel_series_sampler also calls, _CHUNK points at
    a time, so its tables never span more than one chunk."""
    kappa: complex
    size: int

    @property
    def labels(self):
        return [(n, kind) for n in range(self.size)
                for kind in (("cos",) if n == 0 else ("cos", "sin"))]

    def bessel(self, r):
        """The (size, len(r)) table of J_n(kappa r), n < size."""
        return _bessel_rows(self.kappa, r, self.size)

    def angular(self, theta):
        """Per label, the angular factor at theta and its theta-derivative."""
        ang, dang = [], []
        for n, kind in self.labels:
            c, s = np.cos(n * theta), np.sin(n * theta)
            ang.append(c if kind == "cos" else s)
            dang.append(-n * s if kind == "cos" else n * c)
        return ang, dang

    def columns(self, table, factors):
        """One column per label: its row of a (size, m) table times its factor."""
        return np.column_stack([table[n] * f for (n, _), f in zip(self.labels, factors)])

    def unpack(self, c):
        """Coefficients in label order, (0, cos) then (n, cos), (n, sin) for
        n >= 1, as the (cos, sin) coefficient arrays."""
        return np.r_[c[0], c[1::2]], np.r_[0, c[2::2]]


def _midline_offsets(sector: CornerSector):
    """h*(1/8, 1/16, 1/32, 1/64): the distances of the midline samples from
    the apex."""
    return sector.h / 8.0 * 0.5 ** np.arange(4)


def midline_points(sector: CornerSector):
    """The 4 points where `extrapolate_vertex_value` samples a field, at
    `_midline_offsets` from the apex along the bisector."""
    ts = _midline_offsets(sector)
    return sector.apex[None, :] + ts[:, None] * sector.midline_world[None, :]


def extrapolate_vertex_value(values, sector: CornerSector):
    """Field value at the sector apex by extrapolation along the midline.

    Boundary collocation cannot be evaluated on the corner itself; fitting
    a cubic in the offset to the field `values` at `midline_points(sector)`
    recovers the corner limit of a field that is continuous up to the
    corner.
    """
    coef = np.polynomial.polynomial.polyfit(_midline_offsets(sector), values, 3)
    return complex(coef[0])


# --------------------------------------------------------------------------
# manufactured corner scenarios


def _distinct(x):
    """The distinct values of a float array, told apart by their bits (so
    0.0 and -0.0 stay apart), and the index of each entry among them."""
    bits, at = np.unique(x.view(np.int64), return_inverse=True)
    return bits.view(np.float64), at


def bessel_series_sampler(kappa, cos_coeffs, sin_coeffs, sector: CornerSector | None = None):
    """Exact Helmholtz field sum_n J_n(kappa r)(a_n cos n th + b_n sin n th).

    Coordinates are the sector's canonical frame when a sector is given
    (sampler still takes world points), otherwise the world frame itself.
    At the apex it takes the r -> 0 limits, without the recurrence when a
    call's points are all there (a corner value).
    """
    nmax = max(len(cos_coeffs), len(sin_coeffs))
    a, b = (np.pad(np.asarray(c, dtype=complex), (0, nmax - len(c)))
            for c in (cos_coeffs, sin_coeffs))
    if sector is None:
        to_canon, vec_to_world = np.atleast_2d, lambda vecs: vecs
    else:
        to_canon, vec_to_world = sector.to_canonical, sector.vec_to_world
    # the limits at the apex, where only the n = 0, 1 terms survive
    apex_grad = 0.5 * kappa * np.array([a[1], b[1]]) if nmax > 1 else np.zeros(2, dtype=complex)

    def chunk(xy, vals, grads):
        """The series at canonical points xy into vals, and into grads
        (canonical frame) unless grads is None.  Radial and angular factors
        are computed on the chunk's distinct radii and angles, then
        gathered to the points.  A chunk of apex points alone takes the
        limit without running the recurrence."""
        r = np.hypot(xy[:, 0], xy[:, 1])
        tiny = r == 0
        if tiny.all():
            vals[:] = a[0]
            if grads is not None:
                grads[:] = apex_grad
            return
        th, at_th = _distinct(np.arctan2(xy[:, 1], xy[:, 0]))
        d_r = d_t = 0j  # d_t: (1/r) d/dtheta
        rs = np.where(tiny, 1.0, r)
        ur, at_r = _distinct(rs)
        jn = _bessel_rows(kappa, ur, nmax if grads is None else nmax + 1)
        vals[:] = 0
        for n in range(nmax):
            cn, sn = np.cos(n * th), np.sin(n * th)
            ang = a[n] * cn + b[n] * sn
            jn_n = jn[n][at_r]
            vals += jn_n * ang[at_th]
            if grads is not None:
                # J_n' = (J_{n-1} - J_{n+1}) / 2, with J_{-1} = -J_1
                djn = 0.5 * kappa * ((jn[n - 1] if n else -jn[1]) - jn[n + 1])
                dang = n * (-a[n] * sn + b[n] * cn)
                d_r += djn[at_r] * ang[at_th]
                d_t += jn_n / rs * dang[at_th]
        vals[tiny] = a[0]
        if grads is None:
            return
        rhat = np.column_stack([np.cos(th), np.sin(th)])[at_th]
        that = np.column_stack([-np.sin(th), np.cos(th)])[at_th]
        grads[:] = d_r[:, None] * rhat + d_t[:, None] * that
        grads[tiny] = apex_grad

    def series(pts, grad):
        xy = to_canon(pts)
        vals = np.empty(len(xy), dtype=complex)
        grads = np.empty((len(xy), 2), dtype=complex) if grad else None
        for lo in range(0, len(xy), _CHUNK):
            part = slice(lo, lo + _CHUNK)
            chunk(xy[part], vals[part], None if grads is None else grads[part])
        return (vals, vec_to_world(grads)) if grad else vals

    def grid(sec, r, t):
        """The series on the polar grid r x t of sec, if sec's canonical
        frame is the series' own: J_n once per radius times the angular
        factor once per angle, summed over n as the points are."""
        if sec.rotation != sector.rotation or (sec.apex != sector.apex).any():
            return None
        jn = _bessel_rows(kappa, r, nmax)
        table = np.zeros((len(r), len(t)), dtype=complex)
        for n in range(nmax):
            table += jn[n][:, None] * (a[n] * np.cos(n * t) + b[n] * np.sin(n * t))[None, :]
        return table

    return FieldSampler(lambda pts: series(pts, True),
                        values_fn=lambda pts: series(pts, False),
                        grid_fn=None if sector is None else grid)


def _edge_moments(sector: CornerSector, edges, fit_s, cauchy, scale):
    """The Green moments, integrands flux - (dnu u0 / u0) scale trace, of
    every row of the Cauchy data cauchy(r) -> (trace, flux) on the two
    edges, (2, m, len(r)) tables in the order of edges, with scale a
    (2, m, 1) array of constant trace factors.  Every edge, fit s and row
    is a row of one edge refinement, to quadrature tolerance 1e-12; the
    result is the (2, len(fit_s), m) array of their QuadResults, each with
    the bits it has refined alone."""
    # the table's axes: edge, fit s, row, radius
    theta = np.array([e.theta for e in edges])[:, None, None]
    sign = np.array([e.sign for e in edges])[:, None, None, None]
    m = np.array([cgo.mu(e.theta) for e in edges])[:, None, None, None]
    s = np.array(fit_s, dtype=float)[:, None]

    def rows(r):
        trace, flux = cauchy(r)
        fac = sign * (-0.5j) * np.sqrt(s[:, :, None] / r) * m
        table = fac * trace[:, None]
        table *= scale[:, None]
        return np.subtract(flux[:, None], table, out=table)

    return edge_u0_integral(theta, s, sector.h, g=rows, tol=1e-12)


DEFAULT_U2_COS = (1.0, 0.25, 0.15, 0.08)
DEFAULT_U2_SIN = (0.0, 0.12, 0.06)


def manufactured_scenario(sector: CornerSector, k, omega1, omega2, eta1, eta2,
                          u2_cos=DEFAULT_U2_COS, u2_sin=DEFAULT_U2_SIN, fit_s=None):
    """Manufactured field pair with prescribed parameter differences.

    u2 is an explicit Bessel series solving the omega2 Helmholtz equation;
    u1 is a series solving the omega1 equation whose Cauchy data on the two
    edges are fitted to the prescribed jump data
        u1 = u2,  dnu u1 = dnu u2 + (eta1 - eta2) u2.
    Exact-jump pairs with u2(0) != 0 and eta1 != eta2 do not exist (that is
    the uniqueness mechanism itself), so the fit matches the data in the
    metric the extraction reads: after a pointwise least-squares pass, a
    minimum-norm correction zeroes the Green-identity edge moments at the
    fit s values exactly, and the corner value of u1 - u2 is pinned to
    zero.  The resulting difference field is an exact Helmholtz solution
    that can be large away from the corner; that is the admissible way the
    impossible corner data manifests, and the extraction quadratures must
    integrate through it, which is part of what the scenario tests.
    """
    eta_diff = complex(eta1) - complex(eta2)
    kap1 = k * sqrt_im_nonneg(omega1)
    kap2 = k * sqrt_im_nonneg(omega2)
    u2 = bessel_series_sampler(kap2, u2_cos, u2_sin, sector)
    u2_0 = corner_value(u2, sector)
    if fit_s is None:
        fit_s = [50.0 * 2**j for j in range(5)]

    basis = _BesselBasis(kap1, 13)
    orders = [n for n, _ in basis.labels]
    edges = [_edge(sector, side) for side in _SIDES]
    angular = [basis.angular(e.theta) for e in edges]
    # u2's Cauchy data and J_n(kap1 r) on both edges, once per grid
    u2_edges = _edge_traces(u2, sector, grad=True)

    h = sector.h
    rr = h * np.geomspace(1e-6, 1.0, 64)
    wn = 0.3 * h
    rows, rhs = [], []
    (v2, dnu2), jn = u2_edges(rr), basis.bessel(rr)
    for j, (e, (ang, dang)) in enumerate(zip(edges, angular)):
        rows += [basis.columns(jn, ang), wn * basis.columns(e.sign * jn / rr, dang)]
        rhs += [v2[j], wn * (dnu2[j] + eta_diff * v2[j])]

    def cauchy(r):
        """Per edge, every basis element's Cauchy data, then the target's:
        u2's trace and its flux plus the prescribed jump."""
        jn = basis.bessel(r)[orders]
        vals, dnu = u2_edges(r)
        return (np.stack([np.vstack([jn, v]) for v in vals]),
                np.stack([np.vstack([e.sign * (jn / r) * np.array(dang)[:, None],
                                     dn + eta_diff * v])
                          for e, (_, dang), v, dn in zip(edges, angular, vals, dnu)]))

    moments = _edge_moments(sector, edges, fit_s, cauchy,
                            np.stack([np.r_[ang, 1.0][:, None] for ang, _ in angular]))
    A = np.vstack(rows)
    y = np.concatenate(rhs)
    fit_quads = moments.ravel()
    # one row per edge and fit s: every basis element's moment, then the target's
    per_s = moments.reshape(-1, moments.shape[-1])
    M = np.array([[q.value for q in row[:-1]] for row in per_s])
    t = np.array([q.value for q in per_s[:, -1]])
    # pin the first coefficient, (n=0, cos), so that u1(0) = u2(0) exactly
    free = np.arange(1, len(basis.labels))
    Af, yf = A[:, free], y - u2_0 * A[:, 0]
    Mf, tf = M[:, free], t - u2_0 * M[:, 0]
    scale = np.maximum(np.abs(Af).max(axis=0), 1e-30)
    c0, *_ = np.linalg.lstsq(Af / scale[None, :], yf, rcond=1e-12)
    c0 = c0 / scale
    delta, *_ = np.linalg.lstsq(Mf / scale[None, :], tf - Mf @ c0, rcond=1e-13)
    c = np.r_[u2_0, c0 + delta / scale]
    fit_resid = float(np.abs(M @ c - t).max())
    u1 = bessel_series_sampler(kap1, *basis.unpack(c), sector)
    meta = {
        "fit_moment_residual": fit_resid,
        # 2-norm condition numbers of the two scaled least-squares systems:
        # how far the fit can amplify rounding in the samples and moments
        "fit_cond_pointwise": float(np.linalg.cond(Af / scale[None, :])),
        "fit_cond_moments": float(np.linalg.cond(Mf / scale[None, :])),
        "fit_s": tuple(fit_s),
        "fit_quad_unconverged": sum(not q.converged for q in fit_quads),
        "fit_quad_error_max": max(q.error for q in fit_quads),
        "eta_diff_true": eta_diff,
        "omega_diff_true": complex(omega1) - complex(omega2),
    }
    return ProbeScenario(sector, complex(k), complex(omega1), complex(omega2),
                         complex(eta1), complex(eta2), u1, u2, meta)
