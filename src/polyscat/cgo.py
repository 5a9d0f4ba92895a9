"""Complex-geometric-optics test function on a plane sector.

The function u0(x) = exp(-sqrt(r) e^{i theta/2}) (polar x, arg branch on
(-pi, pi)) is harmonic off the cut {x1 <= 0, x2 = 0} and decays inside any
sector bounded away from the cut.  This module provides its closed-form
sector/edge integrals and decay bounds, together with independent adaptive
quadratures used to cross-check every closed form.

Note on `tail_bound`: the returned expression
    6 (theta_M - theta_m) / delta_W^4 * s^-2 * exp(-delta_W sqrt(h s) / 2)
is a large-argument bound; it provably fails for small delta_W*sqrt(h*s)
(the sharp prefactor there is ~39, see `tail_bound_sharp`).  It is kept in
its published form; callers that need a bound valid for all arguments
should use `tail_bound_sharp`.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import gammaincc as _gammaincc

from . import _kernels
from .quadrature import QuadResult, graded_breaks, polar_integral

_CUT_TOL = 1e-14


def mu(theta):
    """Radial phase factor e^{i theta/2} of u0 along a ray at angle theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.exp(0.5j * theta)
    return complex(out) if out.ndim == 0 else out


def omega_w(theta):
    """Radial decay rate cos(theta/2) = Re mu(theta), positive on (-pi, pi)."""
    theta = np.asarray(theta, dtype=float)
    out = np.cos(0.5 * theta)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SectorSpec:
    """Angular span (theta_m, theta_M) of an open sector off the negative axis."""

    theta_m: float
    theta_M: float
    delta_w: float = field(init=False)

    def __post_init__(self):
        tm, tM = self.theta_m, self.theta_M
        if not (-math.pi < tm < tM < math.pi):
            raise ValueError(f"sector angles must satisfy -pi < {tm} < {tM} < pi")
        if abs((tM - tm) - math.pi) < 1e-12:
            raise ValueError("sector opening of exactly pi is degenerate")
        object.__setattr__(self, "delta_w", min(math.cos(tm / 2), math.cos(tM / 2)))

    @property
    def opening(self):
        return self.theta_M - self.theta_m

    def exp_pair_diff(self):
        """e^{-2 i theta_M} - e^{-2 i theta_m}; nonzero for any valid sector."""
        return np.exp(-2j * self.theta_M) - np.exp(-2j * self.theta_m)


def u0_eval(x, s):
    """u0(s x) for a 2D point (or (n,2) array) off the origin and branch cut."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    r = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(r == 0.0):
        raise ValueError("u0 is not defined at the origin")
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    if np.any(np.pi - np.abs(theta) < _CUT_TOL):
        raise ValueError("evaluation point within 1e-14 angular distance of the branch cut")
    out = np.exp(-np.sqrt(s * r) * np.exp(0.5j * theta))
    return complex(out[0]) if single else out


def u0_polar(r, theta, s):
    """u0(s x) in polar form; r > 0, theta in (-pi, pi)."""
    return np.exp(-np.sqrt(s * np.asarray(r, dtype=float)) * np.exp(0.5j * np.asarray(theta)))


def u0_radial_deriv(r, theta, s):
    """d/dr of u0(s x) along the ray at fixed theta."""
    r = np.asarray(r, dtype=float)
    m = np.exp(0.5j * np.asarray(theta))
    return -0.5 * np.sqrt(s / r) * m * u0_polar(r, theta, s)


def sector_integral_exact(sec: SectorSpec, s):
    """Closed form of the full-sector integral of u0(s x)."""
    if not s > 0:
        raise ValueError("s must be > 0")
    return 6j * sec.exp_pair_diff() * s ** -2.0


def weighted_bound(sec: SectorSpec, alpha, s):
    """Upper bound for the |x|^alpha weighted absolute integral over the sector."""
    if not (alpha > 0 and s > 0):
        raise ValueError("alpha and s must be > 0")
    return (
        2.0 * sec.opening * _gamma(2 * alpha + 4) / sec.delta_w ** (2 * alpha + 4)
    ) * s ** (-alpha - 2.0)


def tail_bound(sec: SectorSpec, s, h):
    """Published bound for the absolute u0 integral outside radius h (see module note)."""
    if not s > 0:
        raise ValueError("s must be > 0")
    if h < 0:
        raise ValueError("h must be >= 0")
    d = sec.delta_w
    return 6.0 * sec.opening / d**4 * s**-2.0 * math.exp(-d * math.sqrt(h * s) / 2.0)


def tail_bound_sharp(sec: SectorSpec, s, h):
    """Tail bound valid for every s, h > 0 (worst-ray incomplete-gamma estimate)."""
    d = sec.delta_w
    tau = d * math.sqrt(h * s)
    return 2.0 * sec.opening / d**4 * s**-2.0 * float(_gammaincc(4, tau) * _gamma(4))


def edge_integral_exact(theta, s, h):
    """Closed form of int_0^h exp(-sqrt(s r) mu(theta)) dr."""
    if not (s > 0 and h > 0):
        raise ValueError("s and h must be > 0")
    m = mu(theta)
    e = np.exp(-math.sqrt(s * h) * m)
    return 2.0 / s * (m**-2 - m**-2 * e - m**-1 * math.sqrt(s * h) * e)


def default_rmax(sec: SectorSpec, s, tol):
    """Truncation radius with tail below tol/10 (published and sharp bounds)."""
    d = sec.delta_w
    tau = 1.0
    target = 0.1 * tol
    while tau < 4000.0:
        h = (tau / d) ** 2 / s
        if tail_bound(sec, s, h) <= target and tail_bound_sharp(sec, s, h) <= target:
            return h
        tau *= 1.25
    raise ValueError("could not find a truncation radius for the requested tolerance")


def sector_integral_quad(sec: SectorSpec, s, rmax=None, tol=1e-10):
    """Adaptive polar quadrature of the sector integral of u0(s x).

    Returns a QuadResult whose error field includes the truncation estimate
    at rmax; converged=False flags either an unreached tolerance or an
    rmax too small for the requested tol.
    """
    if rmax is None:
        rmax = default_rmax(sec, s, tol)
    res = polar_integral(graded_breaks(0.0, rmax), sec.theta_m, sec.theta_M,
                         lambda *rule: _kernels.sector_quad_sum(*rule, float(s)), tol)
    trunc = min(tail_bound(sec, s, rmax), tail_bound_sharp(sec, s, rmax))
    err = res.error + trunc
    return QuadResult(res.value, err, res.converged and err <= tol)


def weighted_lhs_quad(sec: SectorSpec, alpha, s, tol=1e-10):
    """Quadrature of the left side of the weighted bound (oracle for weighted_bound)."""
    d = sec.delta_w
    tau, target = 4.0, 0.1 * tol
    while tau < 4000.0:
        tail = (
            2.0 * sec.opening / (s ** (alpha + 2) * d ** (2 * alpha + 4))
        ) * float(_gammaincc(2 * alpha + 4, tau) * _gamma(2 * alpha + 4))
        if tail <= target:
            break
        tau *= 1.25
    rmax = (tau / d) ** 2 / s
    res = polar_integral(
        graded_breaks(0.0, rmax), sec.theta_m, sec.theta_M,
        lambda *rule: _kernels.sector_abs_quad_sum(*rule, float(s), float(alpha)), tol)
    return QuadResult(res.value, res.error + tail, res.converged)


def tail_lhs_quad(sec: SectorSpec, s, h, tol=1e-10):
    """Quadrature of the absolute u0 integral over W \\ B_h (oracle for tail_bound).

    The outer truncation radius is pushed until the integrand is below
    1e-16 relative to its value at r = h on the slowest-decaying ray.
    """
    d = sec.delta_w
    # exp(-d sqrt(s r)) <= 1e-16 * exp(-d sqrt(s h)); rmax > h always
    sq = d * math.sqrt(s * h) - math.log(1e-16)
    rmax = max((sq / d) ** 2 / s, 4.0 * h)
    return polar_integral(graded_breaks(h, rmax), sec.theta_m, sec.theta_M,
                          lambda *rule: _kernels.sector_abs_quad_sum(*rule, float(s), 0.0),
                          tol)
