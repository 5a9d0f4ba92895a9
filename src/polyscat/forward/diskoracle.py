"""Separable reference solution: plane wave on concentric circular
interfaces with conductive transmission conditions.

Per angular mode, value continuity and the conductive Neumann jump at each
circle give a small linear system in the cylindrical-wave coefficients
(regular inside, outgoing outside, both kinds in each annulus).  This is
an independent oracle for the polygonal solver: a regular polygon with
many vertices approximates each circle.
"""

import numpy as np
from scipy.special import h1vp, hankel1, jv, jvp, yv, yvp

from ..medium import sqrt_im_nonneg
from .solver import FarFieldPattern


def disk_series_oracle(radii, q, lam, k, direction, m_trunc=None, angles=None):
    """Far-field pattern for a unit-amplitude plane wave scattered by
    concentric disks.

    radii strictly decreasing; q[i], lam[i] attach to the annulus inside
    radii[i] and the circle of radius radii[i].  Truncation default obeys
    m_trunc >= k*max(radii) + 20.
    """
    radii = [float(r) for r in radii]
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])) or radii[-1] <= 0:
        raise ValueError("radii must be strictly decreasing and positive")
    nlay = len(radii)
    if len(q) != nlay or len(lam) != nlay:
        raise ValueError("q and lambda lists must match the number of radii")
    if m_trunc is None:
        m_trunc = int(np.ceil(k * radii[0] + 20))
    if m_trunc < k * radii[0] + 20:
        raise ValueError("m_trunc must be at least k*max(radius) + 20")
    d = np.asarray(direction, dtype=float)
    theta_d = np.arctan2(d[1], d[0])

    kap = [k * sqrt_im_nonneg(qq) for qq in q]
    lam = [complex(l) for l in lam]

    # unknown layout: [c, (alpha_1, beta_1), ..., (alpha_{N-1}, beta_{N-1}), gamma]
    nun = 2 * nlay
    cs = np.zeros(2 * m_trunc + 1, dtype=complex)
    for n in range(-m_trunc, m_trunc + 1):
        A = np.zeros((nun, nun), dtype=complex)
        b = np.zeros(nun, dtype=complex)
        for ell in range(nlay):  # interface at radii[ell]
            a = radii[ell]
            rv, rn = 2 * ell, 2 * ell + 1
            # outer side value & derivative columns
            if ell == 0:
                vout = [(0, hankel1(n, k * a))]
                dout = [(0, k * h1vp(n, k * a))]
                v_inc, d_inc = jv(n, k * a), k * jvp(n, k * a)
            else:
                ko = kap[ell - 1]
                cols = (2 * ell - 1, 2 * ell)
                vout = [(cols[0], jv(n, ko * a)), (cols[1], yv(n, ko * a))]
                dout = [(cols[0], ko * jvp(n, ko * a)), (cols[1], ko * yvp(n, ko * a))]
                v_inc = d_inc = 0.0
            # inner side
            ki = kap[ell]
            if ell == nlay - 1:
                vin = [(nun - 1, jv(n, ki * a))]
                din = [(nun - 1, ki * jvp(n, ki * a))]
            else:
                cols = (2 * ell + 1, 2 * ell + 2)
                vin = [(cols[0], jv(n, ki * a)), (cols[1], yv(n, ki * a))]
                din = [(cols[0], ki * jvp(n, ki * a)), (cols[1], ki * yvp(n, ki * a))]
            for c, val in vout:
                A[rv, c] += val
            for c, val in vin:
                A[rv, c] -= val
            b[rv] -= v_inc
            # dnu u_out + lam u_out = dnu u_in
            for c, val in dout:
                A[rn, c] += val
            for c, val in vout:
                A[rn, c] += lam[ell] * val
            for c, val in din:
                A[rn, c] -= val
            b[rn] -= d_inc + lam[ell] * v_inc
        if not np.all(np.isfinite(A)):
            raise ValueError(f"mode {n}: non-finite interface system")
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"mode {n}: singular interface system") from exc
        cs[n + m_trunc] = sol[0]

    if angles is None:
        angles = np.arange(256) * (2 * np.pi / 256)
    angles = np.asarray(angles, dtype=float)
    ns = np.arange(-m_trunc, m_trunc + 1)
    phase = np.exp(1j * np.outer(angles - theta_d, ns))
    vals = np.sqrt(2.0 / (np.pi * k)) * np.exp(-1j * np.pi / 4) * (phase @ cs)
    return FarFieldPattern(angles, vals)
