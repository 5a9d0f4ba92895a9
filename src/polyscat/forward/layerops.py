"""Helmholtz layer-potential operator blocks on panelized polygons.

Kernels (outgoing fundamental solution G = (i/4) H0^(1)(kappa r)):
    S   single-layer value
    K   double-layer value          (normal derivative at the source)
    Kp  single-layer normal deriv   (normal derivative at the target)
    T   double-layer normal deriv

One `assemble_block` call returns every kind that its targets define,
stacked in that order: (S, K) for bare points, (S, K, Kp, T) when target
normals are given, since Kp and T need the normal at the target and S and
K do not.  A field evaluation thus asks for (S, K) and a collocation on a
curve for all four, with no list of kinds to pass.  An optional second
wavenumber kappa2 turns every kind into the kernel difference
op(kappa) - op(kappa2).  The difference is what transmission formulations
need on a shared interface: for T it removes the hypersingular part,
leaving a logarithmic kernel; for the others it is assembled with a
series-stabilized form of kappa H1(kappa r) near r = 0 to avoid
catastrophic cancellation.

Each call makes one far pass over all (target, source node) pairs, in
chunks of at most _FAR_BUDGET entries over all kinds, and one near pass.
The near pass re-integrates every near (target, panel) pair, the target
within NEAR_MULT panel lengths of the panel, with the density carried by
Lagrange interpolation from the panel's own nodes.  It reads the panels
from the mesh arrays: ends `pa`, `pb`, lengths `plen`, and panel i's
normal and nodes at rows i * n_gl onward of `normals` and `nodes`.

- The pairs of a call are found at once, vectorized over panels and
  chunked over targets (_PAIR_BUDGET targets x panels per chunk).
- A target inside its panel (within _OWN_TOL panel lengths, closest point
  t* strictly inside) gets a product rule: the log split of Kress (1991)
  with the panel product integration of Helsing & Ojala (J. Comput. Phys.
  227, 2008).  Panels are straight, so K and Kp vanish there, and S, the
  S difference and the T difference split as A(r) log r + B(r) with A and
  B smooth and A in closed form.  A and B are sampled at _OWN_M Gauss
  nodes, and the log part is weighted by the exact moments of
  log|t - t*| against Legendre polynomials (Legendre-Q recurrence).  A
  node on the target takes the r -> 0 limit of B.  Plain T is
  hypersingular there and comes back as NaN.
- Every other pair gets a geometric rule toward t*: on each nonempty
  side [t*, end], _FINE_N Gauss points on each of L + 1 sub-intervals of
  ratio _FINE_RATIO, with L the fewest levels (at most _FINE_LEVELS) that
  bring the innermost sub-interval below _NEAR_FRAC of the target's
  distance.  A target on the panel's line at an end gets all the levels.
- All fine nodes of the call form one ragged flat array, ordered by pair.
  Kernels are evaluated on chunks of about _NEAR_CHUNK nodes holding whole
  pairs; `np.add.reduceat` sums each pair's Legendre moments, and
  `_interp_coeffs` maps them to the panel's nodes.

In every far chunk and near chunk, `_kernels` evaluates H0 and H1 of each
wavenumber once and derives all kinds from them.  Hankel functions come
from `_hankel`: for a real positive wavenumber it combines the Bessel
routines j0/y0/j1/y1, an order of magnitude cheaper than `hankel1`, which
serves every complex wavenumber.
"""

from functools import lru_cache

import numpy as np
from scipy.special import hankel1, j0, j1, jv, y0, y1

from ..quadrature import gauss_legendre

_EULER = 0.5772156649015328606
NEAR_MULT = 1.5
_FINE_N = 10           # Gauss points per geometric sub-interval
_FINE_LEVELS = 16      # most geometric levels on one side of t*
_FINE_RATIO = 0.35     # ratio of consecutive sub-intervals toward t*
_NEAR_FRAC = 0.25      # innermost sub-interval at most this fraction of the distance
_OWN_M = 24            # product-rule nodes on a target's own panel
_OWN_TOL = 1e-14       # a target this many panel lengths from a panel lies on it
_HIT_TOL = 1e-9        # a product node this close to the target (in t) sits on it
_NEAR_CHUNK = 2048     # fine nodes per near kernel chunk; 4096 raised peak RSS by up to 3%
_PAIR_BUDGET = 2**16   # (targets x panels) elements per near-pair search chunk
_FAR_BUDGET = 2_000_000  # (kinds x targets x source nodes) entries per far chunk


def _hankel(order, kappa, r):
    """H0^(1) or H1^(1) of kappa r for a scalar kappa and real r > 0.

    For real positive kappa this is J + iY from the scipy Bessel j0/y0/j1/y1
    routines, an order of magnitude cheaper than `hankel1` and equal to it
    to about 1e-15 relative; any other kappa goes through `hankel1`.
    """
    kappa = complex(kappa)
    if kappa.imag == 0.0 and kappa.real > 0.0:
        x = kappa.real * r
        if order == 0:
            return j0(x) + 1j * y0(x)
        return j1(x) + 1j * y1(x)
    return hankel1(order, kappa * r)


def _kh1_reg(kappa, r, h1):
    """kappa H1^(1)(kappa r) + 2i/(pi r), the part regular at r = 0, from
    h1 = H1^(1)(kappa r).

    Direct subtraction below |kappa| r ~ 1e-3 loses most digits; there a
    five-term ascending series is used instead.
    """
    z = kappa * r
    small = np.abs(z) < 1e-3
    out = np.empty(r.shape, dtype=complex)
    if np.any(~small):
        out[~small] = kappa * h1[~small] + 2j / (np.pi * r[~small])
    if np.any(small):
        zb = z[small]
        rb = r[small]
        j1z = jv(1, zb)
        logz = np.log(zb / 2.0)
        series = (kappa * j1z) * (1.0 + 2j / np.pi * logz) - (
            1j * kappa * zb / (2.0 * np.pi)
        ) * ((1.0 - 2 * _EULER) - (2.5 - 2 * _EULER) * zb**2 / 8.0)
        out[small] = series + 0j * rb
    return out


def _kernels(kappa, kappa2, diff, r, src_nrm, tgt_nrm):
    """Pointwise (S, K), or (S, K, Kp, T) when tgt_nrm is given; diff = x - y
    with shape (..., 2).  H0 and H1 of each wavenumber are evaluated once,
    on all of r, and shared by every kind."""
    rhat_dot_sn = (diff[..., 0] * src_nrm[..., 0] + diff[..., 1] * src_nrm[..., 1]) / r
    h0 = _hankel(0, kappa, r)
    if kappa2 is None:
        kh1 = kappa * _hankel(1, kappa, r)
        S = 0.25j * h0
    else:
        h0_2 = _hankel(0, kappa2, r)
        # kappa H1(kappa r) - kappa2 H1(kappa2 r), whose 2i/(pi r) poles cancel
        kh1 = _kh1_reg(kappa, r, _hankel(1, kappa, r)) - _kh1_reg(kappa2, r, _hankel(1, kappa2, r))
        S = 0.25j * h0 - 0.25j * h0_2
    K = 0.25j * kh1 * rhat_dot_sn
    if tgt_nrm is None:
        return S, K
    rhat_dot_tn = (diff[..., 0] * tgt_nrm[..., 0] + diff[..., 1] * tgt_nrm[..., 1]) / r
    nn = src_nrm[..., 0] * tgt_nrm[..., 0] + src_nrm[..., 1] * tgt_nrm[..., 1]
    ang = nn - 2.0 * rhat_dot_sn * rhat_dot_tn
    Kp = -0.25j * kh1 * rhat_dot_tn
    if kappa2 is None:
        t0 = 0.25j * kappa**2 * h0
    else:
        t0 = 0.25j * (kappa**2 * h0 - kappa2**2 * h0_2)
    t1 = 0.25j * kh1 / r
    # sign: rhat here is (x-y)/r; both dot products flip, their product does not
    T = t0 * rhat_dot_sn * rhat_dot_tn + t1 * ang
    return S, K, Kp, T


@lru_cache(maxsize=8)
def _interp_coeffs(n_gl):
    """C[m, j] with L_j(t) = sum_m P_m(t) C[m, j]: the Lagrange basis of the
    n_gl-point Gauss-Legendre nodes in Legendre polynomials P_m, exact by
    the discrete orthogonality of the Gauss rule."""
    t, w = gauss_legendre(n_gl)
    m = np.arange(n_gl)
    coeffs = (m + 0.5)[:, None] * np.polynomial.legendre.legvander(t, n_gl - 1).T * w
    coeffs.setflags(write=False)
    return coeffs


def _legendre_table(t, n):
    """Legendre P_0..P_{n-1} (n >= 2) at the points t, as (n, len(t))."""
    P = np.empty((n, len(t)))
    P[0] = 1.0
    P[1] = t
    for k in range(1, n - 1):
        P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
    return P


def _log_moments(t0, m):
    """Integrals of log|t - t0| P_k(t) over [-1, 1] for k < m and t0 in (-1, 1),
    as (len(t0), m).  With P_k = (P'_{k+1} - P'_{k-1}) / (2k + 1), integration
    by parts gives 2 (Q_{k+1}(t0) - Q_{k-1}(t0)) / (2k + 1) for k >= 1, Q_k
    the Legendre functions of the second kind on the cut."""
    Q = np.empty((m + 1, len(t0)))
    Q[0] = 0.5 * np.log((1 + t0) / (1 - t0))
    Q[1] = t0 * Q[0] - 1.0
    for k in range(1, m):
        Q[k + 1] = ((2 * k + 1) * t0 * Q[k] - k * Q[k - 1]) / (k + 1)
    out = np.empty((len(t0), m))
    out[:, 0] = (1 - t0) * np.log(1 - t0) + (1 + t0) * np.log(1 + t0) - 2.0
    k = np.arange(1, m)[:, None]
    out[:, 1:] = (2.0 * (Q[2:] - Q[:-2]) / (2 * k + 1)).T
    return out


def _bessel_j(order, kappa, r):
    """J0 or J1 of kappa r, through j0/j1 for a real positive kappa."""
    kappa = complex(kappa)
    if kappa.imag == 0.0 and kappa.real > 0.0:
        return (j0 if order == 0 else j1)(kappa.real * r)
    return jv(order, kappa * r)


def _log_split(kappa, r):
    """Log parts of one wavenumber's kernels along a straight panel.

    S = A_S log r + B_S, and the regular part (i/4)(kappa H1(kappa r) +
    2i/(pi r))/r of T is A_T log r + B_T, with A and B smooth.  Returns
    (A_S, A_T) at r, their limits where r = 0, and (B_S(0), B_T(0)).
    """
    kappa = complex(kappa)
    c = np.log(kappa / 2) + _EULER
    rr = np.where(r > 0, r, 1.0)
    a_s = -_bessel_j(0, kappa, r) / (2 * np.pi)
    a_t = np.where(r > 0, -kappa * _bessel_j(1, kappa, rr) / (2 * np.pi * rr),
                   -kappa**2 / (4 * np.pi))
    b_s = 0.25j - c / (2 * np.pi)
    b_t = 0.125j * kappa**2 - kappa**2 * (c - 0.5) / (4 * np.pi)
    return (a_s, a_t), (b_s, b_t)


def assemble_block(kappa, src, tgt_pts, tgt_nrm=None, kappa2=None):
    """Dense operator blocks mapping a density on `src` (CurveMesh) to values
    at `tgt_pts`, stacked as (S, K), or (S, K, Kp, T) when target normals
    are given: shape (kinds, targets, source nodes).  Weights are folded in,
    so block @ density ~ integral.

    Plain T (no kappa2) is hypersingular for a target inside a source
    panel, so its entries on that panel are NaN; every other entry is
    finite.  A target inside a panel is taken to have the panel's normal:
    K and Kp vanish there.
    """
    tgt_pts = np.atleast_2d(np.asarray(tgt_pts, dtype=float))
    if tgt_nrm is not None:
        tgt_nrm = np.atleast_2d(np.asarray(tgt_nrm, dtype=float))
    nt = len(tgt_pts)
    ns = src.n_nodes
    out = np.empty((2 if tgt_nrm is None else 4, nt, ns), dtype=complex)
    chunk = max(1, _FAR_BUDGET // (len(out) * max(ns, 1)))
    for i0 in range(0, nt, chunk):
        i1 = min(nt, i0 + chunk)
        d = tgt_pts[i0:i1, None, :] - src.nodes[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1])
        r = np.where(r == 0.0, 1.0, r)  # self nodes fixed below by near pass
        sn = np.broadcast_to(src.normals[None, :, :], d.shape)
        tn = None
        if tgt_nrm is not None:
            tn = np.broadcast_to(tgt_nrm[i0:i1, None, :], d.shape)
        for blk, vals in zip(out, _kernels(kappa, kappa2, d, r, sn, tn)):
            blk[i0:i1] = vals * src.weights[None, :]
    if nt:
        _fix_near(kappa, kappa2, src, tgt_pts, tgt_nrm, out)
    return out


def _near_pairs(pa, ab, length, tgt_pts):
    """Every near (target, panel) pair, target-major: target index, panel
    index, closest point t* in [-1, 1] and the distance to it."""
    L2 = ab[:, 0] ** 2 + ab[:, 1] ** 2
    chunk = max(1, _PAIR_BUDGET // len(pa))
    found = []
    for i0 in range(0, len(tgt_pts), chunk):
        d = tgt_pts[i0:i0 + chunk, None, :] - pa                        # (targets, panels, 2)
        t = np.clip((d[..., 0] * ab[:, 0] + d[..., 1] * ab[:, 1]) / L2, 0.0, 1.0)
        dist = np.hypot(d[..., 0] - t * ab[:, 0], d[..., 1] - t * ab[:, 1])
        ti, pi = np.nonzero(dist < NEAR_MULT * length)
        found.append((ti + i0, pi, 2.0 * t[ti, pi] - 1.0, dist[ti, pi]))
    return [np.concatenate(col) for col in zip(*found)]


def _near_segments(t_star, dist, ell, own):
    """The fine-rule segments of the near pairs, ordered by pair: the pair,
    the end (-1 or 1) and the level count of each nonempty geometric side
    [t*, end], and level -1 for the product rule of an own-panel pair."""
    n_own = int(own.sum())
    pair, end, levels = [np.nonzero(own)[0]], [np.zeros(n_own)], [np.full(n_own, -1)]
    for e in (-1.0, 1.0):
        side = np.nonzero(~own & (np.abs(e - t_star) >= 1e-14))[0]   # t* = e: nothing to do
        span = 0.5 * ell[side] * np.abs(e - t_star[side])
        with np.errstate(divide="ignore"):   # a target on the line: log 0, all levels
            lv = np.ceil(np.log(_NEAR_FRAC * dist[side] / span) / np.log(_FINE_RATIO))
        pair.append(side)
        end.append(np.full(len(side), e))
        levels.append(np.clip(lv, 0, _FINE_LEVELS).astype(int))
    pair = np.concatenate(pair)
    order = np.argsort(pair, kind="stable")
    return pair[order], np.concatenate(end)[order], np.concatenate(levels)[order]


def _fine_nodes(t_star, end, levels, k):
    """Node k of a segment, in [-1, 1], with its weight: sub-interval k // _FINE_N
    of a geometric side (innermost first), or Gauss node k of the product rule
    (levels = -1)."""
    tg, wg = gauss_legendre(_FINE_N)
    j, g = np.divmod(k, _FINE_N)
    inner = np.where(j == 0, 0.0, _FINE_RATIO ** (levels - j + 1.0))
    lo = t_star + (end - t_star) * inner
    hi = t_star + (end - t_star) * _FINE_RATIO ** (levels - j + 0.0)
    half = 0.5 * np.abs(hi - lo)
    to, wo = gauss_legendre(_OWN_M)
    prod = levels < 0
    km = np.where(prod, k, 0)
    return (np.where(prod, to[km], 0.5 * (lo + hi) + half * tg[g]),
            np.where(prod, wo[km], half * wg[g]))


def _fix_near(kappa, kappa2, src, tgt_pts, tgt_nrm, out):
    """Re-integrate every near (target, panel) pair of the call in one flat
    batch: the product rule on the target's own panel, sized geometric rules
    elsewhere, one kernel pass per chunk of whole pairs."""
    n_gl = src.n_gl
    pa, ab, length, normal = src.pa, src.pb - src.pa, src.plen, src.normals[::n_gl]
    ti, pi, t_star, dist = _near_pairs(pa, ab, length, tgt_pts)
    if not len(ti):
        return
    own = (dist <= _OWN_TOL * length[pi]) & (np.abs(t_star) < 1.0)
    seg_pair, seg_end, seg_levels = _near_segments(t_star, dist, length[pi], own)
    seg_n = np.where(seg_levels >= 0, (seg_levels + 1) * _FINE_N, _OWN_M)
    pair_off = np.concatenate(([0], np.cumsum(np.bincount(seg_pair, seg_n, len(ti))))).astype(int)
    seg_first = np.searchsorted(seg_pair, np.arange(len(ti) + 1))
    # log weights of the product rule: exact moments of log|t - t*| times
    # the Legendre expansion of the _OWN_M-point Lagrange basis
    wlog = _log_moments(t_star[own], _OWN_M) @ _interp_coeffs(_OWN_M) if own.any() else None
    own_row = np.cumsum(own) - 1
    # chunks of whole pairs, each starting at the first pair past a multiple of _NEAR_CHUNK
    cuts = np.searchsorted(pair_off, np.arange(0, pair_off[-1], _NEAR_CHUNK), side="right") - 1
    cuts = np.unique(np.concatenate((cuts, [len(ti)])))
    coeffs = _interp_coeffs(n_gl)
    for p0, p1 in zip(cuts[:-1], cuts[1:]):
        s0, s1 = seg_first[p0], seg_first[p1]
        n = seg_n[s0:s1]
        sid = np.repeat(np.arange(s0, s1), n)
        k = np.arange(pair_off[p1] - pair_off[p0]) - np.repeat(np.cumsum(n) - n, n)
        pair = seg_pair[sid]
        pn = pi[pair]
        tf, wf = _fine_nodes(t_star[pair], seg_end[sid], seg_levels[sid], k)
        d = tgt_pts[ti[pair]] - (pa[pn] + (0.5 + 0.5 * tf)[:, None] * ab[pn])
        r = np.hypot(d[:, 0], d[:, 1])
        prod = seg_levels[sid] < 0
        hit = prod & (np.abs(tf - t_star[pair]) <= _HIT_TOL)   # node on the target
        tn = None if tgt_nrm is None else tgt_nrm[ti[pair]]
        vals = np.stack(_kernels(kappa, kappa2, d, np.where(hit, 1.0, r), normal[pn], tn))
        if prod.any():
            q = np.nonzero(prod)[0]
            nn = None if tn is None else (normal[pn[q]] * tn[q]).sum(axis=1)
            _product_rule(kappa, kappa2, vals, q, np.where(hit[q], 0.0, r[q]),
                          np.abs(tf[q] - t_star[pair[q]]), wlog[own_row[pair[q]], k[q]] / wf[q],
                          0.5 * length[pn[q]], nn)
        vals *= wf * (0.5 * length[pn])
        table = _legendre_table(tf, n_gl)
        rows, cols = ti[p0:p1, None], n_gl * pi[p0:p1, None] + np.arange(n_gl)
        for blk, v in zip(out, vals):   # one kind at a time keeps peak RSS flat
            moments = np.add.reduceat(v * table, pair_off[p0:p1] - pair_off[p0], axis=1)
            blk[rows, cols] = moments.T @ coeffs


def _product_rule(kappa, kappa2, vals, q, r, dt, wratio, half, nn):
    """Turn the kernel values `vals[:, q]` at the product-rule nodes of
    own-panel pairs into values that the nodes' Gauss weights integrate
    with the product rule.

    On a straight panel a kernel A log r + B is A log|t - t*| + B~ with
    B~ = B + A log(half): the Gauss weight w takes B~ and the log weight
    wlog = wratio w takes A.  At a node on the target (r = 0) B~ comes
    from the r -> 0 limits.  K and Kp vanish and plain T is NaN.
    """
    (a_s, a_t), (b_s, b_t) = _log_split(kappa, r)
    if kappa2 is not None:
        (a_s2, a_t2), (b_s2, b_t2) = _log_split(kappa2, r)
        a_s, a_t, b_s, b_t = a_s - a_s2, a_t - a_t2, b_s - b_s2, b_t - b_t2
    on = r == 0
    log_dt = np.log(np.where(on, 1.0, dt))
    parts = [(0, a_s, b_s)]
    if nn is not None and kappa2 is not None:
        parts.append((3, nn * a_t, nn * b_t))
    for kind, a, b0 in parts:
        smooth = np.where(on, b0 + a * np.log(half), vals[kind, q] - a * log_dt)
        vals[kind, q] = smooth + wratio * a
    vals[1:3, q] = 0.0
    if nn is not None and kappa2 is None:
        vals[3, q] = np.nan


def farfield_row(src, k, directions):
    """Far-field kernels for single and double layer densities on `src`.

    Returns (FS, FD): far-field pattern = FS @ psi + FD @ phi for densities
    in the representation D phi + S psi with exterior wavenumber k, in the
    convention u_s ~ e^{ikr} r^{-1/2} uinf(xhat).
    """
    directions = np.atleast_2d(directions)
    c = np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
    phase = np.exp(-1j * k * (directions @ src.nodes.T))
    fs = c * phase * src.weights[None, :]
    nd = directions @ src.normals.T
    fd = fs * (-1j * k * nd)
    return fs, fd
