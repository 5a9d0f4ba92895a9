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
need on a shared interface: for T it removes the hypersingular part
entirely, leaving a logarithmic kernel that plain graded subdivision
integrates; for the others it is assembled with a series-stabilized form
of kappa H1(kappa r) near r = 0 to avoid catastrophic cancellation.

Each call makes one far pass over all (target, source node) pairs, in
chunks of at most _FAR_BUDGET entries over all kinds, and one near pass.
Near interactions (target within NEAR_MULT panel lengths of a source panel,
including the panel containing the target) are re-integrated on the panel
geometrically subdivided toward the target's closest point t*, with the
density carried by Lagrange interpolation from the panel's own nodes.  The
near pass is batched per source panel and per side of t*: all near targets
at once, in chunks of at most _NEAR_BUDGET (targets x fine nodes x panel
nodes) elements, skipping the empty side of targets whose t* is a panel
end (most neighbour-panel pairs).  A chunk builds every target's fine rule
in one array op, evaluates the Lagrange basis through its Legendre
expansion (coefficients cached per panel order) and contracts each kind's
kernel values against it in one matrix product.

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
_FINE_N = 10
_FINE_LEVELS = 16
_FINE_RATIO = 0.35
_NEAR_BUDGET = 2**15   # (targets x fine nodes x panel nodes) elements per near batch;
                       # small enough to keep peak RSS at the per-target level
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
    """Legendre P_0..P_{n-1} (n >= 2) at t of shape (a, b), as (a, n, b)."""
    P = np.empty((t.shape[0], n, t.shape[1]))
    P[:, 0] = 1.0
    P[:, 1] = t
    for k in range(1, n - 1):
        P[:, k + 1] = ((2 * k + 1) * t * P[:, k] - k * P[:, k - 1]) / (k + 1)
    return P


def _fine_rule(t_star, end):
    """Nodes and weights on the part of [-1, 1] between each t_star and `end`
    (-1 or 1), geometrically refined toward t_star: (len(t_star), n_side)."""
    tg, wg = gauss_legendre(_FINE_N)
    fracs = np.concatenate(([0.0], _FINE_RATIO ** np.arange(_FINE_LEVELS, -1, -1.0)))
    brk = t_star[:, None] + (end - t_star)[:, None] * fracs      # from t_star to end
    mid = 0.5 * (brk[:, 1:] + brk[:, :-1])
    half = 0.5 * np.abs(brk[:, 1:] - brk[:, :-1])
    nodes = mid[..., None] + half[..., None] * tg
    weights = half[..., None] * wg
    return nodes.reshape(len(t_star), -1), weights.reshape(len(t_star), -1)


def assemble_block(kappa, src, tgt_pts, tgt_nrm=None, kappa2=None):
    """Dense operator blocks mapping a density on `src` (CurveMesh) to values
    at `tgt_pts`, stacked as (S, K), or (S, K, Kp, T) when target normals
    are given: shape (kinds, targets, source nodes).  Weights are folded in,
    so block @ density ~ integral."""
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
    _fix_near(kappa, kappa2, src, tgt_pts, tgt_nrm, out)
    return out


def _fix_near(kappa, kappa2, src, tgt_pts, tgt_nrm, out):
    """Re-integrate every near (target, panel) pair, batched per panel and side;
    every kind shares the chunk's fine rule, Legendre table and kernel pass."""
    n_gl = src.n_gl
    coeffs = _interp_coeffs(n_gl)
    chunk = max(1, _NEAR_BUDGET // ((_FINE_LEVELS + 1) * _FINE_N * n_gl))
    for p in src.panels:
        ab = p.b - p.a
        L2 = float(ab @ ab)
        t = np.clip(((tgt_pts - p.a) @ ab) / L2, 0.0, 1.0)
        proj = p.a[None, :] + t[:, None] * ab[None, :]
        dist = np.hypot(*(tgt_pts - proj).T)
        near_idx = np.nonzero(dist < NEAR_MULT * p.length)[0]
        cols = slice(p.start, p.start + n_gl)
        out[:, near_idx, cols] = 0.0
        t_star = 2.0 * t[near_idx] - 1.0                 # closest point, in [-1, 1]
        mid = 0.5 * (p.a + p.b)
        r_min = 1e-15 * max(1.0, np.sqrt(L2))
        for end in (-1.0, 1.0):
            # the [t*, end] side; empty (t* clipped to end) for most neighbour panels
            side = np.nonzero(np.abs(end - t_star) >= 1e-14)[0]
            for i0 in range(0, len(side), chunk):
                sel = side[i0:i0 + chunk]
                idx = near_idx[sel]
                tf, wf = _fine_rule(t_star[sel], end)                        # (nb, n_side)
                d = tgt_pts[idx, None, :] - (mid + 0.5 * tf[..., None] * ab)  # (nb, n_side, 2)
                r = np.hypot(d[..., 0], d[..., 1])
                keep = r > r_min
                sn = np.broadcast_to(p.normal, d.shape)
                tn = None if tgt_nrm is None else np.broadcast_to(tgt_nrm[idx, None, :], d.shape)
                wl = wf * (0.5 * p.length)
                table = _legendre_table(tf, n_gl)
                kinds = _kernels(kappa, kappa2, d, np.where(keep, r, 1.0), sn, tn)
                for blk, vals in zip(out, kinds):
                    c = np.where(keep, wl * vals, 0.0)
                    # sum_e c_e P_m(t_e) as one real matmul over (re, im), then to the nodes
                    moments = table @ c.view(float).reshape(len(idx), -1, 2)
                    blk[idx, cols] += (moments[..., 0] + 1j * moments[..., 1]) @ coeffs


def farfield_row(src, k, directions):
    """Far-field kernels for single and double layer densities on `src`.

    Returns (FS, FD): far-field pattern = FS @ psi + FD @ phi for densities
    in the representation D phi + S psi with exterior wavenumber k, in the
    convention u_s ~ e^{ikr} r^{-1/2} uinf(xhat).
    """
    directions = np.atleast_2d(directions)
    c = np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
    phase = np.exp(-1j * k * directions @ src.nodes.T)
    fs = c * phase * src.weights[None, :]
    nd = directions @ src.normals.T
    fd = fs * (-1j * k * nd)
    return fs, fd
