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

An `assemble_block` call makes one far pass over all (target, source
node) pairs, in chunks of at most _FAR_BUDGET entries over all kinds, and
one near pass.  Every self block, a nest group's or a cell region's,
evaluates one triangle of far pairs through the same
`_far_chunks(tri=True)` loop, in chunks of at most _TRI_ROWS rows, and
writes the other triangle from the exchanged pairs.  A nest assembly
builds its blocks in groups through `assemble_nest_blocks`, which
evaluates each far kernel value once: S and T are symmetric in the pair
and Kp is K of the exchanged pair, the two cross blocks between
neighbouring curves share one far pass, and the plain (S, K) self block
that lambda != 0 adds shares the difference block's H0 and H1 and its
near pass.  Each block equals its own `assemble_block` call bit for bit,
except for the signs of zeros.  An `assemble_block` call whose targets
are its source's own nodes (equal bytes) with no target normals, a cell
region's block, takes with S and K the K of each exchanged pair from
that pair's own difference y - x, so it is bit for bit the block of
every pair in both orders, signs of zeros included.

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
- Every other pair is sized by the Bernstein ellipse through its target
  (Trefethen, SIAM Rev. 50, 2008; Barnett, SIAM J. Sci. Comput. 36,
  2014).  With z the target in the panel's coordinate ([-1, 1] along the
  panel), the integrand is analytic inside the ellipse with foci +-1
  through z, of parameter rho = |z + sqrt(z - 1) sqrt(z + 1)|, and the
  n-point Gauss error falls like rho^(-2n).  The pair takes the least size
  in _SINGLE_SIZES with n >= ln(1/eps) / (2 ln rho), eps = _RULE_EPS, as
  one Gauss rule on the whole panel.  _RULE_EPS = 1e-15 keeps the entries
  within 1e-11 of adaptive quadrature; 1e-13 does not, on K, Kp and T (up
  to 1.9e-11), since the bound leaves out the constant of the kernel and
  of the degree n_gl - 1 Lagrange basis that multiplies it.  No near pair
  takes fewer than 12 points: 8 would need rho >= 8.7, beyond NEAR_MULT.
- A pair that needs more than 32 points, a target beside a corner or a
  field point just off an edge, keeps a geometric rule toward t*: on each
  nonempty side [t*, end], _FINE_N Gauss points on each of L + 1
  sub-intervals of ratio _FINE_RATIO, with L the fewest levels (at most
  _FINE_LEVELS) that bring the innermost sub-interval below _NEAR_FRAC of
  the target's distance.  A target on the panel's line at an end gets all
  the levels.
- Every node is placed by its offset s = t - t* from the target's closest
  point c, and x - y is (x - c) - s (b - a) / 2 with x - c formed once per
  pair: a target 1e-8 panel lengths off keeps its digits, which x - y
  from two nearby points would lose.
- The fixed layouts, the product rule and each single rule, form batches
  of at most _NEAR_CHUNK // n pairs of n nodes, one kernel pass each, on
  (nodes, pairs) planes: the Gauss nodes as a column and each pair's data
  as a row, so no pair's data is copied per node, and C order is
  node-major (node k of every pair, then node k + 1).  The product rule's
  log weights depend on t* alone, so they are computed once per distinct
  t* (by its bits) of a call's own-panel pairs and gathered; on a regular
  polygon's self block many pairs share one.  The fixed layouts map the
  weighted kernel values to the panel's nodes through a cached n x n_gl
  matrix (`_node_map`: Gauss weight times Lagrange basis).  The geometric
  pairs form chunks of whole pairs of
  about _NEAR_CHUNK nodes, pair-major; each sub-interval's ends, midpoint
  and half length are computed once and spread over its _FINE_N Gauss
  nodes by an outer product, `np.add.reduceat` sums each pair's Legendre
  moments, and `_interp_coeffs` maps them all to the panel's nodes once.
- No step rounds by batch: each is elementwise, or a fixed-order sum over
  one pair's values (`_to_nodes`, `np.einsum` with no BLAS), so an entry,
  and a slice of stacked targets, is the same whatever batch, chunk or
  neighbours it was computed with; the batches and chunks only bound
  memory.

In every far chunk and near batch or chunk, `_kernels` evaluates H0 and H1 of each
wavenumber once and derives all kinds from them, on coordinate planes:
x - y as (dx, dy), and normal components that broadcast as rows (the far
pass's sources, a fixed layout's pairs) or columns (the far pass's
targets).  Hankel functions come from `_hankel`: for a real positive
wavenumber it writes the Bessel routines j0/y0/j1/y1 into the real and
imaginary parts, an order of magnitude cheaper than `hankel1`, which
serves every complex wavenumber.
"""

from functools import lru_cache, partial

import numpy as np
from scipy.special import hankel1, j0, j1, jv, y0, y1

from ..quadrature import gauss_legendre

_EULER = 0.5772156649015328606
NEAR_MULT = 1.5
_RULE_EPS = 1e-15      # Gauss error bound rho^(-2n) that sizes a single rule; 1e-13 is not enough
_SINGLE_SIZES = (12, 16, 20, 24, 32)   # single Gauss rules on a whole panel, in points
_FINE_N = 10           # Gauss points per geometric sub-interval
_FINE_LEVELS = 20      # most geometric levels on one side of t*; 16 left K 9e-9 off at 1e-8 panel lengths
_FINE_RATIO = 0.35     # ratio of consecutive sub-intervals toward t*
_NEAR_FRAC = 0.25      # innermost sub-interval at most this fraction of the distance
_OWN_M = 24            # product-rule nodes on a target's own panel
_OWN_TOL = 1e-14       # a target this many panel lengths from a panel lies on it
_HIT_TOL = 1e-9        # a product node this close to the target (in t) sits on it
_NEAR_CHUNK = 2048     # fine nodes per near kernel chunk; 4096 raised peak RSS by up to 3%
_PAIR_BUDGET = 2**16   # (targets x panels) elements per near-pair search chunk
_FAR_BUDGET = 2**15    # (kinds x targets x source nodes) entries per far chunk; the chunk's
                       # temporaries stay near a 2 MB L2: a 384-node cell region's far
                       # pass took 19-20 ms at 2**18 and 13 ms at 2**15 (Xeon, 1 core)
_TRI_ROWS = 32         # rows per far chunk of a self triangle; diagonal tiles add rows / N


def _hankel(order, kappa, r):
    """H0^(1) or H1^(1) of kappa r for a scalar kappa and real r > 0.

    For real positive kappa this is J + iY from the scipy Bessel j0/y0/j1/y1
    routines, an order of magnitude cheaper than `hankel1` and equal to it
    to about 1e-15 relative; any other kappa goes through `hankel1`.
    """
    kappa = complex(kappa)
    if kappa.imag == 0.0 and kappa.real > 0.0:
        x = kappa.real * r
        # J and Y written straight into the parts: the bits of J + 1j * Y
        h = np.empty(np.shape(x), dtype=complex)
        (j0 if order == 0 else j1)(x, out=h.real)
        (y0 if order == 0 else y1)(x, out=h.imag)
        return h
    return hankel1(order, kappa * r)


def _kh1_reg(kappa, r, h1):
    """kappa H1^(1)(kappa r) + 2i/(pi r), the part regular at r = 0, from
    h1 = H1^(1)(kappa r).

    Direct subtraction below |kappa| r ~ 1e-3 loses most digits; there a
    five-term ascending series is used instead.
    """
    z = kappa * r
    small = np.abs(z) < 1e-3
    out = kappa * h1 + 2j / (np.pi * r)
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


def _kernels(kappa, kappa2, diff, r, src_nrm, tgt_nrm, plain=False, swap=False,
             exchanged=None):
    """Pointwise (S, K), or (S, K, Kp, T) when tgt_nrm is given, on
    coordinate planes: diff = (dx, dy) of x - y, r of the same shape, and
    the normal components (nx, ny) of the sources and of the targets, each
    broadcasting against r (as rows, columns or scalars).  H0 and H1 of
    each wavenumber are evaluated once, on all of r, and shared by every
    kind.

    `plain` (with kappa2) follows these kinds with the S and K of kappa
    alone, from the same H0 and H1, and with `swap` also its Kp; no caller
    reads a plain T beside a difference, so none is evaluated.  `swap`
    (with tgt_nrm) follows each T with the T of the exchanged pair, x and y
    swapped with their normals: that pair's S, K and Kp are S, Kp and K
    here up to the signs of zeros, but its T multiplies t0 by the two dot
    products in the other order, which can round differently.

    `exchanged`, the planes (dx, dy) of y - x, serves an (S, K) block whose
    targets are its source nodes: each set's S and K are followed by the K
    of the exchanged pair as that pair's own evaluation gives it, signs of
    zeros included (its S is S: hypot is even), with tgt_nrm its source
    normals, and by no Kp or T.
    """
    (dx, dy), (snx, sny) = diff, src_nrm
    rhat_dot_sn = (dx * snx + dy * sny) / r
    h0, h1 = _hankel(0, kappa, r), _hankel(1, kappa, r)
    sets = []   # (S, kappa H1 term, second wavenumber or None) per set
    if kappa2 is not None:
        h0_2 = _hankel(0, kappa2, r)
        # kappa H1(kappa r) - kappa2 H1(kappa2 r), whose 2i/(pi r) poles cancel
        kh1 = _kh1_reg(kappa, r, h1) - _kh1_reg(kappa2, r, _hankel(1, kappa2, r))
        sets.append((0.25j * h0 - 0.25j * h0_2, kh1, kappa2))
    if kappa2 is None or plain:
        sets.append((0.25j * h0, kappa * h1, None))
    if tgt_nrm is not None:
        tnx, tny = tgt_nrm
        if exchanged is not None:
            ex, ey = exchanged
            rhat_dot_xn = (ex * tnx + ey * tny) / r
        else:
            rhat_dot_tn = (dx * tnx + dy * tny) / r
            ang = (snx * tnx + sny * tny) - 2.0 * rhat_dot_sn * rhat_dot_tn
    out = []
    for S, kh1, k2 in sets:
        k_fac = 0.25j * kh1
        out += [S, k_fac * rhat_dot_sn]
        if exchanged is not None:
            out.append(k_fac * rhat_dot_xn)
            continue
        beside = k2 is None and kappa2 is not None   # the plain set beside a difference
        if tgt_nrm is None or (beside and not swap):
            continue
        # sign: rhat here is (x-y)/r; both dot products flip, their product does not
        out.append(-0.25j * kh1 * rhat_dot_tn)
        if beside:
            continue   # its Kp, the exchanged pair's K, and no T
        if k2 is None:
            t0 = 0.25j * kappa**2 * h0
        else:
            t0 = 0.25j * (kappa**2 * h0 - k2**2 * h0_2)
        t1 = 0.25j * kh1 / r
        out.append(t0 * rhat_dot_sn * rhat_dot_tn + t1 * ang)
        if swap:
            out.append(t0 * rhat_dot_tn * rhat_dot_sn + t1 * ang)
    return out


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


def _to_nodes(v, node_map):
    """sum_m v[..., m, :] * node_map[m][:, None]: values or moments (..., m,
    pairs) to node values (..., nodes, pairs), in a fixed-order sum over m
    that calls no BLAS (`np.einsum`), so each column comes from its pair
    alone.  A complex v goes as its real and imaginary parts.  The map is
    (m, nodes): its m axis outside the node axis keeps einsum's sum over m
    outside its inner loop, which with m innermost (a map stored as (nodes,
    m) and one pair) would be a SIMD reduction in another order."""
    if np.iscomplexobj(v):
        return np.einsum("...mq,mj->...jq", v.view(float), node_map, order="C").view(complex)
    return np.einsum("...mq,mj->...jq", v, node_map, order="C")


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
    as (m, len(t0)).  With P_k = (P'_{k+1} - P'_{k-1}) / (2k + 1), integration
    by parts gives 2 (Q_{k+1}(t0) - Q_{k-1}(t0)) / (2k + 1) for k >= 1, Q_k
    the Legendre functions of the second kind on the cut."""
    Q = np.empty((m + 1, len(t0)))
    Q[0] = 0.5 * np.log((1 + t0) / (1 - t0))
    Q[1] = t0 * Q[0] - 1.0
    for k in range(1, m):
        Q[k + 1] = ((2 * k + 1) * t0 * Q[k] - k * Q[k - 1]) / (k + 1)
    out = np.empty((m, len(t0)))
    out[0] = (1 - t0) * np.log(1 - t0) + (1 + t0) * np.log(1 + t0) - 2.0
    out[1:] = 2.0 * (Q[2:] - Q[:-2]) / (2 * np.arange(1, m)[:, None] + 1)
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


def _far_chunks(kappa, kappa2, src, tgt_pts, tgt_nrm, kinds, tri=False, exchanged=False,
                **options):
    """(i0, i1, j0, values) per chunk of targets: the unweighted `_kernels`
    values (with `options`) between targets i0:i1 and source nodes j0:,
    at most _FAR_BUDGET entries over the `kinds` the caller fills.  j0 is
    0, or with `tri` (the targets are the source nodes) i0, in chunks of
    at most _TRI_ROWS rows: one triangle of pairs and the diagonal tiles.
    `exchanged` hands `_kernels` the planes of y - x too."""
    nt, ns = len(tgt_pts), src.n_nodes
    step = max(1, _FAR_BUDGET // (kinds * max(ns, 1)))
    if tri:
        step = min(step, _TRI_ROWS)
    (tx, ty), (sx, sy), (snx, sny) = tgt_pts.T, src.nodes.T, src.normals.T
    for i0 in range(0, nt, step):
        i1, j0 = min(nt, i0 + step), i0 if tri else 0
        # (rows, cols) planes; the normals broadcast as source rows and target columns
        dx, dy = tx[i0:i1, None] - sx[j0:], ty[i0:i1, None] - sy[j0:]
        r = np.hypot(dx, dy)
        r = np.where(r == 0.0, 1.0, r)  # self nodes fixed below by near pass
        tn = None if tgt_nrm is None else (tgt_nrm[i0:i1, 0, None], tgt_nrm[i0:i1, 1, None])
        ex = {}
        if exchanged:
            ex["exchanged"] = (sx[j0:] - tx[i0:i1, None], sy[j0:] - ty[i0:i1, None])
        yield i0, i1, j0, _kernels(kappa, kappa2, (dx, dy), r, (snx[j0:], sny[j0:]), tn,
                                   **options, **ex)


def _far_pass(chunks, src_w, fwd, kf, back=(), kb=(), tgt_w=None):
    """Write the far values of `chunks` (`_far_chunks`) times the weights:
    value kind kf[m] of each chunk into fwd[m] at (targets, sources), and
    kind kb[m], transposed, into back[m] at (sources, targets)."""
    for i0, i1, j0, vals in chunks:
        for blk, k in zip(fwd, kf):
            blk[i0:i1, j0:] = vals[k] * src_w[j0:]
        for blk, k in zip(back, kb):
            blk[j0:, i0:i1] = vals[k].T * tgt_w[i0:i1]


def assemble_block(kappa, src, tgt_pts, tgt_nrm=None, kappa2=None):
    """Dense operator blocks mapping a density on `src` (CurveMesh) to values
    at `tgt_pts`, stacked as (S, K), or (S, K, Kp, T) when target normals
    are given: shape (kinds, targets, source nodes).  Weights are folded in,
    so block @ density ~ integral.

    Plain T (no kappa2) is hypersingular for a target inside a source
    panel, so its entries on that panel are NaN; every other entry is
    finite.  A target inside a panel is taken to have the panel's normal:
    K and Kp vanish there.

    Targets that are the source's own nodes (equal bytes) with no normals,
    a cell region's block, take one triangle of far pairs, each with the S
    and K of its exchanged pair (`_kernels` with `exchanged`), so the block
    is bit for bit the one every pair in both orders gives.
    """
    tgt_pts = np.atleast_2d(np.asarray(tgt_pts, dtype=float))
    if tgt_nrm is not None:
        tgt_nrm = np.atleast_2d(np.asarray(tgt_nrm, dtype=float))
    out = np.empty((2 if tgt_nrm is None else 4, len(tgt_pts), src.n_nodes), dtype=complex)
    w = src.weights
    if tgt_nrm is None and tgt_pts.shape == src.nodes.shape and (
            tgt_pts.tobytes() == src.nodes.tobytes()):
        _far_pass(_far_chunks(kappa, kappa2, src, src.nodes, src.normals, 3,
                              tri=True, exchanged=True),
                  w, out, (0, 1), out, (0, 2), w)
    else:
        _far_pass(_far_chunks(kappa, kappa2, src, tgt_pts, tgt_nrm, len(out)),
                  w, out, range(len(out)))
    if len(tgt_pts):
        _fix_near(kappa, kappa2, src, tgt_pts, tgt_nrm, out)
    return out


def assemble_nest_blocks(kappa, src, tgt, kappa2=None, plain=False):
    """The collocation blocks at kappa (minus kappa2) on curve `tgt`, its
    nodes and normals as targets, from `src`, each equal to its
    `assemble_block` call up to the signs of zeros:
    - src is tgt: [self block], and with `plain` also the (S, K) self block
      of kappa alone, from one triangle of far pairs and one near pass;
    - otherwise: [src to tgt, tgt to src]; the second takes the first's far
      values transposed, and only its near pass is its own.
    """
    tri = src is tgt
    blocks = [np.empty((4, tgt.n_nodes, src.n_nodes), dtype=complex)]
    if tri and plain:
        blocks.append(np.empty((2, tgt.n_nodes, src.n_nodes), dtype=complex))
    elif not tri:
        blocks.append(np.empty((4, src.n_nodes, tgt.n_nodes), dtype=complex))
    fwd = [*blocks[0], *blocks[1]] if tri and plain else list(blocks[0])
    back = fwd if tri else list(blocks[1])
    # the kind in the values of each block of fwd and of back: the
    # exchanged pair's S, K, Kp and T are S, Kp, K and T' (see _kernels)
    kf, kb = (0, 1, 2, 3, 5, 6), (0, 2, 1, 4, 5, 7)
    _far_pass(_far_chunks(kappa, kappa2, src, tgt.nodes, tgt.normals, sum(map(len, blocks)),
                          tri, plain=plain, swap=True),
              src.weights, fwd, kf, back, kb, tgt.weights)
    _fix_near(kappa, kappa2, src, tgt.nodes, tgt.normals, fwd, plain)
    if not tri:
        _fix_near(kappa, kappa2, tgt, src.nodes, src.normals, back)
    return blocks


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


def _single_sizes(d, ab):
    """The single Gauss rule of each near pair off its own panel: the least
    size in _SINGLE_SIZES whose bound rho^(-2n) is at most _RULE_EPS, 0 where
    none is.  d is the target minus the panel's start, ab the panel; the
    target's panel coordinate z = s + ih has rho = a + sqrt(a^2 - 1), a the
    semi-major axis (|z - 1| + |z + 1|) / 2 of the Bernstein ellipse
    through z, so ln rho = arccosh a."""
    L2 = ab[:, 0] ** 2 + ab[:, 1] ** 2
    s = 2.0 * (d[:, 0] * ab[:, 0] + d[:, 1] * ab[:, 1]) / L2 - 1.0
    h = 2.0 * np.abs(d[:, 0] * ab[:, 1] - d[:, 1] * ab[:, 0]) / L2
    a = np.maximum(0.5 * (np.hypot(s - 1.0, h) + np.hypot(s + 1.0, h)), 1.0)
    with np.errstate(divide="ignore"):   # a target on the panel: no rule fits
        n = np.log(1.0 / _RULE_EPS) / (2.0 * np.arccosh(a))
    return np.append(_SINGLE_SIZES, 0)[np.searchsorted(_SINGLE_SIZES, n)]


@lru_cache(maxsize=16)
def _node_map(n, n_gl):
    """w_k L_j(t_k), shape (n, n_gl): the n-point Gauss nodes t_k and weights
    w_k against the Lagrange basis L_j of the n_gl-point panel nodes, which
    takes a fixed layout's kernel values to the panel's nodes."""
    t, w = gauss_legendre(n)
    out = (w[:, None] * np.polynomial.legendre.legvander(t, n_gl - 1)) @ _interp_coeffs(n_gl)
    out.setflags(write=False)
    return out


def _fixed_batches(own, size, t_star):
    """The fixed layouts, at most _NEAR_CHUNK // n pairs per batch of n-node
    rules: (n, pairs, log weight over Gauss weight as (nodes, pairs) or
    None).  Own-panel pairs take the _OWN_M-node product rule, the pairs of
    each size in _SINGLE_SIZES its single Gauss rule.  A pair's log weights
    depend on its t* alone, so they are computed once per distinct t* (by
    its bits) and gathered."""
    p = np.nonzero(own)[0]
    # exact moments of log|t - t*| times the Legendre expansion of the
    # _OWN_M-point Lagrange basis, a fixed-order sum per column
    bits, inverse = np.unique(t_star[p].view(np.int64), return_inverse=True)
    wlog = _to_nodes(_log_moments(bits.view(float), _OWN_M), _interp_coeffs(_OWN_M))
    wratio = (wlog / gauss_legendre(_OWN_M)[1][:, None])[:, inverse]
    groups = [(_OWN_M, p, wratio)]
    groups += [(n, np.nonzero(size == n)[0], None) for n in _SINGLE_SIZES]
    for n, group, wr in groups:
        step = max(1, _NEAR_CHUNK // n)
        for b0 in range(0, len(group), step):
            yield n, group[b0:b0 + step], None if wr is None else wr[:, b0:b0 + step]


def _near_sides(t_star, dist, ell):
    """The geometric sides of near pairs, ordered by pair: the pair, the end
    (-1 or 1) and the level count of each nonempty side [t*, end]."""
    pair, end, levels = [], [], []
    for e in (-1.0, 1.0):
        side = np.nonzero(np.abs(e - t_star) >= 1e-14)[0]   # t* = e: nothing to do
        span = 0.5 * ell[side] * np.abs(e - t_star[side])
        with np.errstate(divide="ignore"):   # a target on the line: log 0, all levels
            lv = np.ceil(np.log(_NEAR_FRAC * dist[side] / span) / np.log(_FINE_RATIO))
        pair.append(side)
        end.append(np.full(len(side), e))
        levels.append(np.clip(lv, 0, _FINE_LEVELS).astype(int))
    pair = np.concatenate(pair)
    order = np.argsort(pair, kind="stable")
    return pair[order], np.concatenate(end)[order], np.concatenate(levels)[order]


def _chunk_starts(node_off):
    """The first pair of each chunk of whole pairs, and the pair count at the
    end, from the pairs' node offsets (ending with the total): a chunk
    starts at the pair that holds node k * _NEAR_CHUNK.  A memory cut only."""
    starts = np.searchsorted(node_off, np.arange(0, node_off[-1], _NEAR_CHUNK), side="right") - 1
    return np.unique(np.concatenate((starts, [len(node_off) - 1])))


def _geometric_chunks(t_star, dist, ell):
    """The geometric rules of near pairs, in chunks of whole pairs
    (`_chunk_starts`, a memory cut): (slice of pairs, nodes per pair, offset
    t - t* and weight per node).  Each sub-interval's ends, from two powers
    of _FINE_RATIO, and its midpoint and half length are computed once and
    spread over its _FINE_N Gauss nodes."""
    seg_pair, end, levels = _near_sides(t_star, dist, ell)
    n_sub = levels + 1
    # one entry per sub-interval, innermost first along each side
    seg = np.repeat(np.arange(len(n_sub)), n_sub)
    j = np.arange(len(seg)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    lv, span = levels[seg], end[seg] - t_star[seg_pair[seg]]
    lo = span * np.where(j == 0, 0.0, _FINE_RATIO ** (lv - j + 1.0))
    hi = span * _FINE_RATIO ** (lv - j + 0.0)
    mid, half = 0.5 * (lo + hi), 0.5 * np.abs(hi - lo)
    sub_off = np.concatenate(([0], np.cumsum(np.bincount(seg_pair, n_sub, len(t_star))))).astype(int)
    node_off = _FINE_N * sub_off
    cuts = _chunk_starts(node_off)
    tg, wg = gauss_legendre(_FINE_N)
    for p0, p1 in zip(cuts[:-1], cuts[1:]):
        u = slice(sub_off[p0], sub_off[p1])
        yield (slice(p0, p1), np.diff(node_off[p0:p1 + 1]),
               (mid[u, None] + half[u, None] * tg).ravel(), (half[u, None] * wg).ravel())


def _fix_near(kappa, kappa2, src, tgt_pts, tgt_nrm, out, plain=False):
    """Re-integrate every near (target, panel) pair of the call: own-panel
    pairs by the product rule and the others by a single Gauss rule, in
    batches of one layout, and the pairs too close for one by sized
    geometric rules in chunks; one kernel pass per batch or chunk of whole
    pairs, and no entry depends on another pair.  `out` holds one block per
    kind, in `_kernels` order with `plain`."""
    n_gl = src.n_gl
    pa, ab, length, normal = src.pa, src.pb - src.pa, src.plen, src.normals[::n_gl]
    ti, pi, t_star, dist = _near_pairs(pa, ab, length, tgt_pts)
    if not len(ti):
        return
    own = (dist <= _OWN_TOL * length[pi]) & (np.abs(t_star) < 1.0)
    from_a = tgt_pts[ti] - pa[pi]
    size = np.where(own, -1, _single_sizes(from_a, ab[pi]))
    # the target from its closest point, formed once: node offsets s = t - t*
    # then give x - y without the cancellation of two nearby points
    from_c = (from_a - (0.5 + 0.5 * t_star)[:, None] * ab[pi]).T
    tn_pair = None if tgt_nrm is None else tgt_nrm[ti].T

    def write(p, nodes):
        """nodes (kinds, n_gl, pairs) into the rows and panel columns of the pairs p."""
        at = (ti[p] * src.n_nodes + n_gl * pi[p]) + np.arange(n_gl)[:, None]
        for blk, v in zip(out, nodes):
            np.put(blk, at, v)

    def values(p, spread, s, wratio=None):
        """Kernel values times the half panel length at the offsets s of the
        pairs p, whose per-pair data `spread` takes to the layout of s; with
        wratio by the product rule (_product_rule)."""
        pn = pi[p]
        d = [spread(f[p]) - (0.5 * s) * spread(a[pn]) for f, a in zip(from_c, ab.T)]
        r = np.hypot(*d)
        sn = [spread(c[pn]) for c in normal.T]
        tn = None if tn_pair is None else [spread(c[p]) for c in tn_pair]
        half = spread(0.5 * length[pn])
        if wratio is None:
            vals = np.stack(_kernels(kappa, kappa2, d, r, sn, tn, plain))
        else:
            dt = np.abs(s)
            hit = dt <= _HIT_TOL   # node on the target
            vals = np.stack(_kernels(kappa, kappa2, d, np.where(hit, 1.0, r), sn, tn, plain))
            nn = None if tn is None else sn[0] * tn[0] + sn[1] * tn[1]
            # views; `plain` adds the S and K of kappa alone (_kernels)
            sets = (zip((kappa2, None), (vals[:-2], vals[-2:])) if plain
                    else [(kappa2, vals)])
            for kap2, v in sets:
                _product_rule(kappa, kap2, v, np.where(hit, 0.0, r), dt, wratio, half, nn)
        vals *= half
        return vals

    # fixed layouts: (nodes, pairs) planes from per-pair rows, node-major in C order
    for n, p, wratio in _fixed_batches(own, size, t_star):
        s = gauss_legendre(n)[0][:, None] - t_star[p]
        vals = values(p, lambda a: a[None, :], s, wratio)
        write(p, _to_nodes(vals, _node_map(n, n_gl)))
    # geometric rules, pair-major: a pair's data repeated over its nodes
    geo = np.nonzero(size == 0)[0]
    moments = np.empty((len(out), n_gl, len(geo)), dtype=complex)   # per kind and pair
    for sl, reps, s, wf in _geometric_chunks(t_star[geo], dist[geo], length[pi[geo]]):
        spread = partial(np.repeat, repeats=reps)
        vals = values(geo[sl], spread, s)
        vals *= wf
        table = _legendre_table(spread(t_star[geo[sl]]) + s, n_gl)
        offsets = np.cumsum(reps) - reps
        for m, v in zip(moments, vals):   # one kind at a time keeps peak RSS flat
            m[:, sl] = np.add.reduceat(v * table, offsets, axis=1)
    write(geo, _to_nodes(moments, _interp_coeffs(n_gl)))


def _product_rule(kappa, kappa2, vals, r, dt, wratio, half, nn):
    """Turn the kernel values `vals` (kinds, nodes, pairs) at the product-rule
    nodes of own-panel pairs into values that the nodes' Gauss weights
    integrate with the product rule.

    On a straight panel a kernel A log r + B is A log|t - t*| + B~ with
    B~ = B + A log(half): the Gauss weight w takes B~ and the log weight
    wlog = wratio w takes A.  At a node on the target (r = 0) B~ comes
    from the r -> 0 limits.  K and Kp vanish and plain T, where the set
    has it, is NaN.
    """
    (a_s, a_t), (b_s, b_t) = _log_split(kappa, r)
    if kappa2 is not None:
        (a_s2, a_t2), (b_s2, b_t2) = _log_split(kappa2, r)
        a_s, a_t, b_s, b_t = a_s - a_s2, a_t - a_t2, b_s - b_s2, b_t - b_t2
    on = r == 0
    log_dt = np.log(np.where(on, 1.0, dt))
    has_t = len(vals) > 3
    parts = [(0, a_s, b_s)]
    if has_t and kappa2 is not None:
        parts.append((3, nn * a_t, nn * b_t))
    for kind, a, b0 in parts:
        smooth = np.where(on, b0 + a * np.log(half), vals[kind] - a * log_dt)
        vals[kind] = smooth + wratio * a
    vals[1:3] = 0.0
    if has_t and kappa2 is None:
        vals[3] = np.nan


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
