"""Hot numeric kernels: oscillatory-exponential sums over quadrature grids.

Each kernel is one numpy path over the tensor grid; `IMPL` names it.
The sector sums take one level of quadrature's area rule, with its weights
wr (x) wt.  `sector_quad_sum` calls the u0 grid as `_u0_polar`, so a
wrapper installed on the public `u0_polar` sees only outside calls.  The
edge and area sums take their u0 factor from the caller (`edge_u0`,
`u0_polar`), which computes it once per rule level and s (`edge_u0` for
an array of them at once), and sum along the grid, the last axis, so a
table of integrands is one call.  The
grid-sized kernels take their products in place on one array, in the
order of the expression they compute, so the bits are the expression's:
on grids of tens of thousands of points a fresh temporary per factor
costs more than the product.

All kernels work in the polar frame of a corner sector: a point is
(r, theta) with theta measured from the positive x1-axis, and the decaying
test function is exp(-sqrt(s*r) * e^{i theta/2}).
"""

import numpy as np

IMPL = "numpy"


def u0_polar(r, theta, s):
    """u0(s*x) on the tensor grid r[:,None] x theta[None,:]."""
    sq = np.sqrt(s * np.asarray(r, dtype=float))[:, None]
    mu = np.exp(0.5j * np.asarray(theta, dtype=float))[None, :]
    table = -sq * mu
    return np.exp(table, out=table)


_u0_polar = u0_polar


def sector_quad_sum(rule, s):
    vals = _u0_polar(rule.r, rule.t, s) * rule.r[:, None]
    return complex((rule.wrt * vals).sum())


def sector_abs_quad_sum(rule, s, alpha):
    sq = np.sqrt(s * rule.r)[:, None]
    dec = np.cos(0.5 * rule.t)[None, :]
    vals = np.exp(-sq * dec) * (rule.r ** (1.0 + alpha))[:, None]
    return float((rule.wrt * vals).sum())


def edge_u0(r, s, theta):
    """u0(s*x) at the radii r along the ray at angle theta; arrays s and
    theta broadcast together, the radii on a new last axis."""
    half = 0.5 * np.asarray(theta, dtype=float)[..., None]
    mu = np.cos(half) + 1j * np.sin(half)
    return np.exp(-np.sqrt(np.asarray(s, dtype=float)[..., None] * r) * mu)


def edge_quad_sum(wr, g, e):
    """sum wr g e along the last axis: e the edge factor `edge_u0` on the
    nodes of wr, g one integrand or a table of one per row, the two
    broadcast together.  A table is summed one block of its last two axes
    at a time, so no temporary is larger than a block."""
    shape = np.broadcast_shapes(np.shape(g), np.shape(e))
    g, e = np.broadcast_to(g, shape), np.broadcast_to(e, shape)
    out = np.empty(shape[:-1], dtype=complex)
    for block in np.ndindex(shape[:-2]):
        terms = wr * g[block]
        terms *= e[block]
        out[block] = terms.sum(axis=-1)
    return out


def area_quad_sum(wrt, vals, u0, r):
    """sum (wr (x) wt) vals u0 r over the tensor grid, the last two axes:
    u0 the `u0_polar` table, vals one integrand's table or a stack of them.
    Each grid is summed as one flat row, as a whole-table sum is."""
    terms = wrt * vals
    terms *= u0
    terms *= r[:, None]
    return terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)
