"""Hot numeric kernels: oscillatory-exponential sums over quadrature grids.

Each kernel is one numpy expression over the tensor grid; `IMPL` names
that single path.  `sector_quad_sum` calls the u0 grid as `_u0_polar`, so a
wrapper installed on the public `u0_polar` sees only outside calls.  The
edge and area sums take their u0 factor from the caller (`edge_u0`,
`u0_polar`), which computes it once per rule and s.

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
    return np.exp(-sq * mu)


_u0_polar = u0_polar


def sector_quad_sum(r, wr, theta, wt, s):
    vals = _u0_polar(r, theta, s) * r[:, None]
    return complex((wr[:, None] * wt[None, :] * vals).sum())


def sector_abs_quad_sum(r, wr, theta, wt, s, alpha):
    sq = np.sqrt(s * r)[:, None]
    dec = np.cos(0.5 * theta)[None, :]
    vals = np.exp(-sq * dec) * (r ** (1.0 + alpha))[:, None]
    return float((wr[:, None] * wt[None, :] * vals).sum())


def edge_u0(r, s, theta):
    """u0(s*x) at the radii r along the ray at angle theta."""
    mu = complex(np.cos(0.5 * theta), np.sin(0.5 * theta))
    return np.exp(-np.sqrt(s * r) * mu)


def edge_quad_sum(wr, g, e):
    """sum wr g e: e the edge factor `edge_u0` on the nodes of wr."""
    return complex(np.sum(wr * g * e))


def area_quad_sum(wrt, vals, u0, r):
    """sum (wr (x) wt) vals u0 r on the tensor grid: u0 the `u0_polar` table."""
    return complex((wrt * vals * u0 * r[:, None]).sum())
