"""Boundary-integral solver for the conductive transmission problem on a
nested polygonal medium.

Representation (one density pair per interface): the scattered exterior
field is a combined double+single layer on the outermost interface; each
annular region uses double+single layers on its two bounding interfaces,
all with the region's own wavenumber.  Matching the Dirichlet trace and
the conductive Neumann jump
    u_out = u_in,   dnu u_out + lambda u_out = dnu u_in
at collocation nodes yields a square second-kind system whose diagonal
operators are kernel differences (weakly singular at worst).

Solved layers: both solvers end as a `Solution`.  In region `reg`
(0 = exterior) the field is the sum of D phi + S psi over the
(curve, phi, psi) triples of `layers[reg]`, at `kappas[reg]`, plus the
incident field in region 0.  A nest region lists its bounding interfaces,
outer first; a cell medium's triples come from its segment traces.  Both
media assemble once (`assemble_nest`, `cellsolver.assemble_cell`) and
solve per jump data (`solve_assembled`), which is all an incident field
enters a solve through (`incident_jumps`).

Dense solve: every solve of either medium is one `solve_system(A, b)`, an
LU of A in complex64 refined in complex128 (LAPACK zcgesv's scheme;
Langou et al., SC'06, 2006; Carson & Higham, SIAM J. Sci. Comput. 40,
2018), which halves the O(N^3) factorization and keeps double-precision
backward error.  Refinement stops when ||b - A x||_inf <= sqrt(N) eps
||A||_inf ||x||_inf, eps = 2^-53.  A matrix outside complex64's range, a
refinement step that does not shrink the residual, or more than
_MAX_STEPS steps fall back to the complex128 LU, the only path for
systems complex64 cannot reach (condition about 1e8 and beyond).  The
condition estimate is LAPACK gecon's on the factors used, and a
`Solution` records the factor dtype and the steps taken.  Each solve
factors its system, so solves that share an assembly do not share an LU.

Nest assembly: one `assemble_nest_blocks` call per interface (its self
blocks) and per pair of neighbouring interfaces (both cross blocks), so
that an assembly evaluates each far kernel value once (see `layerops`).

Block store: both solvers take an optional caller-owned dict `blocks` and
make every assembly call through it (`_stored`), one entry per call: a
nest group (`assemble_nest_blocks`), a cell region's block
(`assemble_block`) or a result's far-field rows (`farfield_row`).  An entry's key is the build
function and everything the call reads: the wavenumber(s) and flags, the
arrays of each mesh (nodes, weights, normals, panel ends and lengths) and
the exact bytes of the targets.  A moved curve or a changed wavenumber therefore
misses, and a hit is the very value a fresh call would give, so every
output is bitwise unchanged.  `None` stores nothing.  A sweep fills a
store on its base solve and hands each perturbed solve a shallow copy,
which reads the base entries and drops the perturbed solve's own entries
with it.  A result keeps the store it was solved with and fetches its
far-field rows through it, so solves on the same exterior curves share
them.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ..geometry import locate
from ..medium import CellMedium, IncidentField, NestMedium, incident_eval, sqrt_im_nonneg
from .layerops import assemble_block, assemble_nest_blocks, farfield_row
from .mesh import BoundaryMesh, CurveMesh, build_mesh

COND_FLAG = 1e12
TAU_SOLVE = 1e-8
_MAX_STEPS = 10        # refinement steps before the complex128 fallback


@dataclass(frozen=True)
class FarFieldPattern:
    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if a.size < 2 or v.shape != a.shape:
            raise ValueError("far-field pattern needs >= 2 matching angle/value samples")
        if np.any(np.diff(a) <= 0) or a[0] < 0 or a[-1] >= 2 * np.pi:
            raise ValueError("angles must be strictly increasing in [0, 2*pi)")
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "values", v)


def uniform_directions(m):
    return np.arange(m) * (2 * np.pi / m)


def region_wavenumbers(medium):
    """Exterior k followed by k sqrt(q) of each layer (nest) or cell (cell
    medium), principal branch, Im >= 0."""
    return [complex(medium.k), *(medium.k * sqrt_im_nonneg(q) for q in medium.q)]


def solve_system(A, b):
    """Solve A x = b (see the module notes); returns (x, relative residual
    ||b - A x|| / ||b||, 1-norm condition estimate, refinement steps, factor
    dtype name).  In the fallback, x is the bits of scipy's
    lu_solve(lu_factor(A), b).

    The 1-norm is the one scan for non-finite entries: it is NaN or inf
    whenever A holds one, which is refused as scipy would.  The complex64 LU
    is of A^T: the cast of a C-ordered A is A^T in Fortran order, which
    LAPACK factors in place, where a Fortran-ordered cast costs a
    transposing copy; gecon's infinity norm on those factors is the 1-norm
    of A.
    """
    absA = np.abs(A)
    anorm = absA.sum(axis=0).max()
    if not np.isfinite(anorm):
        raise ValueError("array must not contain infs or NaNs")
    anorm_inf = absA.sum(axis=1).max()
    del absA
    if max(anorm, anorm_inf) < np.finfo(np.float32).max:
        with warnings.catch_warnings():
            # a singular complex64 factor is a fallback, not a warning
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu_piv = sla.lu_factor(np.ascontiguousarray(A, np.complex64).T,
                                   overwrite_a=True, check_finite=False)
        x = _solve64(lu_piv, b)
        bound = np.sqrt(len(b)) * 2.0**-53 * anorm_inf
        last = np.inf
        for steps in range(_MAX_STEPS + 1):
            if x is None:
                break
            r = b - A @ x
            rnorm = np.abs(r).max()
            if rnorm <= bound * np.abs(x).max():
                return x, _relative(r, b), _cond(lu_piv, anorm, "I"), steps, "complex64"
            if rnorm >= last or steps == _MAX_STEPS:
                break
            last = rnorm
            dx = _solve64(lu_piv, r)
            x = None if dx is None else x + dx
        del lu_piv
    lu_piv = sla.lu_factor(A, check_finite=False)
    x = sla.lu_solve(lu_piv, b, check_finite=False)
    return x, _relative(b - A @ x, b), _cond(lu_piv, anorm, "1"), 0, "complex128"


def _solve64(lu_piv, v):
    """The solve of A y = v from the complex64 factors of A^T, with v scaled
    into complex64's range and y returned in complex128; None if y is not
    finite."""
    scale = np.abs(v).max()
    if scale == 0:
        return np.zeros_like(v)
    y = sla.lu_solve(lu_piv, (v / scale).astype(np.complex64), trans=1, check_finite=False)
    return scale * y.astype(complex) if np.all(np.isfinite(y)) else None


def _cond(lu_piv, anorm, norm):
    """1 / LAPACK gecon's reciprocal condition, in the 1-norm ("1") or the
    infinity norm ("I"), of the factored matrix of that norm `anorm`."""
    gecon = sla.get_lapack_funcs("gecon", (lu_piv[0],))
    rcond, _ = gecon(lu_piv[0], anorm, norm=norm)
    return np.inf if rcond == 0 else 1.0 / float(rcond)


def _relative(r, b):
    return float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))


def _stored(blocks, build, *args):
    """build(*args) through the store `blocks`, one entry per call, keyed by
    `build` and everything the call reads: scalars by repr (which tells
    a float from a complex and 0.0 from -0.0), arrays by dtype, shape and
    bytes, a CurveMesh by its six arrays.  Stored values are read-only;
    `blocks=None` only builds."""
    if blocks is None:
        return build(*args)

    def part(a):
        if isinstance(a, CurveMesh):
            return tuple(map(part, (a.nodes, a.weights, a.normals, a.pa, a.pb, a.plen)))
        if isinstance(a, np.ndarray):
            return a.dtype.str, a.shape, a.tobytes()
        return repr(a)

    key = (build, *map(part, args))
    if key not in blocks:
        value = build(*args)
        for a in value if isinstance(value, (list, tuple)) else (value,):
            a.flags.writeable = False
        blocks[key] = value
    return blocks[key]


@dataclass
class Solution:
    """A solved medium as layer potentials (see the module notes); `blocks` is
    the block store of the solve, which also holds the far-field rows."""

    residual: float
    cond_estimate: float
    converged: bool
    refinement_steps: int     # complex128 refinement steps of the complex64 LU
    factor_dtype: str         # "complex64", or "complex128" for the fallback
    kappas: list
    medium: object            # NestMedium or CellMedium
    incident: IncidentField
    layers: tuple             # per region: ((curve, phi, psi), ...)
    blocks: dict

    def far_field(self, angles):
        k = self.medium.k
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        total = 0
        for curve, phi, psi in self.layers[0]:
            fs, fd = _stored(self.blocks, farfield_row, curve, k, dirs)
            total = total + fd @ phi + fs @ psi
        return FarFieldPattern(np.asarray(angles, float), total)

    def field_at(self, pts):
        """Total field at points, each through the representation of the
        region that point location puts it in.

        Point location refuses interface points (the value is not
        single-valued there).  Returns a complex scalar for a single point.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        labels = locate(self.medium.partition, pts)
        if any(lb.kind == "interface" for lb in labels):
            raise ValueError("field evaluation on an interface is not defined")
        regions = np.array([0 if lb.kind == "exterior" else lb.index for lb in labels])
        out = np.zeros(len(pts), dtype=complex)
        for reg in np.unique(regions):
            sel = regions == reg
            if reg == 0:
                out[sel] += incident_eval(self.incident, self.medium.k, pts[sel])[0]
            for curve, phi, psi in self.layers[reg]:
                sb, kb = assemble_block(self.kappas[reg], curve, pts[sel])
                # row sums, not BLAS: no value depends on the other points
                out[sel] += np.sum(kb * phi, axis=1) + np.sum(sb * psi, axis=1)
        return out if len(out) > 1 else complex(out[0])


# perfbench/tracing.py wraps field_at in each result class's own __dict__
class NestSolveResult(Solution):
    field_at = Solution.field_at


class CellSolveResult(Solution):
    field_at = Solution.field_at


def solve_scatter(medium, inc: IncidentField, nodes_per_edge=32, grading=3.0, blocks=None):
    """Solve the forward conductive scattering problem.

    Dispatches on the medium type; nest media use the layered combined
    representation, cell media the single-trace formulation.

    `blocks` is an optional caller-owned dict with one entry per assembly
    call (see the module notes): hits are reused, misses assembled and
    added.  Passing `dict(store)` reads `store` without growing it, so a
    sweep holds one base set between solves; `None` stores nothing.
    """
    if isinstance(medium, CellMedium):
        from .cellsolver import solve_cell

        return solve_cell(medium, inc, nodes_per_edge=nodes_per_edge, grading=grading,
                          blocks=blocks)
    if not isinstance(medium, NestMedium):
        raise TypeError(f"unsupported medium type {type(medium)!r}")
    mesh = build_mesh(medium.partition.layers, nodes_per_edge, grading)
    system = assemble_nest(medium, mesh, blocks=blocks)
    return solve_assembled(system, inc, incident_jumps(system, inc))


def assemble_nest(medium: NestMedium, mesh: BoundaryMesh, blocks=None):
    """Build the block system once; reusable across incident fields.
    Operator blocks go through the store `blocks` when one is given."""
    if len(mesh.curves) != medium.partition.n_layers:
        raise ValueError("mesh does not match the number of interfaces")
    kappas = region_wavenumbers(medium)
    sizes = [c.n_nodes for c in mesh.curves]
    # built in a call of its own, so no block outlives it into the solve
    A = _nest_matrix(medium, mesh, kappas, sizes, blocks)
    return {
        "A": A, "mesh": mesh, "kappas": kappas, "medium": medium, "sizes": sizes,
        "blocks": blocks,
    }


def _nest_matrix(medium, mesh, kappas, sizes, blocks):
    """The system matrix: per interface, its self blocks and its pair with
    the outer neighbour.  Each group is added in a call of its own, so that
    without a store it is freed before the next one is built."""
    col0 = np.cumsum([0] + [2 * s for s in sizes])
    ntot = col0[-1]
    A = np.zeros((ntot, ntot), dtype=complex)
    # per interface: its Dirichlet and Neumann rows, which are also the
    # slices of its phi and psi columns
    span = [(slice(o, o + m), slice(o + m, o + 2 * m)) for o, m in zip(col0, sizes)]

    for i, tgt in enumerate(mesh.curves):
        kout, kin, lam = kappas[i], kappas[i + 1], medium.lam[i]
        _add_self(A, span[i], lam,
                  _stored(blocks, assemble_nest_blocks, kout, tgt, tgt, kin, lam != 0))
        if i >= 1:
            # the pair at kout: outer neighbour onto this interface, and this
            # interface onto the inner side of the outer neighbour
            _add_pair(A, span[i], span[i - 1], lam,
                      _stored(blocks, assemble_nest_blocks, kout, mesh.curves[i - 1], tgt,
                              None, False))
    return A


def _add_self(A, own_span, lam, own):
    """Add an interface's self group (`assemble_nest_blocks`) to A."""
    rd, rn = own_span
    eye = np.eye(rd.stop - rd.start)
    sd, kd, kpd, td = own[0]
    A[rd, rd] = eye + kd
    A[rd, rn] = sd
    A[rn, rd] = td
    A[rn, rn] = -eye + kpd
    if lam != 0:
        so, ko = own[1]
        A[rn, rd] += lam * (0.5 * eye + ko)
        A[rn, rn] += lam * so


def _add_pair(A, own_span, outer_span, lam, pair):
    """Add the cross group of an interface and its outer neighbour to A."""
    (rd, rn), (od, on) = own_span, outer_span
    (sv, kv, kpv, tv), (sw, kw, kpw, tw) = pair
    A[rd, od] += kv
    A[rd, on] += sv
    A[rn, od] += tv + lam * kv
    A[rn, on] += kpv + lam * sv
    A[od, rd] -= kw
    A[od, rn] -= sw
    A[on, rd] -= tw
    A[on, rn] -= kpw


def incident_jumps(system, inc: IncidentField):
    """The jump data of an incident field (see `solve_assembled`), zero but on
    the curves that bound the exterior: f = -u_inc, g = -(dnu u_inc + lambda_1
    u_inc) on a nest's outermost interface, f = u_inc, g = dnu u_inc on a cell
    medium's hull segments."""
    medium, segs = system["medium"], system.get("segments")
    jumps = [(0, 0)] * len(system["sizes"])
    for i, curve in enumerate(system["mesh"].curves):
        if (i if segs is None else segs[i].owner_b) == 0:
            ui, gi = incident_eval(inc, medium.k, curve.nodes)
            dnu = (gi * curve.normals).sum(axis=1)
            jumps[i] = (-ui, -(dnu + medium.lam[0] * ui)) if segs is None else (ui, dnu)
    return jumps


def _rhs(system, jumps):
    """The right-hand side of `jumps`: a nest's Dirichlet and Neumann rows are
    its (f_i, g_i); a cell medium's B owners read it off their rows (`cellsolver`)."""
    A, sizes, segs = system["A"], system["sizes"], system.get("segments")
    off = np.cumsum([0] + [2 * m for m in sizes])
    b = np.zeros(A.shape[0], dtype=complex)
    for i, (f, g) in enumerate(jumps):
        first, second = slice(off[i], off[i] + sizes[i]), slice(off[i] + sizes[i], off[i + 1])
        if segs is None:
            b[first], b[second] = f, g
        elif np.any(f) or np.any(g):
            r, lam = system["rows"][segs[i].owner_b], system["medium"].lambda_star
            b[r] += A[r, first] @ f + A[r, second] @ (g + lam * f)
    return b


def solve_assembled(system, inc: IncidentField, jumps):
    """Solve an assembled system (`assemble_nest`, `cellsolver.assemble_cell`)
    for the layer-potential fields with the jump data `jumps`, one (f, g)
    per interface of a nest, outermost first,
        u_out - u_in = f,   dnu u_out + lambda_i u_out - dnu u_in = g,
    or per segment of a cell medium, nu pointing from owner A to owner B,
        u_A - u_B = f,      dnu u_A - lambda* u_A - dnu u_B = g,
    (0, 0) where both vanish.  The result adds `inc` to the exterior field;
    with the jumps of `inc` (incident_jumps) the total field has none.  A
    point source that is not strictly outside the medium is a ValueError.
    The result is converged when its residual is at most TAU_SOLVE and its
    condition estimate below COND_FLAG."""
    inc.validate_against(system["medium"].partition.hull)
    segs, sizes = system.get("segments"), system["sizes"]
    z, resid, cond, steps, dtype = solve_system(system["A"], _rhs(system, jumps))
    off = np.cumsum([0] + [2 * s for s in sizes])
    pairs = [(z[o:o + s], z[o + s:o + 2 * s]) for o, s in zip(off, sizes)]
    layers = [[] for _ in system["kappas"]]
    if segs is None:
        # interface ell bounds regions ell and ell + 1 (region 0 is the exterior)
        for ell, (curve, (phi, psi)) in enumerate(zip(system["mesh"].curves, pairs)):
            layers[ell].append((curve, phi, psi))
            layers[ell + 1].append((curve, phi, psi))
    else:
        lam = system["medium"].lambda_star
        for seg, curve, (t, p), (f, g) in zip(segs, system["mesh"].curves, pairs, jumps):
            layers[seg.owner_a].append((curve, -t, p))
            layers[seg.owner_b].append((curve, t - f, -(p - lam * t - g)))
    result = NestSolveResult if segs is None else CellSolveResult
    return result(resid, cond, resid <= TAU_SOLVE and cond < COND_FLAG, steps, dtype,
                  system["kappas"], system["medium"], inc, tuple(map(tuple, layers)),
                  system["blocks"])


def farfield_diff(p1: FarFieldPattern, p2: FarFieldPattern):
    """Relative L2 distance of two patterns on the same angular grid."""
    if p1.angles.shape != p2.angles.shape or not np.allclose(p1.angles, p2.angles):
        raise ValueError("far-field patterns live on different angular grids")
    num = np.linalg.norm(p1.values - p2.values)
    den = max(np.linalg.norm(p1.values), 1e-300)
    return float(num / den)
