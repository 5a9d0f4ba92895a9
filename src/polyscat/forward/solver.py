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
media assemble and factor once (`assemble_nest`, `cellsolver.assemble_cell`)
and solve per jump data (`solve_assembled`), which is all an incident field
enters a solve through (`incident_jumps`).

Nest assembly: one `assemble_nest_blocks` call per interface (its self
blocks) and per pair of neighbouring interfaces (both cross blocks), so
that an assembly evaluates each far kernel value once (see `layerops`).

Block store: both solvers take an optional caller-owned dict `blocks` and
make every assembly call through it (`_stored`), one entry per call: a
nest group (`assemble_nest_blocks`), a cell block (`assemble_block`) or a
result's far-field rows (`farfield_row`).  An entry's key is the build
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

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ..geometry import locate
from ..medium import CellMedium, IncidentField, NestMedium, incident_eval, sqrt_im_nonneg
from .layerops import assemble_block, assemble_nest_blocks, farfield_row
from .mesh import BoundaryMesh, CurveMesh, build_mesh

COND_FLAG = 1e12
TAU_SOLVE = 1e-8


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


def factor_system(A):
    """LU factors of A and the LAPACK gecon estimate of its 1-norm
    condition number."""
    anorm = np.linalg.norm(A, 1)
    lu_piv = sla.lu_factor(A)
    gecon = sla.get_lapack_funcs("gecon", (A,))
    rcond, _ = gecon(lu_piv[0], anorm)
    return lu_piv, np.inf if rcond == 0 else 1.0 / rcond


def solve_factored(A, lu_piv, cond, b, sizes):
    """Solve A z = b from the LU factors of A.

    z holds one pair of nodal vectors per curve, `sizes` giving each
    curve's node count.  Returns (pairs, relative residual, converged),
    converged meaning residual <= TAU_SOLVE and cond < COND_FLAG.
    """
    z = sla.lu_solve(lu_piv, b)
    resid = float(np.linalg.norm(A @ z - b) / max(np.linalg.norm(b), 1e-300))
    off = np.cumsum([0] + [2 * s for s in sizes])
    pairs = tuple((z[o:o + s], z[o + s:o + 2 * s]) for o, s in zip(off, sizes))
    return pairs, resid, resid <= TAU_SOLVE and cond < COND_FLAG


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
    inc.validate_against(medium.partition.layers[0])
    system = assemble_nest(medium, mesh, blocks=blocks)
    return solve_assembled(system, inc, incident_jumps(system, inc))


def assemble_nest(medium: NestMedium, mesh: BoundaryMesh, blocks=None):
    """Build and factor the block system once; reusable across incident fields.
    Operator blocks go through the store `blocks` when one is given."""
    if len(mesh.curves) != medium.partition.n_layers:
        raise ValueError("mesh does not match the number of interfaces")
    kappas = region_wavenumbers(medium)
    sizes = [c.n_nodes for c in mesh.curves]
    # built in a call of its own, so no block outlives it into the LU
    A = _nest_matrix(medium, mesh, kappas, sizes, blocks)
    lu_piv, cond = factor_system(A)
    return {
        "A": A, "lu": lu_piv, "cond": cond, "mesh": mesh, "kappas": kappas,
        "medium": medium, "sizes": sizes, "blocks": blocks,
    }


def _nest_matrix(medium, mesh, kappas, sizes, blocks):
    """The system matrix: per interface, its self blocks and its pair with
    the outer neighbour."""
    col0 = np.cumsum([0] + [2 * s for s in sizes])
    ntot = col0[-1]
    A = np.zeros((ntot, ntot), dtype=complex)
    # per interface: its Dirichlet and Neumann rows, which are also the
    # slices of its phi and psi columns
    span = [(slice(o, o + m), slice(o + m, o + 2 * m)) for o, m in zip(col0, sizes)]

    for i, tgt in enumerate(mesh.curves):
        kout, kin = kappas[i], kappas[i + 1]
        lam = medium.lam[i]
        rd, rn = span[i]
        eye = np.eye(sizes[i])
        own = _stored(blocks, assemble_nest_blocks, kout, tgt, tgt, kin, lam != 0)
        sd, kd, kpd, td = own[0]
        A[rd, rd] = eye + kd
        A[rd, rn] = sd
        A[rn, rd] = td
        A[rn, rn] = -eye + kpd
        if lam != 0:
            so, ko = own[1]
            A[rn, rd] += lam * (0.5 * eye + ko)
            A[rn, rn] += lam * so

        if i >= 1:
            # the pair at kout: outer neighbour onto this interface, and this
            # interface onto the inner side of the outer neighbour
            pair = _stored(blocks, assemble_nest_blocks, kout, mesh.curves[i - 1], tgt,
                           None, False)
            (sv, kv, kpv, tv), (sw, kw, kpw, tw) = pair
            od, on = span[i - 1]
            A[rd, od] += kv
            A[rd, on] += sv
            A[rn, od] += tv + lam * kv
            A[rn, on] += kpv + lam * sv
            A[od, rd] -= kw
            A[od, rn] -= sw
            A[on, rd] -= tw
            A[on, rn] -= kpw

    return A


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
    with the jumps of `inc` (incident_jumps) the total field has none."""
    segs = system.get("segments")
    pairs, resid, converged = solve_factored(system["A"], system["lu"], system["cond"],
                                             _rhs(system, jumps), system["sizes"])
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
    return result(resid, system["cond"], converged, system["kappas"], system["medium"], inc,
                  tuple(map(tuple, layers)), system["blocks"])


def farfield_diff(p1: FarFieldPattern, p2: FarFieldPattern):
    """Relative L2 distance of two patterns on the same angular grid."""
    if p1.angles.shape != p2.angles.shape or not np.allclose(p1.angles, p2.angles):
        raise ValueError("far-field patterns live on different angular grids")
    num = np.linalg.norm(p1.values - p2.values)
    den = max(np.linalg.norm(p1.values), 1e-300)
    return float(num / den)
