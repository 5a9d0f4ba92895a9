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
outer first; a cell medium's triples come from its segment traces.

Block store: both solvers take an optional caller-owned dict `blocks` and
fetch every operator block through `_block`.  Its key is everything
`assemble_block` reads: the wavenumber(s), whether target normals were
given, and the exact bytes of the source mesh and of the target points
and normals.  A moved curve or a changed wavenumber therefore misses, and
a hit is the very array a fresh assembly would give, so every output is
bitwise unchanged.  `None` stores nothing.  A sweep fills a store on its
base solve and hands each perturbed solve a shallow copy, which reads the
base blocks and drops the perturbed solve's own blocks with it.  A result
keeps the store it was solved with and fetches its far-field rows through
it, keyed by k, the exterior mesh and the directions, so solves on the
same exterior curves share them.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ..geometry import locate
from ..medium import CellMedium, IncidentField, NestMedium, incident_eval
from .layerops import assemble_block, farfield_row
from .mesh import BoundaryMesh, build_mesh

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
    ks = [complex(medium.k)]
    for q in medium.q:
        root = np.sqrt(complex(q))
        if root.imag < 0:
            root = -root
        ks.append(medium.k * root)
    return ks


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


def _stored(blocks, scalars, arrays, build):
    """build(), served from the store `blocks` when it holds the result for
    these exact scalars and arrays and stored there otherwise; `blocks=None`
    only builds.  Stored arrays are read-only."""
    if blocks is None:
        return build()
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    # repr, unlike ==, tells a float from a complex and 0.0 from -0.0
    key = (*map(repr, scalars), *((a.shape, a.tobytes()) for a in arrays))
    if key not in blocks:
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
        blocks[key] = value
    return blocks[key]


def _block(blocks, kappa, src, tgt_pts, tgt_nrm=None, kappa2=None):
    """`assemble_block(kappa, src, tgt_pts, tgt_nrm, kappa2)` through the store
    `blocks`, keyed by every array assemble_block reads: the mesh, its panel
    ends and lengths for the near pass, and the targets."""
    arrays = [src.nodes, src.weights, src.normals,
              [[*p.a, *p.b, p.length] for p in src.panels], tgt_pts]
    if tgt_nrm is not None:
        arrays.append(tgt_nrm)
    return _stored(blocks, (kappa, kappa2), arrays,
                   lambda: assemble_block(kappa, src, tgt_pts, tgt_nrm, kappa2=kappa2))


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
            fs, fd = _stored(self.blocks, ("farfield", k),
                             [curve.nodes, curve.weights, curve.normals, dirs],
                             lambda: farfield_row(curve, k, dirs))
            total = total + fd @ phi + fs @ psi
        return FarFieldPattern(np.asarray(angles, float), total)

    def field_at(self, pts, region=None):
        """Total field at points; `region` pins the representation used.

        Regions come from point location, which refuses interface points
        (the value is not single-valued there).  On a nest, pinning a region
        evaluates that region's layer representation everywhere it makes
        sense, including on the region's own boundary, where the
        double-layer principal value yields the average of the two one-sided
        limits; since the Dirichlet trace is continuous across every
        interface, that average is the physical boundary value of the total
        field.  Returns a complex scalar for a single point.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if region is not None:
            regions = np.full(len(pts), int(region))
        else:
            labels = locate(self.medium.partition, pts)
            if any(lb.kind == "interface" for lb in labels):
                raise ValueError("field evaluation on an interface is not defined")
            regions = np.array([0 if lb.kind == "exterior" else lb.index for lb in labels])
        out = np.empty(len(pts), dtype=complex)
        for reg in np.unique(regions):
            sel = np.nonzero(regions == reg)[0]
            val = np.zeros(len(sel), dtype=complex)
            if reg == 0:
                val += incident_eval(self.incident, self.medium.k, pts[sel])[0]
            for curve, phi, psi in self.layers[reg]:
                sb, kb = assemble_block(self.kappas[reg], curve, pts[sel])
                val += kb @ phi + sb @ psi
            out[sel] = val
        return out if len(out) > 1 else complex(out[0])


@dataclass
class NestSolveResult(Solution):
    densities: tuple          # (phi_ell, psi_ell) per interface
    mesh: BoundaryMesh

    # perfbench/tracing.py wraps field_at in each result class's own __dict__
    field_at = Solution.field_at


def solve_scatter(medium, inc: IncidentField, mesh: BoundaryMesh = None,
                  nodes_per_edge=32, grading=3.0, blocks=None):
    """Solve the forward conductive scattering problem.

    Dispatches on the medium type; nest media use the layered combined
    representation, cell media the single-trace formulation, which builds
    its own segment meshes and so takes no `mesh`.

    `blocks` is an optional caller-owned dict of operator blocks keyed by
    wavenumber(s), target normals given or not, and the exact bytes of the
    source mesh and targets: hits are reused, misses assembled and added.
    Passing `dict(store)` reads `store` without growing it, so a sweep
    holds one base set between solves; `None` stores nothing.
    """
    if isinstance(medium, CellMedium):
        from .cellsolver import solve_cell

        if mesh is not None:
            raise ValueError("cell media mesh their own skeleton; pass nodes_per_edge, not mesh")
        return solve_cell(medium, inc, nodes_per_edge=nodes_per_edge, grading=grading,
                          blocks=blocks)
    if not isinstance(medium, NestMedium):
        raise TypeError(f"unsupported medium type {type(medium)!r}")
    if mesh is None:
        mesh = build_mesh([layer for layer in medium.partition.layers], nodes_per_edge, grading)
    inc.validate_against(medium.partition.layers[0])
    system = assemble_nest(medium, mesh, blocks=blocks)
    return solve_assembled(system, inc)


def assemble_nest(medium: NestMedium, mesh: BoundaryMesh, blocks=None):
    """Build and factor the block system once; reusable across incident fields.
    Operator blocks go through the store `blocks` when one is given."""
    n = medium.partition.n_layers
    if mesh.n_curves != n:
        raise ValueError("mesh does not match the number of interfaces")
    kappas = region_wavenumbers(medium)
    sizes = [c.n_nodes for c in mesh.curves]
    col0 = np.cumsum([0] + [2 * s for s in sizes])
    row0 = col0
    ntot = col0[-1]
    A = np.zeros((ntot, ntot), dtype=complex)

    for i in range(n):
        tgt = mesh.curves[i]
        x, tn = tgt.nodes, tgt.normals
        m = sizes[i]
        kout, kin = kappas[i], kappas[i + 1]
        lam = medium.lam[i]
        rd = slice(row0[i], row0[i] + m)          # Dirichlet rows
        rn = slice(row0[i] + m, row0[i] + 2 * m)  # Neumann rows

        cph = slice(col0[i], col0[i] + m)
        cps = slice(col0[i] + m, col0[i] + 2 * m)
        eye = np.eye(m)
        sd, kd, kpd, td = _block(blocks, kout, tgt, x, tn, kappa2=kin)
        A[rd, cph] = eye + kd
        A[rd, cps] = sd
        A[rn, cph] = td
        A[rn, cps] = -eye + kpd
        if lam != 0:
            so, ko = _block(blocks, kout, tgt, x)
            A[rn, cph] += lam * (0.5 * eye + ko)
            A[rn, cps] += lam * so

        if i >= 1:
            src = mesh.curves[i - 1]
            co_ph = slice(col0[i - 1], col0[i - 1] + sizes[i - 1])
            co_ps = slice(col0[i - 1] + sizes[i - 1], col0[i - 1] + 2 * sizes[i - 1])
            sv, kv, kpv, tv = _block(blocks, kout, src, x, tn)
            A[rd, co_ph] += kv
            A[rd, co_ps] += sv
            A[rn, co_ph] += tv + lam * kv
            A[rn, co_ps] += kpv + lam * sv
        if i <= n - 2:
            src = mesh.curves[i + 1]
            ci_ph = slice(col0[i + 1], col0[i + 1] + sizes[i + 1])
            ci_ps = slice(col0[i + 1] + sizes[i + 1], col0[i + 1] + 2 * sizes[i + 1])
            sv, kv, kpv, tv = _block(blocks, kin, src, x, tn)
            A[rd, ci_ph] -= kv
            A[rd, ci_ps] -= sv
            A[rn, ci_ph] -= tv
            A[rn, ci_ps] -= kpv

    lu_piv, cond = factor_system(A)
    return {
        "A": A, "lu": lu_piv, "cond": cond, "mesh": mesh, "kappas": kappas,
        "medium": medium, "sizes": sizes, "blocks": blocks,
    }


def solve_assembled(system, inc: IncidentField):
    medium = system["medium"]
    mesh = system["mesh"]
    sizes = system["sizes"]
    b = np.zeros(system["A"].shape[0], dtype=complex)
    tgt = mesh.curves[0]
    ui, gi = incident_eval(inc, medium.k, tgt.nodes)
    lam1 = medium.lam[0]
    m = sizes[0]
    b[:m] = -ui
    b[m:2 * m] = -((gi * tgt.normals).sum(axis=1) + lam1 * ui)

    densities, resid, converged = solve_factored(system["A"], system["lu"], system["cond"],
                                                 b, sizes)
    # interface ell bounds regions ell and ell + 1 (region 0 is the exterior)
    layers = [[] for _ in range(len(densities) + 1)]
    for ell, (curve, (phi, psi)) in enumerate(zip(mesh.curves, densities)):
        layers[ell].append((curve, phi, psi))
        layers[ell + 1].append((curve, phi, psi))
    return NestSolveResult(resid, system["cond"], converged, system["kappas"], medium, inc,
                           tuple(map(tuple, layers)), system["blocks"], densities, mesh)


def farfield_diff(p1: FarFieldPattern, p2: FarFieldPattern, eps=1e-300):
    """Relative L2 distance of two patterns on the same angular grid."""
    if p1.angles.shape != p2.angles.shape or not np.allclose(p1.angles, p2.angles):
        raise ValueError("far-field patterns live on different angular grids")
    num = np.linalg.norm(p1.values - p2.values)
    den = max(np.linalg.norm(p1.values), eps)
    return float(num / den)
