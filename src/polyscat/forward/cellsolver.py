"""Single-trace boundary-integral solver for cell-partitioned media.

The interface skeleton (hull boundary plus shared interior edges) is split
into segments, each bordered by exactly two regions.  Unknowns per segment
node: the common Dirichlet trace t and the Neumann trace p taken from the
segment's A side (the side its normal points away from).  The conductive
jump fixes the other side's Neumann trace to p - lambda* t, with the
convention
    dnu u|B + lambda* u = dnu u|A,   nu pointing from A to B,
which on the hull (A = cell, B = exterior) is the usual conductive
condition with exterior normal.  Interior segments orient A toward the
lower cell index; flipping a segment flips the sign convention of
lambda*, which is the price of the single-jump reading of shared edges.

Each region contributes its Green-identity trace equation collocated at
its boundary nodes; every node borders two regions, so the system is
square.  A region's operator blocks come from one `assemble_block` call per
source segment, on the stacked nodes of all its bordering segments (14
calls on a square split in two); each target segment's rows are a slice
of that block, bitwise a call on the segment's own nodes by construction.

Jump data: one (f, g) per segment, f = u_A - u_B and
g = dnu u_A - lambda* u_A - dnu u_B; an incident field's are (u_inc, dnu u_inc)
on the hull and zero inside.  `assemble_cell` builds and factors the system
once; `solver.solve_assembled` reads the right-hand side off the B owners' rows,
    b = sum over segments of A[B rows, t cols] f + A[B rows, p cols] (g + lambda* f),
because those rows read (t, p - lambda* t) as B's traces, and B's identity
for its true traces (t - f, p - lambda* t - g) moves exactly that term to
the right.  The solved traces become the layers of a `solver.Solution`: a
segment's owner A gets (curve, -t, p), its owner B (curve, t - f,
-(p - lambda* t - g)), the exterior's being the scattered part.
"""

from dataclasses import dataclass

import numpy as np

from ..geometry import CellPartition, point_segment_distance
from ..medium import CellMedium, IncidentField
# unused here, but tests count its calls in this module too
from ..medium import incident_eval  # noqa: F401
from .layerops import assemble_block
# unused here, but perfbench/tracing.py wraps it in this module too
from .layerops import farfield_row  # noqa: F401
from .mesh import BoundaryMesh, CurveMesh, outward_normal
from .solver import (CellSolveResult, _stored, factor_system, incident_jumps,
                     region_wavenumbers, solve_assembled)


@dataclass
class Segment:
    a: np.ndarray
    b: np.ndarray
    owner_a: int  # region id, 0 = exterior
    owner_b: int
    normal: np.ndarray  # from owner_a toward owner_b


class SegmentCurve(CurveMesh):
    """Panel mesh on one straight skeleton segment: a one-edge CurveMesh."""

    def __init__(self, seg: Segment, nodes_per_edge, grading):
        super().__init__([(seg.a, seg.b, seg.normal)], nodes_per_edge, grading)


def build_skeleton(part: CellPartition):
    """Split cell boundaries into segments, each bordered by two regions."""
    tol = part.geo_tol()
    verts = np.vstack([c.vertices for c in part.cells])
    vcell = np.repeat(np.arange(1, part.n_cells + 1), [c.n_vertices for c in part.cells])
    pieces = []   # (cell, start, end, outward normal) of every cell's edges, in order
    for ci, cell in enumerate(part.cells, start=1):
        others = verts[vcell != ci]
        for a, b in cell.edges():
            tang = b - a
            # split at the vertices of other cells lying strictly inside the edge
            t = (others - a) @ tang / (tang @ tang)
            inside = (1e-12 < t) & (t < 1 - 1e-12)
            inside &= point_segment_distance(others, a, b) < 10 * tol
            cuts = [a]
            for pt in others[inside][np.argsort(t[inside], kind="stable")]:
                if np.hypot(*(pt - cuts[-1])) >= 10 * tol:   # a vertex of several cells
                    cuts.append(pt)
            cuts.append(b)
            outward = outward_normal(a, b)
            pieces += [(ci, pa, pb, outward) for pa, pb in zip(cuts[:-1], cuts[1:])]
    owner = np.array([p[0] for p in pieces])
    starts, ends = (np.array([p[i] for p in pieces]) for i in (1, 2))
    segs = []
    for ci, pa, pb, outward in pieces:
        # cells run counterclockwise, so a neighbour runs a shared piece backwards
        back = (np.hypot(*(starts - pb).T) < 10 * tol) & (np.hypot(*(ends - pa).T) < 10 * tol)
        other = owner[back & (owner != ci)]
        other_region = int(other[0]) if len(other) else 0
        # each interior piece once, from the lower cell index toward the higher
        if other_region == 0 or ci < other_region:
            segs.append(Segment(pa, pb, ci, other_region, outward))
    return segs


def solve_cell(medium: CellMedium, inc: IncidentField, nodes_per_edge=32, grading=3.0,
               blocks=None) -> CellSolveResult:
    """Assemble and solve the single-trace system for a cell medium; operator
    blocks go through the store `blocks` (see `solver`) when one is given."""
    inc.validate_against(medium.partition.hull)
    system = assemble_cell(medium, nodes_per_edge, grading, blocks)
    return solve_assembled(system, inc, incident_jumps(system, inc))


def assemble_cell(medium: CellMedium, nodes_per_edge=32, grading=3.0, blocks=None):
    """Build and factor the single-trace system once, for `solver.solve_assembled`;
    beside `assemble_nest`'s keys it holds the skeleton `segments` and each
    region's `rows`.  Operator blocks go through the store `blocks` if given."""
    segs = build_skeleton(medium.partition)
    curves = tuple(SegmentCurve(s, nodes_per_edge, grading) for s in segs)
    lam = medium.lambda_star
    kappas = region_wavenumbers(medium)

    sizes = [c.n_nodes for c in curves]
    off = np.cumsum([0] + [2 * s for s in sizes])
    ntot = off[-1]
    A = np.zeros((ntot, ntot), dtype=complex)

    # region -> list of (segment index, sign): sign +1 when the region is owner_a
    nregions = len(kappas)
    bordering = [[] for _ in range(nregions)]
    for si, seg in enumerate(segs):
        bordering[seg.owner_a].append((si, +1.0))
        bordering[seg.owner_b].append((si, -1.0))

    region_rows = []
    for reg in range(nregions):
        kap = kappas[reg]
        # a segment's rows: its A owner's equation first, then its B owner's
        rows = []
        for ti, tsign in bordering[reg]:
            r0 = off[ti] + (0 if tsign > 0 else sizes[ti])
            r = slice(r0, r0 + sizes[ti])
            rows.append(r)
            # (1/2) u(x0) term on the segment's own Dirichlet trace
            A[r, off[ti]:off[ti] + sizes[ti]] += 0.5 * np.eye(sizes[ti])
        region_rows.append(np.r_[tuple(rows)])
        # one block per source segment, on the nodes of every bordering segment
        x = np.concatenate([curves[ti].nodes for ti, _ in bordering[reg]])
        cuts = np.cumsum([0] + [sizes[ti] for ti, _ in bordering[reg]])
        for si, s in bordering[reg]:
            ct = slice(off[si], off[si] + sizes[si])
            cp = slice(off[si] + sizes[si], off[si] + 2 * sizes[si])
            sbs, kbs = _stored(blocks, assemble_block, kap, curves[si], x)
            for r, j0, j1 in zip(rows, cuts[:-1], cuts[1:]):
                sb, kb = sbs[j0:j1], kbs[j0:j1]
                A[r, ct] += s * kb
                A[r, cp] -= s * sb
                if s < 0:  # region on the B side: dnu u|B = p - lambda* t
                    A[r, ct] += s * lam * sb
    del sbs, kbs, sb, kb   # no stacked block stays alive through the LU

    lu_piv, cond = factor_system(A)
    return {
        "A": A, "lu": lu_piv, "cond": cond, "mesh": BoundaryMesh(curves), "kappas": kappas,
        "medium": medium, "sizes": sizes, "blocks": blocks,
        "segments": segs, "rows": region_rows,
    }
