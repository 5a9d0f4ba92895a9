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
of that block, bitwise equal to a call on the segment's own nodes.

The solved traces become the layers of a `solver.Solution`: a segment's
owner A gets (curve, -t, p), an interior owner B gets
(curve, t, -(p - lambda* t)), and the exterior gets the scattered part,
(curve, t - u_inc, -(p - lambda* t) + dnu u_inc).
"""

from dataclasses import dataclass

import numpy as np

from ..geometry import CellPartition, point_segment_distance
from ..medium import CellMedium, IncidentField, incident_eval
from .layerops import assemble_block
# unused here, but perfbench/tracing.py wraps it in this module too
from .layerops import farfield_row  # noqa: F401
from .mesh import CurveMesh, outward_normal
from .solver import Solution, _stored, factor_system, region_wavenumbers, solve_factored


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


class CellSolveResult(Solution):
    # perfbench/tracing.py wraps field_at in each result class's own __dict__
    field_at = Solution.field_at


def solve_cell(medium: CellMedium, inc: IncidentField, nodes_per_edge=32, grading=3.0,
               blocks=None):
    """Assemble and solve the single-trace system for a cell medium; operator
    blocks go through the store `blocks` (see `solver`) when one is given."""
    inc.validate_against(medium.partition.hull)
    part = medium.partition
    segs = build_skeleton(part)
    curves = tuple(SegmentCurve(s, nodes_per_edge, grading) for s in segs)
    lam = medium.lambda_star
    k = medium.k
    kappas = region_wavenumbers(medium)

    sizes = [c.n_nodes for c in curves]
    off = np.cumsum([0] + [2 * s for s in sizes])
    ntot = off[-1]
    A = np.zeros((ntot, ntot), dtype=complex)
    b = np.zeros(ntot, dtype=complex)

    # region -> list of (segment index, sign): sign +1 when the region is owner_a
    nregions = part.n_cells + 1
    bordering = [[] for _ in range(nregions)]
    for si, seg in enumerate(segs):
        bordering[seg.owner_a].append((si, +1.0))
        bordering[seg.owner_b].append((si, -1.0))

    # incident traces (value, normal derivative) on each hull segment, once
    incident = {}
    for si, _ in bordering[0]:
        ui, gi = incident_eval(inc, k, curves[si].nodes)
        incident[si] = ui, (gi * curves[si].normals).sum(axis=1)

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
            if reg == 0:
                b[r] += 0.5 * incident[ti][0]
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
                if reg == 0:
                    uis, dnu_i = incident[si]
                    b[r] += s * (kb @ uis) - s * (sb @ dnu_i)
    del sbs, kbs, sb, kb   # no stacked block stays alive through the LU

    lu_piv, cond = factor_system(A)
    traces, resid, converged = solve_factored(A, lu_piv, cond, b, sizes)
    layers = [[] for _ in range(nregions)]   # the triples of the module notes
    for si, (seg, curve, (t, p)) in enumerate(zip(segs, curves, traces)):
        layers[seg.owner_a].append((curve, -t, p))
        if seg.owner_b:
            layers[seg.owner_b].append((curve, t, -(p - lam * t)))
        else:
            ui, dnu_i = incident[si]
            layers[0].append((curve, t - ui, -(p - lam * t) + dnu_i))
    return CellSolveResult(resid, cond, converged, kappas, medium, inc,
                           tuple(map(tuple, layers)), blocks)
