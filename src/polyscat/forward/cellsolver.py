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
square.
"""

from dataclasses import dataclass

import numpy as np

from ..geometry import CellPartition, locate, point_segment_distance
from ..medium import CellMedium, IncidentField, incident_eval
from .layerops import assemble_block, farfield_row
from .mesh import CurveMesh, outward_normal
from .solver import (FarFieldPattern, _block, _stored, factor_system, field_by_region,
                     region_wavenumbers, solve_factored)


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
    probe_eps = max(1e-8 * part.hull.bbox_diag(), 10 * tol)
    raw = []
    for ci, cell in enumerate(part.cells, start=1):
        v = cell.vertices
        n = len(v)
        for e in range(n):
            a, b = v[e], v[(e + 1) % n]
            tang = b - a
            elen = float(np.hypot(*tang))
            outward = outward_normal(a, b)
            # split at endpoints of collinear edges of other cells
            params = {0.0, 1.0}
            for cj, other in enumerate(part.cells, start=1):
                if cj == ci:
                    continue
                for c, dpt in other.edges():
                    if (
                        point_segment_distance(c, a, b) < 10 * tol
                        or point_segment_distance(dpt, a, b) < 10 * tol
                    ):
                        for pt in (c, dpt):
                            t = float((pt - a) @ tang / (elen * elen))
                            if 1e-12 < t < 1 - 1e-12:
                                if point_segment_distance(pt, a, b) < 10 * tol:
                                    params.add(round(t, 12))
            for t0, t1 in zip(*(lambda ps: (ps[:-1], ps[1:]))(sorted(params))):
                pa, pb = a + t0 * tang, a + t1 * tang
                mid = 0.5 * (pa + pb)
                side = locate(part, mid + probe_eps * outward, tol)
                if side.kind == "exterior":
                    other_region = 0
                elif side.kind == "region":
                    other_region = side.index
                else:
                    raise ValueError("skeleton probe landed on an interface; geometry too fine")
                raw.append((pa, pb, ci, other_region, outward))

    # deduplicate: every interior segment is produced once from each side
    segs = []
    used = [False] * len(raw)
    snap = max(tol, 1e-300)

    def endpoints_key(pa, pb):
        ka = (round(pa[0] / snap), round(pa[1] / snap))
        kb = (round(pb[0] / snap), round(pb[1] / snap))
        return (ka, kb) if ka <= kb else (kb, ka)

    seen = {}
    for idx, (pa, pb, ci, other, outward) in enumerate(raw):
        ek = endpoints_key(pa, pb)
        if ek in seen:
            used[idx] = True
            continue
        seen[ek] = idx
    for idx, (pa, pb, ci, other, outward) in enumerate(raw):
        if used[idx]:
            continue
        if other == 0:
            segs.append(Segment(pa, pb, owner_a=ci, owner_b=0, normal=outward))
        else:
            if ci <= other:
                segs.append(Segment(pa, pb, owner_a=ci, owner_b=other, normal=outward))
            else:
                segs.append(Segment(pb, pa, owner_a=other, owner_b=ci, normal=-outward))
    return segs


@dataclass
class CellSolveResult:
    traces: tuple          # (t_sigma, p_sigma) per segment
    residual: float
    cond_estimate: float
    converged: bool
    curves: tuple          # SegmentCurve per segment
    segments: tuple
    kappas: list           # region id -> wavenumber (0 = exterior)
    medium: CellMedium
    incident: IncidentField
    hull: tuple            # (curve, phi, psi): exterior representation per hull segment
    blocks: dict = None    # the block store of the solve; also holds far-field rows

    def far_field(self, angles):
        k = self.medium.k
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        total = 0
        for curve, phi, psi in self.hull:
            fs, fd = _stored(self.blocks, ("farfield", k),
                             [curve.nodes, curve.weights, curve.normals, dirs],
                             lambda: farfield_row(curve, k, dirs))
            total = total + fd @ phi + fs @ psi
        return FarFieldPattern(np.asarray(angles, float), total)

    def field_at(self, pts, region=None):
        return field_by_region(self.medium.partition, pts, region, self._region_field)

    def _region_field(self, reg, sub):
        if reg == 0:
            vi, _ = incident_eval(self.incident, self.medium.k, sub)
            val = vi.astype(complex)
            for curve, phi, psi in self.hull:
                sb, kb = assemble_block(self.kappas[0], curve, sub)
                val += kb @ phi + sb @ psi
            return val
        lam = self.medium.lambda_star
        kap = self.kappas[reg]
        val = np.zeros(len(sub), dtype=complex)
        for seg, curve, (t, p) in zip(self.segments, self.curves, self.traces):
            if reg == seg.owner_a:
                s, dnu = 1.0, p
            elif reg == seg.owner_b:
                s, dnu = -1.0, p - lam * t
            else:
                continue
            sb, kb = assemble_block(kap, curve, sub)
            val += s * (sb @ dnu - kb @ t)
        return val


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

    # row bookkeeping: for each segment, its A-owner equation block comes first
    row_of = {}
    row = 0
    for si, seg in enumerate(segs):
        row_of[(si, seg.owner_a)] = row
        row += sizes[si]
        row_of[(si, seg.owner_b)] = row
        row += sizes[si]

    # incident traces (value, normal derivative) on each hull segment, once
    incident = {}
    for si, _ in bordering[0]:
        ui, gi = incident_eval(inc, k, curves[si].nodes)
        incident[si] = ui, (gi * curves[si].normals).sum(axis=1)

    for reg in range(nregions):
        if not bordering[reg]:
            continue
        kap = kappas[reg]
        for ti, tsign in bordering[reg]:
            tgt = curves[ti]
            x = tgt.nodes
            r = slice(row_of[(ti, reg)], row_of[(ti, reg)] + sizes[ti])
            # (1/2) u(x0) term on the segment's own Dirichlet trace
            A[r, off[ti]:off[ti] + sizes[ti]] += 0.5 * np.eye(sizes[ti])
            if reg == 0:
                b[r] += 0.5 * incident[ti][0]
            for si, s in bordering[reg]:
                src = curves[si]
                ct = slice(off[si], off[si] + sizes[si])
                cp = slice(off[si] + sizes[si], off[si] + 2 * sizes[si])
                sb, kb = _block(blocks, kap, src, x)
                A[r, ct] += s * kb
                A[r, cp] -= s * sb
                if s < 0:  # region on the B side: dnu u|B = p - lambda* t
                    A[r, ct] += s * lam * sb
                if reg == 0:
                    uis, dnu_i = incident[si]
                    b[r] += s * (kb @ uis) - s * (sb @ dnu_i)

    lu_piv, cond = factor_system(A)
    traces, resid, converged = solve_factored(A, lu_piv, cond, b, sizes)
    hull = []
    for si, _ in bordering[0]:
        (t, p), (ui, dnu_i) = traces[si], incident[si]
        hull.append((curves[si], t - ui, -(p - lam * t) + dnu_i))
    return CellSolveResult(traces, resid, cond, converged, curves, tuple(segs),
                           kappas, medium, inc, tuple(hull), blocks)
