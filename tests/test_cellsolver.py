import numpy as np
import pytest

from polyscat.forward import (assemble_cell, assemble_nest, build_mesh, farfield_diff,
                              incident_jumps, region_wavenumbers, solve_assembled, solve_scatter,
                              uniform_directions)
from polyscat.forward.cellsolver import SegmentCurve, build_skeleton
from polyscat.forward.layerops import assemble_block
from polyscat.forward.solver import _rhs
from polyscat.geometry import CellPartition, NestPartition, Polygon
from polyscat.medium import CellMedium, IncidentField, NestMedium, incident_eval

ANGLES = uniform_directions(128)


@pytest.fixture(scope="module")
def split_square():
    hull = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    left = Polygon([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]])
    right = Polygon([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])
    return CellPartition([left, right], hull)


@pytest.fixture(scope="module")
def t_junction():
    """Left half, top-right and bottom-right quarters of the unit square: the
    left cell's right edge is split where the two quarters meet."""
    def rect(x0, y0, x1, y1):
        return Polygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    return CellPartition([rect(-0.5, -0.5, 0.0, 0.5), rect(0.0, 0.0, 0.5, 0.5),
                          rect(0.0, -0.5, 0.5, 0.0)], rect(-0.5, -0.5, 0.5, 0.5))


def test_skeleton_splits_edge_at_t_junction(t_junction):
    segs = build_skeleton(t_junction)
    assert len(segs) == 10                       # 7 on the hull, 3 interior
    interior = {(s.owner_a, s.owner_b): s for s in segs if s.owner_b != 0}
    assert sorted(interior) == [(1, 2), (1, 3), (2, 3)]
    centroids = [None] + [c.vertices.mean(axis=0) for c in t_junction.cells]
    for (i, j), seg in interior.items():
        # normals point from the lower cell index to the higher
        assert seg.normal @ (centroids[j] - centroids[i]) > 0
        assert np.hypot(*(seg.b - seg.a)) == pytest.approx(0.5)


def test_t_junction_zero_contrast_and_equal_cells(t_junction, unit_square, plane_inc):
    zero = CellMedium(t_junction, q=[1.0, 1.0, 1.0], lambda_star=0.0, k=1.0)
    res = solve_scatter(zero, IncidentField("plane", direction=[0.6, 0.8]), nodes_per_edge=16)
    assert np.max(np.abs(res.far_field(ANGLES).values)) < 1e-10
    cm = CellMedium(t_junction, q=[2.0, 2.0, 2.0], lambda_star=0.0, k=1.0)
    rc = solve_scatter(cm, plane_inc, nodes_per_edge=20)
    nm = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.0], k=1.0)
    rn = solve_scatter(nm, plane_inc, nodes_per_edge=40)
    assert farfield_diff(rc.far_field(ANGLES), rn.far_field(ANGLES)) < 1e-6


def _rect(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


# tilings of the unit square; the brick splits an interior edge at both ends
# of its offset joint
BRICK = [_rect(0, 0, .6, .5), _rect(.6, 0, 1, .5), _rect(0, .5, .3, 1), _rect(.3, .5, 1, 1)]
T_CELLS = [_rect(0, 0, .5, 1), _rect(.5, .5, 1, 1), _rect(.5, 0, 1, .5)]
SPLIT = [_rect(0, 0, .5, 1), _rect(.5, 0, 1, 1)]
GRID = [_rect(0, 0, .5, .5), _rect(.5, 0, 1, .5), _rect(0, .5, .5, 1), _rect(.5, .5, 1, 1)]


def _tiling(cells, turned=False):
    """The cells as a partition of the unit square, turned by 0.3 rad and
    shifted if asked."""
    c, s = np.cos(0.3), np.sin(0.3)

    def moved(pts):
        return Polygon([[c * x - s * y + 0.13, s * x + c * y - 0.07] for x, y in pts])

    place = moved if turned else Polygon
    return CellPartition([place(cell) for cell in cells], place(_rect(0, 0, 1, 1)))


@pytest.mark.parametrize("cells, n_segments", [(BRICK, 13), (T_CELLS, 10)],
                         ids=["brick", "t-junction"])
def test_rotated_tiling_skeleton_and_zero_contrast(cells, n_segments):
    """A tiling of the unit square turned by 0.3 rad and shifted keeps one
    segment per interior piece (splitting an edge off its true vertex once
    kept a piece from both sides), and a zero-contrast medium on it does
    not scatter."""
    part = _tiling(cells, turned=True)
    assert len(build_skeleton(part)) == n_segments
    zero = CellMedium(part, q=[1.0] * len(cells), lambda_star=0.0, k=1.0)
    res = solve_scatter(zero, IncidentField("plane", direction=[0.6, 0.8]), nodes_per_edge=16)
    assert res.converged
    assert np.max(np.abs(res.far_field(ANGLES).values)) < 1e-10


def test_skeleton_segments(split_square):
    segs = build_skeleton(split_square)
    # 3 hull segments per rectangle-side structure: left cell contributes
    # bottom-left, left, top-left; right cell bottom-right, right, top-right;
    # plus one shared interior segment
    hull_segs = [s for s in segs if s.owner_b == 0]
    interior = [s for s in segs if s.owner_b != 0]
    assert len(interior) == 1
    assert len(hull_segs) == 6
    seg = interior[0]
    assert {seg.owner_a, seg.owner_b} == {1, 2}
    # interior normal points from cell 1 (left) toward cell 2 (right)
    assert seg.normal @ np.array([1.0, 0.0]) > 0.99


def test_zero_contrast_cell(split_square):
    med = CellMedium(split_square, q=[1.0, 1.0], lambda_star=0.0, k=1.0)
    res = solve_scatter(med, IncidentField("plane", direction=[0.6, 0.8]),
                        nodes_per_edge=16)
    assert np.max(np.abs(res.far_field(ANGLES).values)) < 1e-8


def test_equal_cells_match_single_nest(split_square, plane_inc):
    cm = CellMedium(split_square, q=[2.0, 2.0], lambda_star=0.0, k=1.0)
    rc = solve_scatter(cm, plane_inc, nodes_per_edge=20)
    nm = NestMedium(NestPartition([split_square.hull]), q=[2.0], lam=[0.0], k=1.0)
    rn = solve_scatter(nm, plane_inc, nodes_per_edge=40)
    assert farfield_diff(rc.far_field(ANGLES), rn.far_field(ANGLES)) < 1e-5


def test_single_cell_conductive_matches_nest(unit_square, plane_inc):
    part = CellPartition([unit_square], unit_square)
    cm = CellMedium(part, q=[2.0], lambda_star=0.5j, k=1.0)
    rc = solve_scatter(cm, plane_inc, nodes_per_edge=24)
    nm = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[0.5j], k=1.0)
    rn = solve_scatter(nm, plane_inc, nodes_per_edge=48)
    assert farfield_diff(rc.far_field(ANGLES), rn.far_field(ANGLES)) < 1e-5


@pytest.mark.parametrize("lam", [0.0, 0.5j])
def test_single_cell_fields_match_nest(unit_square, plane_inc, lam):
    """Both solvers' fields, inside and outside, through the one layer
    representation."""
    pts = np.array([[0.0, 0.0], [0.1, -0.2], [-0.3, 0.35],
                    [0.9, 0.1], [-0.2, 0.8], [1.5, -1.2]])
    cm = CellMedium(CellPartition([unit_square], unit_square), q=[2.0], lambda_star=lam, k=1.0)
    uc = solve_scatter(cm, plane_inc, nodes_per_edge=24).field_at(pts)
    nm = NestMedium(NestPartition([unit_square]), q=[2.0], lam=[lam], k=1.0)
    un = solve_scatter(nm, plane_inc, nodes_per_edge=48).field_at(pts)
    assert np.max(np.abs(uc - un)) <= 1e-6 * np.max(np.abs(un))


def test_interior_conductive_jump(split_square, plane_inc):
    lam = 0.2j
    med = CellMedium(split_square, q=[2.0, 3.0], lambda_star=lam, k=1.0)
    res = solve_scatter(med, plane_inc, nodes_per_edge=20)
    x0, nrm = np.array([0.0, 0.11]), np.array([1.0, 0.0])

    def cauchy(side):
        ts = side * np.array([0.02, 0.03, 0.04, 0.05, 0.06, 0.08])
        vals = np.array([res.field_at(x0 + t * nrm) for t in ts])
        coef = np.polynomial.polynomial.polyfit(ts, vals, 4)
        return coef[0], coef[1]

    u_b, dn_b = cauchy(+1)   # cell 2 side (normal points 1 -> 2)
    u_a, dn_a = cauchy(-1)   # cell 1 side
    assert abs(u_b - u_a) < 1e-5
    assert abs(dn_b + lam * u_b - dn_a) < 1e-3 * max(abs(dn_a), 1.0)
    assert res.converged


def test_incident_field_evaluated_once_per_hull_segment(split_square, plane_inc,
                                                       monkeypatch):
    from polyscat.forward import solver

    calls = []
    incident_eval = solver.incident_eval
    monkeypatch.setattr(solver, "incident_eval",
                        lambda *args: calls.append(args) or incident_eval(*args))
    med = CellMedium(split_square, q=[2.0, 3.0], lambda_star=0.2j, k=1.0)
    res = solve_scatter(med, plane_inc, nodes_per_edge=16)
    assert len(calls) == 6                     # one per hull segment
    assert len(res.layers[0]) == 6
    calls.clear()
    res.field_at(np.array([[2.0, 0.3], [-1.5, 1.0]]))
    assert len(calls) == 1                     # the incident part at the points


def test_every_solve_refuses_a_point_source_inside_the_medium(split_square):
    """`solve_assembled` checks the incident field against the medium's hull,
    so a point source inside is refused on every path to a solution, not
    only through `solve_scatter`."""
    inc = IncidentField("point", location=[0.2, 0.1])
    cell = assemble_cell(CellMedium(split_square, q=[2.0, 3.0], lambda_star=0.5j, k=1.0), 16)
    nest = NestMedium(NestPartition([split_square.hull]), q=[2.0], lam=[0.5j], k=1.0)
    for system in (cell, assemble_nest(nest, build_mesh(nest.partition.layers, 16))):
        with pytest.raises(ValueError, match="strictly outside"):
            solve_assembled(system, inc, incident_jumps(system, inc))


def _layer_bytes(result):
    """The bytes of every (phi, psi) of every region's layers."""
    return [[(phi.tobytes(), psi.tobytes()) for _, phi, psi in layer] for layer in result.layers]


@pytest.mark.parametrize("q, lam", [([2.0, 3.0], 0.1 + 0.2j), ([2.1, 3.0], 0.2j)],
                         ids=["lambda*", "q:1"])
def test_block_store_reuse_is_bitwise(split_square, plane_inc, q, lam):
    """A perturbed cell solve reading a copy of the base solve's block store
    equals a fresh solve bit for bit, and leaves the base store as it was."""
    store = {}
    solve_scatter(CellMedium(split_square, q=[2.0, 3.0], lambda_star=0.2j, k=1.0), plane_inc,
                  nodes_per_edge=16, blocks=store)
    kept = dict(store)
    med = CellMedium(split_square, q=q, lambda_star=lam, k=1.0)
    reused = solve_scatter(med, plane_inc, nodes_per_edge=16, blocks=dict(store))
    fresh = solve_scatter(med, plane_inc, nodes_per_edge=16)
    assert store.keys() == kept.keys()
    assert all(store[key] is blk for key, blk in kept.items())
    assert _layer_bytes(reused) == _layer_bytes(fresh)
    assert reused.far_field(ANGLES).values.tobytes() == fresh.far_field(ANGLES).values.tobytes()


@pytest.mark.parametrize("nodes_per_edge", [16, 64])
def test_stacked_targets_give_the_single_segment_blocks_bitwise(split_square, nodes_per_edge):
    """A block from one segment on the stacked nodes of all a region's
    segments, sliced per target segment, is the single-segment block bit for
    bit, signs of zeros included: a block's rows do not depend on the other
    targets of its call, which `assemble_cell`'s one block per region relies
    on (its columns: `test_region_blocks_give_the_single_segment_blocks_bitwise`)."""
    med = CellMedium(split_square, q=[2.0, 3.0 + 0.5j], lambda_star=0.2j, k=1.0)
    segs = build_skeleton(split_square)
    curves = [SegmentCurve(s, nodes_per_edge, 3.0) for s in segs]
    for reg, kap in enumerate(region_wavenumbers(med)):
        bordering = [si for si, s in enumerate(segs) if reg in (s.owner_a, s.owner_b)]
        x = np.concatenate([curves[ti].nodes for ti in bordering])
        for si in bordering:
            stacked = assemble_block(kap, curves[si], x)
            j0 = 0
            for ti in bordering:
                j1 = j0 + curves[ti].n_nodes
                single = assemble_block(kap, curves[si], curves[ti].nodes)
                assert np.array_equal(stacked[:, j0:j1].view(np.uint64), single.view(np.uint64))
                j0 = j1


@pytest.mark.parametrize("nodes_per_edge", [16, 64])
@pytest.mark.parametrize("cells, turned", [(SPLIT, False), (T_CELLS, False), (BRICK, True),
                                           (GRID, False)],
                         ids=["split-square", "t-junction", "brick", "grid-2x2"])
def test_region_blocks_give_the_single_segment_blocks_bitwise(monkeypatch, cells, turned,
                                                              nodes_per_edge):
    """`assemble_cell` makes one block per region, with the region's bordering
    segments as one source curve and its nodes as targets; the columns of
    each segment must be the block from that segment alone, bit for bit,
    signs of zeros included."""
    import polyscat.forward.cellsolver as cellsolver

    part = _tiling(cells, turned)
    med = CellMedium(part, q=[2.0, 3.0 + 0.5j, 2.5, 1.5][:part.n_cells], lambda_star=0.2j,
                     k=1.0)
    segs = build_skeleton(part)
    curves = [SegmentCurve(s, nodes_per_edge, 3.0) for s in segs]
    calls = []
    block = cellsolver.assemble_block
    monkeypatch.setattr(cellsolver, "assemble_block",
                        lambda *a: calls.append((*a, block(*a))) or calls[-1][-1])
    assemble_cell(med, nodes_per_edge)
    assert len(calls) == part.n_cells + 1
    for reg, (kap, curve, x, region_block) in enumerate(calls):
        assert kap == region_wavenumbers(med)[reg] and x is curve.nodes
        bordering = [si for si, s in enumerate(segs) if reg in (s.owner_a, s.owner_b)]
        j0 = 0
        for si in bordering:
            j1 = j0 + curves[si].n_nodes
            single = assemble_block(kap, curves[si], x)
            assert np.array_equal(region_block[:, :, j0:j1].view(np.uint64),
                                  single.view(np.uint64))
            j0 = j1
        assert j0 == curve.n_nodes


def test_cell_assembly_frees_each_region_block_before_the_next(monkeypatch, split_square):
    """Without a store, `assemble_cell` holds no array of a region's block
    when the next region's call starts, nor after it returns."""
    import weakref

    import polyscat.forward.cellsolver as cellsolver

    held, alive_at_start = [], []
    block = cellsolver.assemble_block

    def watched(*args):
        alive_at_start.append(sum(ref() is not None for ref in held))
        out = block(*args)
        held.append(weakref.ref(out))
        return out

    monkeypatch.setattr(cellsolver, "assemble_block", watched)
    assemble_cell(CellMedium(split_square, q=[2.0, 3.0], lambda_star=0.2j, k=1.0), 16)
    assert alive_at_start == [0, 0, 0]
    assert all(ref() is None for ref in held)


def _per_block_incident_rhs(system, inc):
    """The incident right-hand side accumulated block by block, as the cell
    assembly once built it: for each exterior row, (1/2) u_inc plus the
    exterior's K u_inc - S dnu u_inc over the hull segments (sign -1, the
    exterior being every hull segment's owner B)."""
    segs, curves, sizes = system["segments"], system["mesh"].curves, system["sizes"]
    off = np.cumsum([0] + [2 * m for m in sizes])
    b = np.zeros(off[-1], dtype=complex)
    hull = [si for si, seg in enumerate(segs) if seg.owner_b == 0]
    incident = {}
    for si in hull:
        ui, gi = incident_eval(inc, system["medium"].k, curves[si].nodes)
        incident[si] = ui, (gi * curves[si].normals).sum(axis=1)
    rows = [slice(off[ti] + sizes[ti], off[ti] + 2 * sizes[ti]) for ti in hull]
    for r, ti in zip(rows, hull):
        b[r] += 0.5 * incident[ti][0]
    x = np.concatenate([curves[ti].nodes for ti in hull])
    cuts = np.cumsum([0] + [sizes[ti] for ti in hull])
    s = -1.0
    for si in hull:
        sbs, kbs = assemble_block(system["kappas"][0], curves[si], x)
        uis, dnu_i = incident[si]
        for r, j0, j1 in zip(rows, cuts[:-1], cuts[1:]):
            b[r] += s * (kbs[j0:j1] @ uis) - s * (sbs[j0:j1] @ dnu_i)
    return b


@pytest.mark.parametrize("cells, turned", [(SPLIT, False), (T_CELLS, False), (BRICK, True)],
                         ids=["split-square", "t-junction", "brick"])
def test_incident_rhs_matches_the_per_block_accumulation(cells, turned, plane_inc):
    """The row rule of `solver._rhs` on an incident field's jump data gives
    the right-hand side the per-block accumulation gives, up to rounding."""
    part = _tiling(cells, turned)
    med = CellMedium(part, q=[2.0, 3.0, 2.5, 1.5][:part.n_cells], lambda_star=0.2j, k=1.0)
    system = assemble_cell(med, 16)
    jumps = incident_jumps(system, plane_inc)
    assert all(np.isscalar(f) == (seg.owner_b != 0)
               for seg, (f, _) in zip(system["segments"], jumps))
    ref = _per_block_incident_rhs(system, plane_inc)
    assert np.max(np.abs(_rhs(system, jumps) - ref)) <= 1e-15 * np.max(np.abs(ref))


# Exact cell-medium solutions: the field of region R is c_R (i/4) H0(kappa_R
# |x - z_R|), the exterior's from a unit source inside the hull (0.39 or more
# from it), each cell's from a source outside the hull, so every region field
# solves its Helmholtz equation and the exterior one radiates.  The jumps of
# these fields across the segments are the data; the solve must reproduce
# every field and the far field of the exterior source.
CELL_AMPLITUDES = [0.8 + 0.3j, -0.5 + 0.7j, 0.9 - 0.2j, 0.4 + 0.5j]


def _arbiter_errors(part, nodes_per_edge, lam=0.5):
    """Far-field relative L2 error and, per region, the maximal field error
    relative to the region's largest exact value, of the exact solution."""
    med = CellMedium(part, q=[2.0, 3.0, 2.5, 1.5][:part.n_cells], lambda_star=lam, k=1.0)
    system = assemble_cell(med, nodes_per_edge)
    kap = system["kappas"]
    centre = part.hull.vertices.mean(axis=0)
    sources = [IncidentField("point", location=centre + [0.1, 0.05])] + [
        IncidentField("point", location=centre + 1.5 * np.array([np.cos(t), np.sin(t)]),
                      amplitude=c)
        for c, t in zip(CELL_AMPLITUDES, 0.4 + 2.4 * np.arange(1, part.n_cells + 1))]

    def exact(reg, x):
        return incident_eval(sources[reg], kap[reg], x)

    jumps = []
    for seg, curve in zip(system["segments"], system["mesh"].curves):
        ua, ga = exact(seg.owner_a, curve.nodes)
        ub, gb = exact(seg.owner_b, curve.nodes)
        dna, dnb = (ga * curve.normals).sum(axis=1), (gb * curve.normals).sum(axis=1)
        jumps.append((ua - ub, dna - lam * ua - dnb))
    sol = solve_assembled(system, IncidentField("none"), jumps)
    assert sol.converged

    # far field of (i/4) H0(k |x - z|): e^{i pi/4} / sqrt(8 pi k) e^{-i k xhat.z}, k = 1
    dirs = np.column_stack([np.cos(ANGLES), np.sin(ANGLES)])
    ff = np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi) * np.exp(-1j * dirs @ sources[0].location)
    ff_err = np.linalg.norm(sol.far_field(ANGLES).values - ff) / np.linalg.norm(ff)

    # per region: one point well inside and one near a corner
    corner = part.hull.vertices[0]
    pts = [[centre + [1.2, 0.4], corner + 0.05 * (corner - centre) / np.hypot(*(corner - centre))]]
    for cell in part.cells:
        mid = cell.vertices.mean(axis=0)
        pts.append([mid, cell.vertices[0] + 0.1 * (mid - cell.vertices[0])])
    field_errs = []
    for reg, x in enumerate(np.array(pts)):
        u = exact(reg, x)[0]
        field_errs.append(np.max(np.abs(sol.field_at(x) - u)) / np.max(np.abs(u)))
    return ff_err, field_errs


# cells, turned, and per mesh (nodes/edge) the measured far-field error and
# worst field error of `_arbiter_errors`, asserted within a factor 2; the
# far-field error must fall per doubling by at least half the measured ratio
ARBITER_CASES = [
    (SPLIT, False, {16: (1.03e-9, 3.16e-9), 32: (7.69e-11, 5.74e-10),
                    64: (2.94e-12, 1.46e-11)}),
    (T_CELLS, False, {16: (1.39e-10, 7.68e-10), 32: (4.57e-12, 6.74e-11)}),
    (GRID, False, {16: (8.05e-13, 5.14e-12), 32: (1.27e-13, 7.64e-13)}),
    (BRICK, True, {16: (7.40e-12, 4.36e-11), 32: (1.79e-12, 9.37e-12)}),
]


@pytest.mark.parametrize("cells, turned, measured", ARBITER_CASES,
                         ids=["split-square", "t-junction", "grid-2x2", "brick"])
def test_exact_point_source_cell_solution(cells, turned, measured):
    """The jump data of exact region fields, solved through `assemble_cell`
    and `solve_assembled` with lambda* != 0, give back the exterior far
    field and every region's field."""
    part = _tiling(cells, turned)
    errs = {n: _arbiter_errors(part, n) for n in measured}
    for n, (ff_err, field_errs) in errs.items():
        assert ff_err <= 2 * measured[n][0]
        assert max(field_errs) <= 2 * measured[n][1]
    for n in list(measured)[:-1]:
        assert errs[n][0] / errs[2 * n][0] >= measured[n][0] / measured[2 * n][0] / 2


def test_cell_reciprocity_on_one_assembly(t_junction):
    """u_inf(xhat; d) = u_inf(-d; -xhat) for pairs of plane waves solved from
    one assembled cell system."""
    med = CellMedium(t_junction, q=[2.0, 3.0, 2.5], lambda_star=0.5j, k=1.0)
    system = assemble_cell(med, 32)
    half = len(ANGLES) // 2

    def far_field(angle):
        inc = IncidentField("plane", direction=[np.cos(angle), np.sin(angle)])
        return solve_assembled(system, inc, incident_jumps(system, inc)).far_field(ANGLES)

    worst = 0.0
    for i, j in ((3, 40), (17, 101), (90, 7)):      # xhat = ANGLES[i], d = ANGLES[j]
        lhs = far_field(ANGLES[j]).values[i]
        rhs = far_field(ANGLES[i] + np.pi).values[(j + half) % len(ANGLES)]
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 3.7e-8       # 10x the 3.69e-9 measured
