import numpy as np
import pytest

from polyscat.forward import farfield_diff, region_wavenumbers, solve_scatter, uniform_directions
from polyscat.forward.cellsolver import SegmentCurve, build_skeleton
from polyscat.forward.layerops import assemble_block
from polyscat.geometry import CellPartition, NestPartition, Polygon
from polyscat.medium import CellMedium, IncidentField, NestMedium

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
    from polyscat.forward import cellsolver, solver

    calls = []
    incident_eval = cellsolver.incident_eval
    for module in (cellsolver, solver):
        monkeypatch.setattr(module, "incident_eval",
                            lambda *args: calls.append(args) or incident_eval(*args))
    med = CellMedium(split_square, q=[2.0, 3.0], lambda_star=0.2j, k=1.0)
    res = solve_scatter(med, plane_inc, nodes_per_edge=16)
    assert len(calls) == 6                     # one per hull segment
    assert len(res.layers[0]) == 6
    calls.clear()
    res.field_at(np.array([[2.0, 0.3], [-1.5, 1.0]]))
    assert len(calls) == 1                     # the incident part at the points


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
    """`solve_cell` assembles one block per (region, source segment) on the
    stacked nodes of all the region's segments and slices it per target
    segment: every slice must be the single-segment block bit for bit,
    signs of zeros included."""
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
