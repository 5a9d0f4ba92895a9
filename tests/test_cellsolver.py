import numpy as np
import pytest

from polyscat.forward import build_mesh, farfield_diff, solve_scatter, uniform_directions
from polyscat.forward.cellsolver import build_skeleton
from polyscat.geometry import CellPartition, NestPartition, Polygon
from polyscat.medium import CellMedium, IncidentField, NestMedium

ANGLES = uniform_directions(128)


@pytest.fixture(scope="module")
def split_square():
    hull = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    left = Polygon([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]])
    right = Polygon([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])
    return CellPartition([left, right], hull)


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


def test_cell_solve_rejects_nest_mesh(split_square, plane_inc):
    med = CellMedium(split_square, q=[2.0, 3.0], lambda_star=0.0, k=1.0)
    with pytest.raises(ValueError, match="mesh"):
        solve_scatter(med, plane_inc, mesh=build_mesh([split_square.hull], 16))


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
    from polyscat.forward import cellsolver

    calls = []
    incident_eval = cellsolver.incident_eval
    monkeypatch.setattr(cellsolver, "incident_eval",
                        lambda *args: calls.append(args) or incident_eval(*args))
    med = CellMedium(split_square, q=[2.0, 3.0], lambda_star=0.2j, k=1.0)
    res = solve_scatter(med, plane_inc, nodes_per_edge=16)
    assert len(calls) == 6                     # one per hull segment
    assert len(res.hull) == 6
    calls.clear()
    res.field_at(np.array([[2.0, 0.3], [-1.5, 1.0]]))
    assert len(calls) == 1                     # the incident part at the points


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
    for (t, p), (t0, p0) in zip(reused.traces, fresh.traces):
        assert t.tobytes() == t0.tobytes() and p.tobytes() == p0.tobytes()
    assert reused.far_field(ANGLES).values.tobytes() == fresh.far_field(ANGLES).values.tobytes()
