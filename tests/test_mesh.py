import numpy as np
import pytest

from polyscat.forward.mesh import CurveMesh, build_mesh, polygon_edges
from polyscat.geometry import Polygon

# an open one-edge mesh, as a cell-skeleton segment: unit length, and a
# normal opposite to the right-hand one, so it must come from the edge
SEGMENT = [(np.array([0.5, -0.5]), np.array([0.5, 0.5]), np.array([-1.0, 0.0]))]


def mesh_cases(unit_square, nodes_per_edge, grading):
    """(mesh, edge count, a point behind every normal): the square, then the segment."""
    return [
        (CurveMesh(polygon_edges(unit_square), nodes_per_edge, grading), 4,
         unit_square.vertices.mean(axis=0)),
        (CurveMesh(SEGMENT, nodes_per_edge, grading), 1, np.array([1.0, 0.0])),
    ]


def test_panel_lengths_graded_toward_corners(unit_square):
    for mesh, n_edges, _ in mesh_cases(unit_square, 64, 3.0):
        per_edge = len(mesh.panels) // n_edges
        lengths = np.array([p.length for p in mesh.panels[:per_edge]])
        half = per_edge // 2
        assert np.all(np.diff(lengths[:half]) > 0)       # growing away from the corner
        assert np.all(np.diff(lengths[half:]) < 0)       # shrinking toward the next
        # algebraic grading: smallest panel ~ (2/m)^p / 2 of the edge
        assert lengths[0] == pytest.approx(0.5 * (2 / per_edge) ** 3, rel=1e-12)


def test_normals_point_outward(unit_square):
    for mesh, _, behind in mesh_cases(unit_square, 16, 2.0):
        for p in mesh.panels:
            mid = 0.5 * (p.a + p.b)
            assert p.normal @ (mid - behind) > 0
            assert np.array_equal(mesh.normals[p.start:p.start + mesh.n_gl],
                                  np.tile(p.normal, (mesh.n_gl, 1)))


def test_node_count_tracks_request(unit_square):
    for n in (8, 16, 64):
        mesh = CurveMesh(polygon_edges(unit_square), nodes_per_edge=n, grading=3.0)
        per_edge = mesh.n_nodes / 4
        assert 0.5 * n <= per_edge <= 2 * n


@pytest.mark.parametrize("requested, built", [(4, 6), (12, 12), (20, 16), (24, 32), (40, 48)])
def test_mesh_records_built_node_count(unit_square, requested, built):
    for mesh, n_edges, _ in mesh_cases(unit_square, requested, 3.0):
        assert mesh.nodes_per_edge == built
        assert mesh.n_nodes == n_edges * built


def test_build_mesh_rejects_weak_grading(unit_square):
    with pytest.raises(ValueError):
        CurveMesh(polygon_edges(unit_square), nodes_per_edge=16, grading=1.0)


def test_mesh_multi_curve(nested_squares):
    mesh = build_mesh(list(nested_squares.layers), 16)
    assert mesh.n_curves == 2
    assert mesh.curves[0].n_nodes == mesh.curves[1].n_nodes
