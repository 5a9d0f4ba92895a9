import numpy as np
import pytest

from polyscat.forward.mesh import CurveMesh, build_mesh, polygon_edges
from polyscat.geometry import Polygon
from polyscat.quadrature import gauss_legendre

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
        per_edge = len(mesh.plen) // n_edges
        lengths = mesh.plen[:per_edge]
        half = per_edge // 2
        assert np.all(np.diff(lengths[:half]) > 0)       # growing away from the corner
        assert np.all(np.diff(lengths[half:]) < 0)       # shrinking toward the next
        # algebraic grading: smallest panel ~ (2/m)^p / 2 of the edge
        assert lengths[0] == pytest.approx(0.5 * (2 / per_edge) ** 3, rel=1e-12)


def test_normals_point_outward(unit_square):
    for mesh, _, behind in mesh_cases(unit_square, 16, 2.0):
        for i, mid in enumerate(0.5 * (mesh.pa + mesh.pb)):
            normals = mesh.normals[i * mesh.n_gl:(i + 1) * mesh.n_gl]
            assert normals[0] @ (mid - behind) > 0
            assert np.array_equal(normals, np.tile(normals[0], (mesh.n_gl, 1)))


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
    assert len(mesh.curves) == 2
    assert mesh.curves[0].n_nodes == mesh.curves[1].n_nodes


def _panel_loop(edges, nodes_per_edge, grading):
    """The mesh arrays built one panel at a time, in edge order: the
    reference construction of CurveMesh."""
    n_gl = 8 if nodes_per_edge >= 16 else max(3, nodes_per_edge // 2)
    panels_per_edge = max(2, int(round(nodes_per_edge / n_gl)))
    panels_per_edge += panels_per_edge % 2
    half = panels_per_edge // 2
    frac = 0.5 * (np.arange(half + 1) / half) ** grading
    breaks = np.concatenate([frac, 1.0 - frac[-2::-1]])
    tg, wg = gauss_legendre(n_gl)
    out = {key: [] for key in ("pa", "pb", "plen", "nodes", "weights", "normals")}
    for a_e, b_e, normal in edges:
        tang = b_e - a_e
        elen = float(np.hypot(*tang))
        for i in range(panels_per_edge):
            pa = a_e + breaks[i] * tang
            pb = a_e + breaks[i + 1] * tang
            plen = elen * (breaks[i + 1] - breaks[i])
            mid = 0.5 * (pa + pb)
            halfvec = 0.5 * (pb - pa)
            out["pa"].append(pa)
            out["pb"].append(pb)
            out["plen"].append(plen)
            out["nodes"].append(mid[None, :] + tg[:, None] * halfvec[None, :])
            out["weights"].append(0.5 * plen * wg)
            out["normals"].append(np.tile(normal, (n_gl, 1)))
    return {key: np.concatenate(v) if key in ("nodes", "weights", "normals") else np.array(v)
            for key, v in out.items()}


@pytest.mark.parametrize("nodes_per_edge", [4, 12, 64])
def test_mesh_arrays_match_a_per_panel_loop_bitwise(nodes_per_edge):
    """The broadcast construction gives the panel loop's arrays bit for bit,
    on a polygon and on a one-edge segment mesh."""
    poly = Polygon([[0.1, -0.7], [1.3, -0.2], [0.9, 1.1], [-0.6, 0.8], [-0.9, -0.3]])
    for edges in (polygon_edges(poly), SEGMENT):
        mesh = CurveMesh(edges, nodes_per_edge, 3.0)
        for key, ref in _panel_loop(edges, nodes_per_edge, 3.0).items():
            got = getattr(mesh, key)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), key
