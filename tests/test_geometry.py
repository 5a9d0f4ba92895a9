import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscat.geometry import (CellPartition, CornerSector, NestPartition, Polygon,
                               corner_sectors, locate, validate_cell, validate_nest)


def square(side, center=(0.0, 0.0)):
    h = side / 2
    cx, cy = center
    return Polygon([[cx - h, cy - h], [cx + h, cy - h], [cx + h, cy + h], [cx - h, cy + h]])


def test_polygon_orientation_normalized():
    cw = Polygon([[0, 0], [0, 1], [1, 1], [1, 0]])
    assert cw.area() > 0


def test_polygon_rejects_degenerate():
    with pytest.raises(ValueError):
        Polygon([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        Polygon([[0, 0], [1, 0], [2, 0], [1, 1]])  # collinear triple
    with pytest.raises(ValueError):
        Polygon([[0, 0], [1, 1], [1, 0], [0, 1]])  # bowtie
    with pytest.raises(ValueError):
        Polygon([[0, 0], [0, 0], [1, 0], [1, 1]])  # repeated vertex


def _cross2(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


def _segments_properly_intersect(p1, p2, q1, q2, eps):
    """The scalar crossing rule the geometry checks once ran per edge pair:
    each segment's ends beyond eps on opposite sides of the other's line."""
    d1 = _cross2(q2 - q1, p1 - q1)
    d2 = _cross2(q2 - q1, p2 - q1)
    d3 = _cross2(p2 - p1, q1 - p1)
    d4 = _cross2(p2 - p1, q2 - p1)
    return (((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps))
            and ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)))


def _first_crossing_loop(v, eps):
    """The edge-pair loop that Polygon used before it tested all pairs at
    once: the first crossing non-adjacent pair (i, j), or None."""
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_properly_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n], eps):
                return i, j
    return None


def test_edge_crossings_match_the_pair_loop():
    """The vectorized crossing test gives the loop's verdict and first pair on
    random polygons: star-shaped ones (simple), shuffled ones (mostly not),
    and ones with a vertex moved onto, just off or across the midpoint of
    another edge; and Polygon's error names that pair."""
    from polyscat.geometry import REL_GEO_TOL, _first_crossing, signed_area

    rng = np.random.default_rng(11)
    simple = 0
    for trial in range(300):
        n = int(rng.integers(3, 24))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        v = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.3, 1.0, n)[:, None]
        if trial % 3 == 1:
            v = v[rng.permutation(n)]
        elif trial % 3 == 2 and n >= 4:
            k, e = rng.choice(n, 2, replace=False)
            v[k] = 0.5 * (v[e] + v[(e + 1) % n]) * rng.choice([1.0, 1.0 + 1e-13, 1.2])
        # what Polygon checks: v counterclockwise, eps from its bounding box
        ccw = v if signed_area(v) >= 0 else v[::-1]
        scale = float(np.hypot(*(v.max(axis=0) - v.min(axis=0))))
        eps = REL_GEO_TOL * scale * scale
        want = _first_crossing_loop(ccw, eps)
        assert _first_crossing(ccw, eps) == want, trial
        simple += want is None
        try:
            Polygon(v)
            assert want is None, trial
        except ValueError as exc:
            if "intersect" in str(exc):   # not refused by an earlier check
                assert str(exc) == f"edges {want[0]} and {want[1]} intersect: polygon not simple"
    assert 50 < simple < 250


def test_cell_edge_crossings_match_the_scalar_rule():
    """The vectorized edge test that validate_cell runs on each pair of cells
    gives the scalar rule's verdict on every edge pair: random cell pairs
    that cross, touch along an edge, share a vertex, or end a vertex on, just
    off or past the other cell's edge midpoint."""
    from polyscat.geometry import REL_GEO_TOL, _edge_crossings

    rng = np.random.default_rng(5)
    crossed = 0
    for trial in range(200):
        cells = []
        for _ in range(2):
            n = int(rng.integers(3, 9))
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            r = rng.uniform(0.3, 1.0, n)[:, None]
            cells.append(np.column_stack([np.cos(ang), np.sin(ang)]) * r
                         + rng.uniform(-1.2, 1.2, 2))
        u, v = cells
        if trial % 4 == 1:      # a shared vertex
            v[0] = u[0]
        elif trial % 4 == 2:    # a shared edge, run the other way
            v[0], v[1] = u[1], u[0]
        elif trial % 4 == 3:    # a vertex on, just off or past an edge midpoint
            v[0] = 0.5 * (u[0] + u[1]) * rng.choice([1.0, 1.0 + 1e-13, 1.2])
        scale = float(np.hypot(*np.ptp(np.vstack(cells), axis=0)))
        eps = REL_GEO_TOL * scale * scale
        got = _edge_crossings(u, v, eps)
        want = [[_segments_properly_intersect(u[i], u[(i + 1) % len(u)],
                                              v[j], v[(j + 1) % len(v)], eps)
                 for j in range(len(v))] for i in range(len(u))]
        assert got.tolist() == want, trial
        crossed += got.any()
    assert 30 < crossed < 170


def test_validate_nest_ok_and_reversed():
    ok = validate_nest(NestPartition([square(2), square(1)]))
    assert ok.ok and not ok.violations
    rev = validate_nest(NestPartition([square(1), square(2)]))
    assert not rev.ok
    assert any("layer 2 not inside layer 1" in v for v in rev.violations)


def test_validate_nest_flags_nonconvex():
    lshape = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    rep = validate_nest(NestPartition([lshape]))
    assert not rep.ok
    assert any("layer 1 not convex" in v for v in rep.violations)


def test_validate_cell_two_rectangles():
    hull = square(1)
    left = Polygon([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]])
    right = Polygon([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])
    rep = validate_cell(CellPartition([left, right], hull))
    assert rep.ok, rep.violations


def test_validate_cell_middle_band_has_no_hull_vertex():
    hull = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    bands = [Polygon([[0, y0], [1, y0], [1, y1], [0, y1]])
             for y0, y1 in ((0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1))]
    rep = validate_cell(CellPartition(bands, hull))
    assert not rep.ok
    assert any("cell 2 has no hull vertex" in v for v in rep.violations)


def test_validate_cell_overlap():
    hull = square(1)
    for a, b in [
        (rect(-0.5, -0.5, 0.2, 0.5), rect(-0.2, -0.5, 0.5, 0.5)),
        # edges meet only collinearly and no vertex or centroid is strictly
        # inside the other cell; the midpoint (0.1, 0) of a's right edge is
        (rect(-0.5, -0.5, 0.1, 0.5), rect(0.0, -0.5, 0.5, 0.5)),
    ]:
        rep = validate_cell(CellPartition([a, b], hull))
        assert not rep.ok
        assert "cells 1,2 overlap" in rep.violations


def rect(x0, y0, x1, y1):
    return Polygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def test_validate_cell_t_junction_shares_an_edge():
    """The left half shares an edge with each right quarter, though only one
    of its own vertices lies on either quarter's boundary."""
    tee = [rect(0, 0, 0.5, 1), rect(0.5, 0.5, 1, 1), rect(0.5, 0, 1, 0.5)]
    rep = validate_cell(CellPartition(tee, rect(0, 0, 1, 1)))
    assert rep.ok, rep.violations
    assert rep.info == ()


def test_validate_cell_notes_corner_contact():
    grid = [rect(0, 0, 0.5, 0.5), rect(0.5, 0, 1, 0.5), rect(0, 0.5, 0.5, 1),
            rect(0.5, 0.5, 1, 1)]
    rep = validate_cell(CellPartition(grid, rect(0, 0, 1, 1)))
    assert rep.ok, rep.violations
    assert rep.info == ("cells 1,4 may touch at a single point",
                        "cells 2,3 may touch at a single point")


def test_corner_sectors_square():
    poly = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    secs = corner_sectors(poly, 0.1)
    s0 = secs[0]
    assert s0.theta_m == pytest.approx(0.0)
    assert s0.theta_M == pytest.approx(np.pi / 2)
    assert s0.rotation == 0.0
    for s in secs:
        assert s.opening == pytest.approx(np.pi / 2)


def test_corner_sectors_triangle_opening():
    tri = Polygon([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    secs = corner_sectors(tri, 0.05)
    for s in secs:
        assert s.opening == pytest.approx(np.pi / 3)


def test_corner_sectors_h_clearance():
    poly = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    with pytest.raises(ValueError):
        corner_sectors(poly, 0.6)


def test_corner_sector_midline_points_inside():
    polys = [
        Polygon([[0, 0], [1, 0], [1, 1], [0, 1]]),
        Polygon([[0, 0], [2, 0.3], [2.5, 1.7], [0.7, 2.1], [-0.5, 1.0]]),
        Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]),  # nonconvex
    ]
    for poly in polys:
        part = NestPartition([poly])
        for sec in corner_sectors(poly, 0.02):
            probe = sec.apex + 0.5 * sec.h * sec.midline_world
            assert locate(part, probe).kind == "region"
            assert 0 < sec.opening < 2 * np.pi


def test_locate_nested_squares(nested_squares):
    assert locate(nested_squares, (0.75, 0.0)) == locate(nested_squares, (0.75, 0.0))
    assert locate(nested_squares, (0.75, 0.0)).kind == "region"
    assert locate(nested_squares, (0.75, 0.0)).index == 1
    assert locate(nested_squares, (0.0, 0.0)).index == 2
    assert locate(nested_squares, (5.0, 5.0)).kind == "exterior"
    on_iface = locate(nested_squares, (0.5, 0.0))
    assert on_iface.kind == "interface" and on_iface.index == 2


def test_locate_monotone_along_rays(nested_squares):
    rng = np.random.default_rng(5)
    order = {"region": lambda i: -i, "interface": lambda i: -i + 0.5,
             "exterior": lambda i: 1}
    for _ in range(20):
        ang = rng.uniform(0, 2 * np.pi)
        d = np.array([np.cos(ang), np.sin(ang)])
        labels = [locate(nested_squares, t * d) for t in np.linspace(1e-3, 2.5, 40)]
        ranks = [order[lb.kind](lb.index or 0) for lb in labels]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_cell_locate():
    hull = square(1)
    left = Polygon([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]])
    right = Polygon([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])
    part = CellPartition([left, right], hull)
    assert locate(part, (-0.2, 0.0)).index == 1
    assert locate(part, (0.2, 0.0)).index == 2
    assert locate(part, (0.0, 0.1)).kind == "interface"
    assert locate(part, (2.0, 0.0)).kind == "exterior"


def _contains_per_point(poly, pt, tol):
    """Point-in-polygon one point at a time: distance to every edge, then the
    even-odd crossing rule."""
    v = poly.vertices
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        ab = b - a
        t = float(np.clip((pt - a) @ ab / float(ab @ ab), 0.0, 1.0))
        if float(np.hypot(*(pt - (a + t * ab)))) <= tol:
            return "boundary"
    inside = False
    x, y = pt
    j = n - 1
    for i in range(n):
        (xi, yi), (xj, yj) = v[i], v[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return "inside" if inside else "outside"


def _locate_per_point(polys, pt, tol):
    for i, poly in polys:
        if _contains_per_point(poly, pt, tol) == "boundary":
            return ("interface", i)
    for i, poly in polys:
        if _contains_per_point(poly, pt, tol) == "inside":
            return ("region", i)
    return ("exterior", None)


def test_vectorized_locate_matches_per_point_labels(nested_squares):
    """Labels of a grid crossing every interface, with points on them and
    just inside and outside the tolerance, equal the one-point-at-a-time
    labels; a single point is the one-row case."""
    hull = square(1)
    cells = CellPartition([Polygon([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]]),
                           Polygon([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])], hull)
    g = np.linspace(-1.5, 1.5, 31)
    grid = np.array([(x, y) for y in g for x in g])
    for part, polys in ((nested_squares, [(2, nested_squares.layers[1]),
                                          (1, nested_squares.layers[0])]),
                        (cells, list(enumerate(cells.cells, start=1)))):
        tol = part.geo_tol()
        near = [(c + s * tol, y) for c in (-1.0, -0.5, 0.0, 0.5, 1.0) for s in (0.5, 2.0)
                for y in (0.1, 0.3)]
        pts = np.vstack([grid, near])
        labels = locate(part, pts)
        ref = [_locate_per_point(polys, p, tol) for p in pts]
        assert [(lb.kind, lb.index) for lb in labels] == ref
        assert {"interface", "region", "exterior"} <= {k for k, _ in ref}
        assert all(locate(part, p) == lb for p, lb in zip(pts[::37], labels[::37]))
        for _, poly in polys:
            status = poly.contains(pts, tol)
            assert list(status) == [_contains_per_point(poly, p, tol) for p in pts]
            assert poly.contains(pts[5], tol) == status[5]


def test_sector_world_canonical_roundtrip():
    sec = CornerSector([1.0, 2.0], -0.5, 0.9, 0.3, rotation=2.2)
    pts = np.array([[0.1, 0.05], [0.2, -0.1], [0.0, 0.0]])
    back = sec.to_canonical(sec.to_world(pts))
    assert np.allclose(back, pts, atol=1e-14)


coords = st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3)


@given(st.floats(0.1, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(0.0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_polygon_area_invariant_under_rigid_motion(side, cx, cy, rot):
    c, s = np.cos(rot), np.sin(rot)
    base = np.array([[-side, -side], [side, -side], [side, side], [-side, side]]) / 2
    moved = base @ np.array([[c, -s], [s, c]]).T + [cx, cy]
    assert Polygon(moved).area() == pytest.approx(side**2, rel=1e-9)
