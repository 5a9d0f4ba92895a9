"""Polygonal geometry: simple polygons, nested and cell partitions, corner
sectors at vertices, and point location.

All types are immutable after construction.  Partition validation returns
reports rather than raising: a malformed nest/cell layout is data to
inspect, not a programming fault.  Polygons themselves must at least be
simple with positive area, or nothing downstream is meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

REL_GEO_TOL = 1e-12  # interface tolerance, relative to the bounding-box diagonal


def _as_vertices(vertices):
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError("polygon needs an (n,2) array of at least 3 vertices")
    return v


def signed_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _cross2(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


def _edge_crossings(u, v, eps):
    """(len(u), len(v)) booleans: whether edge i of the closed polygon u
    (from u[i] to u[i + 1]) and edge j of v cross, each one's ends lying
    beyond eps on opposite sides of the other's line.  Edges that share an
    end, or overlap collinearly, do not cross."""
    p1, p2 = u[:, None], np.roll(u, -1, axis=0)[:, None]
    q1, q2 = v[None, :], np.roll(v, -1, axis=0)[None, :]

    def cross(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    def opposite(x, y):
        return ((x > eps) & (y < -eps)) | ((x < -eps) & (y > eps))

    return (opposite(cross(q2 - q1, p1 - q1), cross(q2 - q1, p2 - q1))
            & opposite(cross(p2 - p1, q1 - p1), cross(p2 - p1, q2 - p1)))


def _first_crossing(v, eps):
    """The first pair (i, j), i < j in row-major order, of crossing edges of
    the closed polygon v, or None (adjacent edges share an end)."""
    hit = np.argwhere(np.triu(_edge_crossings(v, v, eps)))
    return (int(hit[0, 0]), int(hit[0, 1])) if len(hit) else None


def point_segment_distance(pt, a, b):
    """Distance from a point (2,) to the segment a-b, or from each row of an
    (n, 2) array of points as an (n,) array."""
    pt = np.asarray(pt, dtype=float)
    pts = np.atleast_2d(pt)
    ab = b - a
    denom = float(ab @ ab)
    t = np.zeros(len(pts)) if denom == 0.0 else np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    dist = np.hypot(*(pts - (a + t[:, None] * ab)).T)
    return float(dist[0]) if pt.ndim == 1 else dist


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, stored counterclockwise; dimensionless coordinates."""

    vertices: np.ndarray

    def __init__(self, vertices):
        v = _as_vertices(vertices).copy()
        if signed_area(v) < 0:
            v = v[::-1].copy()
        object.__setattr__(self, "vertices", v)
        self._validate()
        self.vertices.setflags(write=False)

    def _validate(self):
        v = self.vertices
        n = len(v)
        scale = self.bbox_diag()
        tol = REL_GEO_TOL * scale
        if signed_area(v) <= tol * scale:
            raise ValueError("polygon area must be strictly positive")
        for i in range(n):
            if np.hypot(*(v[i] - v[(i + 1) % n])) <= tol:
                raise ValueError(f"consecutive vertices {i},{(i+1)%n} coincide")
        for i in range(n):
            a, b, c = v[i - 1], v[i], v[(i + 1) % n]
            if abs(_cross2(b - a, c - b)) <= tol * scale:
                raise ValueError(f"three consecutive vertices collinear at index {i}")
        crossing = _first_crossing(v, tol * scale)
        if crossing is not None:
            raise ValueError(f"edges {crossing[0]} and {crossing[1]} intersect: "
                             "polygon not simple")

    def bbox_diag(self):
        v = self.vertices
        return float(np.hypot(*(v.max(axis=0) - v.min(axis=0))))

    @property
    def n_vertices(self):
        return len(self.vertices)

    def area(self):
        return signed_area(self.vertices)

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def is_convex(self):
        v = self.vertices
        n = len(v)
        cross = [_cross2(v[(i + 1) % n] - v[i], v[(i + 2) % n] - v[(i + 1) % n]) for i in range(n)]
        return all(c > 0 for c in cross)

    def contains(self, pt, tol):
        """'inside' | 'outside' | 'boundary' with absolute tolerance tol, for a
        point (2,), or an array of these labels for each row of an (n, 2) array."""
        pt = np.asarray(pt, dtype=float)
        pts = np.atleast_2d(pt)
        v = self.vertices
        n = len(v)
        boundary = np.zeros(len(pts), dtype=bool)
        for i in range(n):
            boundary |= point_segment_distance(pts, v[i], v[(i + 1) % n]) <= tol
        inside = np.zeros(len(pts), dtype=bool)
        x, y = pts.T
        j = n - 1
        for i in range(n):
            xi, yi = v[i]
            xj, yj = v[j]
            with np.errstate(divide="ignore", invalid="ignore"):  # yi == yj never crosses
                cross = (yi > y) != (yj > y)
                inside ^= cross & (x < (xj - xi) * (y - yi) / (yj - yi) + xi)
            j = i
        labels = np.where(boundary, "boundary", np.where(inside, "inside", "outside"))
        return str(labels[0]) if pt.ndim == 1 else labels


@dataclass(frozen=True)
class NestPartition:
    """Convex polygons listed outermost first, each strictly containing the next."""

    layers: tuple

    def __init__(self, layers):
        object.__setattr__(self, "layers", tuple(layers))
        if not self.layers:
            raise ValueError("nest partition needs at least one layer")

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def hull(self):
        """The outermost layer, the polygon the whole medium fills."""
        return self.layers[0]

    def geo_tol(self):
        return REL_GEO_TOL * self.layers[0].bbox_diag()


@dataclass(frozen=True)
class CellPartition:
    """Disjoint polygonal cells tiling a hull polygon."""

    cells: tuple
    hull: Polygon

    def __init__(self, cells, hull):
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "hull", hull)
        if not self.cells:
            raise ValueError("cell partition needs at least one cell")

    @property
    def n_cells(self):
        return len(self.cells)

    def geo_tol(self):
        return REL_GEO_TOL * self.hull.bbox_diag()


@dataclass(frozen=True)
class CornerSector:
    """Truncated sector at a polygon vertex.

    theta_m/theta_M are measured after translating the apex to the origin.
    When the interior wedge straddles the negative real axis the sector is
    stored symmetric about zero and `rotation` records the world angle of
    the sector bisector; world point = apex + R(rotation - bisector) ... in
    short, `to_world` and `to_canonical` map between frames.
    """

    apex: np.ndarray
    theta_m: float
    theta_M: float
    h: float
    rotation: float = 0.0

    def __init__(self, apex, theta_m, theta_M, h, rotation=0.0):
        if not h > 0:
            raise ValueError("sector radius h must be > 0")
        opening = theta_M - theta_m
        if not 0 < opening < 2 * math.pi:
            raise ValueError("sector opening must lie in (0, 2*pi)")
        if not (-math.pi < theta_m < theta_M <= math.pi):
            raise ValueError("sector angles must satisfy -pi < theta_m < theta_M <= pi")
        object.__setattr__(self, "apex", np.array(apex, dtype=float))
        self.apex.setflags(write=False)
        object.__setattr__(self, "theta_m", float(theta_m))
        object.__setattr__(self, "theta_M", float(theta_M))
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "rotation", float(rotation))

    @property
    def opening(self):
        return self.theta_M - self.theta_m

    @property
    def midline_world(self):
        ang = 0.5 * (self.theta_m + self.theta_M) + self.rotation
        return np.array([math.cos(ang), math.sin(ang)])

    def to_world(self, pts):
        return self.apex + self.vec_to_world(np.asarray(pts, dtype=float))

    def vec_to_world(self, vecs):
        """Canonical-frame vectors, real or complex, in the world frame."""
        return _rotate(vecs, self.rotation)

    def to_canonical(self, pts):
        return _rotate(np.asarray(pts, dtype=float) - self.apex, -self.rotation)


def _rotate(vecs, angle):
    """(..., 2) vectors turned by angle, one point at a time: a matrix
    product would round a point differently in different batch sizes."""
    c, s = math.cos(angle), math.sin(angle)
    vecs = np.asarray(vecs)
    x, y = vecs[..., 0], vecs[..., 1]
    return np.stack([c * x - s * y, s * x + c * y], axis=-1)


@dataclass(frozen=True)
class RegionLabel:
    kind: str  # 'region' | 'exterior' | 'interface'
    index: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple
    info: tuple = ()


def validate_nest(p: NestPartition) -> ValidationReport:
    """Check convexity of every layer and strict nesting of consecutive layers."""
    violations = []
    tol = p.geo_tol()
    for i, layer in enumerate(p.layers, start=1):
        if not layer.is_convex():
            violations.append(f"layer {i} not convex")
    for i in range(len(p.layers) - 1):
        outer, inner = p.layers[i], p.layers[i + 1]
        # 'boundary' (within tol of an edge) is reported before 'inside'
        if (outer.contains(inner.vertices, tol) != "inside").any():
            violations.append(f"layer {i + 2} not inside layer {i + 1}")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def validate_cell(p: CellPartition) -> ValidationReport:
    """Check tiling of the hull, pairwise disjointness, and that every cell
    owns a vertex whose two incident edges lie on the hull boundary."""
    violations = []
    info = []
    tol = p.geo_tol()
    hull = p.hull
    eps = tol * hull.bbox_diag()

    # per cell, its vertices and then its edge midpoints against the hull
    points = []
    on_hull = []
    for i, cell in enumerate(p.cells, start=1):
        mids = 0.5 * (cell.vertices + np.roll(cell.vertices, -1, axis=0))
        points.append(np.vstack([cell.vertices, mids]))
        on_hull.append(hull.contains(points[-1], tol))
        if (on_hull[-1][:cell.n_vertices] == "outside").any():
            violations.append(f"cell {i} leaves the hull")

    for i in range(len(p.cells)):
        for j in range(i + 1, len(p.cells)):
            ci, cj = p.cells[i], p.cells[j]
            overlap = _edge_crossings(ci.vertices, cj.vertices, eps).any()
            # each cell's vertices, edge midpoints and centroid against the
            # other cell: in a valid tiling none lies strictly inside it
            in_j = cj.contains(np.vstack([points[i], ci.vertices.mean(axis=0)]), tol)
            in_i = ci.contains(np.vstack([points[j], cj.vertices.mean(axis=0)]), tol)
            if overlap or (in_j == "inside").any() or (in_i == "inside").any():
                violations.append(f"cells {i + 1},{j + 1} overlap")
            else:
                # distinct points of either cell's vertices on the other's boundary
                shared = list(ci.vertices[in_j[:ci.n_vertices] == "boundary"])
                shared += [v for v in cj.vertices[in_i[:cj.n_vertices] == "boundary"]
                           if all(np.hypot(*(v - w)) > tol for w in shared)]
                if len(shared) == 1:
                    info.append(f"cells {i + 1},{j + 1} may touch at a single point")

    total = sum(c.area() for c in p.cells)
    if abs(total - hull.area()) > 1e-9 * hull.area():
        violations.append("cell areas do not sum to the hull area")

    for i, (cell, labels) in enumerate(zip(p.cells, on_hull), start=1):
        n = cell.n_vertices
        on = labels == "boundary"
        # edge k runs from vertex k to vertex k + 1
        edge = on[:n] & np.roll(on[:n], -1) & on[n:]
        if not (edge & np.roll(edge, 1)).any():
            violations.append(f"cell {i} has no hull vertex")

    return ValidationReport(ok=not violations, violations=tuple(violations), info=tuple(info))


def _clearances(poly: Polygon):
    """Per vertex, its distance to the nearest edge not incident to it."""
    v = poly.vertices
    n = len(v)
    return [min(point_segment_distance(v[i], v[j], v[(j + 1) % n])
                for j in range(n) if j != i and (j + 1) % n != i)
            for i in range(n)]


def max_sector_radius(poly: Polygon):
    """Largest h valid for corner_sectors: half the worst vertex clearance."""
    return 0.5 * min(_clearances(poly))


def corner_sectors(poly: Polygon, h: float):
    """One truncated sector per vertex, spanning the polygon interior.

    Angles are world angles about the translated apex when the wedge avoids
    the negative real axis; otherwise the sector is rotated to be symmetric
    about zero with the rotation recorded.  Fails if h exceeds half the
    minimum distance from a vertex to its non-incident edges.
    """
    if not h > 0:
        raise ValueError("h must be > 0")
    v = poly.vertices
    n = len(v)
    sectors = []
    for i, dmin in enumerate(_clearances(poly)):
        apex = v[i]
        if h > 0.5 * dmin:
            raise ValueError(
                f"h={h} exceeds half the clearance {0.5 * dmin:.3g} of vertex {i}"
            )
        d_next = v[(i + 1) % n] - apex
        d_prev = v[i - 1] - apex
        a_next = math.atan2(d_next[1], d_next[0])
        a_prev = math.atan2(d_prev[1], d_prev[0])
        opening = (a_prev - a_next) % (2 * math.pi)
        theta_m, theta_M = a_next, a_next + opening
        if theta_M > math.pi or theta_m <= -math.pi:
            # wedge straddles the cut: store symmetric about zero
            bisector = a_next + 0.5 * opening
            sectors.append(
                CornerSector(apex, -0.5 * opening, 0.5 * opening, h, rotation=bisector)
            )
        else:
            sectors.append(CornerSector(apex, theta_m, theta_M, h, rotation=0.0))
    return sectors


def locate(partition, x, tol=None):
    """Deterministic region label for a point (2,), or a list of labels for
    each row of an (n, 2) array.

    Nest partitions: region index ell means the annulus between layer ell
    and layer ell+1 (layer N = the innermost core).  Cell partitions:
    region index is the cell index.  Indices are 1-based.  A point within
    tol of an interface is labelled by the first such interface, checking
    nest layers innermost first and cells in order.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if tol is None:
        tol = partition.geo_tol()
    if isinstance(partition, NestPartition):
        order = [(ell, partition.layers[ell - 1]) for ell in range(partition.n_layers, 0, -1)]
    elif isinstance(partition, CellPartition):
        order = list(enumerate(partition.cells, start=1))
    else:
        raise TypeError(f"unsupported partition type {type(partition)!r}")
    status = [(i, poly.contains(pts, tol)) for i, poly in order]
    kinds = np.full(len(pts), "exterior", dtype=object)
    index = np.zeros(len(pts), dtype=int)
    for want, kind in (("boundary", "interface"), ("inside", "region")):
        for i, st in status:
            hit = (st == want) & (kinds == "exterior")
            kinds[hit] = kind
            index[hit] = i
    labels = [RegionLabel(k) if k == "exterior" else RegionLabel(k, int(i))
              for k, i in zip(kinds, index)]
    return labels[0] if x.ndim == 1 else labels
