"""Graded panel meshes on straight edges: the one panelizer of the solvers.

`CurveMesh` meshes a list of straight edges, each given with its unit
normal.  Every edge is split into panels whose width decreases like
(distance to the edge end)^p toward both endpoints; Gauss-Legendre nodes
live strictly inside panels, so collocation never hits a corner.  A closed
polygon is meshed from `polygon_edges`, with normals pointing out of the
polygon (from the enclosed region toward the surrounding one); a skeleton
segment of a cell partition is a one-edge mesh carrying the segment's own
normal.
"""

from dataclasses import dataclass

import numpy as np

from ..quadrature import gauss_legendre


@dataclass(frozen=True)
class Panel:
    a: np.ndarray
    b: np.ndarray
    nodes: np.ndarray      # (m, 2)
    weights: np.ndarray    # (m,) includes the length jacobian
    t_nodes: np.ndarray    # (m,) GL nodes in [-1, 1]
    normal: np.ndarray     # (2,) constant on a straight panel
    length: float
    start: int             # global node offset within the mesh


def outward_normal(a, b):
    """Unit normal on the right of the edge a -> b: out of a counterclockwise polygon."""
    tang = b - a
    return np.array([tang[1], -tang[0]]) / float(np.hypot(*tang))


def polygon_edges(poly):
    """(a, b, outward unit normal) for every edge of `poly`, in vertex order."""
    return [(a, b, outward_normal(a, b)) for a, b in poly.edges()]


class CurveMesh:
    """All panels of a list of straight edges (a, b, unit normal), with
    concatenated node arrays."""

    def __init__(self, edges, nodes_per_edge, grading):
        if grading < 2:
            raise ValueError("grading exponent must be >= 2")
        n_gl = 8 if nodes_per_edge >= 16 else max(3, nodes_per_edge // 2)
        panels_per_edge = max(2, int(round(nodes_per_edge / n_gl)))
        if panels_per_edge % 2:
            panels_per_edge += 1
        half = panels_per_edge // 2
        frac = 0.5 * (np.arange(half + 1) / half) ** grading
        breaks = np.concatenate([frac, 1.0 - frac[-2::-1]])

        tg, wg = gauss_legendre(n_gl)
        panels = []
        for a_e, b_e, normal in edges:
            tang = b_e - a_e
            elen = float(np.hypot(*tang))
            for i in range(panels_per_edge):
                pa = a_e + breaks[i] * tang
                pb = a_e + breaks[i + 1] * tang
                plen = elen * (breaks[i + 1] - breaks[i])
                mid = 0.5 * (pa + pb)
                halfvec = 0.5 * (pb - pa)
                nodes = mid[None, :] + tg[:, None] * halfvec[None, :]
                weights = 0.5 * plen * wg
                panels.append(
                    Panel(pa, pb, nodes, weights, tg, normal, plen, len(panels) * n_gl)
                )
        self.panels = panels
        self.n_gl = n_gl
        self.nodes = np.concatenate([p.nodes for p in panels])
        self.weights = np.concatenate([p.weights for p in panels])
        self.normals = np.concatenate([np.tile(p.normal, (len(p.weights), 1)) for p in panels])
        self.n_nodes = len(self.weights)


@dataclass(frozen=True)
class BoundaryMesh:
    """Meshes of every interface of a medium, outermost first."""

    curves: tuple
    nodes_per_edge: int
    grading: float

    @property
    def n_curves(self):
        return len(self.curves)


def build_mesh(polygons, nodes_per_edge, grading=3.0):
    curves = tuple(CurveMesh(polygon_edges(p), nodes_per_edge, grading) for p in polygons)
    return BoundaryMesh(curves, nodes_per_edge, grading)
