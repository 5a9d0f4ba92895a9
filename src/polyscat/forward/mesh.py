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


def outward_normal(a, b):
    """Unit normal on the right of the edge a -> b: out of a counterclockwise polygon."""
    tang = b - a
    return np.array([tang[1], -tang[0]]) / float(np.hypot(*tang))


def polygon_edges(poly):
    """(a, b, outward unit normal) for every edge of `poly`, in vertex order."""
    return [(a, b, outward_normal(a, b)) for a, b in poly.edges()]


class CurveMesh:
    """All panels of a list of straight edges (a, b, unit normal), as arrays.

    Panels come in edge order, one row each in `pa`, `pb` (ends) and `plen`
    (lengths); panel i owns nodes i * n_gl to (i + 1) * n_gl - 1 of
    `nodes`, `weights` (which include the length jacobian) and `normals`,
    its Gauss nodes on [-1, 1] are `gauss_legendre(n_gl)` and its normal is
    `normals[i * n_gl]`.  The requested `nodes_per_edge` is rounded to an
    even number of panels of `n_gl` nodes each (24 builds 32);
    `nodes_per_edge` records the count built.
    """

    def __init__(self, edges, nodes_per_edge, grading):
        if nodes_per_edge < 1:
            raise ValueError("need at least 1 node per edge")
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
        a, b, normal = (np.array(col, dtype=float) for col in zip(*edges))
        tang = (b - a)[:, None, :]                                # (edges, 1, 2)
        self.pa = (a[:, None, :] + breaks[:-1, None] * tang).reshape(-1, 2)
        self.pb = (a[:, None, :] + breaks[1:, None] * tang).reshape(-1, 2)
        self.plen = (np.hypot(tang[..., 0], tang[..., 1]) * np.diff(breaks)).ravel()
        mid = 0.5 * (self.pa + self.pb)
        halfvec = 0.5 * (self.pb - self.pa)
        self.nodes = (mid[:, None, :] + tg[:, None] * halfvec[:, None, :]).reshape(-1, 2)
        self.weights = ((0.5 * self.plen)[:, None] * wg).ravel()
        self.normals = np.repeat(normal, panels_per_edge * n_gl, axis=0)
        self.n_gl = n_gl
        self.nodes_per_edge = panels_per_edge * n_gl
        self.n_nodes = len(self.weights)


@dataclass(frozen=True)
class BoundaryMesh:
    """Meshes of every interface of a medium, outermost first."""

    curves: tuple


def build_mesh(polygons, nodes_per_edge, grading=3.0):
    curves = tuple(CurveMesh(polygon_edges(p), nodes_per_edge, grading) for p in polygons)
    return BoundaryMesh(curves)
