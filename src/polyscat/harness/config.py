"""Scenario configuration: JSON schema, parsing and validation.

Complex numbers are [re, im] pairs; geometry is explicit vertex lists
(outermost layer first for nests).  Parsing is strict: unknown medium
kinds, malformed vertices, or non-finite numbers are reported with the
offending field path.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..geometry import CellPartition, NestPartition, Polygon
from ..medium import CellMedium, IncidentField, NestMedium

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class MeshSpec:
    nodes_per_edge: int = 32
    grading: float = 3.0


@dataclass(frozen=True)
class Scenario:
    medium: NestMedium | CellMedium
    incident: IncidentField
    mesh: MeshSpec
    num_angles: int = 256
    raw: dict = field(default_factory=dict)

    def digest(self):
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()[:16]


def _number(node, path, kind=float):
    """`node` read as a finite `kind` (float or int), else ConfigError at `path`.
    An int is a JSON number of integral value: bools, fractions and strings
    are refused."""
    if kind is int:
        if (isinstance(node, (int, float)) and not isinstance(node, bool)
                and math.isfinite(node) and node == int(node)):
            return int(node)
        raise ConfigError(path, f"expected an integer, got {node!r}")
    try:
        value = kind(node)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(path, f"expected a finite number, got {node!r}")


def _cplx(node, path):
    if isinstance(node, (int, float)):
        return complex(node)
    if (isinstance(node, (list, tuple)) and len(node) == 2
            and all(isinstance(v, (int, float)) for v in node)):
        return complex(node[0], node[1])
    raise ConfigError(path, f"expected a number or [re, im] pair, got {node!r}")


def _object(node, path):
    """`node` if it is a JSON object, else ConfigError at `path`."""
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {node!r}")
    return node


def _vertices(node, path):
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"not a vertex list: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise ConfigError(path, "expected [[x, y], ...] with at least 3 vertices")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(path, "vertices must be finite")
    return arr


def _polygon(node, path):
    try:
        return Polygon(_vertices(node, path))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_medium(node, path="medium"):
    kind = _object(node, path).get("kind")
    if kind == "nest":
        layers = node.get("layers")
        if not isinstance(layers, list) or not layers:
            raise ConfigError(f"{path}.layers", "expected a non-empty list of polygons")
        polys = [_polygon(v, f"{path}.layers[{i}]") for i, v in enumerate(layers)]
        part = NestPartition(polys)
        q = [_cplx(v, f"{path}.q[{i}]") for i, v in enumerate(node.get("q", []))]
        lam = [_cplx(v, f"{path}.lambda[{i}]") for i, v in enumerate(node.get("lambda", []))]
        k = _number(node.get("k"), f"{path}.k")
        try:
            return NestMedium(part, q, lam, k)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    if kind == "cell":
        hull = _polygon(node.get("hull"), f"{path}.hull")
        cells_node = node.get("cells")
        if not isinstance(cells_node, list) or not cells_node:
            raise ConfigError(f"{path}.cells", "expected a non-empty list of polygons")
        cells = [_polygon(v, f"{path}.cells[{i}]") for i, v in enumerate(cells_node)]
        part = CellPartition(cells, hull)
        q = [_cplx(v, f"{path}.q[{i}]") for i, v in enumerate(node.get("q", []))]
        lam = _cplx(node.get("lambda_star", 0.0), f"{path}.lambda_star")
        k = _number(node.get("k"), f"{path}.k")
        try:
            return CellMedium(part, q, lam, k)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}.kind", f"unknown medium kind {kind!r} (nest | cell)")


def parse_incident(node):
    kind = _object(node, "incident").get("kind", "plane")
    amp = _cplx(node.get("amplitude", 1.0), "incident.amplitude")
    try:
        if kind == "plane":
            return IncidentField("plane", direction=node.get("direction"), amplitude=amp)
        if kind == "point":
            return IncidentField("point", location=node.get("location"), amplitude=amp)
        if kind == "none":
            return IncidentField("none", amplitude=amp)
    except ValueError as exc:
        raise ConfigError("incident", str(exc)) from None
    raise ConfigError("incident.kind", f"unknown incident kind {kind!r}")


def parse_scenario(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    if "medium" not in doc:
        raise ConfigError("medium", "missing section")
    medium = parse_medium(doc["medium"])
    incident = parse_incident(doc.get("incident", {"kind": "none"}))
    mesh_node = _object(doc.get("mesh", {}), "mesh")
    mesh = MeshSpec(_number(mesh_node.get("nodes_per_edge", 32), "mesh.nodes_per_edge", int),
                    _number(mesh_node.get("grading", 3.0), "mesh.grading"))
    if mesh.nodes_per_edge < 1:
        raise ConfigError("mesh.nodes_per_edge", "need at least 1 node per edge")
    if mesh.grading < 2:
        raise ConfigError("mesh.grading", "grading exponent must be >= 2")
    num_angles = _number(_object(doc.get("farfield", {}), "farfield").get("num_angles", 256),
                         "farfield.num_angles", int)
    if num_angles < 2:
        raise ConfigError("farfield.num_angles", "need at least 2 angles")
    return Scenario(medium, incident, mesh, num_angles, raw=doc)


def load_scenario(path) -> Scenario:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"JSON parse error at line {exc.lineno}, "
                                         f"column {exc.colno}: {exc.msg}") from None
    return parse_scenario(doc)
