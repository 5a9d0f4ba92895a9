"""Scenario configuration: JSON schema, parsing and validation.

Complex numbers are [re, im] pairs; geometry is explicit vertex lists
(outermost layer first for nests).  Parsing is strict: unknown medium
kinds, malformed vertices, or non-finite numbers are reported with the
offending field path.  Every section a command reads (`nearfield`, `sweep`,
`probe` beside the medium, incident, mesh and far field) is parsed here, and
`check_medium` decides whether a medium and its incident field can be
solved, so `validate` and the commands refuse the same inputs.  The
perturbed media of a sweep are built and checked here too (`sweep_media`),
for `validate` from the config's own `sweep` section.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..cgo import SectorSpec
from ..geometry import (CellPartition, CornerSector, NestPartition, Polygon, validate_cell,
                        validate_nest)
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
    nearfield: np.ndarray | None = None     # (n, 2) grid points
    sweep_target: str | None = None         # checked against the medium
    sweep_magnitudes: tuple = (0.1, 0.01, 0.001)
    probe: dict | None = None               # `probe.manufactured_scenario` arguments
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


def check_medium(medium, incident):
    """Whether `medium` with `incident` can be solved: (field, message) pairs,
    each partition violation at `medium` (nesting and convexity of a nest,
    tiling and disjointness of a cell medium) and a point source that is not
    strictly outside the hull at `incident`, and the partition's info notes."""
    part = medium.partition
    report = (validate_nest if isinstance(part, NestPartition) else validate_cell)(part)
    problems = [("medium", v) for v in report.violations]
    try:
        incident.validate_against(part.hull)
    except ValueError as exc:
        problems.append(("incident", str(exc)))
    return problems, report.info


def require_solvable(medium, incident, path=None, context=""):
    """ConfigError for the first field `check_medium` faults, naming each of
    that field's problems after `context`; at `path` if given."""
    problems, _ = check_medium(medium, incident)
    if problems:
        field = problems[0][0]
        raise ConfigError(path or field,
                          context + "; ".join(m for f, m in problems if f == field))


def _perturbed_medium(m, target, mag):
    """`m` with the parsed sweep `target` moved by `mag`: a q or lambda shifted,
    or a nest vertex pushed outward from its polygon's vertex mean."""
    kind, idx, sub = target
    if isinstance(m, NestMedium):
        q = list(m.q)
        lam = list(m.lam)
        layers = list(m.partition.layers)
        if kind == "q":
            q[idx - 1] = q[idx - 1] + mag
        elif kind == "lambda":
            lam[idx - 1] = lam[idx - 1] + mag
        else:
            poly = layers[idx - 1]
            v = poly.vertices.copy()
            out = v[sub] - v.mean(axis=0)
            v[sub] = v[sub] + mag * out / np.hypot(*out)
            layers[idx - 1] = Polygon(v)
        return NestMedium(NestPartition(layers), q, lam, m.k)
    q = list(m.q)
    lam = m.lambda_star
    if kind == "q":
        q[idx - 1] = q[idx - 1] + mag
    else:
        lam = lam + mag
    return CellMedium(m.partition, q, lam, m.k)


def sweep_media(medium, incident, target, magnitudes):
    """The perturbed media of a sweep of `target` (a string, as `parse_target`
    reads it) over `magnitudes`, in order, each refused as `require_solvable`
    refuses a scenario: a ConfigError at `sweep.magnitudes` names the first
    magnitude whose medium cannot be built or solved with `incident`."""
    tgt = parse_target(target, medium)
    media = []
    for mag in magnitudes:
        where = f"magnitude {mag:g} of {target}: "
        try:
            med = _perturbed_medium(medium, tgt, mag)
        except ValueError as exc:
            raise ConfigError("sweep.magnitudes", where + str(exc)) from None
        require_solvable(med, incident, "sweep.magnitudes", where)
        media.append(med)
    return media


def _nearfield_grid(node):
    """The (n, 2) points of a `nearfield` grid section."""
    near = _object(node, "nearfield")
    bounds = near.get("bounds")
    if not isinstance(bounds, list) or len(bounds) != 4:
        raise ConfigError("nearfield.bounds", f"expected [x0, x1, y0, y1], got {bounds!r}")
    x0, x1, y0, y1 = (_number(v, f"nearfield.bounds[{i}]") for i, v in enumerate(bounds))
    nx, ny = (_number(near.get(key), f"nearfield.{key}", int) for key in ("nx", "ny"))
    for key, n in (("nx", nx), ("ny", ny)):
        if n < 1:
            raise ConfigError(f"nearfield.{key}", f"need at least 1 point, got {n}")
    gx, gy = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny))
    return np.column_stack([gx.ravel(), gy.ravel()])


def _index(path, value, lo, hi):
    """`value` as an int in lo..hi, else ConfigError at `path`."""
    try:
        idx = int(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"index {value!r} is not an integer") from None
    if not lo <= idx <= hi:
        raise ConfigError(path, f"index {idx} outside {lo}..{hi}")
    return idx


def parse_target(target, medium):
    """A sweep target q:L | lambda:L | vertex:L:I as (kind, layer or cell
    index, vertex index or None), checked against the medium; ConfigError at
    `sweep.target` otherwise."""
    kind, _, rest = target.partition(":")
    nest = isinstance(medium, NestMedium)
    n = medium.partition.n_layers if nest else medium.partition.n_cells
    if kind == "q":
        return ("q", _index("sweep.target", rest, 1, n), None)
    if kind == "lambda":
        # a cell medium has the single lambda*
        return ("lambda", _index("sweep.target", rest or 1, 1, n if nest else 1), None)
    if kind == "vertex":
        if not nest:
            raise ConfigError("sweep.target", "vertex perturbation applies to nest media")
        layer, sep, idx = rest.partition(":")
        if not sep:
            raise ConfigError("sweep.target", f"vertex target {target!r} needs vertex:L:I")
        layer = _index("sweep.target", layer, 1, n)
        n_vertices = medium.partition.layers[layer - 1].n_vertices
        return ("vertex", layer, _index("sweep.target", idx, 0, n_vertices - 1))
    raise ConfigError("sweep.target", f"unknown target {target!r}")


def _sweep(node, medium):
    """The `sweep` section's target (a string checked against the medium, or
    None) and its distinct magnitudes."""
    spec = _object(node, "sweep")
    target = spec.get("target")
    if target is not None:
        if not isinstance(target, str):
            raise ConfigError("sweep.target", f"expected a string, got {target!r}")
        parse_target(target, medium)
    mags = spec.get("magnitudes", list(Scenario.sweep_magnitudes))
    if not isinstance(mags, list) or not mags:
        raise ConfigError("sweep.magnitudes", f"expected a list of numbers, got {mags!r}")
    mags = [_number(v, f"sweep.magnitudes[{i}]") for i, v in enumerate(mags)]
    for i, v in enumerate(mags):
        if v in mags[:i]:
            raise ConfigError(f"sweep.magnitudes[{i}]", f"{v!r} repeats "
                              f"sweep.magnitudes[{mags.index(v)}]")
    return target, tuple(mags)


def _probe(node):
    """The manufactured `probe` section as `probe.manufactured_scenario`
    keyword arguments: the sector and k, omega1, omega2, eta1, eta2."""
    spec = _object(node, "probe")
    mode = spec.get("mode", "manufactured")
    if mode != "manufactured":
        raise ConfigError("probe.mode", f"unknown mode {mode!r}, expected 'manufactured'")
    sect = _object(spec.get("sector", {}), "probe.sector")
    angles = [_number(sect.get(a), f"probe.sector.{a}") for a in ("theta_m", "theta_M")]
    h = _number(sect.get("h", 1.0), "probe.sector.h")
    try:
        sector = CornerSector([0.0, 0.0], *angles, h)
        SectorSpec(*angles)   # the CGO function's own limits on the angles
    except ValueError as exc:
        raise ConfigError("probe.sector", str(exc)) from None
    k = _cplx(spec.get("k", 1.0), "probe.k")
    if k == 0:
        raise ConfigError("probe.k", "wavenumber must be nonzero")
    return {"sector": sector, "k": k, **{p: _cplx(spec.get(p), f"probe.{p}")
                                         for p in ("omega1", "omega2", "eta1", "eta2")}}


def parse_mesh(node) -> MeshSpec:
    node = _object(node, "mesh")
    mesh = MeshSpec(_number(node.get("nodes_per_edge", 32), "mesh.nodes_per_edge", int),
                    _number(node.get("grading", 3.0), "mesh.grading"))
    if mesh.nodes_per_edge < 1:
        raise ConfigError("mesh.nodes_per_edge", "need at least 1 node per edge")
    if mesh.grading < 2:
        raise ConfigError("mesh.grading", "grading exponent must be >= 2")
    return mesh


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
    mesh = parse_mesh(doc.get("mesh", {}))
    num_angles = _number(_object(doc.get("farfield", {}), "farfield").get("num_angles", 256),
                         "farfield.num_angles", int)
    if num_angles < 2:
        raise ConfigError("farfield.num_angles", "need at least 2 angles")
    # an absent, null or empty nearfield or probe section means none
    nearfield = _nearfield_grid(doc["nearfield"]) if doc.get("nearfield") else None
    target, mags = _sweep(doc.get("sweep", {}), medium)
    probe = _probe(doc["probe"]) if doc.get("probe") else None
    return Scenario(medium, incident, mesh, num_angles, nearfield, target, mags, probe, raw=doc)


def load_scenario(path) -> Scenario:
    """The scenario in the JSON file `path`; a file that cannot be read is a
    ConfigError at `--config`, and malformed JSON one at `path`."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("--config", f"cannot read {path}: "
                                      f"{getattr(exc, 'strerror', None) or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"JSON parse error at line {exc.lineno}, "
                                     f"column {exc.colno}: {exc.msg}") from None
    return parse_scenario(doc)
