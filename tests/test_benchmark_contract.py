"""perfbench/tracing.py wraps polyscat's entry points by name, from outside
the package; a rename or a bypassed entry point must fail here, not only
in a traced benchmark run."""

import importlib.util
import json
from pathlib import Path

import scipy.linalg

from polyscat import _kernels
from polyscat.forward import cellsolver, solve_scatter
from polyscat.geometry import CellPartition, NestPartition, Polygon
from polyscat.harness.cli import _unknowns, main as cli_main
from polyscat.medium import CellMedium, IncidentField, NestMedium

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_name_and_restores():
    tracing = load_tracing()
    originals = (_kernels.sector_quad_sum, cellsolver.SegmentCurve, scipy.linalg.lu_factor)
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        hull = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
        left = Polygon([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]])
        right = Polygon([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])
        inc = IncidentField("plane", direction=[1.0, 0.0])
        cell = solve_scatter(CellMedium(CellPartition([left, right], hull), q=[2.0, 3.0],
                                        lambda_star=0.2j, k=1.0), inc, nodes_per_edge=8)
        nest = solve_scatter(NestMedium(NestPartition([hull]), q=[2.0], lam=[0.5j], k=1.0),
                             inc, nodes_per_edge=8)
    finally:
        tr.restore()
    assert (_kernels.sector_quad_sum, cellsolver.SegmentCurve,
            scipy.linalg.lu_factor) == originals
    assert _kernels.IMPL == "numpy"

    layers = tracing.summarize(tr)
    assert layers["mesh.unknowns"] == _unknowns(cell) + _unknowns(nest)
    assert layers["solver.assemblies"] == 1
    assert tr.times()["solver.lu"][0] == 2
    assert tr.times()["cellsolver.solve"][0] == 1
    # the cell's 3 blocks, one per region; the nest's groups come from
    # assemble_nest_blocks, which the tracer does not wrap
    assert layers["layerops.block_calls"] == 3


def test_tracer_sees_every_manufactured_probe_quadrature(tmp_path):
    """A fit or extraction that reaches the quadrature under another name
    than probe.edge_u0_integral would read 0 here, not only in a benchmark."""
    tracing = load_tracing()
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "medium": {"kind": "nest", "layers": [[[-1, -1], [1, -1], [1, 1], [-1, 1]]],
                   "q": [[2.0, 0.0]], "lambda": [[0.0, 0.0]], "k": 1.0},
        "incident": {"kind": "none"},
        "probe": {"mode": "manufactured",
                  "sector": {"theta_m": 0.0, "theta_M": 1.5707963267948966, "h": 1.0},
                  "k": [1.0, 0.0], "omega1": [2.5, 0.0], "omega2": [2.0, 0.0],
                  "eta1": [0.3, 0.0], "eta2": [0.3, 0.0]}}))
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        rc = cli_main(["probe", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--s-grid", "50,100"])
    finally:
        tr.restore()
    assert rc == 0
    assert tr.times()["probe.scenario"][0] == 1
    layers = tracing.summarize(tr)
    # one edge refinement per edge and s: 2 edges x 2 fit s, each of the
    # fit's 25 basis elements + 1 target, plus 2 edges x 2 extraction s,
    # each of a remainder and a residual edge term
    assert layers["quadrature.integrals_edge"] == 8
    assert layers["quadrature.level_evals"] > layers["quadrature.integrals_edge"]
