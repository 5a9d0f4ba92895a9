import json
import subprocess
import sys

import numpy as np
import pytest

from polyscat.harness import ConfigError, load_scenario, parse_scenario, scenario_to_doc
from polyscat.harness.cli import main as cli_main

NEST_DOC = {
    "schema_version": 1,
    "medium": {
        "kind": "nest",
        "layers": [
            [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
            [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
        ],
        "q": [[2.0, 0.0], [3.0, 0.0]],
        "lambda": [[0.0, 0.5], [0.0, 0.0]],
        "k": 1.0,
    },
    "incident": {"kind": "plane", "direction": [1.0, 0.0], "amplitude": [1.0, 0.0]},
    "mesh": {"nodes_per_edge": 12, "grading": 3.0},
    "farfield": {"num_angles": 32},
    "sweep": {"target": "q:2", "magnitudes": [0.1]},
}

PROBE_DOC = {
    "schema_version": 1,
    "medium": {
        "kind": "nest",
        "layers": [[[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]],
        "q": [[2.0, 0.0]], "lambda": [[0.0, 0.0]], "k": 1.0,
    },
    "incident": {"kind": "none"},
    "probe": {
        "mode": "manufactured",
        "sector": {"theta_m": 0.0, "theta_M": 1.5707963267948966, "h": 1.0},
        "k": [1.0, 0.0], "omega1": [2.0, 0.0], "omega2": [2.0, 0.0],
        "eta1": [0.5, 0.1], "eta2": [0.2, 0.0],
    },
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=1))
    return str(p)


def test_roundtrip_is_bit_exact(tmp_path):
    doc = json.loads(json.dumps(NEST_DOC))
    doc["medium"]["layers"][0][0] = [-1.0000000001234, -0.9999999998766]
    sc = parse_scenario(doc)
    doc2 = scenario_to_doc(sc)
    sc2 = parse_scenario(doc2)
    m1, m2 = sc.medium, sc2.medium
    for p1, p2 in zip(m1.partition.layers, m2.partition.layers):
        assert np.array_equal(p1.vertices, p2.vertices)
    assert m1.q == m2.q and m1.lam == m2.lam and m1.k == m2.k


def test_parse_rejects_bad_schema():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_scenario({"schema_version": 99, "medium": {}})
    with pytest.raises(ConfigError, match="kind"):
        parse_scenario({"schema_version": 1, "medium": {"kind": "weird"}})


def test_parse_reports_field_path():
    doc = json.loads(json.dumps(NEST_DOC))
    doc["medium"]["q"][1] = [-1.0, 0.0]
    with pytest.raises(ConfigError, match="Re q must be positive"):
        parse_scenario(doc)


def test_validate_command(tmp_path, capsys):
    cfg = write(tmp_path, "ok.json", NEST_DOC)
    assert cli_main(["validate", "--config", cfg]) == 0
    bad = json.loads(json.dumps(NEST_DOC))
    bad["medium"]["layers"] = bad["medium"]["layers"][::-1]
    bad["medium"]["q"] = bad["medium"]["q"][::-1]
    cfg_bad = write(tmp_path, "bad.json", bad)
    assert cli_main(["validate", "--config", cfg_bad]) == 1
    out = capsys.readouterr().out
    assert "not inside" in out


def test_validate_malformed_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    assert cli_main(["validate", "--config", str(p)]) == 1


def test_forward_command_writes_csv(tmp_path):
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out = tmp_path / "out"
    assert cli_main(["forward", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "farfield.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "angle_rad,re,im"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 32
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["converged"]
    assert report["solver"]["tau_solve"] == 1e-8
    assert report["mesh"]["built_nodes_per_edge"] == 12


def test_forward_determinism(tmp_path):
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli_main(["forward", "--config", cfg, "--out", str(out1)])
    cli_main(["forward", "--config", cfg, "--out", str(out2)])
    assert (out1 / "farfield.csv").read_bytes() == (out2 / "farfield.csv").read_bytes()


def test_forward_nearfield_grid(tmp_path):
    """nearfield.csv: NaN on the interfaces, and elsewhere the total field of
    the solved medium at each grid point."""
    from polyscat.forward import solve_scatter
    from polyscat.geometry import locate

    doc = json.loads(json.dumps(NEST_DOC))
    doc["nearfield"] = {"bounds": [-1.5, 1.5, -1.0, 1.0], "nx": 7, "ny": 5}
    cfg = write(tmp_path, "c.json", doc)
    out = tmp_path / "fw"
    assert cli_main(["forward", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "nearfield.csv").read_text().splitlines()
    data = np.array([[float(v) for v in ln.split(",")]
                     for ln in [ln for ln in lines if not ln.startswith("#")][1:]])
    assert data.shape == (35, 4)
    sc = parse_scenario(doc)
    labels = locate(sc.medium.partition, data[:, :2])
    on = np.array([lb.kind == "interface" for lb in labels])
    assert on.sum() >= 5 and np.all(np.isnan(data[on, 2:])) and not np.isnan(data[~on]).any()
    res = solve_scatter(sc.medium, sc.incident, nodes_per_edge=12, grading=3.0)
    got = data[~on, 2] + 1j * data[~on, 3]
    assert np.allclose(got, res.field_at(data[~on, :2]), rtol=1e-12, atol=1e-14)


def test_sweep_command(tmp_path):
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["above"] is True
    assert report["noise_floor"] < report["rows"][0]["diff"] / 10
    # q:2 changes the one block that carries q_2: the inner self difference
    assert report["operator_blocks"] == {"base": 5, "assembled": [1]}
    # the mesh rounds the fine level's request of 24 nodes/edge up to 32
    assert report["built_nodes_per_edge"] == {"base": 12, "fine": 32}
    assert "(mesh 12 vs 32 nodes/edge)" in (out / "sweep.csv").read_text()


@pytest.mark.parametrize("failing, label", [(0, "base"), (1, "fine"), (2, "perturbed")])
def test_sweep_refuses_unconverged_solve(tmp_path, monkeypatch, capsys, failing, label):
    import dataclasses

    import polyscat.harness.cli as cli

    calls = []
    real = cli.solve_scatter

    def flaky(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(kwargs["nodes_per_edge"])
        return dataclasses.replace(res, converged=False) if len(calls) - 1 == failing else res

    monkeypatch.setattr(cli, "solve_scatter", flaky)
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert len(calls) == failing + 1
    err = capsys.readouterr().err
    assert err.startswith(label) and "did not converge" in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, bad", [
    ("sweep", "q:0"), ("sweep", "q:3"), ("sweep", "q:x"), ("sweep", "lambda:3"),
    ("sweep", "vertex:1"), ("sweep", "vertex:0:1"), ("sweep", "vertex:1:9"),
    ("sweep", "vertex:1:-1"),
    ("probe", {"interface": 0, "index": 0}), ("probe", {"interface": 3, "index": 0}),
    ("probe", {"interface": 2, "index": 4}), ("probe", {"interface": "x", "index": 0}),
], ids=lambda v: v if isinstance(v, str) else "vertex{interface}.{index}".format(**v))
def test_out_of_range_indices_are_config_errors(tmp_path, capsys, command, bad):
    # NEST_DOC has 2 layers of 4 vertices; nothing may wrap around to layers[-1]
    doc = json.loads(json.dumps(NEST_DOC))
    if command == "sweep":
        argv = ["sweep", "--target", bad]
    else:
        doc["probe"] = {"mode": "pair", "medium2": doc["medium"], "vertex": bad, "h": 0.2}
        argv = ["probe", "--s-grid", "50,100"]
    cfg = write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert cli_main(argv + ["--config", cfg, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.csv"))


def test_passive_command_and_refusals(tmp_path):
    doc = json.loads(json.dumps(NEST_DOC))
    doc["incident"] = {"kind": "point", "location": [3.0, 1.5], "amplitude": [1.0, 0.0]}
    cfg = write(tmp_path, "p.json", doc)
    out = tmp_path / "passive"
    assert cli_main(["passive", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["above"] is True
    # source on the boundary: refused
    doc["incident"]["location"] = [1.0, 0.0]
    cfg2 = write(tmp_path, "p2.json", doc)
    assert cli_main(["passive", "--config", cfg2, "--out", str(out)]) == 1
    # plane-wave incident: refused
    cfg3 = write(tmp_path, "p3.json", NEST_DOC)
    assert cli_main(["passive", "--config", cfg3, "--out", str(out)]) == 1


def test_probe_command_manufactured(tmp_path):
    cfg = write(tmp_path, "probe.json", PROBE_DOC)
    out = tmp_path / "probe"
    assert cli_main(["probe", "--config", cfg, "--out", str(out),
                     "--s-grid", "50,100,200"]) == 0
    lines = (out / "probe.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "s,re_eta,im_eta,re_omega,im_omega,residual"
    report = json.loads((out / "report.json").read_text())
    eta = complex(*report["eta_extrapolated"])
    assert abs(eta - (0.3 + 0.1j)) < 1e-4
    assert report["quad_converged"] == [True, True, True]
    assert len(report["quad_error"]) == 3
    assert report["eta_extrapolation_err"] > 0
    assert report["omega_extrapolation_err"] > 0
    assert report["fit_quad_unconverged"] >= 0
    assert report["fit_quad_error_max"] > 0
    # the edge-moment correction closes the fit to rounding
    assert 0 <= report["fit_moment_residual"] < 1e-12
    # the fit's sensitivity to rounding is on record
    for key in ("fit_cond_pointwise", "fit_cond_moments"):
        assert np.isfinite(report[key]) and report[key] >= 1


def test_probe_command_reports_unconverged_quadrature(tmp_path, capsys):
    # at tol 1e-12 the arc integrals at s = 50 and 100 stop unconverged at
    # 256 nodes; the exit code stays 0
    cfg = write(tmp_path, "probe.json", PROBE_DOC)
    out = tmp_path / "probe"
    assert cli_main(["probe", "--config", cfg, "--out", str(out),
                     "--s-grid", "50,100,200,400,800", "--tol", "1e-12"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["quad_converged"] == [False, False, True, True, True]
    err = capsys.readouterr().err
    assert "did not converge at s = 50, 100;" in err


def test_probe_command_identical_pair(tmp_path):
    doc = json.loads(json.dumps(NEST_DOC))
    doc["mesh"]["nodes_per_edge"] = 12
    doc["probe"] = {
        "mode": "pair",
        "medium2": doc["medium"],
        "vertex": {"interface": 2, "index": 0},
        "h": 0.2,
    }
    cfg = write(tmp_path, "pair.json", doc)
    out = tmp_path / "pair"
    assert cli_main(["probe", "--config", cfg, "--out", str(out),
                     "--s-grid", "50,100"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(complex(*report["eta_extrapolated"])) < 1e-4
    assert abs(complex(*report["omega_extrapolated"])) < 1e-3
    # one medium solved twice: both surrogates fit the same field
    fit1, fit2 = report["surrogate_fit_residuals"]
    assert fit1 == fit2
    assert 0 < fit1 < 1e-5


def test_probe_pair_refuses_a_poor_surrogate(tmp_path, capsys, monkeypatch):
    from polyscat import probe
    from polyscat.harness import cli

    fit = probe.series_surrogate_from_solution
    poor = 10 * cli.SURROGATE_FIT_BOUND

    def poor_fit(*args, **kwargs):
        return fit(*args, **kwargs)[0], poor

    monkeypatch.setattr(probe, "series_surrogate_from_solution", poor_fit)
    doc = json.loads(json.dumps(NEST_DOC))
    doc["mesh"]["nodes_per_edge"] = 12
    doc["probe"] = {"mode": "pair", "medium2": doc["medium"],
                    "vertex": {"interface": 2, "index": 0}, "h": 0.2}
    cfg = write(tmp_path, "pair.json", doc)
    out = tmp_path / "pair"
    assert cli_main(["probe", "--config", cfg, "--out", str(out),
                     "--s-grid", "50,100"]) == cli.EXIT_REFUSED
    assert f"surrogate fit residual {poor:.3g}" in capsys.readouterr().err
    assert not (out / "probe.csv").exists()


def test_cgo_verify_and_negative_control(tmp_path):
    out = tmp_path / "cgo"
    assert cli_main(["cgo-verify", "--out", str(out)]) == 0
    rows = (out / "cgo_verify.csv").read_text().splitlines()
    assert any("sector_integral" in r for r in rows)
    assert cli_main(["cgo-verify", "--out", str(tmp_path / "bad"), "--corrupt"]) == 2


def test_cli_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "polyscat.harness.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate" in proc.stdout


CELL_DOC = {
    "schema_version": 1,
    "medium": {
        "kind": "cell",
        "hull": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
        "cells": [
            [[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]],
            [[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]],
        ],
        "q": [[2.0, 0.0], [3.0, 0.0]],
        "lambda_star": [0.0, 0.2],
        "k": 1.0,
    },
    "incident": {"kind": "plane", "direction": [1.0, 0.0], "amplitude": [1.0, 0.0]},
    "mesh": {"nodes_per_edge": 10, "grading": 3.0},
    "farfield": {"num_angles": 16},
}


def test_cell_config_validate_and_forward(tmp_path):
    cfg = write(tmp_path, "cell.json", CELL_DOC)
    assert cli_main(["validate", "--config", cfg]) == 0
    out = tmp_path / "cellout"
    assert cli_main(["forward", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["converged"]


@pytest.mark.parametrize("doc, target, base, new", [
    (NEST_DOC, "lambda:1", 5, 0),
    (NEST_DOC, "q:2", 5, 1),          # the inner self difference carries q_2
    (NEST_DOC, "lambda:2", 5, 1),     # the plain inner self block, unbuilt at lambda_2 = 0
    (NEST_DOC, "vertex:2:0", 5, 3),   # every block with the inner curve as source or target
    (CELL_DOC, "lambda", 68, 0),
], ids=["lambda:1", "q:2", "lambda:2", "vertex:2:0", "cell-lambda*"])
def test_sweep_assembles_only_the_blocks_a_perturbation_changes(tmp_path, monkeypatch,
                                                                 doc, target, base, new):
    import polyscat.forward.solver as solver
    import polyscat.harness.cli as cli

    calls = []
    per_solve = []
    assemble_block = solver.assemble_block
    solve_scatter = cli.solve_scatter

    def counted_solve(*args, **kwargs):
        n0 = len(calls)
        res = solve_scatter(*args, **kwargs)
        per_solve.append(len(calls) - n0)
        return res

    monkeypatch.setattr(solver, "assemble_block",
                        lambda *a, **kw: calls.append(a) or assemble_block(*a, **kw))
    monkeypatch.setattr(cli, "solve_scatter", counted_solve)
    cfg = write(tmp_path, "c.json", doc)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--target", target,
                     "--magnitudes", "0.1,0.01"]) == 0
    assert per_solve == [base, base, new, new]   # base, fine (no store), two perturbed
    report = json.loads((out / "report.json").read_text())
    assert report["operator_blocks"] == {"base": base, "assembled": [new, new]}


@pytest.mark.parametrize("doc, target, rows_built", [
    (NEST_DOC, "lambda:1", 2),          # the base and the fine solve
    (CELL_DOC, "lambda", 12),           # the same, for 6 hull segments each
], ids=["nest", "cell"])
def test_sweep_shares_far_field_rows(tmp_path, monkeypatch, doc, target, rows_built):
    """The base solve's store keeps its far-field rows: a lambda-only sweep
    builds them for the base and the fine solve only, and the perturbed far
    fields equal store-free ones bit for bit."""
    from polyscat.forward import solve_scatter, solver, uniform_directions
    from polyscat.harness.cli import _parse_target, _perturbed_medium

    rows = []
    farfield_row = solver.farfield_row
    monkeypatch.setattr(solver, "farfield_row", lambda *a: rows.append(a) or farfield_row(*a))
    cfg = write(tmp_path, "c.json", doc)
    assert cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--target",
                     target, "--magnitudes", "0.1,0.01,0.001"]) == 0
    assert len(rows) == rows_built
    sc = parse_scenario(doc)
    angles = uniform_directions(32)
    store = {}
    solve_scatter(sc.medium, sc.incident, nodes_per_edge=12, blocks=store).far_field(angles)
    med = _perturbed_medium(sc.medium, _parse_target(target, sc.medium), 0.01)
    shared = solve_scatter(med, sc.incident, nodes_per_edge=12, blocks=dict(store))
    fresh = solve_scatter(med, sc.incident, nodes_per_edge=12)
    assert shared.far_field(angles).values.tobytes() == fresh.far_field(angles).values.tobytes()


def test_cell_roundtrip_bit_exact():
    sc = parse_scenario(json.loads(json.dumps(CELL_DOC)))
    sc2 = parse_scenario(scenario_to_doc(sc))
    assert np.array_equal(sc.medium.partition.hull.vertices,
                          sc2.medium.partition.hull.vertices)
    for c1, c2 in zip(sc.medium.partition.cells, sc2.medium.partition.cells):
        assert np.array_equal(c1.vertices, c2.vertices)
    assert sc.medium.lambda_star == sc2.medium.lambda_star
