import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from polyscat.harness import ConfigError, parse_scenario
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
    assert report["solver"]["factor_dtype"] == "complex64"
    assert report["solver"]["refinement_steps"] <= 3
    assert report["mesh"]["built_nodes_per_edge"] == 12
    # two curves of 4 edges of 12 nodes, two unknowns per node
    assert report["mesh"]["unknowns"] == 192


def test_forward_determinism(tmp_path):
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli_main(["forward", "--config", cfg, "--out", str(out1)])
    cli_main(["forward", "--config", cfg, "--out", str(out2)])
    assert (out1 / "farfield.csv").read_bytes() == (out2 / "farfield.csv").read_bytes()


@pytest.mark.parametrize("doc", [NEST_DOC, PROBE_DOC], ids=["mesh-section", "no-mesh-section"])
def test_mesh_level_gives_the_scenario_of_the_overridden_document(tmp_path, doc):
    """--mesh-level replaces the parsed scenario's mesh section: its mesh,
    raw document and digest are those of the document with that section."""
    from types import SimpleNamespace

    from polyscat.harness.cli import _load

    sc = _load(SimpleNamespace(config=write(tmp_path, "c.json", doc), mesh_level=7))
    ref = parse_scenario({**doc, "mesh": {"nodes_per_edge": 7, "grading": 3.0}})
    assert sc.mesh == ref.mesh
    assert sc.raw == ref.raw
    assert sc.digest() == ref.digest()


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


def test_forward_nearfield_point_on_the_point_source(tmp_path):
    """A near-field grid point on the point source gets NaN, like an
    interface point, and the run still writes its report."""
    from polyscat.forward import solve_scatter

    doc = json.loads(json.dumps(NEST_DOC))
    doc["incident"] = {"kind": "point", "location": [3.0, 1.5]}
    doc["nearfield"] = {"bounds": [-3.0, 3.0, -1.5, 1.5], "nx": 3, "ny": 3}
    out = tmp_path / "fw"
    assert cli_main(["forward", "--config", write(tmp_path, "c.json", doc),
                     "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["solver"]["converged"]
    lines = (out / "nearfield.csv").read_text().splitlines()
    data = np.array([[float(v) for v in ln.split(",")]
                     for ln in [ln for ln in lines if not ln.startswith("#")][1:]])
    at_source = np.all(data[:, :2] == [3.0, 1.5], axis=1)
    assert at_source.sum() == 1 and np.all(np.isnan(data[at_source, 2:]))
    assert not np.isnan(data[~at_source]).any()
    sc = parse_scenario(doc)
    res = solve_scatter(sc.medium, sc.incident, nodes_per_edge=12, grading=3.0)
    got = data[~at_source, 2] + 1j * data[~at_source, 3]
    assert np.allclose(got, res.field_at(data[~at_source, :2]), rtol=1e-12, atol=1e-14)


def test_sweep_command(tmp_path):
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["above"] is True
    assert report["noise_floor"] < report["rows"][0]["diff"] / 10
    # q:2 changes the one assembly call that carries q_2: the inner self group
    assert report["operator_blocks"] == {"base": 3, "assembled": [1]}
    # the mesh rounds the fine level's request of 24 nodes/edge up to 32
    assert report["built_nodes_per_edge"] == {"base": 12, "fine": 32}
    assert report["unknowns"] == {"base": 192, "fine": 512}
    assert "(mesh 12 vs 32 nodes/edge)" in (out / "sweep.csv").read_text()


def test_sweep_refuses_a_vanishing_vertex_field(tmp_path, monkeypatch, capsys):
    from polyscat import probe

    monkeypatch.setattr(probe, "extrapolate_vertex_value", lambda values, sector: 0j)
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert ("refused: total field vanishes at interface 1 vertex 0"
            in capsys.readouterr().err)
    assert not (out / "sweep.csv").exists()


INVALID_PERTURBATIONS = pytest.mark.parametrize("target, magnitudes, violation", [
    # pushes inner vertex (-0.5, -0.5) out to (-1.21, -1.21), outside layer 1
    ("vertex:2:0", "1.0,0.01", "magnitude 1 of vertex:2:0: layer 2 not inside layer 1"),
    # pulls inner vertex 0 onto vertex 2: no polygon is left
    ("vertex:2:0", "0.01,-1.4142135623730951", "magnitude -1.41421 of vertex:2:0: "),
    ("q:2", "0.1,-3", "magnitude -3 of q:2: Re q must be positive"),
], ids=["vertex-outside", "vertex-degenerate", "q-nonpositive"])


@INVALID_PERTURBATIONS
def test_sweep_refuses_an_invalid_perturbed_medium(tmp_path, monkeypatch, capsys, target,
                                                   magnitudes, violation):
    """Every perturbed medium is checked before the base solve: one that is
    not a valid medium is refused at sweep.magnitudes, with the magnitude and
    the violation named, nothing solved and nothing written."""
    import polyscat.harness.cli as cli

    monkeypatch.setattr(cli, "solve_scatter", lambda *a, **kw: pytest.fail("solved"))
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--target", target,
                     "--magnitudes", magnitudes]) == 1
    assert f"config error: sweep.magnitudes: {violation}" in capsys.readouterr().err
    assert not out.exists()


@INVALID_PERTURBATIONS
def test_validate_refuses_the_config_sweep_as_sweep_does(tmp_path, capsys, target,
                                                         magnitudes, violation):
    """`validate` builds the perturbed media of the config's own `sweep`
    section: it refuses a magnitude whose medium `sweep` refuses, with the
    same message, and `sweep` with no flags solves nothing."""
    doc = json.loads(json.dumps(NEST_DOC))
    doc["sweep"] = {"target": target, "magnitudes": [float(m) for m in magnitudes.split(",")]}
    cfg = write(tmp_path, "c.json", doc)
    assert cli_main(["validate", "--config", cfg]) == 1
    refused = capsys.readouterr().err
    assert refused.startswith("invalid: sweep.magnitudes: ")
    assert violation in refused
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == refused.replace("invalid: ", "config error: ", 1)
    assert not out.exists()


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


@pytest.mark.parametrize("bad", ["q:0", "q:3", "q:x", "lambda:3", "vertex:1", "vertex:0:1",
                                 "vertex:1:9", "vertex:1:-1"], ids=lambda v: f"sweep-{v}")
def test_out_of_range_indices_are_config_errors(tmp_path, capsys, bad):
    # NEST_DOC has 2 layers of 4 vertices; nothing may wrap around to layers[-1]
    cfg = write(tmp_path, "c.json", NEST_DOC)
    out = tmp_path / "out"
    assert cli_main(["sweep", "--target", bad, "--config", cfg, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.csv"))


def test_every_report_records_its_environment(tmp_path, monkeypatch):
    """forward, sweep and probe each write the numpy and scipy versions, the
    BLAS each was built with, and the BLAS/OpenMP thread settings."""
    import numpy
    import scipy

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    nest, probe = write(tmp_path, "n.json", NEST_DOC), write(tmp_path, "p.json", PROBE_DOC)
    for argv in (["forward", "--config", nest], ["sweep", "--config", nest],
                 ["probe", "--config", probe, "--s-grid", "50,100"]):
        out = tmp_path / argv[0]
        assert cli_main(argv + ["--out", str(out)]) == 0
        env = json.loads((out / "report.json").read_text())["environment"]
        assert env["numpy"] == numpy.__version__ and env["scipy"] == scipy.__version__
        assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
        assert set(env["blas"]) == {"numpy", "scipy"}
        for blas in env["blas"].values():
            assert set(blas) == {"name", "version"}
        assert env["blas"]["numpy"]["name"] == \
            numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]


@pytest.mark.parametrize("command", ["validate", "forward"])
@pytest.mark.parametrize("where, reason", [
    ("missing.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, command, where, reason):
    """A --config that cannot be read exits 1 with one config error line,
    never a traceback, and writes nothing."""
    path = tmp_path / where
    out = tmp_path / "out"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "forward" else [])
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: --config: cannot read {path}: {reason}\n"
    assert captured.out == "" and not out.exists()


BOWTIE = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]   # self-intersecting


def _nearfield(**edits):
    """Config edit: a valid nearfield grid with `edits` applied."""
    return lambda d: d.update(nearfield={"bounds": [-1.5, 1.5, -1.0, 1.0], "nx": 3, "ny": 3,
                                         **edits})


@pytest.mark.parametrize("command, edit, extra, code, field", [
    ("sweep", None, ["--magnitudes", "abc"], 2, "--magnitudes"),
    ("sweep", lambda d: d["sweep"].update(magnitudes=["x"]), [], 1, "sweep.magnitudes[0]"),
    ("sweep", None, ["--magnitudes", "0.1,0.1"], 2, "--magnitudes"),
    ("sweep", lambda d: d["sweep"].update(magnitudes=[0.1, 0.01, 0.1]), [], 1,
     "sweep.magnitudes[2]"),
    ("probe", None, ["--s-grid", "50,abc"], 2, "--s-grid"),
    ("probe", None, ["--s-grid=0,100"], 2, "--s-grid"),
    ("probe", None, ["--s-grid=-5,100"], 2, "--s-grid"),
    ("probe", None, ["--s-grid", "50,50"], 2, "--s-grid"),
    ("probe", lambda d: d["probe"].pop("omega1"), [], 1, "probe.omega1"),
    ("probe", lambda d: d["probe"]["sector"].update(theta_M=3.5), [], 1, "probe.sector"),
    ("probe", lambda d: d["probe"].update(k=0), [], 1, "probe.k"),
    ("forward", lambda d: d["mesh"].update(nodes_per_edge="abc"), [], 1, "mesh.nodes_per_edge"),
    ("forward", lambda d: d["medium"].update(k=None), [], 1, "medium.k"),
    ("forward", lambda d: d.update(medium=[1.0]), [], 1, "medium"),
    ("forward", lambda d: d.update(incident="plane"), [], 1, "incident"),
    ("forward", lambda d: d.update(mesh=12), [], 1, "mesh"),
    ("probe", lambda d: d.update(probe=["manufactured"]), [], 1, "probe"),
    ("probe", lambda d: d["probe"].update(sector=[0.0, 1.0]), [], 1, "probe.sector"),
    ("forward", _nearfield(bounds=[-1.0, 1.0, 0.0]), [], 1, "nearfield.bounds"),
    ("forward", _nearfield(bounds=[-1.0, 1.0, "y", 1.0]), [], 1, "nearfield.bounds[2]"),
    ("forward", _nearfield(nx=2.5), [], 1, "nearfield.nx"),
    ("forward", _nearfield(ny="3"), [], 1, "nearfield.ny"),
    ("sweep", lambda d: d["sweep"].update(target=2), [], 1, "sweep.target"),
    ("sweep", lambda d: d["sweep"].update(magnitudes="0.1"), [], 1, "sweep.magnitudes"),
    ("sweep", lambda d: d["sweep"].update(target="q:9"), [], 1, "sweep.target"),
    ("probe", lambda d: d["probe"].update(mode="pair"), [], 1, "probe.mode"),
    ("forward", lambda d: d["medium"]["layers"].__setitem__(1, BOWTIE), [], 1,
     "medium.layers[1]"),
    ("forward", lambda d: d.update(medium={**CELL_DOC["medium"], "cells": [BOWTIE]}), [], 1,
     "medium.cells[0]"),
    ("forward", lambda d: d.update(medium={**CELL_DOC["medium"], "hull": BOWTIE}), [], 1,
     "medium.hull"),
    ("forward", lambda d: d["mesh"].update(nodes_per_edge=-5), [], 1, "mesh.nodes_per_edge"),
    ("forward", lambda d: d["mesh"].update(nodes_per_edge=0), [], 1, "mesh.nodes_per_edge"),
    ("forward", None, ["--mesh-level", "0"], 1, "mesh.nodes_per_edge"),
    ("forward", lambda d: d["mesh"].update(nodes_per_edge=2.5), [], 1, "mesh.nodes_per_edge"),
    ("forward", lambda d: d["mesh"].update(nodes_per_edge="12"), [], 1, "mesh.nodes_per_edge"),
    ("forward", lambda d: d["farfield"].update(num_angles=True), [], 1, "farfield.num_angles"),
    ("forward", _nearfield(nx=0), [], 1, "nearfield.nx"),
    ("probe", None, ["--tol", "0"], 2, "--tol"),
    ("probe", None, ["--tol=-1"], 2, "--tol"),
    ("probe", None, ["--tol", "nan"], 2, "--tol"),
    ("cgo-verify", None, ["--tol", "0"], 2, "--tol"),
    ("cgo-verify", None, ["--tol=-1"], 2, "--tol"),
    ("cgo-verify", None, ["--tol", "nan"], 2, "--tol"),
    ("cgo-verify", None, ["--tol", "inf"], 2, "--tol"),
], ids=["magnitudes-flag", "magnitudes-config", "magnitudes-repeated-flag",
        "magnitudes-repeated-config", "s-grid-text", "s-grid-zero",
        "s-grid-negative", "s-grid-repeated", "omega1-missing", "theta_M", "probe-k-zero",
        "nodes_per_edge", "k-null", "medium-object", "incident-object", "mesh-object",
        "probe-object", "sector-object", "bounds-length", "bounds-text", "nx-fraction", "ny-text",
        "target-number", "magnitudes-string", "target-range", "mode-pair",
        "layer-self-intersecting", "cell-self-intersecting", "hull-self-intersecting",
        "nodes_per_edge-negative",
        "nodes_per_edge-zero", "mesh-level-zero", "nodes_per_edge-fraction",
        "nodes_per_edge-text", "num_angles-bool", "nx-zero", "probe-tol-zero",
        "probe-tol-negative", "probe-tol-nan", "cgo-tol-zero", "cgo-tol-negative",
        "cgo-tol-nan", "cgo-tol-inf"])
def test_malformed_input_is_refused_with_its_field(tmp_path, capsys, command, edit, extra,
                                                   code, field):
    """A malformed option is a usage error (exit 2) and a malformed config
    value a config error (exit 1), each naming the field, never a traceback.
    `validate` refuses a malformed nearfield, sweep or probe value too."""
    doc = json.loads(json.dumps(PROBE_DOC if command == "probe" else NEST_DOC))
    if edit is not None:
        edit(doc)
    config = [] if command == "cgo-verify" else ["--config", write(tmp_path, "c.json", doc)]
    argv = [command, *config, "--out", str(tmp_path / "out"), *extra]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"argument {field}: " in capsys.readouterr().err
    else:
        assert cli_main(argv) == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        if re.match(r"(nearfield|sweep|probe)\b", field):
            assert cli_main(["validate", *config]) == 1
            assert f"invalid: {field}: " in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*"))


INVALID_MEDIA = {
    # layer 2 outside layer 1
    "swapped": ({**NEST_DOC["medium"], "layers": NEST_DOC["medium"]["layers"][::-1]},
                "layer 2 not inside layer 1"),
    # layer 2 crosses the edge x = 1 of layer 1
    "crossing": ({**NEST_DOC["medium"], "layers": [NEST_DOC["medium"]["layers"][0],
                                                   [[0.5, -0.5], [1.5, -0.5], [1.5, 0.5],
                                                    [0.5, 0.5]]]},
                 "layer 2 not inside layer 1"),
    "overlapping": ({"kind": "cell", "hull": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
                     "cells": [[[-0.5, -0.5], [0.1, -0.5], [0.1, 0.4], [-0.5, 0.4]],
                               [[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]]],
                     "q": [[2.0, 0.0], [3.0, 0.0]], "k": 1.0},
                    "cells 1,2 overlap"),
}


@pytest.mark.parametrize("medium", sorted(INVALID_MEDIA))
@pytest.mark.parametrize("command", ["forward", "sweep", "passive", "probe"])
def test_solving_commands_refuse_what_validate_rejects(tmp_path, capsys, command, medium):
    """A partition that `validate` rejects is refused by every solving command
    with exit 1, its violation named at its field, and no output."""
    bad, violation = INVALID_MEDIA[medium]
    doc = json.loads(json.dumps(PROBE_DOC if command == "probe" else NEST_DOC))
    if command == "passive":
        doc["incident"] = {"kind": "point", "location": [3.0, 1.5]}
    doc["medium"] = bad
    cfg = write(tmp_path, "c.json", doc)
    assert cli_main(["validate", "--config", cfg]) == 1
    assert f"violation: {violation}" in capsys.readouterr().out
    out = tmp_path / "out"
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "config error: medium: " in capsys.readouterr().err
    assert not out.exists()


def test_passive_refuses_a_perturbed_medium_around_the_source(tmp_path, capsys):
    """A vertex push whose medium encloses the point source is refused at
    sweep.magnitudes before anything is solved or written."""
    doc = json.loads(json.dumps(NEST_DOC))
    doc["incident"] = {"kind": "point", "location": [-1.1, -1.1]}
    cfg = write(tmp_path, "c.json", doc)
    out = tmp_path / "passive"
    assert cli_main(["validate", "--config", cfg]) == 0
    assert cli_main(["passive", "--config", cfg, "--out", str(out), "--target", "vertex:1:0",
                     "--magnitudes", "0.3,0.01"]) == 1
    assert capsys.readouterr().err == (
        "config error: sweep.magnitudes: magnitude 0.3 of vertex:1:0: point source must lie "
        "strictly outside the medium\n")
    assert not out.exists()


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


def test_probe_command_manufactured(tmp_path, monkeypatch, capsys):
    from polyscat import probe, quadrature

    cfg = write(tmp_path, "probe.json", PROBE_DOC)
    out = tmp_path / "probe"
    assert cli_main(["probe", "--config", cfg, "--out", str(out),
                     "--s-grid", "50,100,200"]) == 0
    assert capsys.readouterr().err == ""
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
    assert report["fit_quad_unconverged"] == 0
    assert 0 < report["fit_quad_error_max"] < 5e-13
    # the edge-moment correction closes the fit to rounding
    assert 0 <= report["fit_moment_residual"] < 1e-12
    # the fit's sensitivity to rounding is on record
    for key in ("fit_cond_pointwise", "fit_cond_moments"):
        assert np.isfinite(report[key]) and report[key] >= 1

    # fit quadratures held to their first level stop unconverged: they are
    # named on stderr, and the run exits 2 after writing its outputs
    refine, edge_moments = quadrature._refine, probe._edge_moments

    def one_level(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_refine", lambda levels, fn, tol: refine(levels[:1], fn, tol))
            return edge_moments(*args, **kwargs)

    monkeypatch.setattr(probe, "_edge_moments", one_level)
    forced = tmp_path / "forced"
    assert cli_main(["probe", "--config", cfg, "--out", str(forced),
                     "--s-grid", "50,100,200"]) == 2
    assert (forced / "probe.csv").exists()
    report = json.loads((forced / "report.json").read_text())
    assert report["fit_quad_unconverged"] > 0
    assert (f"{report['fit_quad_unconverged']} scenario-fit edge-moment quadratures did not "
            f"converge, fit_quad_error_max = {report['fit_quad_error_max']:.3g}"
            in capsys.readouterr().err)


def test_probe_command_reports_unconverged_quadrature(tmp_path, capsys):
    # at tol 1e-12 the arc integrals at s = 50 and 100 stop unconverged at
    # 256 nodes; the run exits 2 after writing its outputs
    cfg = write(tmp_path, "probe.json", PROBE_DOC)
    out = tmp_path / "probe"
    assert cli_main(["probe", "--config", cfg, "--out", str(out),
                     "--s-grid", "50,100,200,400,800", "--tol", "1e-12"]) == 2
    assert (out / "probe.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["quad_converged"] == [False, False, True, True, True]
    err = capsys.readouterr().err
    assert "did not converge at s = 50, 100;" in err


def test_probe_builds_each_rule_once_and_u0_once_per_grid_and_s(tmp_path, monkeypatch):
    """A probe run builds each quadrature rule level once, one u0(s .) table
    per (area level, s) and one edge factor per (edge, s, level) of each
    pass, and sums each level once per table of integrands."""
    from polyscat import _kernels, quadrature

    for rule in (quadrature._area_rule, quadrature._radial_rule, quadrature._theta_rule):
        rule.cache_clear()
    calls = dict.fromkeys(["panel_rule", "u0_polar", "edge_u0", "area_quad_sum",
                           "edge_quad_sum"], 0)

    def counted(name, fn):
        def f(*args):
            calls[name] += 1
            return fn(*args)
        return f

    for name in calls:
        module = quadrature if name == "panel_rule" else _kernels
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cfg = write(tmp_path, "probe.json", PROBE_DOC)
    assert cli_main(["probe", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--s-grid", "50,100"]) == 0
    # radial levels 10, 14, 20 (area) and 10, 16 (edge: every edge integral
    # converges at its second level), 10 shared; the three area levels of
    # the one sector
    assert calls["panel_rule"] == 4
    assert quadrature._area_rule.cache_info().misses == 3
    # 2 s x 3 area levels; the fit's and the extraction's 2 edges x 2 s x 2
    # levels each
    assert calls["u0_polar"] == 6
    assert calls["edge_u0"] == 16
    # one sum per table they serve: per s one area table (I2 and the
    # residual's u2 and v integrals) of 3 levels; per edge and s one edge
    # table of 2 levels in the fit (its 26 moments) and one in the
    # extraction (remainder and residual edge term)
    assert calls["area_quad_sum"] == 6
    assert calls["edge_quad_sum"] == 16


def _blocks_per_solve(monkeypatch):
    """The list, filled as the CLI runs, of the assembly calls each of its
    solves makes: one per `assemble_block` (a cell block) and one per
    `assemble_nest_blocks` (a nest's self block with its plain block, or a
    pair of cross blocks)."""
    import polyscat.forward.cellsolver as cellsolver
    import polyscat.forward.solver as solver
    import polyscat.harness.cli as cli

    calls = []
    per_solve = []
    solve_scatter = cli.solve_scatter

    def counted_solve(*args, **kwargs):
        n0 = len(calls)
        res = solve_scatter(*args, **kwargs)
        per_solve.append(len(calls) - n0)
        return res

    for module, name in ((solver, "assemble_block"), (solver, "assemble_nest_blocks"),
                         (cellsolver, "assemble_block")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, fn=fn, **kw: calls.append(a) or fn(*a, **kw))
    monkeypatch.setattr(cli, "solve_scatter", counted_solve)
    return per_solve


def test_cgo_verify_and_negative_control(tmp_path):
    out = tmp_path / "cgo"
    assert cli_main(["cgo-verify", "--out", str(out)]) == 0
    rows = (out / "cgo_verify.csv").read_text().splitlines()
    assert any("sector_integral" in r for r in rows)
    assert cli_main(["cgo-verify", "--out", str(tmp_path / "bad"), "--corrupt"]) == 2


OPTIONS = {
    "validate": {"--config"},
    "forward": {"--config", "--out", "--mesh-level"},
    "cgo-verify": {"--out", "--tol", "--seed", "--corrupt"},
    "sweep": {"--config", "--out", "--mesh-level", "--target", "--magnitudes"},
    "probe": {"--config", "--out", "--mesh-level", "--s-grid", "--tol"},
    "passive": {"--config", "--out", "--mesh-level", "--target", "--magnitudes"},
}


def test_cli_option_sets(tmp_path, capsys):
    """Each subcommand takes exactly the options it reads."""
    for command, options in OPTIONS.items():
        with pytest.raises(SystemExit):
            cli_main([command, "--help"])
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"} \
            == options, command
    cfg = write(tmp_path, "c.json", NEST_DOC)
    for command, option in (("validate", "--tol"), ("validate", "--mesh-level"),
                            ("forward", "--tol"), ("sweep", "--tol"), ("passive", "--tol")):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", cfg, option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    # probe's extraction tolerance is capped: a looser one is refused, not replaced
    with pytest.raises(SystemExit) as exc:
        cli_main(["probe", "--config", cfg, "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "--tol 1e-08 is above the extraction quadrature cap 1e-10" in capsys.readouterr().err


def test_cli_entrypoint_runs():
    # the child imports the polyscat these tests import, installed or not
    import polyscat

    src = os.path.dirname(os.path.dirname(polyscat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "polyscat.harness.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "validate" in proc.stdout


def test_probe_csv_does_not_depend_on_blas_threads(tmp_path):
    """The README's claim: probe.csv is byte-identical under one and two
    BLAS threads."""
    import polyscat

    src = os.path.dirname(os.path.dirname(polyscat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cfg = write(tmp_path, "probe.json", PROBE_DOC)
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "polyscat.harness.cli", "probe",
                               "--config", cfg, "--out", str(out), "--s-grid", "50,100"],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path,
                                   "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / "probe.csv").read_bytes())
    assert csvs[0] == csvs[1]


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
    assert report["solver"]["factor_dtype"] == "complex64"
    assert report["solver"]["refinement_steps"] <= 3
    # 6 hull segments and 1 interior segment of 10 nodes, two unknowns per node
    assert report["mesh"]["unknowns"] == 140


# The nest's store holds 3 entries, one per assembly call: the outer self
# group with its plain block (lambda_1 != 0), the inner self group, and the
# cross pair.
@pytest.mark.parametrize("doc, target, base, new", [
    (NEST_DOC, "lambda:1", 3, 0),
    (NEST_DOC, "q:2", 3, 1),          # the inner self group carries q_2
    (NEST_DOC, "lambda:2", 3, 1),     # the inner self group, now with its plain block
    (NEST_DOC, "vertex:2:0", 3, 2),   # every call with the inner curve as source or target
    (CELL_DOC, "lambda", 3, 0),       # one block per region
    (CELL_DOC, "q:1", 3, 1),          # the block of cell 1, which carries q_1
], ids=["lambda:1", "q:2", "lambda:2", "vertex:2:0", "cell-lambda*", "cell-q:1"])
def test_sweep_assembles_only_the_blocks_a_perturbation_changes(tmp_path, monkeypatch,
                                                                 doc, target, base, new):
    per_solve = _blocks_per_solve(monkeypatch)
    cfg = write(tmp_path, "c.json", doc)
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--target", target,
                     "--magnitudes", "0.1,0.01"]) == 0
    # base, fine (no store), two perturbed
    assert per_solve == [base, base, new, new]
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
    from polyscat.harness.config import sweep_media

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
    (med,) = sweep_media(sc.medium, sc.incident, target, [0.01])
    shared = solve_scatter(med, sc.incident, nodes_per_edge=12, blocks=dict(store))
    fresh = solve_scatter(med, sc.incident, nodes_per_edge=12)
    assert shared.far_field(angles).values.tobytes() == fresh.far_field(angles).values.tobytes()
