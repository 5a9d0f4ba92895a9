"""The four workloads: inputs generated from a seed, CLI calls, output checks.

The seed moves only inputs that leave the amount of work unchanged: the
plane-wave direction (an angle in [0, 0.2] rad) on the forward workloads,
and omega1 in [2.45, 2.55] and eta = eta1 = eta2 in [0.25, 0.35] on the
probe workload.  Mesh sizes, angle counts and the s grid are fixed.

Each workload gives
  make(seed, workdir) -> Inputs   scenario files, reference data, CLI argv
  check(inputs, calls) -> (failures per call, accuracy figures)
and `corrupt(out_dir)`, the negative control: it perturbs one value in
the output that `check` reads, the way `polyscat cgo-verify --corrupt`
perturbs one constant, and the check must then count the call as failed.
Checks read the files the CLI wrote, never in-memory results.
"""

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field

NEST_Q = [[2.0, 0.0], [3.0, 0.0]]
NEST_LAMBDA = [[0.0, 0.5], [0.0, 0.0]]
FARFIELD_ANGLES = 256
S_GRID = (50.0, 100.0, 200.0, 400.0, 800.0)


@dataclass
class Inputs:
    argvs: list                        # one CLI argv per operation
    outs: list                         # output directory of each operation
    ref: dict = field(default_factory=dict)


def _square(a):
    return [[-a, -a], [a, -a], [a, a], [-a, a]]


def _ngon(r, m):
    return [[r * math.cos(2 * math.pi * j / m), r * math.sin(2 * math.pi * j / m)]
            for j in range(m)]


def _direction(seed):
    theta = 0.2 * random.Random(seed).random()
    return [math.cos(theta), math.sin(theta)]


def _write_config(workdir, doc):
    path = os.path.join(workdir, "scenario.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def _plane(direction):
    return {"kind": "plane", "direction": direction, "amplitude": [1.0, 0.0]}


# ---------------------------------------------------------------- output readers

def _csv_rows(path):
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def read_farfield(path):
    rows = _csv_rows(path)
    return [float(r[0]) for r in rows], [complex(float(r[1]), float(r[2])) for r in rows]


def rel_l2(values, reference):
    num = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(values, reference)))
    return num / math.sqrt(sum(abs(b) ** 2 for b in reference))


def _report(out):
    with open(os.path.join(out, "report.json")) as f:
        return json.load(f)


def _scale_csv_value(path, row, col, scale):
    """Negative control: scale one value of a CSV (data row index, column)."""
    with open(path) as f:
        lines = f.read().splitlines()
    data = [j for j, ln in enumerate(lines) if not ln.startswith("#")][1:]
    i = data[row]
    cells = lines[i].split(",")
    cells[col] = repr(float(cells[col]) * scale)
    lines[i] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- squares_sweep

class SquaresSweep:
    name = "squares_sweep"

    def make(self, seed, workdir):
        cfg = _write_config(workdir, {
            "schema_version": 1,
            "medium": {"kind": "nest", "layers": [_square(1.0), _square(0.5)],
                       "q": NEST_Q, "lambda": NEST_LAMBDA, "k": 1.0},
            "incident": _plane(_direction(seed)),
            "mesh": {"nodes_per_edge": 12, "grading": 3.0},
            "farfield": {"num_angles": FARFIELD_ANGLES},
            "sweep": {"target": "lambda:1", "magnitudes": [0.1, 0.01, 0.001]},
        })
        out = os.path.join(workdir, "out")
        return Inputs([["sweep", "--config", cfg, "--out", out]], [out])

    def check(self, inputs, calls):
        """Exit 0, a positive noise floor, every magnitude above 10x the floor."""
        (out,) = inputs.outs
        floor = float(_report(out)["noise_floor"])
        diffs = [float(r[1]) for r in _csv_rows(os.path.join(out, "sweep.csv"))]
        ok = calls[0] == 0 and floor > 0 and len(diffs) == 3 and all(
            d > 10 * floor for d in diffs)
        return [None if ok else "discrepancy not above 10x noise floor"], {
            "accuracy_err": floor}

    def corrupt(self, out):
        _scale_csv_value(os.path.join(out, "sweep.csv"), 0, 1, 0.0)


# ---------------------------------------------------------------- disk_forward

class DiskForward:
    name = "disk_forward"

    def make(self, seed, workdir):
        import numpy as np

        import polyscat.forward

        direction = _direction(seed)
        cfg = _write_config(workdir, {
            "schema_version": 1,
            "medium": {"kind": "nest", "layers": [_ngon(1.0, 32), _ngon(0.5, 32)],
                       "q": NEST_Q, "lambda": NEST_LAMBDA, "k": 1.0},
            "incident": _plane(direction),
            "mesh": {"nodes_per_edge": 8, "grading": 3.0},
            "farfield": {"num_angles": FARFIELD_ANGLES},
        })
        angles = np.arange(FARFIELD_ANGLES) * (2 * np.pi / FARFIELD_ANGLES)
        # looked up at call time so a traced run can time the oracle
        oracle = polyscat.forward.disk_series_oracle(
            [1.0, 0.5], [2.0, 3.0], [0.5j, 0.0], 1.0, direction, angles=angles)
        out = os.path.join(workdir, "out")
        return Inputs([["forward", "--config", cfg, "--out", out]], [out],
                      {"angles": list(angles), "oracle": list(oracle.values)})

    def check(self, inputs, calls):
        """Criterion 4: relative L2 distance to the disk series oracle < 1e-2."""
        (out,) = inputs.outs
        angles, values = read_farfield(os.path.join(out, "farfield.csv"))
        err = rel_l2(values, inputs.ref["oracle"])
        ok = (calls[0] == 0 and _report(out)["solver"]["converged"]
              and len(angles) == FARFIELD_ANGLES
              and max(abs(a - b) for a, b in zip(angles, inputs.ref["angles"])) < 1e-12
              and err < 1e-2)
        return [None if ok else f"oracle distance {err:.3e} (need < 1e-2)"], {
            "accuracy_err": err}

    def corrupt(self, out):
        _scale_csv_value(os.path.join(out, "farfield.csv"), 0, 1, 2.0)


# ---------------------------------------------------------------- probe_manufactured

class ProbeManufactured:
    name = "probe_manufactured"
    OMEGA2 = 2.0
    K = 1.0
    THETA_M, THETA_P, H = 0.0, math.pi / 2, 1.0   # quarter sector

    def make(self, seed, workdir):
        rng = random.Random(seed)
        omega1 = 2.45 + 0.1 * rng.random()
        eta = 0.25 + 0.1 * rng.random()
        cfg = _write_config(workdir, {
            "schema_version": 1,
            "medium": {"kind": "nest", "layers": [_square(1.0)], "q": [[2.0, 0.0]],
                       "lambda": [[0.0, 0.0]], "k": 1.0},
            "incident": {"kind": "none"},
            "probe": {"mode": "manufactured",
                      "sector": {"theta_m": self.THETA_M, "theta_M": self.THETA_P,
                                 "h": self.H},
                      "k": [self.K, 0.0], "omega1": [omega1, 0.0],
                      "omega2": [self.OMEGA2, 0.0], "eta1": [eta, 0.0],
                      "eta2": [eta, 0.0]},
        })
        out = os.path.join(workdir, "out")
        argv = ["probe", "--config", cfg, "--out", out,
                "--s-grid", ",".join(f"{s:g}" for s in S_GRID)]
        return Inputs([argv], [out], {"omega_diff": omega1 - self.OMEGA2,
                                      "eta_coupling_800": self._eta_coupling(800.0)})

    def _eta_coupling(self, s):
        """d(omega estimate)/d(eta input) at s, for the manufactured u2.

        The CLI chains its eta estimate into the omega extraction:
            omega_hat(s) = -(N(s) + eta_hat D(s)) / L(s),
        with L = k^2 u1(0) S(s), S(s) = 6i (e^{-2i thM} - e^{-2i thm}) / s^2 the
        full-sector integral of u0(s x), and D(s) = sum over both edges of
        int_0^h u2(r, theta) exp(-sqrt(s r) e^{i theta/2}) dr.  Criterion 8
        reads the omega estimate with the true eta difference (0 here), i.e.
        omega_hat(s) + eta_hat D(s) / L(s).  D is integrated here with scipy
        from the Bessel series that defines u2, independently of polyscat's
        quadrature; u1(0) = u2(0) by construction of the scenario.
        """
        from scipy.integrate import quad
        from scipy.special import jv

        from polyscat.probe import DEFAULT_U2_COS, DEFAULT_U2_SIN

        kap2 = self.K * math.sqrt(self.OMEGA2)
        a = list(DEFAULT_U2_COS)
        b = list(DEFAULT_U2_SIN) + [0.0] * (len(a) - len(DEFAULT_U2_SIN))

        def u2(r, th):
            return sum(jv(n, kap2 * r) * (a[n] * math.cos(n * th) + b[n] * math.sin(n * th))
                       for n in range(len(a)))

        den = 0j
        for th in (self.THETA_M, self.THETA_P):
            m = cmath.exp(0.5j * th)

            def part(fn):
                return quad(lambda r: fn(u2(r, th) * cmath.exp(-math.sqrt(s * r) * m)),
                            0.0, self.H, limit=200, epsabs=1e-14)[0]

            den += complex(part(lambda z: z.real), part(lambda z: z.imag))
        sector = 6j * (cmath.exp(-2j * self.THETA_P) - cmath.exp(-2j * self.THETA_M)) / s**2
        lead = self.K**2 * a[0] * sector
        return den / lead

    def check(self, inputs, calls):
        """Criterion 7's zero-difference decay of the eta estimates (log-log
        slope -1 +/- 0.1) and criterion 8: omega estimate at s=800, with the
        true eta difference, within 2% of omega1 - omega2."""
        (out,) = inputs.outs
        rows = _csv_rows(os.path.join(out, "probe.csv"))
        s = [float(r[0]) for r in rows]
        eta = [complex(float(r[1]), float(r[2])) for r in rows]
        omega = dict(zip(s, (complex(float(r[3]), float(r[4])) for r in rows)))
        rep = _report(out)
        eta_x = complex(*rep["eta_extrapolated"])
        omega_x = complex(*rep["omega_extrapolated"])
        true = inputs.ref["omega_diff"]
        slope = _loglog_slope(s, [abs(e) for e in eta])
        om800 = omega[800.0] + eta_x * inputs.ref["eta_coupling_800"]
        err800 = abs(om800 - true) / abs(true)
        ok = (calls[0] == 0 and tuple(s) == S_GRID and -1.1 <= slope <= -0.9
              and err800 < 0.02)
        fail = None if ok else f"eta decay slope {slope:.3f}, omega err at 800 {err800:.3e}"
        return [fail], {
            "accuracy_err": abs(omega_x - true) / abs(true),
            "eta_err": abs(eta_x),
            "omega_err_800": err800,
            "omega_err_800_chained": abs(omega[800.0] - true) / abs(true),
        }

    def corrupt(self, out):
        # omega estimate (real part) at s = 800, the last row
        _scale_csv_value(os.path.join(out, "probe.csv"), -1, 3, 1.05)


def _loglog_slope(x, y):
    lx = [math.log(v) for v in x]
    ly = [math.log(v) for v in y]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


# ---------------------------------------------------------------- cell_ladder

class CellLadder:
    name = "cell_ladder"
    LEVELS = (16, 32, 64)

    def make(self, seed, workdir):
        h = 0.5
        cfg = _write_config(workdir, {
            "schema_version": 1,
            "medium": {"kind": "cell", "hull": _square(h),
                       "cells": [[[-h, -h], [0.0, -h], [0.0, h], [-h, h]],
                                 [[0.0, -h], [h, -h], [h, h], [0.0, h]]],
                       "q": NEST_Q, "lambda_star": [0.0, 0.5], "k": 1.0},
            "incident": _plane(_direction(seed)),
            "mesh": {"nodes_per_edge": self.LEVELS[0], "grading": 3.0},
            "farfield": {"num_angles": FARFIELD_ANGLES},
        })
        outs = [os.path.join(workdir, f"out{n}") for n in self.LEVELS]
        argvs = [["forward", "--config", cfg, "--out", o, "--mesh-level", str(n)]
                 for n, o in zip(self.LEVELS, outs)]
        return Inputs(argvs, outs)

    def check(self, inputs, calls):
        """Every level exits 0 and reports a converged solve."""
        fails = []
        for rc, out in zip(calls, inputs.outs):
            ok = rc == 0 and _report(out)["solver"]["converged"]
            fails.append(None if ok else "solve not converged")
        _, ff32 = read_farfield(os.path.join(inputs.outs[1], "farfield.csv"))
        _, ff64 = read_farfield(os.path.join(inputs.outs[2], "farfield.csv"))
        return fails, {"accuracy_err": rel_l2(ff32, ff64)}

    def corrupt(self, out):
        path = os.path.join(out, "report.json")
        with open(path) as f:
            rep = json.load(f)
        rep["solver"]["converged"] = False
        with open(path, "w") as f:
            json.dump(rep, f)


WORKLOADS = {w.name: w for w in (SquaresSweep(), DiskForward(), ProbeManufactured(),
                                 CellLadder())}
