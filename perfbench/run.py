"""polyscat benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]

Run from the root of a checkout; the program is imported from ./src.
Each repetition is a fresh interpreter (perfbench/worker.py), so no
in-process cache survives from one repetition to the next, as for a CLI
user.  Set-up is sampled SETUP_SAMPLES times per run (set-up-only
interpreters first, then one sample per repetition) and reported as a
median.  Repetitions then run back to back; another starts only while the
measuring phase is predicted to end within --seconds (at least one runs).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced repetition and prints the per-layer metrics, including the
tracing overhead.  --corrupt is the negative control: every output is
perturbed before it is checked, and every operation must count as failed.
The last line of standard output is the JSON result.  See README.md.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("squares_sweep", "disk_forward", "probe_manufactured", "cell_ladder")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0        # hard ceiling for one run, children included
THREADS = "1"              # BLAS/OpenMP threads, at most nproc


def _child_env(tmp):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, tmp, src, index, deadline, trace=False, setup_only=False):
    """Run one worker; returns its result dict, or None if it did not finish."""
    out = os.path.join(tmp, f"rep{index}")
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", out, "--src", src]
    cmd += ["--trace"] * trace + ["--corrupt"] * args.corrupt
    cmd += ["--setup-only"] * setup_only
    with open(os.path.join(out, "log.txt"), "w") as log:
        spawned = time.time()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=log,
                                  stderr=subprocess.STDOUT, env=_child_env(tmp),
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None
    path = os.path.join(out, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        with open(os.path.join(out, "log.txt")) as f:
            sys.stderr.write(f.read()[-2000:])
        return None
    with open(path) as f:
        return json.load(f)


def _median(results, key):
    return statistics.median(r[key] for r in results)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: perturb every output before checking")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "polyscat", "harness", "cli.py")):
        print(f"polyscat sources not found under {src}; run from a checkout root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    index = itertools.count()
    reps, setups, lost = [], [], 0
    try:
        # set-up samples first: each repetition adds one more
        while not args.trace and len(setups) < SETUP_SAMPLES - 1:
            res = _spawn(args, tmp, src, next(index), deadline, setup_only=True)
            if res is None:
                lost += 1
                break
            setups.append(res["setup_s"])
        # trace 1: one untraced repetition, then one traced one
        plan = [False, True] if args.trace else [False]
        start, longest = time.monotonic(), 0.0
        while not lost and (plan or (not args.trace and
                                     time.monotonic() - start + longest <= args.seconds)):
            trace = plan.pop(0) if plan else False
            t0 = time.monotonic()
            res = _spawn(args, tmp, src, next(index), deadline, trace=trace)
            longest = max(longest, time.monotonic() - t0)
            if res is None:
                lost += 1
                break
            res["traced"] = trace
            reps.append(res)
            if not trace:
                setups.append(res["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass
    plain = [r for r in reps if not r["traced"]]
    if not plain or (args.trace and len(reps) < 2):
        print("a repetition did not finish; no result", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps) + lost
    failed = sum(len(r["failures"]) for r in reps) + lost
    print("env: " + json.dumps(reps[0]["env"], sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} repetitions={len(plain)} "
          f"setup_samples={len(setups)} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.3g}")
    for i, r in enumerate(reps):
        print(f"rep {i}: traced={r['traced']} wall_s={r['wall_s']:.3f} "
              f"calls={[round(w, 3) for w in r['call_walls']]} cpu_s={r['cpu_s']:.3f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} figures={r['figures']} "
              f"failures={r['failures']}")

    if args.trace:
        traced = next(r for r in reps if r["traced"])
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain[0]["wall_s"]
        layers["probe.eta_err"] = traced["figures"].get("eta_err", 0.0)
        sys.path.insert(0, HERE)
        from tracing import COMPUTED, LAYER_METRICS

        for name, how in COMPUTED.items():
            print(f"computed, not counted: {name} = {how}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": {"value": _median(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": _median(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"},
            "accuracy_err": {"value": statistics.median(
                r["figures"].get("accuracy_err", 0.0) for r in plain), "unit": "rel"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
