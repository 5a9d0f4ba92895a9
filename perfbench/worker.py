"""One repetition of a workload, in a fresh interpreter.

Started by run.py; never run by hand.  Setup (imports, inputs, reference
data) is timed from the moment the parent spawned this process.  The CLI
calls run in process through polyscat.harness.cli.main(argv), then the
outputs they wrote are checked.  The result goes to <out>/result.json.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment():
    import platform

    import numpy as np
    import scipy

    from polyscat import _kernels

    def blas(cfg):
        try:
            dep = cfg["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(getattr(np.__config__, "CONFIG", None)),
        "scipy_blas": blas(getattr(scipy.__config__, "CONFIG", None)),
        "kernels_impl": _kernels.IMPL,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    sys.path.insert(0, HERE)
    import polyscat
    import polyscat.harness.cli as cli
    from workloads import WORKLOADS

    src_pkg = os.path.join(os.path.abspath(args.src), "polyscat")
    if os.path.dirname(os.path.abspath(polyscat.__file__)) != src_pkg:
        raise SystemExit(f"polyscat imported from {polyscat.__file__}, not {src_pkg}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = WORKLOADS[args.workload]
    inputs = wl.make(args.seed, args.out)
    result = {"setup_s": time.time() - args.spawned}
    if args.setup_only:
        return _write(args.out, result)

    calls, walls = [], []
    cpu0 = _cpu()
    for argv_ in inputs.argvs:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv_)
        except Exception as exc:  # an operation that raises counts as failed
            rc = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        calls.append(rc)
    cpu = _cpu() - cpu0
    if tracer is not None:
        tracer.restore()

    if args.corrupt:
        for out in inputs.outs:
            wl.corrupt(out)
    try:
        fails, figures = wl.check(inputs, calls)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        fails, figures = [f"unreadable output: {exc!r}"] * len(calls), {}
    fails = [f"exit {rc}" if rc != 0 else f for rc, f in zip(calls, fails)]

    result.update({
        "wall_s": sum(walls),
        "call_walls": walls,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(calls),
        "failures": [f for f in fails if f is not None],
        "figures": figures,
        "env": environment(),
    })
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer)
    return _write(args.out, result)


def _write(out, result):
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
