"""Deterministic CSV and JSON report writers.

Floats are written with repr so identical runs produce byte-identical
files.  Fixed CSV schemas (far-field, probe) carry their tolerances in
'#' comment lines before the header; the accompanying report.json repeats
every tolerance next to the quantity it applies to, and records in
`environment` what the last bits of the numbers depend on: the numpy and
scipy versions, the BLAS each was built with and the BLAS/OpenMP thread
settings.
"""

import csv
import io
import json
import os

import numpy as np
import scipy


def _fmt(x):
    return repr(float(x))


def write_farfield_csv(path, pattern, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append("angle_rad,re,im")
    for a, v in zip(pattern.angles, pattern.values):
        lines.append(f"{_fmt(a)},{_fmt(v.real)},{_fmt(v.imag)}")
    _write(path, lines)


def write_probe_csv(path, result, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append("s,re_eta,im_eta,re_omega,im_omega,residual")
    eta = dict(result.eta_estimates)
    omega = dict(result.omega_estimates)
    svals = sorted(set(eta) | set(omega))
    resid = dict(zip(svals, result.residuals)) if result.residuals else {}
    for s in svals:
        e = eta.get(s, 0j)
        o = omega.get(s, 0j)
        r = resid.get(s, float("nan"))
        lines.append(
            f"{_fmt(s)},{_fmt(e.real)},{_fmt(e.imag)},{_fmt(o.real)},{_fmt(o.imag)},{_fmt(r)}"
        )
    _write(path, lines)


def write_table_csv(path, header, rows, comments=()):
    """A field that holds a comma or a quote is quoted, as RFC 4180 says."""
    table = io.StringIO()
    csv.writer(table, lineterminator="\n").writerows(
        [header, *([_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows)])
    _write(path, [f"# {c}" for c in comments] + [table.getvalue().removesuffix("\n")])


def _environment():
    """numpy and scipy versions, the name and version of the BLAS each was
    built with (from its __config__), and the thread variables (None where
    unset)."""
    def blas(module):
        info = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {})
        return {key: info.get("blas", {}).get(key) for key in ("name", "version")}

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"numpy": blas(np), "scipy": blas(scipy)},
            "threads": {var: os.environ.get(var)
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def write_report_json(path, report):
    """`report` with its `environment` added, as sorted, indented JSON."""
    with open(path, "w") as f:
        json.dump({**report, "environment": _environment()}, f, indent=2, sort_keys=True,
                  default=_json_default)
        f.write("\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


def _write(path, lines):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
