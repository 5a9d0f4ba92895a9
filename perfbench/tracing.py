"""Span tracing of polyscat's layers from outside the program.

The tracer replaces public entry points by wrappers *where the program
looks them up* (a module attribute read at call time, or a class
attribute), records one span per call (name, start, end, parent) in
memory, and restores every original on exit.  Nothing under ``src/``
is edited.  Self time of a span is its duration minus the time covered
by its direct child spans; spans are strictly nested because polyscat
runs single-threaded Python.  Inclusive time is the whole duration.

Counters are updated at the same boundaries.  Every count is a count of
calls, points or matrix entries made by the traced code, so two traced
runs of the same inputs give identical counts.
"""

import collections
import importlib
import math
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []              # (name, start, end, parent index or -1)
        self.counts = collections.Counter()
        self.values = collections.defaultdict(list)
        self._stack = []
        self._patched = []

    # ------------------------------------------------------------ recording

    def _wrap(self, fn, name, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None, span=True, count=None):
        """Replace owner.attr (owner: module path or object) by a traced wrapper.

        With span=False only `count(tracer, args, kwargs)` runs, before the
        call; used for cheap high-frequency entry points such as hankel1.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if span:
            wrapper = self._wrap(fn, name, after)
        else:
            def wrapper(*args, **kwargs):
                count(self, args, kwargs)
                return fn(*args, **kwargs)
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # ------------------------------------------------------------ summaries

    def times(self):
        """name -> (calls, self seconds, inclusive seconds).

        Inclusive time counts only the outermost span of a name, so a span
        nested in one of the same name (a sampler built on samplers) is not
        counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            n, own, incl = out.get(name, (0, 0.0, 0.0))
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            outer = (t1 - t0) if parent < 0 else 0.0
            out[name] = (n + 1, own + (t1 - t0) - child[i], incl + outer)
        return out


# ---------------------------------------------------------------- hooks

def _mesh_unknowns(tr, args, kwargs, mesh):
    curves = getattr(mesh, "curves", (mesh,))
    tr.counts["mesh.unknowns"] += 2 * sum(c.n_nodes for c in curves)


def _block_entries(tr, args, kwargs, out):
    tr.counts["layerops.block_entries"] += out.size


def _hankel_points(tr, args, kwargs):
    tr.counts["layerops.hankel_calls"] += 1
    tr.counts["layerops.hankel_points"] += np.broadcast(*args).size


def _solve_result(tr, args, kwargs, res):
    tr.values["solver.cond"].append(float(res.cond_estimate))
    tr.values["solver.residual"].append(float(res.residual))
    tr.counts["solver.unconverged"] += 0 if res.converged else 1


def _cell_result(tr, args, kwargs, res):
    _solve_result(tr, args, kwargs, res)
    nodes = kwargs.get("nodes_per_edge", args[2] if len(args) > 2 else 32)
    tr.values[f"cellsolver.cond_{nodes}"].append(float(res.cond_estimate))


def _field_points(tr, args, kwargs, out):
    tr.counts["solver.field_at_points"] += np.atleast_2d(args[1]).shape[0]


def _sampler_points(tr, args, kwargs, out):
    tr.counts["probe.sampler_points"] += np.atleast_2d(args[1]).shape[0]


def _refine(tr):
    """Wrap quadrature._refine so every refinement level evaluated is counted."""
    import polyscat.quadrature as q

    orig = q._refine

    def counted(levels, eval_fn, tol):
        def level(lv):
            tr.counts["quadrature.level_evals"] += 1
            return eval_fn(lv)

        val, err, ok = orig(levels, level, tol)
        tr.counts["quadrature.unconverged"] += 0 if ok else 1
        return val, err, ok

    tr._patched.append((q, "_refine", orig))
    q._refine = counted


CGO_FUNCS = ("mu", "omega_w", "u0_eval", "u0_polar", "u0_radial_deriv",
             "sector_integral_exact", "weighted_bound", "tail_bound",
             "tail_bound_sharp", "edge_integral_exact")
KERNEL_FUNCS = ("u0_polar", "sector_quad_sum", "sector_abs_quad_sum",
                "edge_quad_sum", "area_quad_sum")
REPORT_FUNCS = ("write_farfield_csv", "write_probe_csv", "write_table_csv",
                "write_report_json")


def install(tr):
    """Wrap every layer entry point polyscat's CLI reaches, by name."""
    import scipy.linalg

    import polyscat.forward.cellsolver as cellsolver
    import polyscat.forward.solver as solver
    import polyscat.probe as probe

    # forward.mesh
    tr.patch(solver, "build_mesh", "mesh.build", after=_mesh_unknowns)
    tr.patch(cellsolver, "SegmentCurve", "mesh.build", after=_mesh_unknowns)
    # forward.layerops, at each module that calls into it
    for mod in (solver, cellsolver):
        tr.patch(mod, "assemble_block", "layerops.block", after=_block_entries)
        tr.patch(mod, "farfield_row", "layerops.farfield")
    tr.patch("polyscat.forward.layerops", "hankel1", None, span=False,
             count=_hankel_points)
    # forward.solver (lu_factor is read as scipy.linalg.lu_factor by both solvers)
    tr.patch(solver, "assemble_nest", "solver.assemble")
    tr.patch(scipy.linalg, "lu_factor", "solver.lu")
    tr.patch(solver, "solve_assembled", "solver.solve", after=_solve_result)
    tr.patch(solver.NestSolveResult, "field_at", "solver.field_at", after=_field_points)
    tr.patch(cellsolver.CellSolveResult, "field_at", "solver.field_at",
             after=_field_points)
    # forward.cellsolver (solve_scatter imports solve_cell at call time)
    tr.patch(cellsolver, "solve_cell", "cellsolver.solve", after=_cell_result)
    # forward.diskoracle, read by the benchmark's own reference generation
    tr.patch("polyscat.forward", "disk_series_oracle", "diskoracle")
    # probe
    tr.patch(probe, "manufactured_scenario", "probe.scenario")
    tr.patch(probe, "extract_eta_diff", "probe.eta")
    tr.patch(probe, "extract_omega_diff", "probe.omega")
    tr.patch(probe, "identity_residual", "probe.residual")
    tr.patch(probe.FieldSampler, "__call__", "probe.sampler", after=_sampler_points)
    # quadrature, at the probe's lookups
    tr.patch(probe, "sector_area_integral", "quadrature.area")
    tr.patch(probe, "edge_u0_integral", "quadrature.edge")
    tr.patch(probe, "arc_integral", "quadrature.arc")
    _refine(tr)
    # _kernels and cgo closed forms
    for f in KERNEL_FUNCS:
        tr.patch("polyscat._kernels", f, "kernels")
    for f in CGO_FUNCS:
        tr.patch("polyscat.cgo", f, "cgo")
    # harness
    tr.patch("polyscat.harness.cli", "_admissibility", "harness.admissibility")
    for f in REPORT_FUNCS:
        tr.patch("polyscat.harness.reports", f, "harness.io")


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "mesh.build_s": "s", "mesh.unknowns": "count",
    "layerops.block_calls": "count", "layerops.block_s": "s",
    "layerops.block_entries": "count", "layerops.hankel_calls": "count",
    "layerops.hankel_points": "count", "layerops.farfield_s": "s",
    "solver.assemblies": "count", "solver.assemble_s": "s", "solver.lu_s": "s",
    "solver.solve_s": "s", "solver.field_at_s": "s", "solver.field_at_points": "count",
    "solver.cond_max": "1", "solver.residual_max": "1", "solver.unconverged": "count",
    "cellsolver.solve_s": "s", "cellsolver.cond_16": "1", "cellsolver.cond_64": "1",
    "cellsolver.cond_growth": "1",
    "diskoracle.s": "s",
    "probe.scenario_s": "s", "probe.eta_s": "s", "probe.omega_s": "s",
    "probe.residual_calls": "count", "probe.residual_s": "s",
    "probe.sampler_calls": "count", "probe.sampler_points": "count", "probe.sampler_s": "s",
    "probe.eta_err": "1",
    "quadrature.integrals_area": "count", "quadrature.integrals_edge": "count",
    "quadrature.integrals_arc": "count", "quadrature.level_evals": "count",
    "quadrature.useful_ratio": "1", "quadrature.unconverged": "count", "quadrature.s": "s",
    "kernels.calls": "count", "kernels.s": "s", "cgo.calls": "count", "cgo.s": "s",
    "harness.admissibility_s": "s", "harness.io_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}

# metrics derived from other measurements rather than counted at a boundary
COMPUTED = {
    "mesh.unknowns": "2 x nodes of every mesh built, summed",
    "solver.cond_max": "max condition estimate over all solves",
    "solver.residual_max": "max relative residual over all solves",
    "cellsolver.cond_growth": "sqrt(cond_64 / cond_16): growth per mesh doubling",
    "quadrature.useful_ratio": "integrals / level_evals",
    "probe.eta_err": "|eta estimate| from the CLI output; the true difference is 0",
    "trace.overhead_s": "traced CLI wall time minus untraced CLI wall time",
}


def summarize(tr):
    """Per-layer values from one traced run; run.py adds the two metrics that
    need the untraced repetition or the output checks (trace.overhead_s,
    probe.eta_err).

    Layer work (mesh, blocks, assembly, LU, field evaluation, sampler,
    quadrature, kernels, cgo, writers) is self time; stages that only call
    other layers (solve_cell, the oracle, scenario set-up, the eta and
    omega passes, identity_residual, admissibility) are inclusive time.
    """
    st = tr.times()

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def own(*names):
        return sum(st.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    c, v = tr.counts, tr.values
    integrals = sum(calls(f"quadrature.{k}") for k in ("area", "edge", "arc"))
    cond16 = max(v.get("cellsolver.cond_16", [0.0]))
    cond64 = max(v.get("cellsolver.cond_64", [0.0]))
    return {
        "mesh.build_s": own("mesh.build"),
        "mesh.unknowns": c["mesh.unknowns"],
        "layerops.block_calls": calls("layerops.block"),
        "layerops.block_s": own("layerops.block"),
        "layerops.block_entries": c["layerops.block_entries"],
        "layerops.hankel_calls": c["layerops.hankel_calls"],
        "layerops.hankel_points": c["layerops.hankel_points"],
        "layerops.farfield_s": own("layerops.farfield"),
        "solver.assemblies": calls("solver.assemble"),
        "solver.assemble_s": own("solver.assemble"),
        "solver.lu_s": own("solver.lu"),
        "solver.solve_s": own("solver.solve"),
        "solver.field_at_s": own("solver.field_at"),
        "solver.field_at_points": c["solver.field_at_points"],
        "solver.cond_max": max(v.get("solver.cond", [0.0])),
        "solver.residual_max": max(v.get("solver.residual", [0.0])),
        "solver.unconverged": c["solver.unconverged"],
        "cellsolver.solve_s": total("cellsolver.solve"),
        "cellsolver.cond_16": cond16,
        "cellsolver.cond_64": cond64,
        "cellsolver.cond_growth": math.sqrt(cond64 / cond16) if cond16 > 0 else 0.0,
        "diskoracle.s": total("diskoracle"),
        "probe.scenario_s": total("probe.scenario"),
        "probe.eta_s": total("probe.eta"),
        "probe.omega_s": total("probe.omega"),
        "probe.residual_calls": calls("probe.residual"),
        "probe.residual_s": total("probe.residual"),
        "probe.sampler_calls": calls("probe.sampler"),
        "probe.sampler_points": c["probe.sampler_points"],
        "probe.sampler_s": own("probe.sampler"),
        "quadrature.integrals_area": calls("quadrature.area"),
        "quadrature.integrals_edge": calls("quadrature.edge"),
        "quadrature.integrals_arc": calls("quadrature.arc"),
        "quadrature.level_evals": c["quadrature.level_evals"],
        "quadrature.useful_ratio": (integrals / c["quadrature.level_evals"]
                                    if c["quadrature.level_evals"] else 0.0),
        "quadrature.unconverged": c["quadrature.unconverged"],
        "quadrature.s": own("quadrature.area", "quadrature.edge", "quadrature.arc"),
        "kernels.calls": calls("kernels"),
        "kernels.s": own("kernels"),
        "cgo.calls": calls("cgo"),
        "cgo.s": own("cgo"),
        "harness.admissibility_s": total("harness.admissibility"),
        "harness.io_s": own("harness.io"),
        "trace.spans": len(tr.spans),
    }
