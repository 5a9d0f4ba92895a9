"""Command-line front end wiring the solver, CGO identities, and corner
probe into config-driven experiments.

Subcommands: validate | forward | cgo-verify | sweep | probe | passive.
Exit codes: 0 pass, 1 validation or refusal, 2 numerical failure.
"""

import argparse
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .. import cgo, probe as probe_mod
from ..forward import farfield_diff, solve_scatter, uniform_directions
from ..forward.solver import TAU_SOLVE
from ..geometry import corner_sectors, locate, max_sector_radius
from ..medium import NestMedium
from . import reports
from .config import (ConfigError, Scenario, check_medium, load_scenario, parse_mesh,
                     require_solvable, sweep_media)

EXIT_OK, EXIT_REFUSED, EXIT_NUMERICAL = 0, 1, 2
PROBE_TOL_CAP = 1e-10   # the loosest extraction quadrature tolerance `probe` takes


def _numbers(grid):
    """argparse type: a comma-separated list of distinct finite floats, for a
    `grid` each > 0."""
    def parse(text):
        try:
            values = [float(v) for v in text.split(",")]
        except ValueError:
            values = []
        if (not values or not all(math.isfinite(v) and (v > 0 or not grid) for v in values)
                or len(set(values)) < len(values)):
            need = "distinct positive" if grid else "distinct finite"
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {need} numbers, got {text!r}")
        return values

    return parse


def _tolerance(text):
    """argparse type: a quadrature tolerance, a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def main(argv=None):
    p = argparse.ArgumentParser(prog="polyscat",
                                description="conductive polygonal scattering toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="scenario JSON path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--mesh-level", type=int, default=None,
                        help="override nodes per edge")

    sp = sub.add_parser("validate", help="validate a scenario configuration")
    sp.add_argument("--config", required=True, help="scenario JSON path")
    common(sub.add_parser("forward", help="solve and write the far-field pattern"))
    sp = sub.add_parser("cgo-verify", help="verify test-function identities and bounds")
    sp.add_argument("--out", default="out")
    sp.add_argument("--tol", type=_tolerance, default=1e-10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--corrupt", action="store_true",
                    help="negative control: perturb a constant and expect detection")
    sp = sub.add_parser("sweep", help="far-field discrepancy under parameter perturbations")
    common(sp)
    sp.add_argument("--target", default=None, help="q:L | lambda:L | vertex:L:I")
    sp.add_argument("--magnitudes", type=_numbers(False), default=None,
                    help="comma-separated magnitudes")
    sp = sub.add_parser("probe", help="corner extraction of parameter differences")
    common(sp)
    sp.add_argument("--s-grid", type=_numbers(True), default="50,100,200,400,800")
    sp.add_argument("--tol", type=_tolerance, default=PROBE_TOL_CAP)
    sp = sub.add_parser("passive", help="uniqueness sweep with point-source excitation")
    common(sp)
    sp.add_argument("--target", default=None)
    sp.add_argument("--magnitudes", type=_numbers(False), default=None)

    args = p.parse_args(argv)
    if args.command == "probe" and not args.tol <= PROBE_TOL_CAP:
        p.error(f"--tol {args.tol!r} is above the extraction quadrature cap {PROBE_TOL_CAP!r}")
    handler = {
        "validate": cmd_validate,
        "forward": cmd_forward,
        "cgo-verify": cmd_cgo_verify,
        "sweep": cmd_sweep,
        "probe": cmd_probe,
        "passive": cmd_passive,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_REFUSED


def _load(args) -> Scenario:
    """The scenario of a solving command, refused (ConfigError) where
    `validate` rejects it."""
    sc = load_scenario(args.config)
    if args.mesh_level is not None:
        # the scenario of the document with this mesh section
        node = {"nodes_per_edge": args.mesh_level, "grading": sc.mesh.grading}
        sc = replace(sc, mesh=parse_mesh(node), raw={**sc.raw, "mesh": node})
    require_solvable(sc.medium, sc.incident)
    return sc


def cmd_validate(args):
    try:
        sc = load_scenario(args.config)
    except ConfigError as exc:
        if exc.path == "--config":
            raise   # no scenario to judge: a config error, as for every command
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    problems, info = check_medium(sc.medium, sc.incident)
    for _, message in problems:
        print(f"violation: {message}")
    for note in info:
        print(f"info: {note}")
    if problems:
        return EXIT_REFUSED
    if sc.sweep_target is not None:
        # the media the config's own sweep would solve, refused as `sweep` refuses them
        try:
            sweep_media(sc.medium, sc.incident, sc.sweep_target, sc.sweep_magnitudes)
        except ConfigError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return EXIT_REFUSED
    print("ok")
    return EXIT_OK


def _solve(sc: Scenario, nodes=None, blocks=None):
    nodes = nodes or sc.mesh.nodes_per_edge
    return solve_scatter(sc.medium, sc.incident, nodes_per_edge=nodes,
                         grading=sc.mesh.grading, blocks=blocks)


def _built_nodes(result):
    """Nodes per edge the solve's meshes were built with (every curve of a
    solve has the same count)."""
    return result.layers[0][0][0].nodes_per_edge


def _unknowns(result):
    """N, the size of the solve's system: two per node of each distinct curve
    of its layers (a curve bounds two regions, so it is listed twice)."""
    curves = {id(c): c for layer in result.layers for c, _, _ in layer}
    return 2 * sum(c.n_nodes for c in curves.values())


def cmd_forward(args):
    sc = _load(args)
    pts = sc.nearfield
    t0 = time.perf_counter()
    result = _solve(sc)
    angles = uniform_directions(sc.num_angles)
    ff = result.far_field(angles)
    out = args.out
    reports.write_farfield_csv(
        f"{out}/farfield.csv", ff,
        comments=[f"scenario={sc.digest()}",
                  f"solver_residual={result.residual!r} tol={TAU_SOLVE!r}",
                  f"condition_estimate={result.cond_estimate!r}"])
    if pts is not None:
        # interface points and a point source's own location get NaN; all
        # others go through one field evaluation
        off = np.array([lb.kind != "interface" for lb in locate(sc.medium.partition, pts)])
        if sc.incident.kind == "point":
            off &= (pts != sc.incident.location).any(axis=1)
        vals = np.full(len(pts), complex(np.nan, np.nan))
        if off.any():
            vals[off] = result.field_at(pts[off])
        rows = [(float(x), float(y), float(v.real), float(v.imag))
                for (x, y), v in zip(pts, vals)]
        reports.write_table_csv(f"{out}/nearfield.csv", ["x", "y", "re", "im"], rows,
                                comments=[f"scenario={sc.digest()}"])
    reports.write_report_json(f"{out}/report.json", {
        "scenario": sc.digest(),
        "command": "forward",
        "solver": {"residual": result.residual, "cond_estimate": result.cond_estimate,
                   "converged": bool(result.converged), "tau_solve": TAU_SOLVE,
                   "factor_dtype": result.factor_dtype,
                   "refinement_steps": result.refinement_steps},
        "mesh": {"nodes_per_edge": sc.mesh.nodes_per_edge, "grading": sc.mesh.grading,
                 "built_nodes_per_edge": _built_nodes(result),
                 "unknowns": _unknowns(result)},
        "wall_clock_s": time.perf_counter() - t0,
    })
    if not result.converged:
        print("solver did not converge; diagnostics written", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"far field written to {out}/farfield.csv")
    return EXIT_OK


def cmd_cgo_verify(args):
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    rows = []
    ok = True
    sectors = [cgo.SectorSpec(0, np.pi / 2), cgo.SectorSpec(-np.pi / 4, np.pi / 4),
               cgo.SectorSpec(-np.pi / 3, np.pi / 6)]
    corrupt = 1.0 + (1e-6 if args.corrupt else 0.0)

    for sec in sectors:
        for s in (1.0, 10.0, 100.0):
            exact = cgo.sector_integral_exact(sec, s) * corrupt
            quad = cgo.sector_integral_quad(sec, s, tol=args.tol * abs(exact))
            rel = abs(quad.value - exact) / abs(exact)
            good = rel < 1e-8 and quad.converged
            ok &= good
            rows.append(("sector_integral", f"({sec.theta_m:.4f},{sec.theta_M:.4f});s={s}",
                         abs(quad.value), abs(exact), rel, "pass" if good else "FAIL"))

    for sec in sectors:
        for alpha in (0.25, 0.5, 0.75):
            for s in (1.0, 10.0, 100.0):
                lhs = cgo.weighted_lhs_quad(sec, alpha, s, tol=args.tol).value
                rhs = cgo.weighted_bound(sec, alpha, s) * corrupt
                good = lhs <= rhs
                ok &= good
                rows.append(("weighted_bound", f"alpha={alpha};s={s}", lhs, rhs,
                             rhs - lhs, "pass" if good else "FAIL"))

    # published tail bound, checked in its large-argument validity regime
    # (delta_W sqrt(h s) >= 15); the sharp variant is checked for small
    # arguments where the published prefactor provably fails.
    for sec in sectors:
        for s in (1.0, 10.0, 100.0):
            h = (15.5 / sec.delta_w) ** 2 / s
            lhs = cgo.tail_lhs_quad(sec, s, h, tol=args.tol).value
            rhs = cgo.tail_bound(sec, s, h) * corrupt
            good = lhs <= rhs
            ok &= good
            rows.append(("tail_bound[large-arg]", f"s={s};h={h:.3g}", lhs, rhs,
                         rhs - lhs, "pass" if good else "FAIL"))
            for hsmall in (0.5, 2.0):
                lhs = cgo.tail_lhs_quad(sec, s, hsmall, tol=args.tol).value
                rhs = cgo.tail_bound_sharp(sec, s, hsmall) * corrupt
                good = lhs <= rhs
                ok &= good
                rows.append(("tail_bound_sharp", f"s={s};h={hsmall}", lhs, rhs,
                             rhs - lhs, "pass" if good else "FAIL"))

    from scipy.integrate import quad as squad

    for _ in range(27):
        theta = rng.uniform(-np.pi + 0.2, np.pi - 0.2)
        s = 10 ** rng.uniform(0, 3)
        h = 10 ** rng.uniform(-1, 0.5)
        exact = cgo.edge_integral_exact(theta, s, h) * corrupt
        mu = cgo.mu(theta)
        re, _ = squad(lambda r: np.exp(-np.sqrt(s * r) * mu).real, 0, h,
                      epsabs=1e-13, limit=200)
        im, _ = squad(lambda r: np.exp(-np.sqrt(s * r) * mu).imag, 0, h,
                      epsabs=1e-13, limit=200)
        err = abs(exact - complex(re, im))
        good = err < 1e-10
        ok &= good
        rows.append(("edge_integral", f"theta={theta:.4f};s={s:.3g};h={h:.3g}",
                     abs(complex(re, im)), abs(exact), err, "pass" if good else "FAIL"))

    reports.write_table_csv(f"{args.out}/cgo_verify.csv",
                            ["identity", "params", "lhs", "rhs_or_bound", "margin", "status"],
                            rows, comments=[f"tol={args.tol!r}", f"seed={args.seed}"])
    n_fail = sum(1 for r in rows if r[-1] == "FAIL")
    print(f"cgo-verify: {len(rows) - n_fail}/{len(rows)} identities pass "
          f"({time.perf_counter() - t0:.1f}s)")
    if n_fail:
        for r in rows:
            if r[-1] == "FAIL":
                print(f"  FAIL {r[0]} {r[1]}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _admissibility(sc: Scenario, result):
    """Vertex field values by midline extrapolation, against the admissibility
    tau, from one field evaluation at the tau circle and every midline."""
    m = sc.medium
    hull = m.partition.hull
    diam = hull.bbox_diag()
    polys = list(m.partition.layers) if isinstance(m, NestMedium) else [hull]
    sectors = []
    for li, poly in enumerate(polys, start=1):
        h = min(0.9 * max_sector_radius(poly), 0.1 * diam)
        sectors += [(li, vi, sec) for vi, sec in enumerate(corner_sectors(poly, h))]
    circle = probe_mod.admissibility_points(hull)
    vals = result.field_at(np.vstack(
        [circle, *(probe_mod.midline_points(sec) for _, _, sec in sectors)]))
    tau = probe_mod.admissibility_tau(vals[:len(circle)])
    entries = []
    for (li, vi, sec), mid in zip(sectors, np.split(vals[len(circle):], len(sectors))):
        val = probe_mod.extrapolate_vertex_value(mid, sec)
        entries.append({"interface": li, "vertex": vi, "value": val,
                        "abs": abs(val), "admissible": bool(abs(val) > tau)})
    return entries, tau


def _unconverged(which, nodes, result):
    print(f"{which} solve at {nodes} nodes/edge did not converge (residual "
          f"{result.residual:.3g}, condition estimate {result.cond_estimate:.3g}); "
          "no discrepancies reported", file=sys.stderr)
    return EXIT_NUMERICAL


def _run_sweep(args, sc: Scenario):
    t0 = time.perf_counter()
    target = args.target or sc.sweep_target
    if target is None:
        raise ConfigError("sweep.target", "missing (config sweep.target or --target)")
    mags = sc.sweep_magnitudes if args.magnitudes is None else args.magnitudes
    # every perturbed medium is checked before anything is solved or written,
    # a point source against its hull too
    media = sweep_media(sc.medium, sc.incident, target, mags)
    n = sc.mesh.nodes_per_edge

    # the base solve fills the block store; each perturbed solve reads it
    # through a copy, so only the base blocks stay alive between solves
    store = {}
    base = _solve(sc, blocks=store)
    n_base = len(store)   # operator blocks; the far-field rows join the store below
    if not base.converged:
        return _unconverged("base", n, base)
    adm, tau = _admissibility(sc, base)
    bad = [e for e in adm if not e["admissible"]]
    if bad:
        v = bad[0]
        print(f"refused: total field vanishes at interface {v['interface']} vertex "
              f"{v['vertex']} (|u|={v['abs']:.3g} <= {tau:.3g}); corner-based "
              "uniqueness needs a nonzero field at every probed vertex", file=sys.stderr)
        return EXIT_REFUSED

    base_fine = _solve(sc, nodes=2 * n)
    if not base_fine.converged:
        return _unconverged("fine", 2 * n, base_fine)
    built = {"base": _built_nodes(base), "fine": _built_nodes(base_fine)}
    unknowns = {"base": _unknowns(base), "fine": _unknowns(base_fine)}
    angles = uniform_directions(sc.num_angles)
    ff_base = base.far_field(angles)
    floor = farfield_diff(ff_base, base_fine.far_field(angles))

    rows = []
    assembled = []
    for mag, med in zip(mags, media):
        blocks = dict(store)
        res = solve_scatter(med, sc.incident, nodes_per_edge=n, grading=sc.mesh.grading,
                            blocks=blocks)
        assembled.append(len(blocks) - len(store))
        if not res.converged:
            return _unconverged(f"perturbed ({target} magnitude {mag:g})", n, res)
        d = farfield_diff(ff_base, res.far_field(angles))
        rows.append((float(mag), d, d > 10 * floor))
    by_mag = sorted(rows, key=lambda r: r[0])
    mono_ok = all(
        d2 >= d1 or d2 <= 10 * floor
        for (_, d1, _), (_, d2, _) in zip(by_mag, by_mag[1:])
    )
    reports.write_table_csv(
        f"{args.out}/sweep.csv", ["magnitude", "farfield_diff", "above_10x_floor"],
        [(m, d, str(f)) for m, d, f in rows],
        comments=[f"scenario={sc.digest()}", f"target={target}",
                  f"noise_floor={floor!r} (mesh {built['base']} vs {built['fine']} nodes/edge)"])
    reports.write_report_json(f"{args.out}/report.json", {
        "scenario": sc.digest(), "command": "sweep", "target": target,
        "noise_floor": floor, "rows": [{"magnitude": m, "diff": d, "above": f}
                                       for m, d, f in rows],
        "monotone_nonincreasing_flagged": not mono_ok,
        "admissibility": {"tau": tau, "entries": adm},
        "operator_blocks": {"base": n_base, "assembled": assembled},
        "built_nodes_per_edge": built,
        "unknowns": unknowns,
        "wall_clock_s": time.perf_counter() - t0,
    })
    print(f"noise floor {floor:.3e}; discrepancies "
          + ", ".join(f"{m:g}->{d:.3e}" for m, d, _ in rows))
    if not mono_ok:
        print("note: discrepancies not monotone in magnitude (flagged, not failed)")
    return EXIT_OK


def cmd_sweep(args):
    return _run_sweep(args, _load(args))


def cmd_passive(args):
    sc = _load(args)
    if sc.incident.kind != "point":
        print("refused: passive mode needs a point-source incident field",
              file=sys.stderr)
        return EXIT_REFUSED
    return _run_sweep(args, sc)


def cmd_probe(args):
    sc = _load(args)
    if sc.probe is None:
        raise ConfigError("probe", "missing probe section")
    s_grid = args.s_grid
    t0 = time.perf_counter()
    mode = "manufactured"   # the one mode the probe section takes
    scen = probe_mod.manufactured_scenario(**sc.probe, fit_s=s_grid)
    if abs(probe_mod.corner_value(scen.u2, scen.sector)) < 1e-10:
        print("refused: manufactured field vanishes at the probed corner", file=sys.stderr)
        return EXIT_REFUSED
    result = probe_mod.extract_both(scen, s_grid, tol=args.tol)
    diag = result.diagnostics
    reports.write_probe_csv(
        f"{args.out}/probe.csv", result,
        comments=[f"scenario={sc.digest()}", f"mode={mode}",
                  "estimates of eta1-eta2 and omega1-omega2",
                  f"quad_tol={args.tol!r}"])
    reports.write_report_json(f"{args.out}/report.json", {
        "scenario": sc.digest(), "command": "probe", "mode": mode,
        "s_grid": s_grid,
        "eta_extrapolated": result.eta_extrapolated,
        "omega_extrapolated": result.omega_extrapolated,
        "residuals": list(result.residuals),
        **{k: diag[k] for k in ("quad_converged", "quad_error", "eta_extrapolation_err",
                                "omega_extrapolation_err")},
        **{k: scen.meta[k] for k in ("fit_moment_residual", "fit_cond_pointwise",
                                     "fit_cond_moments", "fit_quad_unconverged",
                                     "fit_quad_error_max")},
        "wall_clock_s": time.perf_counter() - t0,
    })
    unconverged = [s for (s, _), ok in zip(result.eta_estimates, diag["quad_converged"])
                   if not ok]
    if unconverged:
        print("extraction quadrature did not converge at s = "
              + ", ".join(f"{s:g}" for s in unconverged)
              + f"; quad_error in {args.out}/report.json", file=sys.stderr)
    fit_unconverged = scen.meta["fit_quad_unconverged"]
    if fit_unconverged:
        print(f"{fit_unconverged} scenario-fit edge-moment quadratures did not "
              f"converge, fit_quad_error_max = {scen.meta['fit_quad_error_max']:.3g}; "
              f"see {args.out}/report.json", file=sys.stderr)
    print(f"eta1-eta2 ~ {result.eta_extrapolated:.6g}, "
          f"omega1-omega2 ~ {result.omega_extrapolated:.6g}")
    return EXIT_NUMERICAL if unconverged or fit_unconverged else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
