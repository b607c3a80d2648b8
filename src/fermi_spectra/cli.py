"""Command-line tool: build the domain, run the requested computation, emit files.

Commands
    bounds   lower bounds for the odd eigenvalue with hypothesis checks
    certify  oddness certificate (threshold vs computable upper bound)
    solve1d  thin-limit eigenvalue by shooting and by the discrete route
    solve2d  strip eigenvalue, full and odd variants, with mirror parity and gap
    sweep    width-scaling study against the thin-limit value
    figure2  comparison table of the two bound profiles over 1/p

Exit codes: 0 on success (a failed hypothesis or an uncertified domain is
still a success), 1 for usage or config problems (including errors raised
while the strip is built, such as a width that is not positive or a curve
that is not mirror symmetric), 2 for solver failures.  A strip that is
built but fails validation (a boundary that crosses itself, say) exits 2
from certify, solve2d and sweep, whose solvers raise InvalidDomain.
bounds still exits 0 there: it reports "valid": false, and its
constant-width and variable-width bounds fail their "embedded strip"
hypothesis and are marked not applicable (the Lyapunov bound is one of
the 1D problem and stays applicable).  solve1d reads only the width
profile, so it still runs and reports "valid": false.

Reports are deterministic: the same config file and flags produce
byte-identical report.json and CSV files.  No timestamps, no randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import (
    FIGURE2_COLUMNS,
    certify_odd,
    figure2_data,
    lower_bound_constant_width,
    lower_bound_variable_width,
    lyapunov_bound_report,
)
from .asymptotics import MeshPolicy, epsilon_sweep, limit_problem
from .config import COMMANDS, load_config
from .eig1d import solve_discretized, solve_shooting
from .eig2d import solve_mu1_nonlinear
from .errors import FermiSpectraError, ParseError, SchemaError
from .expressions import as_function, pretty
from .geometry import (
    curvature_from_parametric,
    make_domain,
    reconstruct_from_curvature,
    width_profile,
)


def build_domain(cfg):
    """Construct and validate the strip described by a RunConfig."""
    if cfg.curve_mode == "curvature":
        k = cfg.k
        if not isinstance(k, np.ndarray):
            k = as_function(k, "s", L=cfg.L)
        curve = reconstruct_from_curvature(
            cfg.L, k, n_samples=cfg.n_samples, symmetry_tol=cfg.tolerances["symmetry"]
        )
    else:
        x = as_function(cfg.x, "t")
        y = as_function(cfg.y, "t")
        curve = curvature_from_parametric(
            x, y, cfg.t_range, n_samples=cfg.n_samples,
            symmetry_tol=cfg.tolerances["symmetry"],
        )
    w = cfg.width
    if not isinstance(w, np.ndarray):
        w = as_function(w, "s", L=curve.L)
    width = width_profile(
        w, curve.L, cfg.n_samples, evenness_tol=cfg.tolerances["evenness"]
    )
    return make_domain(curve, width)


def _result_dict(res):
    return {
        "mu": res.mu,
        "residual": res.residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "method": res.method,
    }


def _strip_dict(res):
    """A strip result: the common fields plus the mode's mirror parity and gap."""
    return {**_result_dict(res), "parity": res.parity, "gap": res.gap}


def _bound_dict(report):
    return {
        "label": report.label,
        "value": report.value,
        "constants": dict(report.constants),
        "applicable": report.applicable,
        "hypotheses": [
            {"name": h.name, "passed": h.passed, "residual": h.residual}
            for h in report.hypothesis_results
        ],
    }


def run_command(cfg, domain=None):
    """Dispatch a validated config; returns (report_doc, tables).

    tables maps CSV filenames to (header, list of rows); every result in
    the report names the grid and tolerance it was computed with.  The
    domain may be passed in pre-built (the CLI does, to tell config-data
    failures from solver failures); otherwise it is built here.
    """
    doc = {
        "schema": 1,
        "command": cfg.command,
        "config_sha256": cfg.sha256,
        "p": cfg.p,
        "mesh": dict(cfg.mesh),
        "n_samples": cfg.n_samples,
        "tolerances": dict(cfg.tolerances),
    }
    tables = {}

    if cfg.command == "figure2":
        n = cfg.figure2_n
        x = np.arange(1, n + 1) / (n + 1.0)
        table = figure2_data(1.0 / x)
        doc["results"] = {
            "points": n,
            "gap_min": float(np.min(table[:, 3])),
            "all_positive": bool(np.all(table[:, 3] > 0.0)),
        }
        tables["figure2.csv"] = (",".join(FIGURE2_COLUMNS), table.tolist())
        return doc, tables

    if domain is None:
        domain = build_domain(cfg)
    doc["domain"] = {
        "curve_mode": cfg.curve_mode,
        "L": domain.L,
        "jacobian_min": domain.jacobian_min,
        "valid": domain.valid,
    }
    if cfg.curve_mode == "curvature" and not isinstance(cfg.k, np.ndarray):
        doc["domain"]["k"] = pretty(cfg.k)
    if not isinstance(cfg.width, np.ndarray):
        doc["domain"]["width"] = pretty(cfg.width)

    if cfg.command == "bounds":
        reports = [
            lower_bound_constant_width(domain, cfg.p, concavity_tol=cfg.tolerances["concavity"]),
            lower_bound_variable_width(domain, cfg.p, concavity_tol=cfg.tolerances["concavity"]),
            lyapunov_bound_report(domain, cfg.p),
        ]
        doc["results"] = {"bounds": [_bound_dict(r) for r in reports]}
        return doc, tables

    if cfg.command == "certify":
        cert = certify_odd(domain)
        doc["results"] = {
            "certificate": {
                "case_label": cert.case_label,
                "threshold": cert.threshold,
                "mu1_upper": cert.mu1_upper,
                "certified": cert.certified,
            }
        }
        return doc, tables

    if cfg.command == "solve1d":
        problem = limit_problem(domain, cfg.p)
        shot = solve_shooting(
            problem, tol=cfg.tolerances["shooting"], n_steps=cfg.mesh["n_steps"]
        )
        disc = solve_discretized(problem, n=cfg.mesh["n_grid"])
        doc["results"] = {
            "shooting": _result_dict(shot),
            "discretized": _result_dict(disc),
            "cross_rel_diff": abs(shot.mu - disc.mu) / abs(disc.mu),
        }
        s = problem.s_samples
        rows = np.column_stack([s, problem.w_samples, shot.u_samples, shot.du_samples])
        tables["solve1d.csv"] = ("s,w,u,du", rows.tolist())
        return doc, tables

    if cfg.command == "solve2d":
        ns, nt = cfg.mesh["ns"], cfg.mesh["nt"]
        full = solve_mu1_nonlinear(domain, cfg.p, ns, nt)
        odd = solve_mu1_nonlinear(domain, cfg.p, ns, nt, odd=True)
        doc["results"] = {"full": _strip_dict(full), "odd": _strip_dict(odd)}
        # full.u holds the whole strip's nodes, t fastest, as build_mesh numbers them.
        s = np.linspace(0.0, domain.L, ns + 1)
        t = np.linspace(0.0, 1.0, nt + 1)
        rows = np.column_stack([np.repeat(s, nt + 1), np.tile(t, ns + 1), full.u])
        tables["solve2d.csv"] = ("s,t,u", rows.tolist())
        return doc, tables

    if cfg.command == "sweep":
        policy = MeshPolicy(ns=cfg.mesh["ns"], nt=cfg.mesh["nt"])
        sw = epsilon_sweep(domain, cfg.p, cfg.epsilons, policy)
        entries = []
        rows = []
        for i, eps in enumerate(sw.epsilons):
            entries.append(
                {
                    "epsilon": float(eps),
                    "mu": float(sw.mu_values[i]),
                    "rel_err": float(sw.rel_errors[i]),
                    "upper_bound": float(sw.upper_bounds[i]),
                    "threshold": float(sw.thresholds[i]),
                    "certified": bool(sw.certified[i]),
                    "refine_estimate": float(sw.refine_estimates[i]),
                    "converged": bool(sw.converged[i]),
                    "parity": sw.parities[i],
                    "gap": float(sw.gaps[i]),
                    "failure": sw.failures[i],
                }
            )
            rows.append([float(eps), float(sw.mu_values[i]), sw.mu_star, float(sw.rel_errors[i])])
        doc["results"] = {
            "mu_star": sw.mu_star,
            "fitted_rate": sw.fitted_rate,
            "entries": entries,
        }
        tables["sweep.csv"] = ("epsilon,mu,mu_star,rel_err", rows)
        return doc, tables

    raise SchemaError(f"unknown command {cfg.command!r}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return None if f != f else f
    return obj


def emit_report(doc, tables, out_dir):
    """Write report.json and the command's CSV tables with LF endings."""
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    text = json.dumps(_jsonify(doc), sort_keys=True, indent=2)
    with open(report_path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    paths = [report_path]
    for name, (header, rows) in sorted(tables.items()):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        paths.append(path)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fermi-spectra",
        description="Eigenvalue bounds and solvers for curved planar strips.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="output directory (beats the config)")
    parser.add_argument("--ns", type=int, help="cells along the curve (beats the config)")
    parser.add_argument("--nt", type=int, help="cells across the width (beats the config)")
    parser.add_argument("--p", type=float, help="exponent (beats the config)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    overrides = {"out": args.out, "ns": args.ns, "nt": args.nt, "p": args.p}
    try:
        cfg = load_config(args.config, command=args.command, overrides=overrides)
    except (SchemaError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        domain = build_domain(cfg) if cfg.command != "figure2" else None
    except FermiSpectraError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    try:
        doc, tables = run_command(cfg, domain)
    except FermiSpectraError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        paths = emit_report(doc, tables, cfg.out_dir)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1

    for line in _summary_lines(doc):
        print(line)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _summary_lines(doc):
    res = doc.get("results", {})
    cmd = doc["command"]
    if cmd == "figure2":
        return [
            f"figure2: {res['points']} points, smallest gap {res['gap_min']:.6g}, "
            f"all positive: {res['all_positive']}"
        ]
    if cmd == "bounds":
        return [
            f"{b['label']}: value={b['value']:.9g} applicable={b['applicable']}"
            for b in res["bounds"]
        ]
    if cmd == "certify":
        c = res["certificate"]
        return [
            f"case {c['case_label']}: threshold={c['threshold']:.9g} "
            f"upper={c['mu1_upper']:.9g} certified={c['certified']}"
        ]
    if cmd == "solve1d":
        return [
            f"shooting: mu={res['shooting']['mu']:.9g}",
            f"discretized: mu={res['discretized']['mu']:.9g}",
            f"cross relative difference: {res['cross_rel_diff']:.3g}",
        ]
    if cmd == "solve2d":
        return [
            f"full: mu={res['full']['mu']:.9g} parity={res['full']['parity']} "
            f"converged={res['full']['converged']}",
            f"odd:  mu={res['odd']['mu']:.9g} converged={res['odd']['converged']}",
        ]
    if cmd == "sweep":
        lines = [f"mu_star={res['mu_star']:.9g} fitted_rate={res['fitted_rate']}"]
        for e in res["entries"]:
            if e["failure"]:
                lines.append(f"eps={e['epsilon']}: failed ({e['failure']})")
            else:
                lines.append(
                    f"eps={e['epsilon']}: mu={e['mu']:.9g} rel_err={e['rel_err']:.3g} "
                    f"certified={e['certified']}"
                )
        return lines
    return []


if __name__ == "__main__":
    sys.exit(main())
