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

Each command is one handler, _HANDLERS[command](cfg, domain), that returns
the report's results, the CSV tables (filename to header and rows) and the
summary lines main prints.  The solver handlers import their solvers when
called, so bounds, certify and figure2 load no solver module.

Reports are deterministic: the same config file and flags produce
byte-identical report.json and CSV files.  No timestamps, no randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .analysis import (
    FIGURE2_COLUMNS,
    certify_odd,
    figure2_data,
    lower_bound_constant_width,
    lower_bound_variable_width,
    lyapunov_bound_report,
)
from .config import COMMANDS, load_config
from .errors import FermiSpectraError, ParseError, SchemaError
from .expressions import as_function, overflows, pretty
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
    # The report prints each expression back, so its number literals must be
    # finite doubles.  Checked only now, so that a literal that makes a profile
    # infinite (width "1e400") is named by the profile's own check.
    trees = {"curve.k": cfg.k, "curve.x": cfg.x, "curve.y": cfg.y, "width": cfg.width}
    for key, node in trees.items():
        if overflows(node):
            raise SchemaError(f"{key}: a number literal overflows a double")
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


def _figure2(cfg, domain):
    n = cfg.figure2_n
    x = np.arange(1, n + 1) / (n + 1.0)
    table = figure2_data(1.0 / x)
    gap_min = float(np.min(table[:, 3]))
    all_positive = bool(np.all(table[:, 3] > 0.0))
    results = {"points": n, "gap_min": gap_min, "all_positive": all_positive}
    tables = {"figure2.csv": (",".join(FIGURE2_COLUMNS), table.tolist())}
    return results, tables, [
        f"figure2: {n} points, smallest gap {gap_min:.6g}, all positive: {all_positive}"
    ]


def _bounds(cfg, domain):
    tol = cfg.tolerances["concavity"]
    reports = [
        lower_bound_constant_width(domain, cfg.p, concavity_tol=tol),
        lower_bound_variable_width(domain, cfg.p, concavity_tol=tol),
        lyapunov_bound_report(domain, cfg.p),
    ]
    lines = [f"{r.label}: value={r.value:.9g} applicable={r.applicable}" for r in reports]
    return {"bounds": [_bound_dict(r) for r in reports]}, {}, lines


def _certify(cfg, domain):
    cert = certify_odd(domain)
    return {"certificate": asdict(cert)}, {}, [
        f"case {cert.case_label}: threshold={cert.threshold:.9g} "
        f"upper={cert.mu1_upper:.9g} certified={cert.certified}"
    ]


def _solve1d(cfg, domain):
    from .asymptotics import limit_problem
    from .eig1d import solve_discretized, solve_shooting

    problem = limit_problem(domain, cfg.p)
    shot = solve_shooting(problem, tol=cfg.tolerances["shooting"], n_steps=cfg.mesh["n_steps"])
    disc = solve_discretized(problem, n=cfg.mesh["n_grid"])
    cross = abs(shot.mu - disc.mu) / abs(disc.mu)
    results = {
        "shooting": _result_dict(shot),
        "discretized": _result_dict(disc),
        "cross_rel_diff": cross,
    }
    rows = np.column_stack(
        [problem.s_samples, problem.w_samples, shot.u_samples, shot.du_samples]
    )
    return results, {"solve1d.csv": ("s,w,u,du", rows.tolist())}, [
        f"shooting: mu={shot.mu:.9g}",
        f"discretized: mu={disc.mu:.9g}",
        f"cross relative difference: {cross:.3g}",
    ]


def _solve2d(cfg, domain):
    from .eig2d import solve_mu1_nonlinear

    ns, nt = cfg.mesh["ns"], cfg.mesh["nt"]
    full = solve_mu1_nonlinear(domain, cfg.p, ns, nt)
    odd = solve_mu1_nonlinear(domain, cfg.p, ns, nt, odd=True)
    # full.u holds the whole strip's nodes, t fastest, as build_mesh numbers them.
    s = np.linspace(0.0, domain.L, ns + 1)
    t = np.linspace(0.0, 1.0, nt + 1)
    rows = np.column_stack([np.repeat(s, nt + 1), np.tile(t, ns + 1), full.u])
    results = {"full": _strip_dict(full), "odd": _strip_dict(odd)}
    return results, {"solve2d.csv": ("s,t,u", rows.tolist())}, [
        f"full: mu={full.mu:.9g} parity={full.parity} converged={full.converged}",
        f"odd:  mu={odd.mu:.9g} converged={odd.converged}",
    ]


def _sweep(cfg, domain):
    from .asymptotics import MeshPolicy, epsilon_sweep

    policy = MeshPolicy(ns=cfg.mesh["ns"], nt=cfg.mesh["nt"])
    sw = epsilon_sweep(domain, cfg.p, cfg.epsilons, policy)
    entries, rows = [], []
    lines = [f"mu_star={sw.mu_star:.9g} fitted_rate={sw.fitted_rate}"]
    for i, eps in enumerate(sw.epsilons):
        eps, mu, rel_err = float(eps), float(sw.mu_values[i]), float(sw.rel_errors[i])
        certified, failure = bool(sw.certified[i]), sw.failures[i]
        entries.append(
            {
                "epsilon": eps,
                "mu": mu,
                "rel_err": rel_err,
                "upper_bound": float(sw.upper_bounds[i]),
                "threshold": float(sw.thresholds[i]),
                "certified": certified,
                "refine_estimate": float(sw.refine_estimates[i]),
                "converged": bool(sw.converged[i]),
                "parity": sw.parities[i],
                "gap": float(sw.gaps[i]),
                "failure": failure,
            }
        )
        rows.append([eps, mu, sw.mu_star, rel_err])
        if failure:
            lines.append(f"eps={eps}: failed ({failure})")
        else:
            lines.append(f"eps={eps}: mu={mu:.9g} rel_err={rel_err:.3g} certified={certified}")
    results = {"mu_star": sw.mu_star, "fitted_rate": sw.fitted_rate, "entries": entries}
    return results, {"sweep.csv": ("epsilon,mu,mu_star,rel_err", rows)}, lines


_HANDLERS = {"bounds": _bounds, "certify": _certify, "solve1d": _solve1d,
             "solve2d": _solve2d, "sweep": _sweep, "figure2": _figure2}


def run_command(cfg, domain):
    """Run a validated config on its built strip; returns (report_doc, tables, lines).

    domain is the strip build_domain made from cfg (None for figure2, which
    needs none).  Every result in the report names the grid and tolerance
    it was computed with; lines is the summary the command prints.
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
    if domain is not None:
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
    doc["results"], tables, lines = _HANDLERS[cfg.command](cfg, domain)
    return doc, tables, lines


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
    # One BLAS thread unless the caller set one: the strip solver's band
    # Cholesky (dpbtrf) runs on narrow bands, where threading costs more
    # than it saves.  scipy's OpenBLAS reads this when it loads, at the
    # first factorization, after main starts.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
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
        doc, tables, lines = run_command(cfg, domain)
    except FermiSpectraError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        paths = emit_report(doc, tables, cfg.out_dir)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
