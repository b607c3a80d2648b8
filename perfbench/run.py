"""Benchmark of fermi-spectra: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-reference

Run it from anywhere; it measures the program in the src/ next to this
directory, put first on the path.  Workloads (cases.py has the case
lists, BENCHMARK.json says why each was chosen):

    cli_configs    python -m fermi_spectra.cli bounds / certify / solve1d /
                   solve2d on two generated configs, then figure2
    strip_linear   p = 2 full and odd strip solves over 256x16 .. 1024x64
    strip_descent  Rayleigh descent at p = 1.5, 3, 4, full and odd, 16x16,
                   on twelve strips
    thin_limit     shooting and discretized 1D solves at p = 1.5 .. 4, and
                   one epsilon sweep at p = 2 on a strip of unit mean width

Each workload is a closed loop: one process, one case at a time, BLAS held
to one thread.  A run makes whole passes over the fixed case list: one,
then more while the next pass fits in S seconds.  Every
timed case, and every set-up interpreter, is preceded by the fixed probe
of pace.py, and its time is reported at the reference pace: measured
seconds times the reference probe time over the probe time around it.
That takes out the host's load, which swings the speed of everything by
up to 1.8x for tens of seconds at a time; the unpaced figures are
printed beside them and kept in the result file.

With --trace 0 it reports, all paced (lower is better for all):
    setup_s      median of three fresh interpreters, each importing the
                 package and building every domain the workload uses
    wall_s       one pass over the case list: the sum of the case times,
                 each case's time being its median over the passes
    case_s_p50   the median of the case times
    case_s_tail  the case time with exactly ten cases beyond it (its
                 percentile and the case count are printed), or the
                 maximum when the list has fewer than twenty cases; the
                 percentile is fixed by the case list, not by the passes
    peak_rss_mb  peak resident memory of the process doing the work (for
                 cli_configs the largest CLI child); not paced
failed_ratio (failed / attempted cases) is printed with them and carried
by the "failed" and "attempted" fields; it is not a BENCHMARK.json metric
because its value is 0 whenever the program is correct.

With --trace 1 the run makes one untraced and one traced pass (domain
building included) and reports the per-layer metrics of spans.py,
unpaced.

Every run writes .perfbench_out/results/<workload>-seed<n>-trace<t>.json
with provenance (git SHA when available, source digest, Python / numpy /
scipy versions, BLAS and its thread setting, nproc, seed, case count).
The last line on stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import cases  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 3
MIN_PASSES = 1
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_s_p50": "s",
    "case_s_tail": "s",
    "peak_rss_mb": "MiB",
}


def specs_for(workload, seed):
    w = cases.WORKLOADS[workload]
    return [
        s for copy in range(w["copies"]) for s in inputs.draw_family(seed, copy)
        if s["name"].split(".")[0] in w["recipes"]
    ]


def import_package(with_cli=False):
    fs = importlib.import_module("fermi_spectra")
    if with_cli:
        importlib.import_module("fermi_spectra.cli")
    return fs


def build_domains(fs, specs):
    return {s["name"]: inputs.build_domain(fs, s) for s in specs}


def setup_probe(workload, seed, config_dir):
    """Time import plus domain building in this fresh interpreter; print it as JSON."""
    specs = specs_for(workload, seed)
    start = time.perf_counter()
    if workload == "cli_configs":
        fs = import_package(with_cli=True)
        for spec in specs:
            cfg = fs.config.load_config(os.path.join(config_dir, f"{spec['name']}.json"), "bounds")
            fs.cli.build_domain(cfg)
    else:
        build_domains(import_package(), specs)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(workload, seed, config_dir, probe):
    """Median paced set-up time of SETUP_PROBES fresh interpreters, and their raw times."""
    samples, probes = [], []
    for _ in range(SETUP_PROBES):
        probes.append(probe())
        argv = [sys.executable, str(Path(__file__)), "--setup-probe", str(config_dir),
                "--workload", workload, "--seed", str(seed)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-400:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    paced = [t / f for t, f in zip(samples, pace.factors(probes))]
    return statistics.median(paced), samples


class Pass:
    """One pass over a case list: wall time, per-case times and probes, outcomes, errors."""

    def __init__(self):
        self.wall = 0.0
        self.times = {}
        self.probes = {}
        self.outcomes = {}
        self.errors = {}
        self.rss = 0.0


def run_in_process_pass(case_list, tracer=None, probe=None):
    """One pass; with a probe, each case is preceded by it (untimed in the case)."""
    p = Pass()
    start = time.perf_counter()
    for case_id, fn in case_list:
        if tracer is not None:
            tracer.case = case_id
        if probe is not None:
            p.probes[case_id] = probe()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising case fails; the run goes on
            out = None
            p.errors[case_id] = f"{type(exc).__name__}: {exc}"
        p.times[case_id] = time.perf_counter() - t0
        p.outcomes[case_id] = out
    p.wall = time.perf_counter() - start
    return p


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_pass(case_list, work, tag, traced_spans=None, probe=None):
    """One pass of CLI invocations; with traced_spans, their spans are appended to it.

    With a probe, the benchmark process runs it before each invocation.
    """
    p = Pass()
    env = cli_env()
    for i, (case_id, command, config) in enumerate(case_list):
        out_dir = str(work / f"{tag}-{i}")
        spans_path = out_dir + ".spans.json" if traced_spans is not None else None
        p.outcomes[case_id] = None
        if probe is not None:
            p.probes[case_id] = probe()
        try:
            elapsed, rss, doc = cases.run_cli(ROOT, env, command, config, out_dir, spans_path)
            p.outcomes[case_id] = cases.cli_outcome(command, doc)
        except cases.CliError as exc:
            elapsed, rss = exc.elapsed, exc.rss
            p.errors[case_id] = str(exc)
        except (KeyError, TypeError) as exc:
            p.errors[case_id] = f"report.json lacks {exc!r}"
        p.times[case_id] = elapsed
        p.wall += elapsed
        p.rss = max(p.rss, rss)
        if spans_path is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                child = json.load(fh)
            os.remove(spans_path)
            base = len(traced_spans)
            for s in child:
                s[3] = s[3] + base if s[3] >= 0 else -1
                s[4] = case_id
            traced_spans.extend(child)
    return p


def tail(times):
    """(value, percentile, n, is_max): the time with exactly ten cases beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n, True
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n, False


def load_reference(workload, seed):
    if seed != inputs.DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        table = json.load(fh)
    return table["cases"]


def judge(workload, passes, refs, reference):
    """Failure messages per failed case, over all passes; (attempted, failed, messages)."""
    attempted = failed = 0
    messages = {}
    for p in passes:
        bad = cases.check(workload, p.outcomes, refs, reference)
        for case_id, err in p.errors.items():
            bad.setdefault(case_id, []).insert(0, err)
        attempted += len(p.outcomes)
        failed += len(bad)
        for case_id, msgs in bad.items():
            messages.setdefault(case_id, msgs)
    return attempted, failed, messages


def timed_passes(run_pass, seconds):
    """Whole passes, at least MIN_PASSES, then more while the next one fits in `seconds`."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p.wall for p in passes) <= seconds
    ):
        passes.append(run_pass(len(passes)))
    return passes


def paced_times(passes):
    """Per pass, each case's time at the reference pace (pace.py); and all the pace factors."""
    order = [(i, c) for i, p in enumerate(passes) for c in p.times]
    factors = pace.factors([passes[i].probes[c] for i, c in order])
    out = [{} for _ in passes]
    for (i, c), f in zip(order, factors):
        out[i][c] = passes[i].times[c] / f
    return out, factors


def case_medians(times):
    """Each case's median time over the passes."""
    return {c: statistics.median(t[c] for t in times) for c in times[0]}


def measure(args, work):
    """The --trace 0 run: returns (metrics, details, attempted, failed, messages)."""
    workload, seed = args.workload, args.seed
    specs = specs_for(workload, seed)
    reference = load_reference(workload, seed)
    config_dir = work / "configs"
    if workload == "cli_configs":
        case_list = cases.write_configs(specs, config_dir)
    probe = pace.Probe()
    setup_s, setup_samples = measure_setup(workload, seed, config_dir, probe)
    if workload == "cli_configs":
        refs = {}
        passes = timed_passes(
            lambda i: run_cli_pass(case_list, work, f"pass{i}", probe=probe), args.seconds
        )
        rss = max(p.rss for p in passes)
    else:
        fs = import_package()
        domains = build_domains(fs, specs)
        refs = cases.check_refs(workload, fs, domains)
        case_list = cases.in_process_cases(workload, fs, domains)
        passes = timed_passes(lambda i: run_in_process_pass(case_list, probe=probe), args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    paced, factors = paced_times(passes)
    per_case = case_medians(paced)
    raw_case = case_medians([p.times for p in passes])
    tail_value, tail_pct, n, is_max = tail(per_case.values())
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(per_case.values()),
        "case_s_p50": statistics.median(per_case.values()),
        "case_s_tail": tail_value,
        "peak_rss_mb": rss,
    }
    attempted, failed, messages = judge(workload, passes, refs, reference)
    details = {
        "setup_raw_s": setup_samples,
        "passes": len(passes),
        "pass_walls_raw_s": [p.wall for p in passes],
        "wall_raw_s": sum(raw_case.values()),
        "case_s_p50_raw": statistics.median(raw_case.values()),
        "pace_median": statistics.median(factors),
        "case_s_tail_percentile": tail_pct,
        "case_s_tail_is_max": is_max,
        "case_count": n,
        "failed_ratio": failed / attempted,
        "case_medians_s": per_case,
        "case_times_raw_s": [p.times for p in passes],
        "probes_s": [p.probes for p in passes],
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details, attempted, failed, messages


def measure_traced(args, work):
    """The --trace 1 run: one untraced and one traced pass, then the layer metrics."""
    workload, seed = args.workload, args.seed
    specs = specs_for(workload, seed)
    reference = load_reference(workload, seed)
    tracer = spans.Tracer()
    if workload == "cli_configs":
        case_list = cases.write_configs(specs, work / "configs")
        plain = run_cli_pass(case_list, work, "plain")
        traced = run_cli_pass(case_list, work, "traced", tracer.spans)
        refs = {}
        imports = [s[2] - s[1] for s in tracer.spans if s[0] == "package.import"]
        import_s = statistics.median(imports) if imports else 0.0
        untraced_wall, traced_wall = plain.wall, traced.wall
    else:
        start = time.perf_counter()
        fs = import_package()
        import_s = time.perf_counter() - start
        start = time.perf_counter()
        domains = build_domains(fs, specs)
        plain = run_in_process_pass(cases.in_process_cases(workload, fs, domains))
        untraced_wall = time.perf_counter() - start
        refs = cases.check_refs(workload, fs, domains)
        tracer.install(fs)
        try:
            start = time.perf_counter()
            tracer.case = "setup"
            domains = build_domains(fs, specs)
            traced = run_in_process_pass(cases.in_process_cases(workload, fs, domains), tracer)
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
    metrics, buckets, gap = spans.layer_metrics(tracer.spans, traced_wall, untraced_wall, import_s)
    attempted, failed, messages = judge(workload, [plain, traced], refs, reference)
    details = {
        "span_count": len(tracer.spans),
        "buckets_s": buckets,
        "untraced_gap_s": gap,
        "failed_ratio": failed / attempted,
    }
    return metrics, details, attempted, failed, messages


def git_sha():
    """HEAD's commit, read from the checkout's own .git; None when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, attempted):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases_per_run": attempted,
    }


def report(args, metrics, details, attempted, failed, messages):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = {
        "provenance": provenance(args, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "failures": messages,
    }
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    if args.trace == 0:
        kind = "maximum (fewer than 20 cases)" if details["case_s_tail_is_max"] else (
            f"p{details['case_s_tail_percentile']:.1f}"
        )
        print(f"case_s_tail is the {kind} of {details['case_count']} case medians "
              f"over {details['passes']} passes")
        print(f"unpaced: wall {details['wall_raw_s']:.6g} s, case p50 {details['case_s_p50_raw']:.6g} s, "
              f"median pace {details['pace_median']:.4g}x the reference")
    print(f"failed_ratio                 {failed}/{attempted} = {failed / attempted:.6g}")
    for case_id, msgs in sorted(messages.items()):
        print(f"FAILED {case_id}: {'; '.join(msgs)}")
    print(f"result file: {path.relative_to(ROOT)}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description="fermi-spectra benchmark")
    ap.add_argument("--workload", choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="CONFIG_DIR", help=argparse.SUPPRESS)
    ap.add_argument("--self-check", action="store_true", help="check the benchmark itself")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from this tree at the default seed")
    args = ap.parse_args(argv)

    if not (SRC / "fermi_spectra" / "__init__.py").is_file():
        print(f"cannot find the program: {SRC / 'fermi_spectra'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe is not None:
        return setup_probe(args.workload, args.seed, args.setup_probe)
    if args.self_check:
        import selfcheck

        return selfcheck.main(sys.modules[__name__])
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")

    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = measure_traced(args, work)
        else:
            result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, *result)
    return 0


def record_reference():
    """Run one pass of every workload at the default seed and store its outputs."""
    table = {}
    work = OUT / "work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in cases.WORKLOADS:
            specs = specs_for(workload, inputs.DEFAULT_SEED)
            if workload == "cli_configs":
                p = run_cli_pass(cases.write_configs(specs, work / "configs"), work, "ref")
                refs = {}
            else:
                fs = import_package()
                domains = build_domains(fs, specs)
                refs = cases.check_refs(workload, fs, domains)
                p = run_in_process_pass(cases.in_process_cases(workload, fs, domains))
            bad = cases.check(workload, p.outcomes, refs)
            if p.errors or bad:
                print(f"{workload}: not recording, checks fail: {p.errors} {bad}", file=sys.stderr)
                return 1
            for case_id, out in p.outcomes.items():
                table[case_id] = {k: v for k, v in out.items() if k not in cases.REF_SKIP}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(
        {"seed": inputs.DEFAULT_SEED, "cases": table}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} with {len(table)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
