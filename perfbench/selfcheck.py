"""Fast self-check of the benchmark itself (run.py --self-check).

1. The input generator is deterministic: the same seed gives byte-identical
   inputs, in this process and in fresh interpreters with other hash seeds.
2. The checker counts a deliberately corrupted eigenvalue as a failure.
3. Span accounting is exact: the self times of all spans plus the time no
   span covers add up to the traced wall time, on made-up spans with a
   known answer and on a real traced pass.
4. BENCHMARK.json names exactly the workloads and metrics the runs print.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import cases
import inputs
import spans


def _digest(seed):
    specs = inputs.draw_family(seed)
    text = "".join(inputs.config_text(s) for s in specs) + repr(specs)
    return hashlib.sha256(text.encode()).hexdigest()


def check_generator():
    here = _digest(inputs.DEFAULT_SEED)
    code = (
        f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r}); "
        f"import selfcheck; print(selfcheck._digest({inputs.DEFAULT_SEED}))"
    )
    others = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        others.append(done.stdout.strip())
    ok = others == [here, here] and _digest(inputs.DEFAULT_SEED) == here
    ok = ok and _digest(inputs.DEFAULT_SEED + 1) != here
    return ok, "same seed, same bytes in three interpreters; another seed differs"


def check_checker(run):
    fs = run.import_package()
    spec = next(s for s in inputs.draw_family(inputs.DEFAULT_SEED) if s["name"] == "a")
    domain = inputs.build_domain(fs, spec)
    reference = run.load_reference("strip_linear", inputs.DEFAULT_SEED)
    lin = {
        "linear/a/256x16/full": {"mu": fs.solve_mu1_linear(domain, 256, 16).mu},
        "linear/a/256x16/odd": {"mu": fs.solve_mu1_odd_linear(domain, 256, 16).mu},
    }
    thin = {"solve1d/a/p2": cases._solve1d(fs, domain, 2.0)}
    lin_refs = cases.check_refs("strip_linear", fs, {"a": domain})
    thin_refs = cases.check_refs("thin_limit", fs, {"a": domain})
    clean = (
        not cases.check("strip_linear", lin, lin_refs, reference)
        and not cases.check("thin_limit", thin, thin_refs, reference)
    )
    lin["linear/a/256x16/odd"]["mu"] *= 0.95
    bad_lin = cases.check("strip_linear", lin, lin_refs)
    shifted = {"solve1d/a/p2": {k: v * (1.0 + 1e-6) for k, v in thin["solve1d/a/p2"].items()}}
    thin["solve1d/a/p2"]["shooting"] *= 1.01
    bad_thin = cases.check("thin_limit", thin, thin_refs)
    ok = (
        clean
        and set(bad_lin) == {"linear/a/256x16/odd"}
        and set(bad_thin) == {"solve1d/a/p2"}
        and not cases.check("thin_limit", shifted, thin_refs)
        and set(cases.check("thin_limit", shifted, thin_refs, reference)) == {"solve1d/a/p2"}
    )
    return ok, (
        "clean outputs pass; a corrupted odd or shooting eigenvalue fails, and a 1e-6 shift "
        "fails against the reference table"
    )


def check_accounting(run):
    # root A [0, 10] holds B [1, 4] (holding C [2, 3]) and D [5, 6]; root E [12, 13]
    made_up = [
        ["a", 0.0, 10.0, -1, None, None],
        ["b", 1.0, 4.0, 0, None, None],
        ["c", 2.0, 3.0, 1, None, None],
        ["d", 5.0, 6.0, 0, None, None],
        ["e", 12.0, 13.0, -1, None, None],
    ]
    own = spans.self_times(made_up)
    buckets, gap = spans.account(made_up, 15.0)
    ok = own == [6.0, 2.0, 1.0, 1.0, 1.0] and gap == 4.0 and sum(buckets.values()) == 11.0

    fs = run.import_package()
    spec = run.specs_for("thin_limit", inputs.DEFAULT_SEED)[1]
    tracer = spans.Tracer()
    tracer.install(fs)
    try:
        start = time.perf_counter()
        domain = inputs.build_domain(fs, spec)
        run.run_in_process_pass(
            [
                ("lin", lambda: cases._linear(fs, domain, 256, 16, False)),
                ("desc", lambda: cases._descent(fs, domain, 3.0)),
                ("solve1d", lambda: cases._solve1d(fs, domain, 2.0)),
            ],
            tracer,
        )
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    buckets, gap = spans.account(tracer.spans, wall)
    total = sum(buckets.values()) + gap
    coverage = (wall - gap) / wall
    ok = ok and abs(total - wall) <= 1e-9 * wall and coverage >= 0.9
    ok = ok and not hasattr(fs.solve_mu1_linear, "__wrapped__")
    return ok, f"self times + gap = wall to 1e-9 ({len(tracer.spans)} spans, coverage {coverage:.3f})"


def check_declared(run):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    layer = spans.layer_metrics([], 1.0, 1.0, 0.0)[0]
    ok = (
        [w["name"] for w in declared["workloads"]] == list(cases.WORKLOADS)
        and {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in declared["per_layer"]}
        == {k: u for k, (_, u) in layer.items()}
    )
    return ok, "workloads, end-to-end and per-layer metrics match the runs"


def main(run):
    checks = (
        ("generator", check_generator),
        ("checker", lambda: check_checker(run)),
        ("accounting", lambda: check_accounting(run)),
        ("declared", lambda: check_declared(run)),
    )
    failed = 0
    for name, fn in checks:
        ok, detail = fn()
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 1 if failed else 0
