"""Spans around the program's layers, recorded from outside the program.

A traced run replaces, in every fermi_spectra module that holds them, the
public functions of cli, config, geometry, analysis, eig1d, eig2d and
asymptotics, plus the helpers the solvers look up by name
(eig2d._p_rayleigh and _p_rayleigh_grad, pmean_shift, eig1d._shoot and
scipy.sparse.linalg.splu), with wrappers that record one span per call:
name, start, end, parent span and the case it belongs to.  Spans stay in
memory until the run ends.  Counts the result objects already carry
(iterations, SuperLU fill, sweep failures) are read from those objects.

Self time of a span is its duration minus the time its child spans cover.
Each span's self time goes to exactly one bucket, so the buckets plus the
time no span covers add up to the traced wall time.  A span of a
"folding" function (scale_width, the bound and certificate functions,
solve_shooting, upper_bound_epsilon) also takes the self time of every
span below it: those layers are reported whole.

The per-layer metrics of a traced pass (domain building included):

    <layer>_s             seconds in the layer's bucket (BUCKET below)
    *_calls               number of calls
    eig1d.shots, eig2d.inverse_iters, eig2d.descent_steps
                          iteration counts the solver results carry
    eig1d.shot_s          median duration of one _shoot call
    eig2d.quotient_s      self time of _p_rayleigh and _p_rayleigh_grad;
                          eig2d.quotient_eval_s is that per evaluation
    eig2d.factor_fill     L.nnz + U.nnz summed over all factorizations
    eig2d.step_accept_ratio  descent steps per quotient evaluation
    package.import_s      one `import fermi_spectra` (for the CLI, the median
                          over the traced invocations)
    trace.wall_s          traced wall time; trace.overhead_s is it minus the
                          untraced pass, within run-to-run noise in-process
    trace.untraced_s      wall time no span covers; trace.coverage is the
                          covered share
    trace.other_s         self time of wrapped functions with no bucket
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

MODULES = ("cli", "config", "geometry", "analysis", "eig1d", "eig2d", "asymptotics")
HELPERS = (
    ("eig2d", "_p_rayleigh"),
    ("eig2d", "_p_rayleigh_grad"),
    ("eig1d", "_shoot"),
)

FOLD = {
    "geometry.scale_width": "geometry.scale_width_s",
    "analysis.certify_odd": "analysis.certify_s",
    "analysis.lower_bound_constant_width": "analysis.bounds_s",
    "analysis.lower_bound_variable_width": "analysis.bounds_s",
    "analysis.lyapunov_bound_report": "analysis.bounds_s",
    "eig1d.solve_shooting": "eig1d.shooting_s",
    "asymptotics.upper_bound_epsilon": "asymptotics.upper_bound_s",
}
BUCKET = {
    "package.import": "package.import_total_s",
    "config.load_config": "config.load_s",
    "cli.run_command": "cli.run_command_s",
    "cli.emit_report": "cli.emit_s",
    "geometry.reconstruct_from_curvature": "geometry.curve_s",
    "geometry.curvature_from_parametric": "geometry.curve_s",
    "geometry.check_curve": "geometry.curve_s",
    "geometry.width_profile": "geometry.curve_s",
    "geometry.make_domain": "geometry.make_domain_s",
    "geometry.validate_domain": "geometry.make_domain_s",
    "eig1d.solve_discretized": "eig1d.discretized_s",
    "eig1d.pmean_shift": "eig1d.pmean_shift_s",
    "eig2d.build_mesh": "eig2d.build_mesh_s",
    "eig2d.assemble": "eig2d.assemble_s",
    "scipy.splu": "eig2d.factor_s",
    "eig2d.solve_mu1_linear": "eig2d.linear_s",
    "eig2d.solve_mu1_odd_linear": "eig2d.linear_s",
    "eig2d.solve_mu1_nonlinear": "eig2d.descent_s",
    "eig2d._p_rayleigh": "eig2d.quotient_s",
    "eig2d._p_rayleigh_grad": "eig2d.quotient_s",
    "asymptotics.epsilon_sweep": "asymptotics.sweep_s",
    **FOLD,
}
OTHER = "trace.other_s"


def _info(key, out):
    """Counts a result object already carries; read after the span closes."""
    if key == "scipy.splu":
        return {"fill": int(out.nnz)}
    if key == "asymptotics.epsilon_sweep":
        return {"failures": sum(f is not None for f in out.failures)}
    if hasattr(out, "iterations"):
        return {"iterations": int(out.iterations), "method": getattr(out, "method", "")}
    return None


class Tracer:
    """Records spans as [key, start, end, parent, case, info] lists."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []
        self._patched = []

    def open(self, key):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([key, time.perf_counter(), None, parent, self.case, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span[5] = _info(key, out)
            return out

        return wrapper

    def install(self, fs):
        """Wrap the layer functions of the imported package fs everywhere they are bound."""
        import importlib

        import scipy.sparse.linalg

        targets = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"{fs.__name__}.{mod_name}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[obj] = f"{mod_name}.{name}"
        for mod_name, name in HELPERS:
            targets[getattr(getattr(fs, mod_name), name)] = f"{mod_name}.{name}"
        wrappers = {fn: self._wrap(key, fn) for fn, key in targets.items()}

        namespaces = [fs] + [getattr(fs, m) for m in MODULES]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])
        splu = scipy.sparse.linalg.splu
        self._patched.append((scipy.sparse.linalg, "splu", splu))
        scipy.sparse.linalg.splu = self._wrap("scipy.splu", splu)

    def uninstall(self):
        for ns, name, obj in reversed(self._patched):
            setattr(ns, name, obj)
        self._patched = []


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def bucket_of(spans):
    """The bucket each span's self time goes to, folding applied."""
    fold = []
    for key, _, _, parent, _, _ in spans:
        fold.append(FOLD.get(key) or (fold[parent] if parent >= 0 else None))
    return [f or BUCKET.get(s[0], OTHER) for f, s in zip(fold, spans)]


def account(spans, wall):
    """Buckets of self time, plus the untraced gap, for one traced wall time."""
    own = self_times(spans)
    buckets = {}
    for b, t in zip(bucket_of(spans), own):
        buckets[b] = buckets.get(b, 0.0) + t
    covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return buckets, wall - covered


def layer_metrics(spans, wall, untraced_wall, import_s):
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    buckets, gap = account(spans, wall)
    keys = [s[0] for s in spans]

    def count(key):
        return sum(k == key for k in keys)

    def iters(key, prefix=""):
        return sum(
            s[5]["iterations"] for s in spans
            if s[0] == key and s[5] and s[5]["method"].startswith(prefix)
        )

    shots = [s[2] - s[1] for s in spans if s[0] == "eig1d._shoot"]
    evals = count("eig2d._p_rayleigh")
    steps = iters("eig2d.solve_mu1_nonlinear", "descent")
    quotient = buckets.get("eig2d.quotient_s", 0.0)
    m = {
        "package.import_s": (import_s, "s"),
        "geometry.make_domain_calls": (count("geometry.make_domain"), "count"),
        "eig1d.shots": (iters("eig1d.solve_shooting"), "count"),
        "eig1d.shot_s": (statistics.median(shots) if shots else 0.0, "s"),
        "eig1d.pmean_shift_calls": (count("eig1d.pmean_shift"), "count"),
        "eig2d.factor_calls": (count("scipy.splu"), "count"),
        "eig2d.factor_fill": (
            sum(s[5]["fill"] for s in spans if s[0] == "scipy.splu" and s[5]), "count"
        ),
        "eig2d.inverse_iters": (
            iters("eig2d.solve_mu1_linear") + iters("eig2d.solve_mu1_odd_linear"), "count"
        ),
        "eig2d.descent_steps": (steps, "count"),
        "eig2d.quotient_evals": (evals, "count"),
        "eig2d.quotient_eval_s": (quotient / evals if evals else 0.0, "s"),
        "eig2d.step_accept_ratio": (steps / evals if evals else 0.0, "ratio"),
        "asymptotics.entry_failures": (
            sum(s[5]["failures"] for s in spans if s[0] == "asymptotics.epsilon_sweep" and s[5]),
            "count",
        ),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.untraced_s": (gap, "s"),
        "trace.coverage": ((wall - gap) / wall, "ratio"),
    }
    for name in sorted(set(BUCKET.values()) | {OTHER}):
        if name != "package.import_total_s":
            m[name] = (buckets.get(name, 0.0), "s")
    return m, buckets, gap
