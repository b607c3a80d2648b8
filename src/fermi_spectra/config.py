"""Run configuration: a single JSON file describing domain, solver, and output.

Schema (keys exactly as below; all tolerances optional):

    {
      "command": "bounds | certify | solve1d | solve2d | sweep | figure2",
      "curve": {"mode": "curvature", "L": 3.14159, "k": "0.3*cos(2*pi*s/L)"}
            or {"mode": "parametric", "x": "...", "y": "...", "t_range": [a, b]},
      "width": "0.4",
      "p": 2.0,
      "mesh": {"ns": 256, "nt": 16, "n_steps": 4096, "n_grid": 512},
      "epsilons": [0.4, 0.2, 0.1, 0.05],
      "n_samples": 1025,
      "tolerances": {"symmetry": 1e-6, "evenness": 1e-8,
                      "concavity": 1e-9, "shooting": 1e-10},
      "output": {"dir": "out"}
    }

Mesh sizes are at least 8, and mesh.n_grid (the cells of solve1d's
discrete route) at least 32.  solve2d and sweep also need an even mesh.ns,
and solve1d an even mesh.n_grid: each solver halves its grid at the
midline.  sweep needs mesh.nt of at least 16.

Curvature and width accept either an expression string or an array of
samples (uniform in s, first sample at s = 0, last at s = L).  Expressions
use the free variable "s" ("t" in parametric mode) plus the bound constant
"L" and the constants pi and e.  The "command" key is optional when the
command is given on the command line; if both are present they must agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError
from .expressions import parse_expression

COMMANDS = ("bounds", "certify", "solve1d", "solve2d", "sweep", "figure2")

DEFAULT_MESH = {"ns": 256, "nt": 16, "n_steps": 4096, "n_grid": 512}
DEFAULT_TOLERANCES = {
    "symmetry": 1e-6,
    "evenness": 1e-8,
    "concavity": 1e-9,
    "shooting": 1e-10,
}
DEFAULT_N_SAMPLES = 1025


@dataclass
class RunConfig:
    command: str
    curve_mode: str
    L: float
    k: object
    x: object
    y: object
    t_range: tuple
    width: object
    p: float
    mesh: dict
    epsilons: list
    n_samples: int
    tolerances: dict
    out_dir: str
    raw_bytes: bytes = b""
    figure2_n: int = 500

    @property
    def sha256(self):
        return hashlib.sha256(self.raw_bytes).hexdigest()


def _fail(key, message):
    raise SchemaError(f"{key}: {message}")


def _expect_map(data, key):
    if not isinstance(data, dict):
        _fail(key, f"expected a map, got {type(data).__name__}")
    return data


def _number(data, key, minimum=None):
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        _fail(key, f"expected a number, got {type(data).__name__}")
    try:
        value = float(data)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(key, f"must be finite (got {value})")
    if minimum is not None and not value > minimum:
        _fail(key, f"must exceed {minimum} (got {data})")
    return value


def _integer(data, key, minimum):
    if isinstance(data, bool) or not isinstance(data, int):
        _fail(key, f"expected an integer, got {type(data).__name__}")
    if data < minimum:
        _fail(key, f"must be at least {minimum} (got {data})")
    return data


def _expression_or_samples(data, key, variables):
    """An expression string (parsed now, with the key path on errors) or a
    list of numbers (returned as an array)."""
    if isinstance(data, str):
        try:
            return parse_expression(data, variables=variables)
        except ParseError as exc:
            raise ParseError(f"{key}: {exc.message}", exc.offset, exc.text) from exc
    if isinstance(data, (list, tuple)):
        # As in _number: numpy would read true as 1 and "0.4" as 0.4.
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data):
            _fail(key, "sample arrays must hold numbers only")
        try:
            arr = np.asarray(data, dtype=float)
        except OverflowError:  # an integer beyond the float range
            _fail(key, "sample arrays must be finite")
        if len(arr) < 8:
            _fail(key, "sample arrays need at least 8 numbers")
        if not np.all(np.isfinite(arr)):
            _fail(key, "sample arrays must be finite")
        return arr
    _fail(key, f"expected an expression string or an array, got {type(data).__name__}")


def load_config(path, command=None, overrides=None):
    """Read, validate, and normalize a JSON config file.

    command is the command-line command (checked against the file's
    optional "command" key); overrides is a map of {p, ns, nt, out} flag
    values that beat the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    _expect_map(data, "(root)")
    overrides = overrides or {}

    allowed = {
        "command", "curve", "width", "p", "mesh", "epsilons",
        "n_samples", "tolerances", "output", "figure2_n",
    }
    for key in data:
        if key not in allowed:
            _fail(key, "unknown key")

    file_command = data.get("command")
    if file_command is not None and file_command not in COMMANDS:
        _fail("command", f"must be one of {', '.join(COMMANDS)}")
    if command is not None and file_command is not None and command != file_command:
        _fail("command", f"config says {file_command!r} but the command line says {command!r}")
    effective_command = command or file_command
    if effective_command is None:
        _fail("command", "missing (give it in the config or on the command line)")

    needs_domain = effective_command != "figure2"
    L = None
    mode = k = x = y = None
    t_range = None
    curve = data.get("curve")
    if curve is None and needs_domain:
        _fail("curve", "missing (required by every command except figure2)")
    if curve is not None:
        curve = _expect_map(curve, "curve")
        mode = curve.get("mode")
    if curve is not None and mode not in ("curvature", "parametric"):
        _fail("curve.mode", "must be 'curvature' or 'parametric'")
    if mode == "curvature":
        for key in curve:
            if key not in ("mode", "L", "k"):
                _fail(f"curve.{key}", "unknown key in curvature mode")
        if "L" not in curve:
            _fail("curve.L", "missing")
        L = _number(curve["L"], "curve.L", minimum=0.0)
        if "k" not in curve:
            _fail("curve.k", "missing")
        k = _expression_or_samples(curve["k"], "curve.k", ("s", "L"))
    elif mode == "parametric":
        for key in curve:
            if key not in ("mode", "x", "y", "t_range"):
                _fail(f"curve.{key}", "unknown key in parametric mode")
        for name in ("x", "y"):
            if name not in curve:
                _fail(f"curve.{name}", "missing")
        x = _expression_or_samples(curve["x"], "curve.x", ("t",))
        y = _expression_or_samples(curve["y"], "curve.y", ("t",))
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            _fail("curve.x", "parametric mode needs expressions, not samples")
        tr = curve.get("t_range")
        if not isinstance(tr, (list, tuple)) or len(tr) != 2:
            _fail("curve.t_range", "expected [start, end]")
        t_range = (_number(tr[0], "curve.t_range[0]"), _number(tr[1], "curve.t_range[1]"))
        if not t_range[1] > t_range[0]:
            _fail("curve.t_range", "end must exceed start")

    width = None
    if "width" in data:
        width = _expression_or_samples(data["width"], "width", ("s", "L"))
    elif needs_domain:
        _fail("width", "missing (required by every command except figure2)")

    p = _number(data.get("p", 2.0), "p", minimum=1.0)
    if "p" in overrides and overrides["p"] is not None:
        p = _number(overrides["p"], "--p", minimum=1.0)

    mesh = dict(DEFAULT_MESH)
    source = {key: f"mesh.{key}" for key in DEFAULT_MESH}
    for key, value in _expect_map(data.get("mesh", {}), "mesh").items():
        if key not in DEFAULT_MESH:
            _fail(f"mesh.{key}", "unknown key")
        mesh[key] = _integer(value, f"mesh.{key}", minimum=32 if key == "n_grid" else 8)
    for flag in ("ns", "nt"):
        if flag in overrides and overrides[flag] is not None:
            mesh[flag] = _integer(overrides[flag], f"--{flag}", minimum=8)
            source[flag] = f"--{flag}"
    if effective_command in ("solve2d", "sweep") and mesh["ns"] % 2 != 0:
        _fail(source["ns"], f"must be even for {effective_command} (got {mesh['ns']})")
    if effective_command == "solve1d" and mesh["n_grid"] % 2 != 0:
        _fail(source["n_grid"], f"must be even for solve1d (got {mesh['n_grid']})")
    if effective_command == "sweep" and mesh["nt"] < 16:
        _fail(source["nt"], f"must be at least 16 for sweep (got {mesh['nt']})")

    epsilons = data.get("epsilons")
    if epsilons is not None:
        if not isinstance(epsilons, (list, tuple)) or not epsilons:
            _fail("epsilons", "expected a non-empty array")
        epsilons = [_number(e, f"epsilons[{i}]", minimum=0.0) for i, e in enumerate(epsilons)]
    if effective_command == "sweep" and epsilons is None:
        _fail("epsilons", "missing (required by the sweep command)")

    n_samples = _integer(data.get("n_samples", DEFAULT_N_SAMPLES), "n_samples", minimum=65)

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in _expect_map(data.get("tolerances", {}), "tolerances").items():
        if key not in DEFAULT_TOLERANCES:
            _fail(f"tolerances.{key}", "unknown key")
        tolerances[key] = _number(value, f"tolerances.{key}", minimum=0.0)

    output = _expect_map(data.get("output", {}), "output")
    for key in output:
        if key != "dir":
            _fail(f"output.{key}", "unknown key")
    out_dir = output.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("output.dir", "expected a non-empty string")
    if "out" in overrides and overrides["out"] is not None:
        out_dir = overrides["out"]

    figure2_n = _integer(data.get("figure2_n", 500), "figure2_n", minimum=2)

    return RunConfig(
        command=effective_command,
        curve_mode=mode,
        L=L,
        k=k,
        x=x,
        y=y,
        t_range=t_range,
        width=width,
        p=p,
        mesh=mesh,
        epsilons=epsilons,
        n_samples=n_samples,
        tolerances=tolerances,
        out_dir=out_dir,
        raw_bytes=raw,
        figure2_n=figure2_n,
    )

