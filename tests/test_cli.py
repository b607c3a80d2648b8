"""End-to-end runs of the command line interface."""

import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fermi_spectra
from fermi_spectra.cli import _HANDLERS, main
from fermi_spectra.config import COMMANDS

RECT = {
    "curve": {"mode": "curvature", "L": math.pi, "k": "0"},
    "width": "0.4",
    "p": 2.0,
    "mesh": {"ns": 64, "nt": 16},
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(tmp_path, command, payload, extra=()):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    report = None
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return code, out, report


class TestCertify:
    def test_rectangle_certified(self, tmp_path, capsys):
        code, _, report = run(tmp_path, "certify", RECT)
        assert code == 0
        cert = report["results"]["certificate"]
        assert cert["certified"] is True
        assert cert["case_label"] == "a"
        assert cert["threshold"] == pytest.approx(1.5625, abs=1e-12)
        assert "certified=True" in capsys.readouterr().out

    def test_report_envelope(self, tmp_path):
        code, _, report = run(tmp_path, "certify", RECT)
        assert code == 0
        assert report["schema"] == 1
        assert report["command"] == "certify"
        assert len(report["config_sha256"]) == 64
        assert report["domain"]["curve_mode"] == "curvature"
        assert report["domain"]["valid"] is True


class TestBounds:
    def test_inapplicable_bound_still_succeeds(self, tmp_path):
        payload = dict(
            RECT,
            curve={"mode": "curvature", "L": math.pi, "k": "0.3*cos(2*s)"},
            width="0.2",
        )
        code, _, report = run(tmp_path, "bounds", payload)
        assert code == 0
        reports = {b["label"]: b for b in report["results"]["bounds"]}
        assert not reports["constant-width"]["applicable"]
        names = [
            h["name"]
            for h in reports["constant-width"]["hypotheses"]
            if not h["passed"]
        ]
        assert "concave curvature" in names
        assert reports["lyapunov"]["applicable"]

    def test_rectangle_bound_values(self, tmp_path):
        code, _, report = run(tmp_path, "bounds", RECT)
        assert code == 0
        reports = {b["label"]: b for b in report["results"]["bounds"]}
        assert reports["constant-width"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert reports["constant-width"]["applicable"]


class TestSolvers:
    def test_solve1d_outputs(self, tmp_path):
        code, out, report = run(tmp_path, "solve1d", RECT)
        assert code == 0
        res = report["results"]
        assert res["shooting"]["mu"] == pytest.approx(1.0, rel=1e-6)
        assert res["cross_rel_diff"] < 1e-3
        header = (out / "solve1d.csv").read_text().splitlines()[0]
        assert header == "s,w,u,du"

    def test_solve2d_outputs(self, tmp_path):
        code, out, report = run(tmp_path, "solve2d", RECT)
        assert code == 0
        res = report["results"]
        assert res["full"]["mu"] == pytest.approx(1.0, rel=1e-3)
        assert res["odd"]["mu"] == pytest.approx(res["full"]["mu"], rel=1e-9)
        header = (out / "solve2d.csv").read_text().splitlines()[0]
        assert header == "s,t,u"

    def test_sweep_outputs(self, tmp_path):
        payload = {
            "curve": {"mode": "curvature", "L": math.pi, "k": "-0.5"},
            "width": "1",
            "p": 2.0,
            "mesh": {"ns": 64, "nt": 16},
            "epsilons": [0.4, 0.2],
        }
        code, out, report = run(tmp_path, "sweep", payload)
        assert code == 0
        entries = report["results"]["entries"]
        assert len(entries) == 2
        assert entries[1]["rel_err"] < entries[0]["rel_err"]
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == "epsilon,mu,mu_star,rel_err"

    def test_sweep_partial_failure_still_exits_zero(self, tmp_path):
        payload = {
            "curve": {"mode": "curvature", "L": math.pi, "k": "-0.5"},
            "width": "1",
            "mesh": {"ns": 64, "nt": 16},
            "epsilons": [2.5, 0.2],
        }
        code, _, report = run(tmp_path, "sweep", payload)
        assert code == 0
        entries = report["results"]["entries"]
        assert entries[0]["failure"] is not None
        assert entries[0]["mu"] is None
        assert entries[1]["failure"] is None

    def test_figure2_outputs(self, tmp_path):
        code, out, report = run(tmp_path, "figure2", {"figure2_n": 50})
        assert code == 0
        res = report["results"]
        assert res["points"] == 50
        assert res["all_positive"] is True
        lines = (out / "figure2.csv").read_text().splitlines()
        assert lines[0] == "x,r,b,b_minus_r"
        assert len(lines) == 51


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path, capsys):
        code, _, _ = run(tmp_path, "certify", dict(RECT, p=0.5))
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.json")]) == 1

    def test_unknown_command_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, RECT)
        assert main(["frobnicate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "command, mesh, extra, key",
        [
            ("solve2d", {"ns": 9, "nt": 16}, [], "mesh.ns"),
            ("solve2d", {"ns": 64, "nt": 16}, ["--ns", "9"], "--ns"),
            ("sweep", {"ns": 64, "nt": 8}, [], "mesh.nt"),
            ("sweep", {"ns": 64, "nt": 16}, ["--nt", "8"], "--nt"),
            ("solve1d", {"ns": 64, "nt": 16, "n_grid": 16}, [], "mesh.n_grid"),
            ("solve1d", {"ns": 64, "nt": 16, "n_grid": 65}, [], "mesh.n_grid"),
        ],
    )
    def test_mesh_solver_cannot_take_is_one(self, tmp_path, capsys, command, mesh, extra, key):
        payload = dict(RECT, mesh=mesh, epsilons=[0.4])
        code, _, report = run(tmp_path, command, payload, extra=extra)
        err = capsys.readouterr().err
        assert code == 1
        assert report is None
        assert "config error" in err and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("width", "sqrt(0.5 - abs(s - L/2))"),
            ("k", "sqrt(0.5 - abs(s - L/2))"),
            ("width", "1/(s*(L-s))"),
            ("k", "1/(s*(L-s))"),
        ],
    )
    def test_nan_samples_are_config_error(self, tmp_path, capsys, key, value):
        # The sqrt expression is NaN where |s - L/2| > 1/2, the quotient is
        # infinite at both ends.  The rejection prints no numpy warning:
        # any warning raised here fails the test.
        if key == "width":
            payload = dict(RECT, width=value)
        else:
            payload = dict(RECT, curve={"mode": "curvature", "L": math.pi, "k": value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "bounds", payload)
        err = capsys.readouterr().err
        assert code == 1
        assert report is None
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "update",
        [
            {"width": "1/0"},
            {"curve": {"mode": "curvature", "L": math.pi, "k": "1/0"}},
            {"curve": {"mode": "parametric", "x": "t", "y": "sqrt(t)", "t_range": [-1, 1]}},
        ],
    )
    def test_infinite_or_undefined_profile_is_config_error(self, tmp_path, capsys, update):
        # 1/0 is inf, and sqrt(t) is NaN for t < 0, so the parametric speed
        # is not finite there.  As above, any warning fails the test.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "bounds", {**RECT, **update})
        err = capsys.readouterr().err
        assert code == 1
        assert report is None
        assert "config error" in err
        assert "Traceback" not in err
        if "t_range" in update.get("curve", {}):
            assert "ZeroSpeed" in err and "not finite" in err

    @pytest.mark.parametrize(
        "command, update, extra, key",
        [
            ("bounds", {}, ["--p", "inf"], "--p"),
            ("solve1d", {}, ["--p", "inf"], "--p"),
            ("solve2d", {}, ["--p", "inf"], "--p"),
            ("bounds", {"p": math.inf}, [], "p"),
            ("bounds", {"curve": {"mode": "curvature", "L": math.inf, "k": "0"}}, [], "curve.L"),
            ("bounds", {"curve": {"mode": "curvature", "L": 10**400, "k": "0"}}, [], "curve.L"),
            ("bounds", {"tolerances": {"symmetry": math.nan}}, [], "tolerances.symmetry"),
            ("bounds", {"epsilons": [0.4, -math.inf]}, [], "epsilons[1]"),
        ],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command, update, extra, key):
        # json writes these as Infinity, NaN and a 401-digit integer; the
        # parser reads the first two as floats and the last as an int.
        code, _, report = run(tmp_path, command, {**RECT, **update}, extra=extra)
        err = capsys.readouterr().err
        assert code == 1
        assert report is None
        assert f"{key}: must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mesh", [{}, {"n_steps": 512, "n_grid": 64}])
    def test_p_near_one_is_solver_error(self, tmp_path, capsys, mesh):
        # At p = 1 + 1e-7 the inverse power iteration of the discrete route
        # overflows to an infinite iterate; with 512 steps the shooting
        # integrator overflows first.  Either failure prints no numpy
        # warning: any warning raised here fails the test.
        payload = {
            "curve": {"mode": "curvature", "L": math.pi, "k": "-0.5"},
            "width": "0.3",
            "mesh": {"ns": 32, "nt": 16, **mesh},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "solve1d", payload, extra=["--p", "1.0000001"])
        err = capsys.readouterr().err
        assert code == 2
        assert report is None
        assert "solver error" in err
        assert "Traceback" not in err

    def test_fine_discrete_grid_succeeds(self, tmp_path, capsys):
        # The discrete route solves a tridiagonal pencil, so n_grid = 4096
        # costs milliseconds, not a pair of dense 4097 x 4097 matrices.
        payload = dict(RECT, mesh={"ns": 64, "nt": 16, "n_grid": 4096})
        code, _, report = run(tmp_path, "solve1d", payload)
        assert code == 0, capsys.readouterr().err
        res = report["results"]
        assert res["discretized"]["mu"] == pytest.approx(res["shooting"]["mu"], rel=1e-6)

    @pytest.mark.parametrize("command", ["solve1d", "sweep"])
    def test_limit_problem_uses_config_evenness(self, tmp_path, capsys, command):
        # The width is even to 3e-7, inside tolerances.evenness = 1e-5 but
        # not inside the 1e-8 default; the limit problem must use the former.
        payload = {
            "curve": {"mode": "curvature", "L": 3.0, "k": "0.2"},
            "width": "0.3 + 1e-7*s",
            "tolerances": {"evenness": 1e-5},
            "mesh": {"ns": 32, "nt": 16, "n_steps": 512, "n_grid": 64},
            "epsilons": [0.5, 0.25],
        }
        code, _, report = run(tmp_path, command, payload)
        assert code == 0, capsys.readouterr().err
        assert report["command"] == command

    def test_solver_error_is_two(self, tmp_path, capsys):
        payload = dict(RECT, curve={"mode": "curvature", "L": math.pi, "k": "4"})
        code, _, _ = run(tmp_path, "solve2d", payload)
        assert code == 2
        assert "solver error" in capsys.readouterr().err

    def test_width_beyond_double_range_is_config_error(self, tmp_path, capsys):
        # A width of 1.5e308 is a finite, positive, even profile, but the
        # offset curve overflows.  Building the strip rejects it with no
        # numpy warning: any warning raised here fails the test.
        payload = {"curve": {"mode": "curvature", "L": 3.0, "k": "-0.5"}, "width": "1.5e308"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "bounds", payload)
        err = capsys.readouterr().err
        assert code == 1
        assert report is None
        assert "config error: InvalidDomain" in err and "not finite" in err
        assert "Traceback" not in err

    def test_infinite_width_is_named_not_finite(self, tmp_path, capsys):
        # 1e400 parses to inf; the weight check names it as not finite
        # rather than as asymmetric (inf - inf is NaN).
        payload = {"curve": {"mode": "curvature", "L": 3.0, "k": "-0.5"}, "width": "1e400"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "bounds", payload)
        err = capsys.readouterr().err
        assert code == 1
        assert report is None
        assert "config error: NonpositiveWeight" in err and "not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("width", ["2e154", "1e200"])
    def test_width_beyond_crossing_test_range_is_config_error(self, tmp_path, capsys, width):
        # The offset curve is finite, but the crossing test's cross products
        # (up to twice the squared extent of the boundary polygon) overflow.
        payload = {"curve": {"mode": "curvature", "L": 3.0, "k": "-0.5"}, "width": width}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "bounds", payload)
        err = capsys.readouterr().err
        assert code == 1
        assert report is None
        assert "config error: InvalidDomain" in err and "crossing test" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["-0.5", "0.5"])
    def test_width_just_inside_crossing_test_range_runs_bounds(self, tmp_path, capsys, k):
        # The widest accepted constant width on L = 3, k = +-0.5 is about
        # 6.954e153; just below it the bounds run with no numpy warning.
        payload = {"curve": {"mode": "curvature", "L": 3.0, "k": k}, "width": "6.9e153"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "bounds", payload)
        assert code == 0, capsys.readouterr().err
        assert report["command"] == "bounds"

    def test_width_below_double_precision_is_degenerate_cell(self, tmp_path, capsys):
        # 1 / delta^2 overflows at delta = 1e-200.  The mesh reports the
        # degenerate metric without a numpy warning: any warning raised
        # here fails the test.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "solve2d", dict(RECT, width="1e-200"))
        err = capsys.readouterr().err
        assert code == 2
        assert report is None
        assert "solver error: DegenerateCell" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, p",
        [("bounds", "2"), ("certify", "2"), ("solve1d", "2"), ("solve1d", "1.5")],
    )
    def test_length_below_double_precision_is_solver_error(self, tmp_path, capsys, command, p):
        # On L = 1e-200, (pi / L)^p and the discrete 1D eigenvalues leave
        # double range, and the Lyapunov integral underflows to 0.  Each is
        # a solver error, with no report (which would carry an Infinity)
        # and no numpy warning: any warning raised here fails the test.
        payload = dict(RECT, curve={"mode": "curvature", "L": 1e-200, "k": "0"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, command, payload, extra=["--p", p])
        err = capsys.readouterr().err
        assert code == 2
        assert report is None
        assert "solver error: SolveFailure" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("p", ["2", "1.5"])
    def test_length_below_double_precision_solve2d_is_degenerate_cell(self, tmp_path, capsys, p):
        # On L = 1e-200 the squared shape gradients (about 1 / hs^2) leave
        # double range in the stiffness contraction.  assemble reports the
        # overflow without a numpy warning: any warning raised here fails
        # the test.
        payload = dict(RECT, curve={"mode": "curvature", "L": 1e-200, "k": "0"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, report = run(tmp_path, "solve2d", payload, extra=["--p", p])
        err = capsys.readouterr().err
        assert code == 2
        assert report is None
        assert "solver error: DegenerateCell" in err
        assert "overflow" in err
        assert "Traceback" not in err

    def test_bounds_on_folded_strip_are_not_applicable(self, tmp_path, capsys):
        # k = 4 with width 0.4 keeps the area factor positive but the
        # boundary crosses itself; the strip bounds need an embedded strip,
        # the Lyapunov bound of the 1D problem does not.
        payload = dict(RECT, curve={"mode": "curvature", "L": math.pi, "k": "4"})
        code, _, report = run(tmp_path, "bounds", payload)
        assert code == 0, capsys.readouterr().err
        assert report["domain"]["valid"] is False
        bounds = {b["label"]: b for b in report["results"]["bounds"]}
        for label in ("constant-width", "variable-width"):
            assert bounds[label]["applicable"] is False
            failed = [h for h in bounds[label]["hypotheses"] if not h["passed"]]
            assert [h["name"] for h in failed] == ["embedded strip"]
            assert failed[0]["residual"] > 0
        assert bounds["lyapunov"]["applicable"] is True

    def test_invalid_domain_message_names_collisions(self, tmp_path, capsys):
        payload = dict(RECT, curve={"mode": "curvature", "L": math.pi, "k": "4"})
        run(tmp_path, "solve2d", payload)
        assert "collisions" in capsys.readouterr().err


class TestOverridesAndDeterminism:
    def test_p_flag_beats_config(self, tmp_path):
        code, _, report = run(tmp_path, "bounds", RECT, extra=["--p", "3.0"])
        assert code == 0
        assert report["p"] == 3.0

    def test_mesh_flags_beat_config(self, tmp_path):
        code, _, report = run(
            tmp_path, "solve2d", RECT, extra=["--ns", "32", "--nt", "8"]
        )
        assert code == 0
        assert report["mesh"]["ns"] == 32
        assert report["mesh"]["nt"] == 8

    def test_reruns_are_byte_identical(self, tmp_path):
        # solve2d at p = 3 covers the Rayleigh descent, at p = 2 the solve
        # by mirror parity.  Every strip result states its parity and gap
        # (null for the descent, which has no gap estimate).
        cfg = write_cfg(tmp_path, dict(RECT, epsilons=[0.4, 0.2]))
        for label, command, extra in [
            ("solve1d", "solve1d", []),
            ("solve2d-p3", "solve2d", ["--p", "3", "--ns", "32", "--nt", "16"]),
            ("solve2d-p2", "solve2d", ["--ns", "32", "--nt", "16"]),
            ("sweep", "sweep", ["--ns", "32", "--nt", "16"]),
        ]:
            outs = []
            for name in ("a", "b"):
                out = tmp_path / f"{label}-{name}"
                assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
                outs.append(out)
            for fname in ("report.json", f"{command}.csv"):
                assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
            res = json.loads((outs[0] / "report.json").read_text())["results"]
            strips = [res["full"], res["odd"]] if command == "solve2d" else res.get("entries", [])
            for entry in strips:
                assert entry["parity"] == "odd"
                if label == "solve2d-p3":
                    assert entry["gap"] is None
                else:
                    assert entry["gap"] > 0.0

    def test_wide_sector_first_mode_is_even(self, tmp_path):
        # The sample config where the radial (even) mode lies below the
        # first odd one; the CSV holds the whole strip, mirror symmetric.
        cfg = Path(__file__).resolve().parents[1] / "configs" / "wide_sector.json"
        out = tmp_path / "out"
        argv = ["solve2d", "--config", str(cfg), "--out", str(out), "--ns", "64", "--nt", "16"]
        assert main(argv) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["full"]["parity"] == "even"
        assert res["full"]["mu"] < res["odd"]["mu"]
        assert res["full"]["gap"] == pytest.approx(res["odd"]["mu"] / res["full"]["mu"] - 1.0)
        rows = [line.split(",") for line in (out / "solve2d.csv").read_text().splitlines()[1:]]
        assert len(rows) == 65 * 17
        assert [float(v) for v in rows[-1][:2]] == [math.pi, 1.0]
        u = [float(r[2]) for r in rows]
        columns = [u[i * 17:(i + 1) * 17] for i in range(65)]
        assert columns == columns[::-1]

    def test_report_uses_lf_and_sorted_keys(self, tmp_path):
        cfg = write_cfg(tmp_path, RECT)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        raw = (out / "report.json").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        doc = json.loads(raw)
        assert list(doc) == sorted(doc)


SCRIPT = "fermi-spectra"


def script_env(tmp_path):
    """Environment in which ``fermi-spectra`` runs the declared entry point.

    Writes the launcher an installer writes for the ``[project.scripts]``
    entry into ``tmp_path/bin`` and puts that directory first on PATH, so the
    command runs by name from the source tree without an install.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert SCRIPT in scripts, f"[project.scripts] does not declare {SCRIPT}"
    module, _, attr = scripts[SCRIPT].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / SCRIPT
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"import {module}\n"
        f"sys.exit({module}.{attr}())\n"
    )
    launcher.chmod(0o755)

    package_root = Path(fermi_spectra.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return env


def run_figure2(command, tmp_path, env, name):
    cfg = write_cfg(tmp_path, {"figure2_n": 10})
    out = tmp_path / name
    proc = subprocess.run(
        [*command, "figure2", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc, out


def test_console_script_installed(tmp_path):
    env = script_env(tmp_path)
    proc, out = run_figure2([SCRIPT], tmp_path, env, "out")
    assert proc.returncode == 0, proc.stderr
    assert "figure2: 10 points" in proc.stdout
    assert (out / "report.json").exists()


def test_module_entry_matches_script(tmp_path):
    env = script_env(tmp_path)
    module_cmd = [sys.executable, "-m", "fermi_spectra.cli"]
    proc, module_out = run_figure2(module_cmd, tmp_path, env, "module")
    assert proc.returncode == 0, proc.stderr
    proc, script_out = run_figure2([SCRIPT], tmp_path, env, "script")
    assert proc.returncode == 0, proc.stderr
    report = (module_out / "report.json").read_bytes()
    assert report == (script_out / "report.json").read_bytes()


def run_module(tmp_path, *argv):
    """``python -m fermi_spectra.cli`` in a fresh interpreter, so stderr holds
    everything a user sees: tracebacks and numpy warnings included."""
    package_root = Path(fermi_spectra.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "fermi_spectra.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
    )


ANNULUS = Path(__file__).resolve().parents[1] / "configs" / "annulus.json"


@pytest.mark.parametrize("p", ["2000", "3000", "1e308"])
def test_large_p_solve2d_is_solver_failure(tmp_path, p):
    # At p = 2000 the quotient's gradient overflows.  At 3000 and above
    # |grad u|^p leaves double range at the descent's p = 2 start, and at
    # p = 1e308 the denominator underflows to 0 as well.
    proc = run_module(tmp_path, "solve2d", "--config", str(ANNULUS), "--p", p)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("solver error: SolveFailure: ")
    assert f"p={float(p):.9g}" in lines[0]
    assert not (tmp_path / "out" / "report.json").exists()


def test_large_p_bounds_print_no_warning(tmp_path):
    # The Lyapunov integrand (L/2 - s)^(p - 1) overflows; the bound is 0.
    proc = run_module(tmp_path, "bounds", "--config", str(ANNULUS), "--p", "1e5")
    assert proc.returncode == 0
    assert proc.stderr == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    lyapunov = [b for b in report["results"]["bounds"] if b["label"] == "lyapunov"]
    assert lyapunov[0]["value"] == 0.0


# A small curved strip on which every command succeeds; the sweep's first
# epsilon folds the strip, so its summary shows a failed entry too.
PIN = {
    "curve": {"mode": "curvature", "L": math.pi, "k": "-0.5"},
    "width": "0.5 + 0.1*cos(2*pi*s/L)",
    "mesh": {"ns": 16, "nt": 16, "n_steps": 512, "n_grid": 64},
    "epsilons": [5.0, 0.4, 0.2],
    "figure2_n": 10,
}

# Each command's summary on PIN, as the two-dispatch CLI printed it.
PINNED_SUMMARY = {
    "bounds": [
        "constant-width: value=1 applicable=False",
        "variable-width: value=0.5 applicable=False",
        "lyapunov: value=0.599834798 applicable=True",
    ],
    "certify": ["case b: threshold=0.340277778 upper=1.0783103 certified=False"],
    "solve1d": [
        "shooting: mu=0.812815437",
        "discretized: mu=0.813160074",
        "cross relative difference: 0.000424",
    ],
    "solve2d": [
        "full: mu=1.06337982 parity=odd converged=True",
        "odd:  mu=1.06337982 converged=True",
    ],
    "sweep": [
        "mu_star=0.812815437 fitted_rate=None",
        "eps=5.0: failed (InvalidDomain: domain failed validation (jacobian_min=-0.5, collisions=5))",
        "eps=0.4: mu=0.90020716 rel_err=0.108 certified=True",
        "eps=0.2: mu=0.854913809 rel_err=0.0518 certified=True",
    ],
    "figure2": ["figure2: 10 points, smallest gap 0.00491203, all positive: True"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_summary_lines_are_pinned(tmp_path, capsys, command):
    assert sorted(_HANDLERS) == sorted(COMMANDS) == sorted(PINNED_SUMMARY)
    code, out, _ = run(tmp_path, command, PIN)
    assert code == 0
    files = ["report.json"] + ([] if command in ("bounds", "certify") else [f"{command}.csv"])
    wrote = [f"wrote {os.path.join(str(out), name)}" for name in files]
    assert capsys.readouterr().out.splitlines() == PINNED_SUMMARY[command] + wrote


@pytest.mark.parametrize("command", ["bounds", "certify", "solve1d", "solve2d"])
@pytest.mark.parametrize(
    "update, message",
    [
        ({"curve": {"mode": "curvature", "L": math.pi, "k": "1/1e999"}}, "curve.k: a number literal"),
        ({"width": "0.4 + 0*exp(-1e999)"}, "width: a number literal"),
        ({"width": [10**400] + [0.4] * 8}, "width: sample arrays must be finite"),
    ],
)
def test_number_beyond_double_range_is_config_error(tmp_path, capsys, command, update, message):
    # Each strip builds from these (1/1e999 is 0), but a literal that reads
    # as inf cannot be printed back into the report, and numpy cannot read
    # 10**400 into a float array.
    code, _, report = run(tmp_path, command, {**RECT, **update})
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert "config error" in err and message in err


@pytest.mark.parametrize("samples", [[True] * 9, ["0.4"] * 9], ids=["booleans", "strings"])
def test_sample_array_of_non_numbers_is_config_error(tmp_path, capsys, samples):
    # numpy would read these as width 1 and 0.4, and certify would exit 0.
    code, _, report = run(tmp_path, "certify", {**RECT, "width": samples})
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert "config error" in err and "width: sample arrays must hold numbers only" in err


# solve2d at p != 2 on the 64x16 sample strips of CI: the full and odd
# results of the descent preconditioned by the reweighted stiffness.  Its
# mu agrees with the p = 2 preconditioned descent's to 1.3e-14 at p = 1.5
# and 3; at p = 100 that descent accepted no step and stopped at its start
# (mu 3.06e10, residual 2.0e3), and this one descends to a stall above
# RESIDUAL_TOL, so it is not converged.
PINNED_DESCENTS = {
    ("annulus", 1.5): {
        "full": (1.169968605132103, 1.598924704506217e-07, 13, True, "odd"),
        "odd": (1.169968605132103, 1.598924704506217e-07, 13, True, "odd"),
    },
    ("annulus", 3.0): {
        "full": (1.3835754746745423, 6.979849409875924e-07, 12, True, "odd"),
        "odd": (1.3835754746745423, 6.979849409875924e-07, 12, True, "odd"),
    },
    ("annulus", 100.0): {
        "full": (3.77957608992612e-13, 4.100043040980777e-05, 914, False, "odd"),
        "odd": (3.77957608992612e-13, 4.100043040980777e-05, 914, False, "odd"),
    },
    ("wide_sector", 1.5): {
        "full": (1.0922065523092093, 4.709885475097626e-08, 9, True, "even"),
        "odd": (1.5042018216156843, 4.845138014275579e-07, 14, True, "odd"),
    },
}


@pytest.mark.parametrize("config, p", list(PINNED_DESCENTS), ids=lambda v: str(v))
def test_descent_reports_are_pinned(tmp_path, config, p):
    cfg = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    out = tmp_path / "out"
    argv = ["solve2d", "--config", str(cfg), "--out", str(out), "--p", str(p), "--ns", "64", "--nt", "16"]
    assert main(argv) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    for variant, (mu, residual, iterations, converged, parity) in PINNED_DESCENTS[config, p].items():
        got = res[variant]
        assert got["mu"] == pytest.approx(mu, rel=1e-12)
        assert got["residual"] == pytest.approx(residual, rel=1e-6)
        assert (got["iterations"], got["converged"], got["parity"], got["gap"]) == (
            iterations, converged, parity, None,
        )


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report.json")


# --ns and --nt values: absent (the config's 16 x 16), at the floors of 8
# (every mesh size) and 16 (the sweep's nt), odd, below those floors, zero
# and negative.  A drawn mesh is no finer than the config's, so a descent
# at a drawn p costs no more than without the flags.
NS_FLAGS = [None, 8, 9, 7, 6, 0, -4]
NT_FLAGS = [None, 16, 9, 8, 7, 0, -2]


@given(
    command=st.sampled_from(COMMANDS),
    p=st.floats(math.log(1.001), math.log(1e4)).map(math.exp),
    p_flag=st.booleans(),
    k=st.sampled_from(["0", "-0.5", "0.6*cos(2*pi*s/L) - 0.5", "1/1e999"]),
    width=st.sampled_from(
        ["0.4", "0.5 + 0.1*cos(2*pi*s/L)", "2.5", "0.4 + 0*exp(-1e999)", [10**400] + [0.4] * 8]
    ),
    ns=st.sampled_from(NS_FLAGS),
    nt=st.sampled_from(NT_FLAGS),
)
# A p = 2 solve2d whose half mesh is above eig2d._COARSE_MIN_NODES: its
# class solves start from a coarse mesh's Ritz vectors.
@example(command="solve2d", p=2.0, p_flag=False, k="-0.5", width="0.5 + 0.1*cos(2*pi*s/L)", ns=256, nt=32)
@settings(max_examples=250, derandomize=True, deadline=None)
def test_every_config_ends_in_an_exit_code(command, p, p_flag, k, width, ns, nt):
    # The error contract: exit 0, 1 or 2, never an exception, and a report
    # (written on exit 0 only) that is strict JSON, with no NaN or Infinity.
    # p comes from the config or from --p, the mesh from the config or from
    # --ns and --nt.
    payload = {
        "curve": {"mode": "curvature", "L": math.pi, "k": k},
        "width": width,
        "p": 2.0 if p_flag else p,
        "mesh": {"ns": 16, "nt": 16, "n_steps": 512, "n_grid": 64},
        "epsilons": [0.4, 0.2],
        "figure2_n": 16,
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = Path(tmp) / "out"
        flags = ["--p", repr(p)] if p_flag else []
        for flag, n in (("--ns", ns), ("--nt", nt)):
            if n is not None:
                flags += [flag, str(n)]
        code = main([command, "--config", str(cfg), "--out", str(out), *flags])
        assert code in (0, 1, 2)
        report = out / "report.json"
        assert report.exists() == (code == 0)
        if code == 0:
            json.loads(report.read_text(), parse_constant=_reject_constant)
