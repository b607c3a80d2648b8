"""Each command imports only the scipy subpackages it calls.

The package modules import bare scipy, whose subpackages load on first
attribute access, so the import floor of a command that needs none of
them is numpy plus scipy's own small top level.  Each check runs in a
fresh interpreter, since this test process has loaded scipy in full.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Prints the public scipy subpackages (scipy.__all__) loaded after body ran.
PROBE = """
import json, sys
import scipy
{body}
loaded = {{m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}}
print(json.dumps(sorted(loaded & set(scipy.__all__))))
"""


def loaded_subpackages(body):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_body(command, config, out, *extra):
    argv = [command, "--config", str(ROOT / "configs" / config), "--out", str(out), *extra]
    return f"from fermi_spectra.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("module", ["fermi_spectra", "fermi_spectra.cli"])
def test_package_import_loads_no_subpackage(module):
    assert loaded_subpackages(f"import {module}") == set()


@pytest.mark.parametrize("command", ["figure2", "certify"])
def test_closed_form_commands_load_no_subpackage(tmp_path, command):
    assert loaded_subpackages(cli_body(command, "rectangle.json", tmp_path)) == set()


def test_linear_strip_solve_loads_no_quadrature_or_root_finder(tmp_path):
    loaded = loaded_subpackages(cli_body("solve2d", "annulus.json", tmp_path, "--p", "2"))
    assert not loaded & {"optimize", "integrate", "interpolate", "spatial"}
    assert "linalg" in loaded


@pytest.mark.parametrize("command", ["certify", "bounds"])
def test_parametric_curve_commands_load_no_subpackage(tmp_path, command):
    assert loaded_subpackages(cli_body(command, "parabola.json", tmp_path)) == set()


def test_arc_length_resampling_loads_no_subpackage():
    body = (
        "from fermi_spectra import curvature_from_parametric\n"
        "curvature_from_parametric(lambda t: t, lambda t: 0.15 * t * t, (-1.0, 1.0))"
    )
    assert loaded_subpackages(body) == set()


@pytest.mark.parametrize("config", ["wavy_sweep.json", "parabola.json"])
def test_limit_solve_loads_no_subpackage(tmp_path, config):
    # Shooting and the discretized route, its tridiagonal pencil included,
    # run on numpy and the package's own Brent method.
    assert loaded_subpackages(cli_body("solve1d", config, tmp_path)) == set()


@pytest.mark.parametrize("command", ["solve1d", "sweep"])
def test_root_finding_commands_load_no_optimize(tmp_path, command):
    # Shooting and the p-mean shift find their roots with the package's own
    # Brent method.
    assert "optimize" not in loaded_subpackages(cli_body(command, "wavy_sweep.json", tmp_path))
