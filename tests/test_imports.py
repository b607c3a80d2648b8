"""Each command imports only the scipy subpackages it calls.

The package imports no scipy module: the strip solver loads bare scipy
and its LAPACK extension module when it first factors, without the
scipy.linalg package, and the pi_p quadrature oracle imports
scipy.integrate when called.  So the import floor of a command that needs
no subpackage is numpy plus, for the strip solves, scipy's own small top
level.  Each check runs in a fresh interpreter, since this test process
has loaded scipy in full.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Prints the scipy modules loaded after body ran, then the public
# subpackage names (scipy.__all__).
PROBE = """
import json, sys
{body}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import scipy
print(json.dumps([loaded, scipy.__all__]))
"""


def probe(body):
    """The scipy modules loaded after body ran, and the public subpackages
    among them.  A subpackage counts by its exact module name, so
    scipy.linalg._flapack alone does not count as scipy.linalg."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, public = json.loads(proc.stdout.splitlines()[-1])
    return set(loaded), {m.split(".")[1] for m in loaded if m.count(".") == 1} & set(public)


def loaded_subpackages(body):
    return probe(body)[1]


def cli_body(command, config, out, *extra):
    argv = [command, "--config", str(ROOT / "configs" / config), "--out", str(out), *extra]
    return f"from fermi_spectra.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("module", ["fermi_spectra", "fermi_spectra.cli"])
def test_package_import_loads_no_subpackage(module):
    # stronger than its name: no scipy module at all, bare scipy included
    assert probe(f"import {module}")[0] == set()


@pytest.mark.parametrize("command", ["figure2", "certify"])
def test_closed_form_commands_load_no_subpackage(tmp_path, command):
    assert loaded_subpackages(cli_body(command, "rectangle.json", tmp_path)) == set()


@pytest.mark.parametrize(
    "command, config, extra",
    [
        ("solve2d", "annulus.json", ("--p", "2")),
        ("solve2d", "annulus.json", ("--p", "3", "--ns", "64", "--nt", "16")),
        ("sweep", "wavy_sweep.json", ()),
    ],
    ids=["solve2d-p2", "solve2d-p3", "sweep"],
)
def test_strip_solves_load_no_subpackage(tmp_path, command, config, extra):
    # The band Cholesky and Rayleigh-Ritz routines come from scipy's LAPACK
    # extension module, without the scipy.linalg package, and the stencil
    # products are numpy's.
    loaded, subpackages = probe(cli_body(command, config, tmp_path, *extra))
    assert "scipy.linalg._flapack" in loaded
    assert not loaded & {"scipy.linalg", "scipy.sparse"}
    assert subpackages == set()


SOLVE_STRIP = """
from fermi_spectra import eig2d, make_domain, reconstruct_from_curvature, solve_mu1_linear, width_profile
domain = make_domain(reconstruct_from_curvature(3.0, -0.5), width_profile(0.4, 3.0))
mu = solve_mu1_linear(domain, 32, 16).mu
"""


@pytest.mark.parametrize("linalg_first", [False, True], ids=["solve-then-import", "import-then-solve"])
def test_lapack_module_is_shared_with_scipy_linalg(linalg_first):
    # In either order there is one LAPACK extension module: the routines
    # scipy.linalg.lapack exports are the ones the strip solver calls.
    steps = [SOLVE_STRIP, "import scipy.linalg.lapack"]
    if linalg_first:
        steps.reverse()
    body = "\n".join(steps) + (
        "\nassert scipy.linalg.lapack.dpbtrf is eig2d._lapack().dpbtrf"
        "\nassert scipy.linalg.lapack.dsygvd is eig2d._lapack().dsygvd"
        "\neig2d._slot = None"
        "\nassert solve_mu1_linear(domain, 32, 16).mu == mu"
    )
    assert "scipy.linalg" in probe(body)[0]


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
