"""Each command imports only the package modules and scipy subpackages it calls.

`import fermi_spectra` loads none of its submodules: each loads when one
of its names is first read, and the CLI imports the solvers inside the
handlers that call them.  So figure2, bounds and certify load no solver
module, solve1d no strip solver, and no command loads numpy.ma.

The package imports no scipy module: the strip solver loads bare scipy
and its LAPACK extension module when it first factors, without the
scipy.linalg package, and the pi_p quadrature oracle imports
scipy.integrate when called.  So the import floor of a command that needs
no subpackage is numpy plus, for the strip solves, scipy's own small top
level.  Each check runs in a fresh interpreter, since this test process
has loaded scipy in full and every package module.

Each package module also reads every name it imports, checked on its AST.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Prints every module loaded after body ran, then the public scipy
# subpackage names (scipy.__all__).
PROBE = """
import json, sys
{body}
loaded = sorted(sys.modules)
import scipy
print(json.dumps([loaded, scipy.__all__]))
"""


def run_probe(body):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, public = json.loads(proc.stdout.splitlines()[-1])
    return set(loaded), set(public)


def probe(body):
    """The scipy modules loaded after body ran, and the public subpackages
    among them.  A subpackage counts by its exact module name, so
    scipy.linalg._flapack alone does not count as scipy.linalg."""
    loaded, public = run_probe(body)
    loaded = {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    return loaded, {m.split(".")[1] for m in loaded if m.count(".") == 1} & public


def package_probe(body):
    """The fermi_spectra submodules (without the package prefix) loaded
    after body ran, and whether numpy.ma was."""
    loaded, _ = run_probe(body)
    return {m.split(".", 1)[1] for m in loaded if m.startswith("fermi_spectra.")}, "numpy.ma" in loaded


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


def test_package_import_loads_no_submodule():
    assert package_probe("import fermi_spectra") == (set(), False)


# The modules every command loads: the CLI, its config reader, and what
# building the strip and evaluating the closed forms need.
COMMON = {"cli", "config", "errors", "expressions", "geometry", "analysis"}


@pytest.mark.parametrize(
    "command, config, solvers",
    [
        ("figure2", "gap_table.json", set()),
        ("bounds", "wavy_sweep.json", set()),
        ("certify", "rectangle.json", set()),
        ("certify", "parabola.json", set()),
        ("solve1d", "wavy_sweep.json", {"eig1d", "asymptotics"}),
        ("solve2d", "annulus.json", {"eig1d", "eig2d"}),
        ("sweep", "wavy_sweep.json", {"eig1d", "eig2d", "asymptotics"}),
    ],
)
def test_command_loads_only_its_modules(tmp_path, command, config, solvers):
    # The closed-form commands load no solver, solve1d no strip solver; the
    # strip's boundary check finds its side edges without np.setdiff1d,
    # whose np.unique imports numpy.ma.
    loaded, masked = package_probe(cli_body(command, config, tmp_path))
    assert loaded == COMMON | solvers
    assert not masked


SUBMODULES = sorted(COMMON | {"eig1d", "eig2d", "asymptotics"})


def test_public_names_are_their_submodules_objects():
    body = (
        "import importlib, fermi_spectra as fs\n"
        "assert len(fs.__all__) == len(set(fs.__all__)) == 52\n"
        f"mods = [importlib.import_module(f'fermi_spectra.{{m}}') for m in {SUBMODULES!r}]\n"
        "for name in fs.__all__:\n"
        "    obj = getattr(fs, name)\n"
        "    assert [m for m in mods if getattr(m, name, None) is obj], name\n"
        "for m in mods:\n"
        "    assert getattr(fs, m.__name__.split('.')[1]) is m\n"
        f"assert set(fs.__all__) | set({SUBMODULES!r}) <= set(dir(fs))"
    )
    loaded, _ = package_probe(body)
    assert "eig2d" in loaded


def test_star_import_and_unknown_name():
    body = (
        "from fermi_spectra import *\n"
        "from fermi_spectra import eig2d\n"
        "assert solve_mu1_linear is eig2d.solve_mu1_linear\n"
        "import fermi_spectra\n"
        "try:\n"
        "    fermi_spectra.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')\n"
        "assert not hasattr(fermi_spectra, 'solve_mu1')"
    )
    loaded, _ = package_probe(body)
    assert loaded >= {"analysis", "asymptotics", "eig1d", "eig2d", "geometry"}


def unread_imports(source):
    """Names a module imports but never reads, from __future__ imports aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
    )
    assert unread_imports(source) == {"os", "field"}


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "fermi_spectra").glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    source = (ROOT / "src" / "fermi_spectra" / module).read_text(encoding="utf-8")
    assert unread_imports(source) == set()
