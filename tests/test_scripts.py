"""The study scripts under scripts/ report failure through their exit code."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "annulus_study.py"


@pytest.fixture
def study(monkeypatch):
    spec = importlib.util.spec_from_file_location("annulus_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", ["annulus_study.py", "--ns", "32", "--nt", "16", "--p", "2"])
    return module


def test_annulus_study_exits_0_when_ordered(study, capsys):
    assert study.main() == 0
    assert "WARNING" not in capsys.readouterr().out


def test_annulus_study_exits_1_when_ordering_fails(study, monkeypatch, capsys):
    # a full-strip value above the odd one breaks lower <= full <= odd
    def solve(domain, p, ns, nt, odd=False):
        return SimpleNamespace(mu=1.3 if odd else 1.4)

    monkeypatch.setattr(study, "solve_mu1_nonlinear", solve)
    assert study.main() == 1
    assert "ordering violated at p=2.0" in capsys.readouterr().out
