"""Thin-strip sweeps against the one dimensional limit."""

import math

import numpy as np
import pytest

from fermi_spectra import (
    MeshPolicy,
    epsilon_sweep,
    limit_problem,
    make_domain,
    reconstruct_from_curvature,
    solve_shooting,
    upper_bound_epsilon,
    width_profile,
)


@pytest.fixture(scope="module")
def unit_width_curved():
    curve = reconstruct_from_curvature(math.pi, lambda s: -0.5)
    width = width_profile(1.0, math.pi)
    return make_domain(curve, width)


@pytest.fixture(scope="module")
def straight_strip():
    curve = reconstruct_from_curvature(math.pi, lambda s: 0.0)
    width = width_profile(1.0, math.pi)
    return make_domain(curve, width)


class TestLimitProblem:
    def test_weight_is_the_width(self, unit_width_curved):
        problem = limit_problem(unit_width_curved, 2.0)
        np.testing.assert_allclose(
            problem.w_samples, unit_width_curved.width.delta_samples
        )
        assert problem.L == unit_width_curved.L
        assert problem.p == 2.0

    def test_constant_width_limit_value(self, unit_width_curved):
        mu_star = solve_shooting(limit_problem(unit_width_curved, 2.0)).mu
        assert mu_star == pytest.approx(1.0, rel=1e-9)


class TestUpperBound:
    def test_straight_strip_bound_is_width_independent(self, straight_strip):
        # zero curvature makes both layer integrals proportional to the
        # width, so the quotient cannot depend on eps at all
        values = [
            upper_bound_epsilon(straight_strip, 2.0, eps)
            for eps in (0.4, 0.2, 0.1, 0.05)
        ]
        assert np.ptp(values) < 1e-12
        assert values[0] == pytest.approx(1.0, rel=1e-6)

    def test_bound_decreases_with_eps_under_negative_curvature(
        self, unit_width_curved
    ):
        a = upper_bound_epsilon(unit_width_curved, 2.0, 0.4)
        b = upper_bound_epsilon(unit_width_curved, 2.0, 0.1)
        assert a > b > 1.0 - 1e-9


@pytest.fixture(scope="module")
def sweep(unit_width_curved):
    return epsilon_sweep(
        unit_width_curved,
        2.0,
        [0.4, 0.2, 0.1],
        policy=MeshPolicy(ns=64, nt=16),
    )


class TestSweep:
    def test_limit_value(self, sweep):
        assert sweep.mu_star == pytest.approx(1.0, rel=1e-9)

    def test_errors_decrease(self, sweep):
        assert sweep.failures == [None, None, None]
        assert np.all(np.diff(sweep.rel_errors) < 0.0)
        assert np.all(sweep.converged)

    def test_entries_state_parity_and_gap(self, sweep):
        # thin strips: cos(pi s / L) wins, about a factor 4 below the next mode
        assert sweep.parities == ["odd", "odd", "odd"]
        assert np.all((sweep.gaps > 2.0) & (sweep.gaps < 4.0))

    def test_upper_bounds_dominate(self, sweep):
        assert np.all(sweep.upper_bounds >= sweep.mu_values)

    def test_thresholds_grow_quadratically(self, sweep):
        # case-b threshold (1 + eps delta k)^2 / (4 eps^2 delta^2)
        eps = sweep.epsilons
        exact = (1.0 - 0.5 * eps) ** 2 / (4.0 * eps**2)
        np.testing.assert_allclose(sweep.thresholds, exact, rtol=1e-9)

    def test_certificates_flip_on(self, sweep):
        assert sweep.certified[-1]

    def test_refine_estimates_recorded(self, sweep):
        assert np.all(np.isfinite(sweep.refine_estimates))
        assert np.all(sweep.refine_estimates < 1e-2)

    def test_rate_fit(self, sweep):
        assert sweep.fitted_rate == pytest.approx(1.0, abs=0.15)


def test_near_one_sweep_descents_take_few_steps(monkeypatch):
    # At p = 1.2393 the doubled mesh's descents, preconditioned by the p = 2
    # stiffness alone, took 14 000 to 17 000 steps (5 s for the sweep).
    from fermi_spectra import eig2d

    steps = []
    original = eig2d._descent

    def recorded(half, p, parity):
        result = original(half, p, parity)
        steps.append((half.mesh.n_nodes, result.iterations))
        return result

    monkeypatch.setattr(eig2d, "_descent", recorded)
    monkeypatch.setattr(eig2d, "_slot", None)
    domain = make_domain(reconstruct_from_curvature(math.pi, lambda s: -0.5), width_profile(0.4, math.pi))
    sweep = epsilon_sweep(domain, 1.2393, [0.4, 0.2], MeshPolicy(16, 16))
    assert sweep.failures == [None, None]
    fine = [n for nodes, n in steps if nodes == 17 * 33]  # the 32 x 32 half mesh
    assert len(fine) == 2 and max(fine) <= 500


class TestFailureHandling:
    def test_folding_entry_marked_failed(self, unit_width_curved):
        result = epsilon_sweep(
            unit_width_curved,
            2.0,
            [2.5, 0.2],
            policy=MeshPolicy(ns=64, nt=16),
        )
        assert result.failures[0] is not None
        assert "InvalidDomain" in result.failures[0]
        assert math.isnan(result.mu_values[0])
        assert result.failures[1] is None
        assert result.rel_errors[1] < 0.15

    def test_mesh_policy_validation(self):
        with pytest.raises(ValueError):
            MeshPolicy(ns=63, nt=16)
        with pytest.raises(ValueError):
            MeshPolicy(ns=64, nt=8)

    @pytest.mark.parametrize("ns", [2, 0, -4, 6, 63, 64.0, True])
    def test_mesh_policy_rejects_ns_below_the_config_floor(self, ns):
        # An even ns below 8 used to pass and end the sweep in a bare
        # ValueError from build_mesh instead of per-entry failures.
        with pytest.raises(ValueError, match="even integer of at least 8"):
            MeshPolicy(ns=ns, nt=16)

    @pytest.mark.parametrize("nt", [8, 15, 0, 16.0, 16.5, True, "16", None])
    def test_mesh_policy_rejects_nt_that_is_not_an_integer_of_at_least_16(self, nt):
        # A float nt used to pass and end the sweep in a TypeError from
        # np.linspace, True was called "below 16" and "16" failed the
        # comparison with a TypeError.
        with pytest.raises(ValueError, match="nt must be an integer of at least 16"):
            MeshPolicy(ns=8, nt=nt)

    def test_mesh_policy_accepts_the_config_floor(self):
        assert MeshPolicy(ns=8, nt=16).ns == 8
        assert MeshPolicy(ns=np.int64(64), nt=16).ns == 64
        assert MeshPolicy(ns=8, nt=np.int64(16)).nt == 16
