"""Weighted one dimensional eigenvalue solvers, shooting and discretized."""

import math
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi_spectra import (
    OneDimProblem,
    lyapunov_bound,
    pi_p,
    solve_discretized,
    solve_shooting,
)
from fermi_spectra import eig1d
from fermi_spectra.eig1d import pmean_shift
from fermi_spectra.errors import AsymmetricWeight, BadExponent, NonpositiveWeight, SolveFailure


def constant_problem(p, L, n=257):
    return OneDimProblem(L=L, p=p, w_samples=np.ones(n))


def even_weight(fn, L, n=513):
    s = np.linspace(0.0, L, n)
    w = fn(s)
    return OneDimProblem(L=L, p=2.0, w_samples=w)


class TestValidation:
    def test_rejects_small_exponent(self):
        with pytest.raises(BadExponent):
            OneDimProblem(L=1.0, p=1.0, w_samples=np.ones(16))

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_exponent(self, p):
        with pytest.raises(BadExponent):
            OneDimProblem(L=1.0, p=p, w_samples=np.ones(16))

    def test_rejects_nonpositive_weight(self):
        w = np.ones(16)
        w[7] = 0.0
        with pytest.raises(NonpositiveWeight):
            OneDimProblem(L=1.0, p=2.0, w_samples=w)

    def test_rejects_nan_weight(self):
        w = np.ones(16)
        w[[2, 13]] = np.nan
        with pytest.raises(NonpositiveWeight):
            OneDimProblem(L=1.0, p=2.0, w_samples=w)

    def test_rejects_uneven_weight(self):
        s = np.linspace(0.0, 1.0, 64)
        with pytest.raises(AsymmetricWeight):
            OneDimProblem(L=1.0, p=2.0, w_samples=1.0 + s)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            OneDimProblem(L=1.0, p=2.0, w_samples=np.ones(4))


class TestConstantWeight:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("L", [1.0, math.pi])
    def test_shooting_matches_closed_form(self, p, L):
        result = solve_shooting(constant_problem(p, L))
        exact = (pi_p(p) / L) ** p
        assert result.mu == pytest.approx(exact, rel=1e-6)
        assert result.converged

    def test_p2_eigenfunction_is_cosine(self):
        problem = constant_problem(2.0, math.pi, n=513)
        result = solve_shooting(problem)
        s = problem.s_samples
        scale = result.u_samples[0]
        assert np.max(np.abs(result.u_samples - scale * np.cos(s))) < 1e-6
        assert np.max(np.abs(result.du_samples + scale * np.sin(s))) < 1e-6

    def test_discretized_linear_route(self):
        problem = constant_problem(2.0, math.pi, n=513)
        result = solve_discretized(problem, n=512)
        assert result.mu == pytest.approx(1.0, rel=1e-4)
        assert result.method == "discretized"


class TestEigenfunctionShape:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_odd_and_single_sign_change(self, p):
        L = math.pi
        s = np.linspace(0.0, L, 513)
        problem = OneDimProblem(L=L, p=p, w_samples=1.0 + 0.3 * np.cos(2 * s))
        result = solve_shooting(problem)
        u = result.u_samples
        assert np.max(np.abs(u + u[::-1])) < 1e-8 * np.max(np.abs(u))
        signs = np.sign(u[np.abs(u) > 1e-10 * np.max(np.abs(u))])
        assert np.count_nonzero(np.diff(signs)) == 1
        assert result.residual < 1e-8

    def test_du_vanishes_at_ends(self):
        result = solve_shooting(constant_problem(3.0, math.pi))
        assert abs(result.du_samples[0]) < 1e-10
        assert abs(result.du_samples[-1]) < 1e-10


class TestWeightedProperties:
    def test_weight_scaling_leaves_mu_unchanged(self):
        L = math.pi
        s = np.linspace(0.0, L, 513)
        w = 1.0 + 0.4 * np.sin(s)
        a = solve_shooting(OneDimProblem(L=L, p=2.5, w_samples=w))
        b = solve_shooting(OneDimProblem(L=L, p=2.5, w_samples=7.0 * w))
        assert a.mu == pytest.approx(b.mu, rel=1e-9)

    def test_log_concave_weight_dominates_constant(self):
        # Gaussian bump, log-concave and even
        L = math.pi
        s = np.linspace(0.0, L, 513)
        w = np.exp(-((s - L / 2.0) ** 2))
        for p in (1.5, 2.0, 3.0):
            problem = OneDimProblem(L=L, p=p, w_samples=w)
            result = solve_shooting(problem)
            assert result.mu >= (pi_p(p) / L) ** p * (1.0 - 1e-9)

    def test_truncation_increases_mu(self):
        # restriction of a half-period cosine weight stays even
        L = math.pi
        full_s = np.linspace(0.0, L, 1025)
        w_fn = lambda s: 1.0 + 0.2 * np.cos(4.0 * np.pi * s / L)
        mu_full = solve_shooting(OneDimProblem(L=L, p=2.0, w_samples=w_fn(full_s))).mu
        half_s = np.linspace(0.0, L / 2.0, 513)
        mu_half = solve_shooting(
            OneDimProblem(L=L / 2.0, p=2.0, w_samples=w_fn(half_s))
        ).mu
        assert mu_half > mu_full

    def test_lyapunov_below_and_rayleigh_above(self):
        L = math.pi
        s = np.linspace(0.0, L, 513)
        w = 1.2 + 0.5 * np.cos(2.0 * s)
        p = 2.0
        problem = OneDimProblem(L=L, p=p, w_samples=w)
        mu = solve_shooting(problem).mu
        assert lyapunov_bound(w, L, p) <= mu * (1.0 + 1e-9)
        phi = np.cos(np.pi * s / L)
        dphi = -(np.pi / L) * np.sin(np.pi * s / L)
        quotient = np.trapezoid(w * np.abs(dphi) ** p, s) / np.trapezoid(
            w * np.abs(phi) ** p, s
        )
        assert mu <= quotient * (1.0 + 1e-6)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_two_routes_agree(self, p):
        L = math.pi
        s = np.linspace(0.0, L, 513)
        w = 1.0 + 0.3 * np.cos(2.0 * s) + 0.1 * np.cos(4.0 * s)
        problem = OneDimProblem(L=L, p=p, w_samples=w)
        shot = solve_shooting(problem)
        disc = solve_discretized(problem, n=512)
        assert disc.converged
        assert shot.mu == pytest.approx(disc.mu, rel=1e-3)


def wavy_problem(p, L=3.0, n=1025):
    s = np.linspace(0.0, L, n)
    return OneDimProblem(L=L, p=p, w_samples=1.0 + 0.3 * np.cos(2.0 * np.pi * s / L))


class TestDiscretizedPencil:
    """The p = 2 step of solve_discretized: a sparse solve of the tridiagonal pencil."""

    @pytest.mark.parametrize("n", [64, 512])
    def test_matches_dense_pencil(self, n):
        problem = wavy_problem(2.0)
        L = problem.L
        s = np.linspace(0.0, L, n + 1)
        h = L / n
        w = np.interp(s, problem.s_samples, problem.w_samples)
        w_mid = 0.5 * (w[:-1] + w[1:])
        K = np.zeros((n + 1, n + 1))
        M = np.zeros((n + 1, n + 1))
        for e in range(n):
            K[e : e + 2, e : e + 2] += w_mid[e] / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
            M[e : e + 2, e : e + 2] += h / 12.0 * np.array(
                [[3.0 * w[e] + w[e + 1], w[e] + w[e + 1]], [w[e] + w[e + 1], w[e] + 3.0 * w[e + 1]]]
            )
        dense = scipy.linalg.eigh(K, M, subset_by_index=(0, 2), eigvals_only=True)
        assert solve_discretized(problem, n=n).mu == pytest.approx(dense[1], rel=1e-10)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_fine_grid_is_fast(self, p):
        # A dense pencil at n = 4096 holds two 128 MiB matrices and takes
        # seconds to solve; the tridiagonal route is linear in n.
        start = time.perf_counter()
        result = solve_discretized(wavy_problem(p), n=4096)
        assert time.perf_counter() - start < 1.0
        assert np.isfinite(result.mu) and np.isfinite(result.residual)
        assert result.converged

    def test_eigenvalue_scales_as_inverse_square_length(self):
        # The pencil is solved on the unit interval, so mu L^2 keeps its
        # digits from L = 1e-100 to L = 1e100.
        scaled = [
            solve_discretized(OneDimProblem(L, 2.0, np.full(65, 0.4))).mu * L * L
            for L in (1e-100, 1.0, 1e100)
        ]
        assert scaled == pytest.approx([scaled[1]] * 3, rel=1e-12)

    def test_failed_factorization_is_solve_failure(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", singular)
        with pytest.raises(SolveFailure, match="exactly singular"):
            solve_discretized(wavy_problem(2.0), n=64)

    @pytest.mark.parametrize(
        "L, p, match",
        [(1e-200, 1.5, "not finite doubles"), (1e-200, 2.0, "not finite doubles"),
         (1e200, 2.0, "underflows to zero")],
    )
    def test_eigenvalue_outside_double_range_is_solve_failure(self, L, p, match):
        # (pi / L)^2 overflows at L = 1e-200 and underflows at L = 1e200
        problem = OneDimProblem(L, p, np.full(65, 0.4))
        with pytest.raises(SolveFailure, match=match):
            solve_discretized(problem)


def criterion4_problems():
    """The five weights of acceptance criterion 4, then constant weight at three p."""
    L = math.pi
    s = np.linspace(0.0, L, 513)
    weights = [
        (2.0, 1.0 + 0.5 * np.cos(2.0 * s)),
        (2.0, np.exp(-((s - L / 2.0) ** 2))),
        (1.5, 1.0 + 0.3 * np.cos(2.0 * s) + 0.1 * np.cos(4.0 * s)),
        (3.0, 2.0 - np.sin(s)),
        (2.5, 1.0 + np.abs(np.cos(s))),
    ]
    weights += [(p, np.ones(513)) for p in (1.5, 2.0, 3.0)]
    return [OneDimProblem(L=L, p=p, w_samples=w) for p, w in weights]


def bisect_crossing(problem, n_steps, rtol=1e-13):
    """The smallest mu whose shot crosses zero by L/2, by plain bisection."""
    p = problem.p
    q = p / (p - 1.0)
    half = 0.5 * problem.L
    stage_s = np.linspace(0.0, half, 2 * n_steps + 1)
    w_stage = np.interp(stage_s, problem.s_samples, problem.w_samples).tolist()

    def crossed(mu):
        return eig1d._shoot(mu, p, q, w_stage, half / n_steps, n_steps)[0]

    lo, hi = 0.0, 1.0
    while not crossed(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestShootingRoot:
    @pytest.mark.parametrize("index", range(8))
    def test_few_shots_converged_and_positive(self, index):
        problem = criterion4_problems()[index]
        result = solve_shooting(problem)
        assert result.iterations <= 14
        assert result.converged
        left = problem.s_samples < 0.5 * problem.L
        assert np.all(result.u_samples[left] > 0.0)

    @pytest.mark.parametrize("index", range(8))
    def test_agrees_with_bisection(self, index):
        problem = criterion4_problems()[index]
        mu = solve_shooting(problem, n_steps=1024).mu
        assert mu == pytest.approx(bisect_crossing(problem, 1024), rel=1e-9)

    def test_unreachable_tolerance_is_not_converged(self):
        result = solve_shooting(constant_problem(2.0, math.pi), tol=0.0, n_steps=512)
        assert not result.converged
        assert result.mu == pytest.approx(1.0, rel=1e-5)

    def test_crossed_end_ending_positive_is_shrunk(self, monkeypatch):
        # Pretend shots above mu = 1.2 cross back up by L/2, as a second
        # crossing would.  The doubling bracket of this problem ends at 1.62,
        # where Brent's method would then see no sign change.
        problem = constant_problem(2.0, math.pi)
        plain = solve_shooting(problem, n_steps=1024)
        shoot = eig1d._shoot

        def crossing_back(mu, *args, **kwargs):
            crossed, u_end, us, vs = shoot(mu, *args, **kwargs)
            return crossed, abs(u_end) if mu > 1.2 else u_end, us, vs

        monkeypatch.setattr(eig1d, "_shoot", crossing_back)
        guarded = solve_shooting(problem, n_steps=1024)
        assert guarded.mu == pytest.approx(plain.mu, rel=1e-9)
        assert guarded.converged


def brent_case(rng, kind):
    """A function with one sign change at c, a bracket around it and tolerances."""
    c, e = rng.normal(), rng.uniform(0.3, 3.0)
    f = [
        lambda x: np.sign(x - c) * abs(x - c) ** e,
        lambda x: np.tanh(5.0 * (x - c)) + 0.1 * (x - c) ** 3,
        lambda x: np.expm1(e * (x - c)),
        lambda x: (x - c) * (1.0 + (x - c) ** 2) - 1e-3 * np.sin(40.0 * x),
        # values near the bottom of double range: the inverse quadratic
        # step's denominator underflows to zero
        lambda x: 1e-300 * (np.tanh(5.0 * (x - c)) + 0.1 * (x - c) ** 3),
    ][kind]
    a, b = c - rng.uniform(1e-3, 5.0), c + rng.uniform(1e-3, 5.0)
    if rng.random() < 0.5:
        a, b = b, a
    xtol = 10.0 ** rng.uniform(-300.0, -2.0)
    rtol = max(eig1d.BRENT_RTOL, 10.0 ** rng.uniform(-16.0, -3.0))
    return f, a, b, xtol, rtol


class TestBrent:
    """The private Brent root finder against scipy.optimize.brentq."""

    @pytest.mark.parametrize("kind", range(5))
    def test_bit_identical_to_scipy(self, kind):
        rng = np.random.default_rng(kind)
        for _ in range(400):
            f, a, b, xtol, rtol = brent_case(rng, kind)
            maxiter = int(rng.choice([3, 100]))
            root, info = scipy.optimize.brentq(
                f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter, full_output=True, disp=False
            )
            assert eig1d._brentq(f, a, b, xtol, rtol, maxiter) == (root, info.converged)

    def test_function_sees_python_floats(self):
        # Shooting integrates in pure Python, which is slower on numpy scalars.
        seen = set()

        def f(x):
            seen.add(type(x))
            return x - 0.3

        eig1d._brentq(f, np.float64(0.0), 1.0, xtol=np.finfo(float).tiny, rtol=np.float64(1e-10))
        assert seen == {float}

    def test_same_signs_are_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            eig1d._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_nan_value_is_solve_failure(self):
        with pytest.raises(SolveFailure, match="NaN"):
            eig1d._brentq(lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, 1e-12)


class TestPMeanShift:
    def test_p2_is_weighted_mean(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=50)
        w = rng.uniform(0.5, 2.0, 50)
        got = pmean_shift(v, w, 2.0)
        assert got == pytest.approx(np.sum(w * v) / np.sum(w), abs=1e-10)

    def test_defines_zero_pmean(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=50)
        w = rng.uniform(0.5, 2.0, 50)
        p = 3.0
        c = pmean_shift(v, w, p)
        d = v - c
        assert abs(np.sum(w * np.abs(d) ** (p - 1.0) * np.sign(d))) < 1e-8

    def test_constant_vector_returns_its_value(self):
        w = np.linspace(0.5, 2.0, 20)
        assert pmean_shift(np.full(20, 0.37), w, 3.0) == 0.37

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_pmean_vanishes_on_normalized_vector(self, p):
        rng = np.random.default_rng(2)
        v = rng.normal(size=200)
        v = v / np.max(np.abs(v))
        w = rng.uniform(0.5, 2.0, 200)
        d = v - pmean_shift(v, w, p)
        terms = w * np.abs(d) ** (p - 1.0)
        assert abs(np.sum(terms * np.sign(d))) <= 1e-12 * np.sum(terms)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_is_solve_failure(self, bad):
        v = np.linspace(-1.0, 1.0, 20)
        v[5] = bad
        with pytest.raises(SolveFailure, match="not finite"):
            pmean_shift(v, np.ones(20), 3.0)

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_stays_inside_range_with_outlier(self, p):
        rng = np.random.default_rng(3)
        v = rng.normal(size=50)
        v[17] = 1e6
        w = rng.uniform(0.5, 2.0, 50)
        c = pmean_shift(v, w, p)
        assert np.min(v) <= c <= np.max(v)


@given(
    st.lists(st.floats(min_value=0.2, max_value=2.0), min_size=8, max_size=24),
    st.sampled_from([1.5, 2.0, 3.0]),
)
@settings(max_examples=15, deadline=None)
def test_lyapunov_never_exceeds_eigenvalue(half, p):
    w_half = np.asarray(half)
    w = np.concatenate([w_half, w_half[::-1]])
    L = math.pi
    problem = OneDimProblem(L=L, p=p, w_samples=w)
    mu = solve_shooting(problem, tol=1e-8, n_steps=1024).mu
    assert lyapunov_bound(w, L, p) <= mu * (1.0 + 1e-6)
