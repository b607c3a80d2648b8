"""Weighted one dimensional eigenvalue solvers, shooting and discretized."""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi_spectra import (
    OneDimProblem,
    limit_problem,
    load_config,
    lyapunov_bound,
    pi_p,
    solve_discretized,
    solve_shooting,
)
from fermi_spectra import eig1d
from fermi_spectra.cli import build_domain
from fermi_spectra.eig1d import pmean_shift
from fermi_spectra.errors import (
    AsymmetricWeight,
    BadExponent,
    NoCrossing,
    NonpositiveWeight,
    SolveFailure,
    StiffFailure,
)


def constant_problem(p, L, n=257):
    return OneDimProblem(L=L, p=p, w_samples=np.ones(n))


def even_weight(fn, L, n=513):
    s = np.linspace(0.0, L, n)
    w = fn(s)
    return OneDimProblem(L=L, p=2.0, w_samples=w)


class TestValidation:
    def test_rejects_small_exponent(self):
        with pytest.raises(BadExponent, match="p must exceed 1 and be finite"):
            OneDimProblem(L=1.0, p=1.0, w_samples=np.ones(16))

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_exponent(self, p):
        with pytest.raises(BadExponent, match="p must exceed 1 and be finite"):
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

    @pytest.mark.parametrize("n_steps", [0, -8, 64.0, True])
    def test_shooting_rejects_bad_step_count(self, n_steps):
        problem = OneDimProblem(L=math.pi, p=2.0, w_samples=np.ones(16))
        with pytest.raises(ValueError, match="n_steps must be an integer of at least 1"):
            solve_shooting(problem, n_steps=n_steps)

    @pytest.mark.parametrize("tol", [-1e-10, np.inf, np.nan])
    def test_shooting_rejects_bad_tolerance(self, tol):
        # tol = 0 is allowed: it is never reached (test_unreachable_tolerance_is_not_converged)
        problem = OneDimProblem(L=math.pi, p=2.0, w_samples=np.ones(16))
        with pytest.raises(ValueError, match="tol must be finite and not negative"):
            solve_shooting(problem, tol=tol)


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
        # the right half is the left half mirrored, to the bit
        assert np.array_equal(u, -u[::-1])
        assert np.array_equal(result.du_samples, result.du_samples[::-1])
        signs = np.sign(u[np.abs(u) > 1e-10 * np.max(np.abs(u))])
        assert np.count_nonzero(np.diff(signs)) == 1
        assert result.residual < 1e-8

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_discretized_is_odd_with_one_sign_change(self, p):
        L = math.pi
        s = np.linspace(0.0, L, 513)
        problem = OneDimProblem(L=L, p=p, w_samples=1.0 + 0.3 * np.cos(2 * s))
        u = solve_discretized(problem, n=512).u_samples
        assert np.array_equal(u, -u[::-1])
        signs = np.sign(u[np.abs(u) > 1e-10 * np.max(np.abs(u))])
        assert np.count_nonzero(np.diff(signs)) == 1

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

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_nonlinear_mu_is_quotient_of_returned_iterate(self, p):
        # The problem grid is the solver's grid, so u_samples up to L/2 is
        # the last iterate on the solver's half grid itself, zero at the
        # midpoint, and mu must be its discrete quotient.
        L, n = math.pi, 512
        half = n // 2
        s = np.linspace(0.0, L, n + 1)
        w = 1.0 + 0.3 * np.cos(2.0 * s) + 0.1 * np.cos(4.0 * s)
        result = solve_discretized(OneDimProblem(L=L, p=p, w_samples=w), n=n)
        assert result.converged and result.iterations > 5
        u = result.u_samples[: half + 1]
        assert u[-1] == 0.0
        h = L / n
        w_mid = 0.5 * (w[:half] + w[1 : half + 1])
        m_lumped = np.zeros(half + 1)
        m_lumped[:-1] += 0.5 * h * w_mid
        m_lumped[1:] += 0.5 * h * w_mid
        num, den = eig1d._discrete_quotient(u, h, w_mid, m_lumped, p)
        assert result.mu == num / den


def wavy_problem(p, L=3.0, n=1025):
    s = np.linspace(0.0, L, n)
    return OneDimProblem(L=L, p=p, w_samples=1.0 + 0.3 * np.cos(2.0 * np.pi * s / L))


def unit_pencil(problem, n):
    """Edge conductances and mass diagonals of solve_discretized's unit-interval pencil."""
    s = np.linspace(0.0, problem.L, n + 1)
    w = np.interp(s, problem.s_samples, problem.w_samples)
    v = w / np.max(w)
    m_diag = np.zeros(n + 1)
    m_diag[:-1] += (3.0 * v[:-1] + v[1:]) / (12.0 * n)
    m_diag[1:] += (v[:-1] + 3.0 * v[1:]) / (12.0 * n)
    return n * (0.5 * (v[:-1] + v[1:])), m_diag, (v[:-1] + v[1:]) / (12.0 * n)


def flat_neck_problem(L=6.0, n=3073):
    """Weight 1e-6 on four necks of width 0.1, at s = 1, 2 and their mirror
    images, and 1 elsewhere: at n = 512 the pencil's lowest eigenvalue sits
    about 1e10 below its largest, and inverse iteration takes 16 updates."""
    s = np.linspace(0.0, L, n)
    w = np.ones(n)
    for c in (1.0, 2.0, L - 2.0, L - 1.0):
        w[np.abs(s - c) < 0.05] = 1e-6
    return OneDimProblem(L=L, p=2.0, w_samples=w)


def dense_pencil(problem, n):
    """The whole-interval stiffness and mass matrices, dense, element by element."""
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
    return K, M, w_mid / h


def grid_values(result, problem, n):
    """u_samples on the n-cell solver grid, whose nodes are problem samples."""
    return result.u_samples[:: (len(problem.w_samples) - 1) // n]


class TestDiscretizedPencil:
    """The p = 2 step of solve_discretized: unshifted inverse iteration on
    the tridiagonal pencil, each solve two cumulative sums, without scipy."""

    @pytest.mark.parametrize("n", [64, 512])
    def test_matches_dense_pencil(self, n):
        # The wavy weight against the whole-interval pencil, whose second
        # pair is the odd one.
        problem = wavy_problem(2.0)
        K, M, _ = dense_pencil(problem, n)
        vals, vecs = scipy.linalg.eigh(K, M, subset_by_index=(0, 2))
        result = solve_discretized(problem, n=n)
        assert result.mu == pytest.approx(vals[1], rel=1e-10)
        x = vecs[:, 1] / vecs[0, 1]
        assert np.max(np.abs(grid_values(result, problem, n) - x)) < 1e-10

        # On the flat neck dense eigh of K and M keeps only eps lam_max /
        # lam of the lowest eigenvalue, 5e-8 relative at n = 512.  So its
        # reference is the largest eigenvalue of the inverse pencil: on the
        # nodes left of the pinned midpoint K = D^T diag(c) D, and D^-1 is
        # the upper triangle of ones, so B^-T M B^-1 with B^-1 = D^-1
        # diag(c)^(-1/2) has eigenvalues 1 / lam and only positive entries.
        problem = flat_neck_problem()
        half = n // 2
        K, M, c = dense_pencil(problem, n)
        b_inv = np.triu(np.ones((half, half))) / np.sqrt(c[:half])
        inverse = b_inv.T @ M[:half, :half] @ b_inv
        vals, vecs = scipy.linalg.eigh(inverse, subset_by_index=(half - 1, half - 1))
        result = solve_discretized(problem, n=n)
        assert result.mu == pytest.approx(1.0 / vals[0], rel=1e-10)
        x = b_inv @ vecs[:, 0]
        assert np.max(np.abs(grid_values(result, problem, n)[:half] - x / x[0])) < 1e-10

    @pytest.mark.parametrize("n", [512, 4096])
    def test_residual_is_backward_error_on_flat_neck(self, n):
        # On the flat neck the entries of K x are about lam M x, far below
        # the conductance terms they cancel from, so ||K x - lam M x|| /
        # ||K x|| read the rounding of K x: 2.7e-7 at n = 512 and 1.8e-5 at
        # n = 4096, where mu is right to 5e-16.  The backward error divides
        # by || |K| |x| || + lam || |M| |x| || and stays at rounding level.
        result = solve_discretized(flat_neck_problem(), n=n)
        assert result.residual <= 1e-15

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

    def test_non_finite_iterate_is_solve_failure(self, monkeypatch):
        # A mass product that is NaN makes the quotient of the iterate no double.
        def nan_product(diag, off, x):
            return np.full(len(x), math.nan)

        monkeypatch.setattr(eig1d, "_tridiag_mul", nan_product)
        with pytest.raises(SolveFailure, match="not finite doubles"):
            solve_discretized(wavy_problem(2.0), n=64)

    def test_update_cap_is_solve_failure(self, monkeypatch):
        monkeypatch.setattr(eig1d, "PENCIL_MAX_ITER", 1)
        with pytest.raises(SolveFailure, match="did not converge"):
            solve_discretized(wavy_problem(2.0), n=512)

    def test_iterations_count_the_updates(self):
        # The cosine start is an exact discrete eigenvector of a constant
        # weight, so one update settles it; the wavy weight takes more.
        assert solve_discretized(OneDimProblem(1.0, 2.0, np.ones(65)), n=512).iterations == 1
        assert solve_discretized(wavy_problem(2.0), n=512).iterations > 1

    @pytest.mark.parametrize("n", [64, 512, 2048, 4096])
    def test_matches_eigsh(self, n):
        # eigsh's eigenvalue is only as accurate as its factor of the
        # assembled K - sigma M, about eps n^2 / mu relative (2e-10 at n =
        # 4096 on a constant weight); the quotient of its eigenvector,
        # evaluated in difference form, is accurate to that error squared.
        problem = wavy_problem(2.0)
        c, m_diag, m_off = unit_pencil(problem, n)
        K = scipy.sparse.diags(
            [-c, np.append(c, 0.0) + np.insert(c, 0, 0.0), -c], [-1, 0, 1], format="csc"
        )
        M = scipy.sparse.diags([m_off, m_diag, m_off], [-1, 0, 1], format="csc")
        vals, vecs = scipy.sparse.linalg.eigsh(K, k=3, M=M, sigma=-1e-2)
        x = vecs[:, np.argsort(vals)[1]]
        quotient = np.sum(c * np.diff(x) ** 2) / (x @ (M @ x))
        mu = solve_discretized(problem, n=n).mu * problem.L**2
        assert mu == pytest.approx(quotient, rel=1e-11)

    @pytest.mark.parametrize("n", [64, 512, 2048, 4096])
    def test_constant_weight_closed_form(self, n):
        # Linear elements on a uniform grid: cos(pi s) is an exact discrete
        # eigenvector, with eigenvalue 6 n^2 (1 - cos(pi / n)) / (2 + cos(pi / n)).
        theta = math.pi / n
        exact = 12.0 * n * n * math.sin(0.5 * theta) ** 2 / (2.0 + math.cos(theta))
        mu = solve_discretized(OneDimProblem(1.0, 2.0, np.ones(65)), n=n).mu
        assert mu == pytest.approx(exact, rel=1e-13)

    def test_odd_grid_is_value_error(self):
        with pytest.raises(ValueError, match="even"):
            solve_discretized(wavy_problem(2.0), n=65)

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


class TestDiscretizedNearOne:
    """Near p = 1 the inverse power iteration converges in a few updates."""

    @pytest.mark.parametrize("p, rel", [(1.01, 1e-4), (1.001, 1e-3)])
    def test_constant_weight_closed_form(self, p, rel):
        result = solve_discretized(constant_problem(p, math.pi), n=512)
        assert result.converged
        assert result.mu == pytest.approx((pi_p(p) / math.pi) ** p, rel=rel)

    def test_varying_weight_converges(self):
        s = np.linspace(0.0, math.pi, 513)
        problem = OneDimProblem(L=math.pi, p=1.01, w_samples=1.0 + 0.3 * np.cos(2.0 * s))
        assert solve_discretized(problem, n=512).converged


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
    w_stage = eig1d._StageWeights(np.interp(stage_s, problem.s_samples, problem.w_samples))

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


def reference_phi(z, power):
    """eig1d._phi as the per-step kernel called it."""
    if z == 0.0:
        return 0.0
    az = abs(z)
    if az < eig1d.PHI_FLOOR:
        az = eig1d.PHI_FLOOR
    r = az**power
    return r if z > 0.0 else -r


def reference_shoot(mu, p, q, w_stage, h, n_steps):
    """The RK4 kernel with one reference_phi call per stage, kept as the reference."""
    pm1 = p - 1.0
    qm1 = q - 1.0
    u = 1.0
    v = 0.0
    us = [1.0]
    vs = [0.0]
    crossed = False
    for i in range(n_steps):
        j = 2 * i
        w0 = w_stage[j]
        wm = w_stage[j + 1]
        w1 = w_stage[j + 2]
        du1 = reference_phi(v / w0, qm1)
        dv1 = -mu * w0 * reference_phi(u, pm1)
        ua = u + 0.5 * h * du1
        va = v + 0.5 * h * dv1
        du2 = reference_phi(va / wm, qm1)
        dv2 = -mu * wm * reference_phi(ua, pm1)
        ub = u + 0.5 * h * du2
        vb = v + 0.5 * h * dv2
        du3 = reference_phi(vb / wm, qm1)
        dv3 = -mu * wm * reference_phi(ub, pm1)
        uc = u + h * du3
        vc = v + h * dv3
        du4 = reference_phi(vc / w1, qm1)
        dv4 = -mu * w1 * reference_phi(uc, pm1)
        u += h * (du1 + 2.0 * (du2 + du3) + du4) / 6.0
        v += h * (dv1 + 2.0 * (dv2 + dv3) + dv4) / 6.0
        if u != u or v != v:
            raise StiffFailure(f"integration produced non-finite state at mu={mu:.6g}")
        if u <= 0.0:
            crossed = True
        us.append(u)
        vs.append(v)
    return crossed, u, np.array(us), np.array(vs)


def shot_outcome(shoot, mu, problem, n_steps):
    """What one shot returns, or the type and message of what it raises."""
    p = problem.p
    half = 0.5 * problem.L
    stage_s = np.linspace(0.0, half, 2 * n_steps + 1)
    w_stage = eig1d._StageWeights(np.interp(stage_s, problem.s_samples, problem.w_samples))
    try:
        crossed, u_end, us, vs = shoot(mu, p, p / (p - 1.0), w_stage, half / n_steps, n_steps)
    except (StiffFailure, OverflowError) as exc:
        return type(exc), str(exc)
    return crossed, u_end, np.array(us).tobytes(), np.array(vs).tobytes()


def assert_same_result(got, want):
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == getattr(got, name).tobytes(), name
        else:
            assert type(value) is type(getattr(got, name)) and value == getattr(got, name), name


class TestShotKernel:
    """The inlined RK4 kernel against the per-step reference, to the bit."""

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 4.0, 8.0, 60.0])
    @pytest.mark.parametrize("weight", ["constant", "wavy"])
    def test_bit_identical_to_reference(self, p, weight):
        L = math.pi
        s = np.linspace(0.0, L, 513)
        w = np.ones(513) if weight == "constant" else 1.0 + 0.3 * np.cos(2.0 * s)
        problem = OneDimProblem(L=L, p=p, w_samples=w)
        mu1 = (pi_p(p) / L) ** p if weight == "constant" else solve_shooting(problem, n_steps=512).mu
        for factor in (0.5, 1.0, 1.0 + 1e-9, 1.7):
            got = shot_outcome(eig1d._shoot, factor * mu1, problem, 1024)
            assert got == shot_outcome(reference_shoot, factor * mu1, problem, 1024)

    @pytest.mark.parametrize(
        "p, mu, error",
        [(2.0, 1e10, StiffFailure), (4.0, 1e10, StiffFailure), (60.0, 1e200, StiffFailure),
         (1.01, 1e3, OverflowError), (1.5, 1e6, OverflowError)],
    )
    def test_failures_at_the_same_inputs(self, p, mu, error):
        problem = OneDimProblem(L=math.pi, p=p, w_samples=np.ones(16))
        got = shot_outcome(eig1d._shoot, mu, problem, 64)
        assert got[0] is error
        assert got == shot_outcome(reference_shoot, mu, problem, 64)

    @pytest.mark.parametrize("index", range(8))
    def test_solve_matches_reference_kernel(self, index, monkeypatch):
        problem = criterion4_problems()[index]
        got = solve_shooting(problem)
        monkeypatch.setattr(eig1d, "_shoot", reference_shoot)
        assert_same_result(got, solve_shooting(problem))


class TestShootingRoot:
    @pytest.mark.parametrize("index", range(8))
    def test_few_shots_converged_and_positive(self, index):
        problem = criterion4_problems()[index]
        result = solve_shooting(problem)
        assert result.iterations <= 5
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


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
STRIP_CONFIGS = ("annulus", "parabola", "rectangle", "thin_strip", "wavy_sweep", "wide_sector")


def config_limit_problem(name, p):
    """The thin-limit problem that solve1d solves for a config in configs/."""
    domain = build_domain(load_config(CONFIG_DIR / f"{name}.json", command="solve1d"))
    return limit_problem(domain, p)


def single_level(problem, monkeypatch, **kwargs):
    """solve_shooting with the coarser levels switched off."""
    with monkeypatch.context() as m:
        m.setattr(eig1d, "_COARSE_MIN_STEPS", math.inf)
        return solve_shooting(problem, **kwargs)


def full_root(problem, n_steps=4096):
    """Brent's root on n_steps RK4 steps alone, to rtol BRENT_RTOL."""
    return eig1d._Level(problem, n_steps).root(0.0)[0]


def shots_by_resolution(monkeypatch):
    """Wrap eig1d._shoot; the returned dict maps n_steps to [(mu, crossed, us, vs)]."""
    taken = {}
    shoot = eig1d._shoot

    def recording(mu, p, q, w_stage, h, n_steps):
        out = shoot(mu, p, q, w_stage, h, n_steps)
        taken.setdefault(n_steps, []).append((mu, out[0], out[2], out[3]))
        return out

    monkeypatch.setattr(eig1d, "_shoot", recording)
    return taken


def failing_below(error, n_full, monkeypatch, failing=None):
    """Make every shot on fewer than n_full steps raise error (only on n_steps in failing, if given)."""
    shoot = eig1d._shoot

    def fails(mu, p, q, w_stage, h, n_steps):
        if n_steps < n_full and (failing is None or n_steps in failing):
            raise error("coarse shot failed")
        return shoot(mu, p, q, w_stage, h, n_steps)

    monkeypatch.setattr(eig1d, "_shoot", fails)


class TestTwoLevelShooting:
    """The coarser RK4 levels only place the full-resolution shots."""

    @pytest.mark.parametrize("index", range(8))
    def test_criterion4_agrees_with_single_level(self, index, monkeypatch):
        problem = criterion4_problems()[index]
        want = single_level(problem, monkeypatch)
        taken = shots_by_resolution(monkeypatch)
        got = solve_shooting(problem)
        assert sorted(taken) == [64, 512, 4096]
        assert len(taken[4096]) == got.iterations == (2 if problem.p == 2.0 else 3)
        assert len(taken[512]) == 2
        assert len(taken[64]) <= 12
        assert got.converged and want.converged
        assert abs(got.mu - full_root(problem)) <= 1e-12 * got.mu

    @pytest.mark.parametrize("name", STRIP_CONFIGS)
    def test_config_limits_agree_with_single_level(self, name, monkeypatch):
        for p in (1.5, 2.0, 3.0, 4.0):
            problem = config_limit_problem(name, p)
            got = solve_shooting(problem)
            want = single_level(problem, monkeypatch)
            assert got.converged and want.converged, p
            assert got.iterations == (2 if p == 2.0 else 3), p
            assert abs(got.mu - full_root(problem)) <= 1e-12 * got.mu, p

    @pytest.mark.parametrize("error", [StiffFailure, NoCrossing, SolveFailure])
    def test_failed_coarse_level_is_single_level(self, error, monkeypatch):
        # Every coarser level fails: the full level brackets by doubling.
        problem = criterion4_problems()[2]
        want = single_level(problem, monkeypatch)
        failing_below(error, 4096, monkeypatch)
        assert_same_result(solve_shooting(problem), want)

    def test_failed_intermediate_level_is_single_level(self, monkeypatch):
        # The coarsest level's estimate is dropped with the level above it.
        problem = criterion4_problems()[3]
        want = single_level(problem, monkeypatch)
        failing_below(StiffFailure, 4096, monkeypatch, failing=(512,))
        assert_same_result(solve_shooting(problem), want)

    def test_failed_coarsest_level_is_skipped(self, monkeypatch):
        # The 512-step level brackets by doubling in its place.
        problem = criterion4_problems()[3]
        want = solve_shooting(problem)
        failing_below(StiffFailure, 4096, monkeypatch, failing=(64,))
        taken = shots_by_resolution(monkeypatch)
        got = solve_shooting(problem)
        assert len(taken[512]) > 2 and len(taken[4096]) == got.iterations <= 3
        assert got.converged
        assert abs(got.mu - want.mu) <= 1e-12 * want.mu

    @pytest.mark.parametrize("n_steps", [8, 256, 511])
    def test_short_integrations_run_one_level(self, n_steps, monkeypatch):
        problem = criterion4_problems()[0]
        taken = shots_by_resolution(monkeypatch)
        solve_shooting(problem, n_steps=n_steps)
        assert list(taken) == [n_steps]

    @pytest.mark.parametrize(
        "n_steps, levels", [(512, [64, 512]), (1024, [128, 1024]), (4095, [511, 4095]), (8192, [128, 1024, 8192])]
    )
    def test_levels_of_at_least_64_steps_join_the_chain(self, n_steps, levels, monkeypatch):
        problem = criterion4_problems()[2]
        taken = shots_by_resolution(monkeypatch)
        result = solve_shooting(problem, n_steps=n_steps)
        assert list(taken) == levels
        assert result.converged

    def test_missed_bracket_ends_in_brent(self, monkeypatch):
        # A nudge towards the last shot never brackets the root, so the full
        # level runs out of refining shots and goes on from the shots taken,
        # a few shots more where doubling would take 7 or 8.
        problem = criterion4_problems()[3]
        monkeypatch.setattr(eig1d, "_NUDGE", -eig1d._NUDGE)
        taken = shots_by_resolution(monkeypatch)
        got = solve_shooting(problem)
        assert 1 + eig1d._REFINE_SHOTS < len(taken[4096]) == got.iterations <= 4 + eig1d._REFINE_SHOTS
        assert got.converged
        assert abs(got.mu - full_root(problem)) <= 1e-10 * got.mu

    @pytest.mark.parametrize("index", range(8))
    def test_samples_come_from_a_full_resolution_shot(self, index, monkeypatch):
        # u and du are today's interpolation of the largest uncrossed
        # 4096-step trajectory, du by one _phi call per node.
        problem = criterion4_problems()[index]
        taken = shots_by_resolution(monkeypatch)
        result = solve_shooting(problem)
        mu, _, us, vs = max(shot for shot in taken[4096] if not shot[1])
        half = 0.5 * problem.L
        nodes = np.linspace(0.0, half, 2 * 4096 + 1)
        w_nodes = np.interp(nodes, problem.s_samples, problem.w_samples).tolist()[::2]
        q = problem.p / (problem.p - 1.0)
        dus = np.array([eig1d._phi(v / w, q - 1.0) for v, w in zip(vs, w_nodes)])
        left = problem.s_samples < half  # the midpoint sample is set to zero
        assert result.u_samples[left].tobytes() == np.interp(problem.s_samples[left], nodes[::2], us).tobytes()
        assert result.du_samples[left].tobytes() == np.interp(problem.s_samples[left], nodes[::2], dus).tobytes()

    @pytest.mark.parametrize("power", [1.0, 0.5, 2.0, 1.0 / 0.01, 1.0 / 59.0])
    def test_signed_powers_match_phi(self, power):
        floor = eig1d.PHI_FLOOR
        zs = [0.0, -0.0, floor, -floor, 0.5 * floor, -0.5 * floor, 2.0 * floor, -2.0 * floor,
              1e-300, -1e-300, 0.3, -0.3, 1.0, -1.0, 7.5, -7.5, math.nan]
        zs += np.random.default_rng(0).normal(scale=3.0, size=200).tolist()
        got = eig1d._signed_powers(zs, power)
        want = [eig1d._phi(z, power) for z in zs]
        assert np.array(got).tobytes() == np.array(want).tobytes()


@given(
    st.floats(min_value=2.0, max_value=5.0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=-0.4, max_value=0.4),
    st.floats(min_value=math.log(1.05), max_value=math.log(10.0)),
)
@settings(max_examples=30, deadline=None)
def test_chain_matches_single_level_on_two_harmonic_weights(L, a, b, log_p):
    s = np.linspace(0.0, L, 257)
    w = 1.0 + a * np.cos(2.0 * np.pi * s / L) + b * np.cos(4.0 * np.pi * s / L)
    problem = OneDimProblem(L=L, p=math.exp(log_p), w_samples=w)
    got = solve_shooting(problem)
    with pytest.MonkeyPatch.context() as m:
        want = single_level(problem, m)
    assert got.converged == want.converged
    assert abs(got.mu - full_root(problem)) <= 1e-12 * got.mu


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
