"""Acceptance checks, one test per criterion, each printing a verdict line.

Every test states its tolerance inline and measures its own runtime
against the stated budget.  Shared heavy computations (the eps sweep) are
computed once in module fixtures and asserted by the criteria that
consume them.
"""

import math
import time

import numpy as np
import pytest

from fermi_spectra import (
    MeshPolicy,
    OneDimProblem,
    certify_odd,
    epsilon_sweep,
    figure2_data,
    lower_bound_constant_width,
    lyapunov_bound,
    make_domain,
    oddness_threshold,
    pi_p,
    pi_p_quadrature,
    reconstruct_from_curvature,
    solve_discretized,
    solve_mu1_linear,
    solve_mu1_nonlinear,
    solve_mu1_odd_linear,
    solve_shooting,
    width_profile,
)
from fermi_spectra import test_function_upper_bound as cosine_upper_bound
from fermi_spectra.analysis import proof_constants


def verdict(n, label, ok, detail, elapsed, budget):
    state = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {n:2d} [{label}]: {state} ({detail}; {elapsed:.2f}s / {budget:.0f}s)")
    assert ok, f"criterion {n} failed: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded runtime budget ({elapsed:.2f}s)"


def constant_domain(k0, delta, L=math.pi):
    curve = reconstruct_from_curvature(L, lambda s: k0)
    width = width_profile(delta, L)
    return make_domain(curve, width)


@pytest.fixture(scope="module")
def annulus_acc():
    return constant_domain(-0.5, 0.5)


@pytest.fixture(scope="module")
def sweep_acc():
    domain = constant_domain(-0.5, 1.0)
    start = time.perf_counter()
    result = epsilon_sweep(domain, 2.0, [0.4, 0.2, 0.1, 0.05], policy=MeshPolicy())
    result.elapsed = time.perf_counter() - start
    return result


def test_criterion_01_generalized_pi_consistency():
    start = time.perf_counter()
    grid = np.geomspace(1.05, 100.0, 50)
    worst = max(
        abs(pi_p_quadrature(p) - pi_p(p)) / pi_p(p) for p in grid
    )
    verdict(
        1,
        "pi_p closed form vs quadrature",
        worst <= 1e-8,
        f"50 p in [1.05, 100], max rel err {worst:.2e} <= 1e-8",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_02_gap_curve_positive():
    start = time.perf_counter()
    x = np.arange(1, 501, dtype=float) / 501.0
    table = figure2_data(1.0 / x)
    gap_min = float(np.min(table[:, 3]))
    verdict(
        2,
        "b(x) - r(x) > 0",
        bool(np.all(table[:, 3] > 0.0)) and table.shape[0] == 500,
        f"500 x in (0,1), min gap {gap_min:.2e}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_03_rectangle_exact_and_sharp():
    start = time.perf_counter()
    rect = constant_domain(0.0, 0.4)
    mu = solve_mu1_linear(rect, ns=256, nt=16).mu
    bound = lower_bound_constant_width(rect, 2.0)
    cert = certify_odd(rect)
    ok = (
        abs(mu - 1.0) <= 1e-3
        and bound.applicable
        and abs(bound.value - 1.0) < 1e-12
        and cert.certified
        and abs(cert.threshold - 1.5625) < 1e-12
    )
    verdict(
        3,
        "rectangle sharpness",
        ok,
        f"mu={mu:.8f} (|err| {abs(mu - 1.0):.1e} <= 1e-3), bound={bound.value!r}, "
        f"threshold={cert.threshold:.10f}, certified={cert.certified}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_04_one_dimensional_routes():
    start = time.perf_counter()
    worst_exact = 0.0
    for p in (1.5, 2.0, 3.0):
        for L in (1.0, math.pi):
            mu = solve_shooting(OneDimProblem(L=L, p=p, w_samples=np.ones(257))).mu
            worst_exact = max(worst_exact, abs(mu - (pi_p(p) / L) ** p) / (pi_p(p) / L) ** p)

    s = np.linspace(0.0, math.pi, 513)
    weights = [
        (2.0, 1.0 + 0.5 * np.cos(2.0 * s)),
        (2.0, np.exp(-((s - math.pi / 2.0) ** 2))),
        (1.5, 1.0 + 0.3 * np.cos(2.0 * s) + 0.1 * np.cos(4.0 * s)),
        (3.0, 2.0 - np.sin(s)),
        (2.5, 1.0 + np.abs(np.cos(s))),
    ]
    worst_cross = 0.0
    for p, w in weights:
        problem = OneDimProblem(L=math.pi, p=p, w_samples=w)
        a = solve_shooting(problem).mu
        b = solve_discretized(problem, n=512).mu
        worst_cross = max(worst_cross, abs(a - b) / a)
    verdict(
        4,
        "segment eigenvalues",
        worst_exact <= 1e-6 and worst_cross <= 1e-3,
        f"constant-weight rel err {worst_exact:.1e} <= 1e-6; "
        f"route disagreement {worst_cross:.1e} <= 1e-3 on 5 weights",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_05_bound_sandwich_curved(annulus_acc):
    start = time.perf_counter()
    details = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        lower = lower_bound_constant_width(annulus_acc, p)
        upper = cosine_upper_bound(annulus_acc, p)
        if p == 2.0:
            odd = solve_mu1_odd_linear(annulus_acc, ns=256, nt=16)
            full = solve_mu1_linear(annulus_acc, ns=256, nt=16)
        else:
            odd = solve_mu1_nonlinear(annulus_acc, p, ns=128, nt=12, odd=True)
            full = solve_mu1_nonlinear(annulus_acc, p, ns=128, nt=12)
        ok = ok and lower.applicable and lower.value <= odd.mu
        ok = ok and upper >= full.mu
        ok = ok and odd.converged and full.converged
        details.append(f"p={p}: {lower.value:.4f} <= {odd.mu:.4f}, {upper:.4f} >= {full.mu:.4f}")
    verdict(
        5,
        "curved strip sandwich",
        ok,
        "; ".join(details),
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_06_lyapunov_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    L = math.pi
    ok = True
    worst_gap = -np.inf
    for trial in range(10):
        half = rng.uniform(0.3, 2.0, 12)
        w = np.concatenate([half, half[::-1]])
        p = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        mu = solve_shooting(OneDimProblem(L=L, p=p, w_samples=w), n_steps=2048).mu
        gap = lyapunov_bound(w, L, p) - mu
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= mu * 1e-9

    eq_err = 0.0
    for p, L_c in ((2.0, math.pi), (3.0, 2.0)):
        got = lyapunov_bound(np.ones(513), L_c, p)
        eq_err = max(eq_err, abs(got - p * (2.0 / L_c) ** p))
    verdict(
        6,
        "integral lower bound",
        ok and eq_err <= 1e-9,
        f"10 random even weights, worst bound-minus-mu {worst_gap:.2e} <= 0; "
        f"constant-weight equality err {eq_err:.1e} <= 1e-9",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_07_thin_limit_convergence(sweep_acc):
    ok = (
        sweep_acc.failures == [None] * 4
        and bool(np.all(np.diff(sweep_acc.rel_errors) < 0.0))
        and sweep_acc.rel_errors[-1] <= 0.05
        and bool(np.all(sweep_acc.upper_bounds >= sweep_acc.mu_values))
    )
    verdict(
        7,
        "eps sweep to the segment limit",
        ok,
        f"rel errs {np.array2string(sweep_acc.rel_errors, precision=4)} decreasing, "
        f"final <= 5%, transplant bounds all dominate",
        sweep_acc.elapsed,
        300.0,
    )


def test_criterion_08_proof_constant_caps():
    start = time.perf_counter()

    class PointData:
        def __init__(self, k, d):
            self.k, self.d = k, d

        def require_valid(self):
            pass

        def k_at(self, s):
            return self.k

        def delta_at(self, s):
            return self.d

    worst = -np.inf
    count = 0
    for k in np.linspace(2.0 / 100, 2.0, 100):
        for d in np.linspace(0.01, 0.6, 100):
            c = proof_constants(PointData(float(k), float(d)), 0.0)
            worst = max(worst, c.B1_sq - c.B1_sq_closed)
            count += 1
    for k in np.linspace(-1.5, -1.5 / 100, 100):
        for d in np.linspace(0.01, 0.6, 100):
            if 1.0 + d * k <= 0.01:
                continue
            c = proof_constants(PointData(float(k), float(d)), 0.0)
            worst = max(worst, c.B2_sq - c.B2_sq_closed)
            count += 1
    verdict(
        8,
        "interior estimate caps",
        worst <= 1e-10,
        f"{count} (k, delta) pairs, worst excess {worst:.2e} <= 1e-10",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_09_dilation_scaling(annulus_acc):
    start = time.perf_counter()
    ok = True
    details = []
    base_thr = oddness_threshold(annulus_acc)[1]
    for c in (0.5, 2.0):
        scaled = constant_domain(-0.5 / c, 0.5 * c, L=c * math.pi)
        thr = oddness_threshold(scaled)[1]
        ok = ok and thr == base_thr / c**2
        for p in (2.0, 3.0):
            if p == 2.0:
                mu_b = solve_mu1_linear(annulus_acc, ns=96, nt=8).mu
                mu_s = solve_mu1_linear(scaled, ns=96, nt=8).mu
            else:
                mu_b = solve_mu1_nonlinear(annulus_acc, p, ns=96, nt=8).mu
                mu_s = solve_mu1_nonlinear(scaled, p, ns=96, nt=8).mu
            rel = abs(mu_s - mu_b / c**p) / (mu_b / c**p)
            ok = ok and rel <= 1e-3
            details.append(f"c={c} p={p}: rel {rel:.1e}")
    verdict(
        9,
        "dilation law",
        ok,
        "thresholds exact; " + ", ".join(details),
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_10_certificate_flip(sweep_acc):
    start = time.perf_counter()
    certified = [bool(c) for c in sweep_acc.certified]
    first = certified.index(True) if True in certified else len(certified)
    flips_and_stays = first < len(certified) and all(certified[first:])
    scaled = sweep_acc.thresholds * sweep_acc.epsilons**2
    envelope = float(np.max(scaled) / np.min(scaled))
    verdict(
        10,
        "certificate flip",
        flips_and_stays and envelope <= 2.0,
        f"certified {certified} (flips at eps={sweep_acc.epsilons[first]}), "
        f"threshold * eps^2 spread factor {envelope:.3f} <= 2",
        time.perf_counter() - start,
        60.0,
    )
