"""Closed-form constants, thresholds, lower bounds, and proof constants.

Frozen reference values for the generalized pi were produced by an
independent quadrature of its integral definition (substituting out the
endpoint singularity and mapping the tail to a bounded interval) and are
asserted against the closed form here.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi_spectra import (
    a_p,
    b_p,
    c_p,
    certify_odd,
    concavity_check,
    fermi_layer_integral,
    figure2_data,
    lower_bound_constant_width,
    lower_bound_variable_width,
    lyapunov_bound,
    lyapunov_bound_report,
    make_domain,
    oddness_threshold,
    pi_p,
    pi_p_quadrature,
    proof_constants,
    reconstruct_from_curvature,
    width_profile,
)
from fermi_spectra import test_function_upper_bound as cosine_upper_bound
from fermi_spectra.analysis import _simpson
from fermi_spectra.errors import BadExponent

# quadrature oracle outputs, frozen to 12 decimal places
PI_P_FROZEN = {
    1.05: 2.315287556105,
    1.5: 3.046991999046,
    3.0: 3.046991999046,
    5.0: 2.821000590042,
    100.0: 2.094391123337,
}


def curved(k0, delta, L=math.pi, n=1025):
    curve = reconstruct_from_curvature(L, lambda s: k0, n_samples=n)
    width = width_profile(delta, L, n_samples=n)
    return make_domain(curve, width)


class TestPiP:
    def test_frozen_values(self):
        for p, value in PI_P_FROZEN.items():
            assert pi_p(p) == pytest.approx(value, abs=5e-13)

    def test_p_two_is_pi_exactly(self):
        assert pi_p(2.0) == math.pi

    def test_conjugate_symmetry(self):
        for p in (1.2, 1.5, 2.5, 4.0, 10.0):
            q = p / (p - 1.0)
            assert pi_p(p) == pytest.approx(pi_p(q), rel=1e-14)

    def test_quadrature_agrees_with_closed_form(self):
        for p in (1.05, 1.3, 2.0, 3.7, 20.0, 100.0):
            assert pi_p_quadrature(p) == pytest.approx(pi_p(p), rel=1e-10)

    @pytest.mark.parametrize("p", [1.011, 1.03])
    def test_quadrature_is_regular_near_one(self, p):
        # The tail's integrand u^(p-2)/(1+u^p) is singular at 0 for p < 2;
        # integrated as it stands, quad warns for these p.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pi_p_quadrature(p)
        assert abs(value - pi_p(p)) < 1e-12

    def test_rejects_bad_exponent(self):
        for p in (1.0, 0.5, -2.0):
            with pytest.raises(BadExponent):
                pi_p(p)

    def test_c_p_values(self):
        assert c_p(2.0) == 1.0
        assert c_p(3.0) == 1.0
        assert c_p(1.5) == pytest.approx(2.0 ** (-0.25))


class TestOddnessThreshold:
    def test_rectangle_case_a(self, rectangle):
        case, threshold = oddness_threshold(rectangle)
        assert case == "a"
        assert threshold == pytest.approx(1.5625, abs=1e-12)

    def test_negative_curvature_case_b(self, annulus):
        case, threshold = oddness_threshold(annulus)
        assert case == "b"
        # (1 + delta k)^2 / (4 delta^2) = 0.75^2 / 1
        assert threshold == pytest.approx(0.5625, abs=1e-12)

    def test_positive_curvature_case_a(self):
        domain = curved(0.5, 0.5)
        case, threshold = oddness_threshold(domain)
        assert case == "a"
        # 1 / (2*0.5 + 0.25*0.5)^2
        assert threshold == pytest.approx(1.0 / 1.125**2, abs=1e-12)

    def test_sign_changing_curvature_case_c(self):
        curve = reconstruct_from_curvature(
            math.pi, lambda s: 0.5 * np.cos(2.0 * np.pi * s / math.pi)
        )
        width = width_profile(0.5, math.pi)
        domain = make_domain(curve, width)
        case, threshold = oddness_threshold(domain)
        assert case == "c"
        pos = 1.0 / np.max(2.0 * 0.5 + 0.25 * np.maximum(domain.curve.k_samples, 0.0)) ** 2
        neg = np.min(
            (1.0 + 0.5 * np.minimum(domain.curve.k_samples, 0.0)) ** 2 / (4.0 * 0.25)
        )
        assert threshold == pytest.approx(min(pos, neg), rel=1e-9)

    def test_certificate_iff_upper_below_threshold(self, rectangle):
        cert = certify_odd(rectangle, mu1_upper=1.0)
        assert cert.certified and cert.case_label == "a"
        cert = certify_odd(rectangle, mu1_upper=2.0)
        assert not cert.certified

    def test_default_upper_bound_is_cosine_quotient(self, rectangle):
        cert = certify_odd(rectangle)
        expected = cosine_upper_bound(rectangle, 2.0)
        assert cert.mu1_upper == pytest.approx(expected, rel=1e-12)


class TestLayerIntegral:
    def test_zero_curvature(self):
        assert fermi_layer_integral(0.4, 0.0, 1.0) == pytest.approx(0.4, rel=1e-15)
        assert fermi_layer_integral(0.4, 0.0, -3.0) == pytest.approx(0.4, rel=1e-15)

    def test_exponent_one_closed_form(self):
        assert fermi_layer_integral(0.5, -0.5, 1.0) == pytest.approx(
            0.5 - 0.5 * 0.25 * 0.5, rel=1e-14
        )

    def test_exponent_minus_one_log(self):
        got = fermi_layer_integral(0.5, 0.8, -1.0)
        assert got == pytest.approx(math.log(1.4) / 0.8, rel=1e-13)

    def test_general_exponent(self):
        # ((1+dk)^(q+1) - 1) / (k (q+1))
        got = fermi_layer_integral(0.3, 0.6, -2.0)
        exact = (1.18**-1.0 - 1.0) / (0.6 * -1.0)
        assert got == pytest.approx(exact, rel=1e-13)

    def test_scalar_input_gives_float(self):
        for k in (0.0, 0.5, -0.5):
            assert type(fermi_layer_integral(0.3, k, -1.0)) is float
            assert type(fermi_layer_integral(0.3, k, 2.0)) is float

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(7)
        delta = rng.uniform(0.05, 0.5, 40)
        k = rng.uniform(-1.0, 1.0, 40)
        k[5] = 0.0
        q = -1.5
        vec = fermi_layer_integral(delta, k, q)
        scal = np.array([fermi_layer_integral(d, kk, q) for d, kk in zip(delta, k)])
        np.testing.assert_allclose(vec, scal, rtol=1e-15)


class TestBounds:
    def test_a_p_flat_strip_is_one(self, annulus):
        # negative curvature keeps 1 + r k below 1
        assert a_p(annulus, 2.0) == 1.0
        assert a_p(annulus, 3.0) == 1.0

    def test_a_p_positive_curvature(self):
        domain = curved(1.0, 0.5)
        assert a_p(domain, 2.0) == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_b_p_prefactor_switch(self, annulus):
        assert b_p(annulus, 2.0) == pytest.approx(0.5, rel=1e-12)
        assert b_p(annulus, 3.0) == pytest.approx(0.25, rel=1e-12)
        assert b_p(annulus, 1.5) == pytest.approx(2.0**-0.75, rel=1e-12)

    def test_rectangle_bound_is_exact(self, rectangle):
        report = lower_bound_constant_width(rectangle, 2.0)
        assert report.applicable
        assert report.label == "constant-width"
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_width_bound_value(self, annulus):
        report = lower_bound_constant_width(annulus, 3.0)
        assert report.applicable
        assert report.value == pytest.approx((pi_p(3.0) / math.pi) ** 3, rel=1e-12)

    def test_variable_width_bound(self):
        # straight spine with a concave even width of small slope
        curve = reconstruct_from_curvature(math.pi, lambda s: 0.0)
        width = width_profile(
            lambda s: 0.3 + 0.2 * np.sin(s), math.pi, evenness_tol=1e-6
        )
        domain = make_domain(curve, width)
        report = lower_bound_variable_width(domain, 2.0)
        assert report.label == "variable-width"
        assert report.applicable
        assert report.value == pytest.approx(0.5, rel=1e-12)

    def test_nonconcave_width_not_applicable(self, wavy):
        report = lower_bound_variable_width(wavy, 2.0)
        assert not report.applicable
        failed = [c.name for c in report.hypothesis_results if not c.passed]
        assert "concave width" in failed

    def test_nonconcave_curvature_not_applicable(self):
        curve = reconstruct_from_curvature(
            math.pi, lambda s: 0.3 * np.cos(2.0 * np.pi * s / math.pi)
        )
        width = width_profile(0.2, math.pi)
        domain = make_domain(curve, width)
        report = lower_bound_constant_width(domain, 2.0)
        assert not report.applicable
        failed = [c.name for c in report.hypothesis_results if not c.passed]
        assert failed == ["concave curvature"]
        assert report.value > 0.0

    @pytest.mark.parametrize("bound", [lower_bound_constant_width, lower_bound_variable_width])
    def test_folded_strip_not_applicable(self, bound):
        # constant k = 4, width 0.4: positive area factor, but the boundary
        # crosses itself, so the strip is not embedded
        curve = reconstruct_from_curvature(math.pi, lambda s: 4.0)
        domain = make_domain(curve, width_profile(0.4, math.pi))
        assert domain.jacobian_min > 0.0 and not domain.valid
        report = bound(domain, 2.0)
        assert not report.applicable
        failed = [c for c in report.hypothesis_results if not c.passed]
        assert [c.name for c in failed] == ["embedded strip"]
        assert failed[0].residual == domain.collision_count

    def test_nonconstant_width_not_applicable(self, wavy):
        report = lower_bound_constant_width(wavy, 2.0)
        assert not report.applicable
        failed = [c.name for c in report.hypothesis_results if not c.passed]
        assert "constant width" in failed


class TestLyapunov:
    def test_constant_weight_closed_form(self):
        # the half-interval moment is a polynomial for integer p, so the
        # sample-level quadrature reproduces p(2/L)^p to rounding there;
        # fractional p leaves a fractional-power integrand and the rule
        # converges at reduced order
        for p, L, tol in ((2.0, math.pi, 1e-9), (3.0, 1.0, 1e-9), (1.5, 2.0, 2e-4)):
            w = np.ones(257)
            got = lyapunov_bound(w, L, p)
            assert got == pytest.approx(p * (2.0 / L) ** p, rel=tol)

    @pytest.mark.parametrize("p", [2216.0, 1e5])
    def test_integral_beyond_double_range_is_zero_bound(self, p):
        # At p = 2216 on L = pi the integrand stays finite near its maximum,
        # but Simpson's weighted sum of it overflows; at 1e5 the integrand
        # itself does.  Either way the bound is 0, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lyapunov_bound(np.full(1025, 0.4), math.pi, p) == 0.0

    def test_p2_unit_interval_value(self):
        assert lyapunov_bound(np.ones(513), math.pi, 2.0) == pytest.approx(
            8.0 / math.pi**2, rel=1e-9
        )

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        bumps = rng.uniform(0.5, 1.5, 129)
        w = bumps + bumps[::-1]
        a = lyapunov_bound(w, math.pi, 2.5)
        b = lyapunov_bound(10.0 * w, math.pi, 2.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_report_on_domain(self, annulus):
        report = lyapunov_bound_report(annulus, 2.0)
        assert report.label == "lyapunov"
        assert report.applicable
        # layer mass of a constant-width circular strip is even in s,
        # so the report must quote the same value as the raw bound
        w = np.array([
            fermi_layer_integral(d, k, 1.0)
            for d, k in zip(annulus.width.delta_samples, annulus.curve.k_samples)
        ])
        assert report.value == pytest.approx(
            lyapunov_bound(w, annulus.L, 2.0), rel=1e-12
        )


class TestSimpson:
    """_simpson reproduces scipy.integrate.simpson(y, x=x) to the bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 64, 129, 512, 1025])
    @pytest.mark.parametrize("grid", ["uniform", "irregular"])
    def test_matches_scipy(self, n, grid):
        rng = np.random.default_rng(n)
        if grid == "uniform":
            x = np.linspace(-1.0, 2.5, n)
        else:
            x = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = rng.normal(size=n)
        assert _simpson(y, x) == scipy.integrate.simpson(y, x=x)

    def test_matches_scipy_on_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 5.0
            y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            assert _simpson(y, x) == scipy.integrate.simpson(y, x=x), n

    @pytest.mark.parametrize("n", [257, 1022, 1024, 1025])
    def test_matches_scipy_on_lyapunov_grid(self, n):
        # lyapunov_bound's grid: the left half of the samples, plus the
        # midpoint L/2 when it is not a node (n even); 1022 samples give an
        # even count with the appended midpoint, 1024 an odd one.
        L, p = math.pi, 2.5
        s = np.linspace(0.0, L, n)
        left = s[s <= 0.5 * L + 1e-12 * L]
        if left[-1] != 0.5 * L:
            left = np.append(left, 0.5 * L)
        y = (0.5 * L - left) ** (p - 1.0) * (1.0 + 0.3 * np.cos(left))
        assert _simpson(y, left) == scipy.integrate.simpson(y, x=left)


class TestFigure2:
    def test_gap_positive_on_grid(self):
        x = np.arange(1, 501, dtype=float) / 501.0
        table = figure2_data(1.0 / x)
        assert table.shape == (500, 4)
        assert np.all(table[:, 3] > 0.0)

    def test_gap_equivalent_to_pi_p_inequality(self):
        for p in (1.1, 2.0, 7.0):
            x = 1.0 / p
            row = figure2_data([p])[0]
            lhs = 2.0 * p ** (1.0 / p)
            assert (row[3] > 0.0) == (lhs < pi_p(p))

    def test_rejects_exponent_at_most_one(self):
        with pytest.raises(BadExponent):
            figure2_data([1.0, 2.0])


class TestProofConstants:
    def test_negative_curvature_branch(self, annulus):
        for s in np.linspace(0.1, annulus.L - 0.1, 7):
            cons = proof_constants(annulus, float(s))
            assert cons.B1_sq is None
            assert cons.B2_sq <= cons.B2_sq_closed + 1e-10
            assert cons.B2_sq_closed == pytest.approx(0.25 / 0.75**2)
            assert cons.C2_lower == pytest.approx(0.25 / cons.B2_sq)

    def test_positive_curvature_branch(self):
        domain = curved(0.8, 0.3)
        cons = proof_constants(domain, domain.L / 2.0)
        delta, k = 0.3, 0.8
        assert cons.B2_sq is None
        assert cons.B1_sq <= cons.B1_sq_closed + 1e-10
        assert cons.B1_sq_closed == pytest.approx((delta + delta**2 * k / 2.0) ** 2)
        assert cons.C1_lower == pytest.approx(0.25 / cons.B1_sq)

    def test_flat_branch(self, rectangle):
        cons = proof_constants(rectangle, 1.0)
        # both products reduce to (delta - r) r with maximum delta^2/4
        assert cons.B1_sq == pytest.approx(0.04, abs=1e-10)
        assert cons.B1_sq == cons.B2_sq
        assert cons.B1_sq_closed == pytest.approx(0.16)


class TestConcavity:
    def test_concave_passes(self):
        s = np.linspace(0.0, 1.0, 101)
        assert concavity_check(np.sqrt(1.0 + s)).passed

    def test_convex_fails(self):
        s = np.linspace(0.0, 1.0, 101)
        res = concavity_check(s**2)
        assert not res.passed
        assert res.worst_residual > 0.0

    def test_linear_passes_within_tolerance(self):
        s = np.linspace(0.0, 1.0, 101)
        assert concavity_check(2.0 - 3.0 * s).passed


@given(st.floats(min_value=1.01, max_value=60.0))
@settings(max_examples=80, deadline=None)
def test_pi_p_closed_form_tracks_quadrature(p):
    assert pi_p_quadrature(p) == pytest.approx(pi_p(p), rel=1e-8)


@given(
    st.floats(min_value=-0.9, max_value=2.0),
    st.floats(min_value=0.02, max_value=0.45),
    st.floats(min_value=-3.0, max_value=2.0),
)
@settings(max_examples=150, deadline=None)
def test_layer_integral_matches_quadrature(k, delta, q):
    if 1.0 + delta * k <= 1e-3:
        return
    r = np.linspace(0.0, delta, 4001)
    oracle = np.trapezoid((1.0 + r * k) ** q, r)
    assert fermi_layer_integral(delta, k, q) == pytest.approx(oracle, rel=1e-6)
