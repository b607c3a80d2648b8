"""Curve handling, strip construction, and validity checking."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from fermi_spectra import (
    as_function,
    curvature_from_parametric,
    fermi_map,
    make_domain,
    parse_expression,
    reconstruct_from_curvature,
    scale_width,
    width_profile,
)
from fermi_spectra.errors import (
    AsymmetricCurvature,
    AsymmetricWeight,
    InvalidDomain,
    NonpositiveWeight,
    OutOfDomain,
    SymmetryViolation,
    ZeroSpeed,
)
from fermi_spectra.geometry import _boundary_crossings, _near_pairs


def _steep(s):
    """A width that swings from 0.31 to 1.63 over an arc of length 0.797."""
    return 0.969 + 0.661 * np.cos(2.0 * np.pi * s / 0.797)


class TestParametricCurvature:
    def test_parabola_curvature_matches_closed_form(self):
        # x=t, y=t^2/2 has curvature (1+t^2)^(-3/2)
        spec = curvature_from_parametric(
            lambda t: t, lambda t: 0.5 * t * t, (-1.0, 1.0)
        )
        t = spec.points[:, 0]
        expected = (1.0 + t * t) ** -1.5
        assert np.max(np.abs(spec.k_samples - expected)) < 1e-5

    def test_unit_tangents(self):
        spec = curvature_from_parametric(
            lambda t: t, lambda t: 0.5 * t * t, (-1.0, 1.0)
        )
        speed = np.hypot(spec.tangents[:, 0], spec.tangents[:, 1])
        assert np.max(np.abs(speed - 1.0)) < 1e-8

    def test_exact_derivatives_accepted(self):
        spec = curvature_from_parametric(
            lambda t: t,
            lambda t: 0.5 * t * t,
            (-1.0, 1.0),
            derivatives=(
                lambda t: np.ones_like(np.asarray(t, dtype=float)),
                lambda t: t,
                lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                lambda t: np.ones_like(np.asarray(t, dtype=float)),
            ),
        )
        t = spec.points[:, 0]
        expected = (1.0 + t * t) ** -1.5
        assert np.max(np.abs(spec.k_samples - expected)) < 1e-9

    def test_arc_length_of_circle(self):
        spec = curvature_from_parametric(
            np.sin, lambda t: -np.cos(t), (-1.2, 1.2)
        )
        assert spec.L == pytest.approx(2.4, rel=1e-10)
        assert np.max(np.abs(spec.k_samples - 1.0)) < 1e-6

    @pytest.mark.parametrize("sinh", [False, True])
    def test_arc_length_matches_closed_form(self, sinh):
        # y = c x^2 with x = t, or with x = sinh(2t)/2, whose speed grows from
        # 1 at t = 0 to about 18 at t = 1.5.  The closed form for the arc
        # length from the vertex is S(x) = (u sqrt(1 + u^2) + asinh u) / (4c)
        # with u = 2cx.  The sinh curve gets exact derivatives, so that the
        # finite differences' truncation error does not mask the resampling.
        c = 0.15
        if sinh:
            T = 1.5
            x = lambda t: 0.5 * np.sinh(2.0 * t)
            dx = lambda t: np.cosh(2.0 * t)
            ddx = lambda t: 2.0 * np.sinh(2.0 * t)
            derivatives = (
                dx, lambda t: 2.0 * c * x(t) * dx(t),
                ddx, lambda t: 2.0 * c * (dx(t) ** 2 + x(t) * ddx(t)),
            )
        else:
            T, x, derivatives = 1.0, (lambda t: t), None
        spec = curvature_from_parametric(
            x, lambda t: c * x(t) ** 2, (-T, T), derivatives=derivatives
        )

        def S(xx):
            u = 2.0 * c * xx
            return (u * np.sqrt(1.0 + u * u) + np.arcsinh(u)) / (4.0 * c)

        X = float(x(T))
        assert abs(spec.L - 2.0 * S(X)) <= 1e-13 * 2.0 * S(X)
        s_of_t = S(spec.points[:, 0]) + S(X)
        assert np.max(np.abs(s_of_t - spec.s_samples)) <= 1e-12

    def test_asymmetric_curvature_rejected(self):
        with pytest.raises(AsymmetricCurvature):
            curvature_from_parametric(
                lambda t: t + 0.05 * t * t, lambda t: 0.5 * t * t, (-1.0, 1.0)
            )

    def test_displaced_curve_rejected(self):
        # even curvature profile but not mirror symmetric about the y axis
        with pytest.raises(SymmetryViolation):
            curvature_from_parametric(
                lambda t: t + 0.3, lambda t: 0.5 * t * t, (-1.0, 1.0)
            )

    def test_stalling_parametrization_rejected(self):
        with pytest.raises(ZeroSpeed):
            curvature_from_parametric(
                lambda t: t**3, lambda t: t**6 / 2.0, (-1.0, 1.0)
            )

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_needs_both_ends(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            curvature_from_parametric(
                lambda t: t, lambda t: 0.5 * t * t, (-1.0, 1.0), n_samples=n_samples
            )


class TestReconstruction:
    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_needs_both_ends(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            reconstruct_from_curvature(math.pi, 0.0, n_samples=n_samples)

    def test_circle_arc_from_constant_curvature(self):
        spec = reconstruct_from_curvature(2.0, lambda s: 1.0, n_samples=1025)
        # midpoint sits at the origin with tangent (1, 0); center is one
        # curvature radius along the leftward normal
        center = spec.points[512] + np.array([0.0, 1.0])
        radii = np.hypot(*(spec.points - center).T)
        assert np.max(np.abs(radii - 1.0)) < 1e-9

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_round_trip_reproduces_curvature(self):
        L = math.pi
        k = lambda s: 0.3 * np.cos(2.0 * np.pi * s / L)
        # dense reconstruction so the interpolating spline's second
        # derivative stays well below the 1e-6 comparison tolerance
        spec = reconstruct_from_curvature(L, k, n_samples=8193)
        sx = CubicSpline(np.linspace(0.0, L, len(spec.points)), spec.points[:, 0])
        sy = CubicSpline(np.linspace(0.0, L, len(spec.points)), spec.points[:, 1])
        back = curvature_from_parametric(
            sx, sy, (0.0, L),
            derivatives=(sx.derivative(), sy.derivative(),
                         sx.derivative(2), sy.derivative(2)),
        )
        s = np.linspace(0.0, L, len(back.k_samples))
        assert np.max(np.abs(back.k_samples - k(s))) < 1e-6

    def test_midpoint_anchoring(self):
        spec = reconstruct_from_curvature(math.pi, lambda s: -0.5, n_samples=1025)
        mid = spec.points[512]
        assert np.max(np.abs(mid)) < 1e-12
        assert spec.tangents[512] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_mirror_symmetry_of_samples(self):
        spec = reconstruct_from_curvature(
            math.pi, lambda s: 0.4 * np.cos(2.0 * np.pi * s / math.pi)
        )
        x, y = spec.points[:, 0], spec.points[:, 1]
        assert np.max(np.abs(x + x[::-1])) < 1e-9
        assert np.max(np.abs(y - y[::-1])) < 1e-9

    def test_odd_curvature_rejected(self):
        with pytest.raises(AsymmetricCurvature):
            reconstruct_from_curvature(math.pi, lambda s: s - math.pi / 2.0)

    def test_nan_curvature_rejected(self):
        # NaN where |s - L/2| > 1/2; every comparison with NaN is False,
        # so the evenness test must be written to fail on it.
        with pytest.raises(AsymmetricCurvature):
            reconstruct_from_curvature(
                math.pi, lambda s: np.sqrt(0.5 - np.abs(s - math.pi / 2.0))
            )


def _reconstruct_step_by_step(L, k, n_samples):
    """Points and tangents by the scalar RK4 recurrence, one step per node
    from L/2 rightward, then mirrored node by node: the oracle for the
    array form in reconstruct_from_curvature."""
    from fermi_spectra.geometry import _profile

    s_grid = np.linspace(0.0, L, n_samples)
    k_eval = _profile(k, L)

    def rk4_step(state, s, h):
        theta, xx, yy = state
        k1 = (float(k_eval(s)), np.cos(theta), np.sin(theta))
        t2 = theta + 0.5 * h * k1[0]
        k2 = (float(k_eval(s + 0.5 * h)), np.cos(t2), np.sin(t2))
        t3 = theta + 0.5 * h * k2[0]
        k3 = (k2[0], np.cos(t3), np.sin(t3))
        t4 = theta + h * k3[0]
        k4 = (float(k_eval(s + h)), np.cos(t4), np.sin(t4))
        return (
            theta + h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0,
            xx + h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0,
            yy + h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0,
        )

    pts = np.zeros((n_samples, 2))
    thetas = np.zeros(n_samples)
    right = np.nonzero(s_grid >= 0.5 * L - 1e-12 * L)[0]
    state, s_cur = (0.0, 0.0, 0.0), 0.5 * L
    for i in right:
        h = s_grid[i] - s_cur
        if h > 0:
            state = rk4_step(state, s_cur, h)
            s_cur = s_grid[i]
        thetas[i] = state[0]
        pts[i] = (state[1], state[2])
    for i in range(right[0]):
        j = n_samples - 1 - i
        pts[i] = (-pts[j, 0], pts[j, 1])
        thetas[i] = -thetas[j]
    tangents = np.column_stack([np.cos(thetas), np.sin(thetas)])
    return pts, tangents, k_eval(s_grid)


def _wavy(L):
    return lambda s: -0.3 + 0.4 * np.cos(2.0 * np.pi * (s - 0.5 * L) / L) + 0.1 * (s - 0.5 * L) ** 2


_CURVATURES = {
    "constant": lambda L: -0.5479,
    "negative zero": lambda L: -0.0,
    "callable": _wavy,
    # math.cos rejects arrays, so this one is called once per sample
    "scalar-only callable": lambda L: (
        lambda s: 0.2 + 0.3 * math.cos(2.0 * math.pi * (s - 0.5 * L) / L)
    ),
    "expression": lambda L: as_function(
        parse_expression("-0.3 + 0.4*cos(2*pi*(s - L/2)/L) + 0.1*(s - L/2)^2", ("s", "L")),
        "s",
        L=L,
    ),
    "constant expression": lambda L: as_function(parse_expression("-0.5479", ("s",)), "s", L=L),
    "samples": lambda L: _wavy(L)(np.linspace(0.0, L, 97)),
}


class TestArrayReconstruction:
    @pytest.mark.parametrize("kind", sorted(_CURVATURES))
    @pytest.mark.parametrize(
        "L, n_samples",
        # odd and even sample counts; at L = pi, 151 samples put the middle
        # node one rounding below L/2, so its step is skipped and the next
        # one starts at L/2
        [(2.3, 1024), (2.3, 1025), (math.pi, 151), (math.pi, 2), (math.pi, 3), (0.797, 40)],
    )
    def test_equals_step_by_step_rk4(self, kind, L, n_samples):
        k = _CURVATURES[kind](L)
        spec = reconstruct_from_curvature(L, k, n_samples=n_samples)
        points, tangents, k_samples = _reconstruct_step_by_step(L, k, n_samples)
        assert np.array_equal(spec.points, points)
        assert np.array_equal(spec.tangents, tangents)
        assert np.array_equal(spec.k_samples, k_samples)
        # signed zeros too: the mirror negates, the sums start from +0
        assert np.array_equal(np.signbit(spec.points), np.signbit(points))
        assert np.array_equal(np.signbit(spec.tangents), np.signbit(tangents))

    def test_middle_node_rounds_below_half_length(self):
        s = np.linspace(0.0, math.pi, 151)
        assert s[75] < 0.5 * math.pi
        spec = reconstruct_from_curvature(math.pi, -0.5, n_samples=151)
        assert np.array_equal(spec.points[75], [0.0, 0.0])

    @pytest.mark.parametrize("n_samples", [1024, 1025])
    def test_constant_curvature_is_circular_arc(self, n_samples):
        # theta(s) = k (s - L/2), so gamma(s) = (sin(k u), 1 - cos(k u)) / k
        # with u = s - L/2: RK4 is exact on theta, and its error on gamma
        # is O(h^4).
        L, k0 = math.pi, -0.5
        spec = reconstruct_from_curvature(L, k0, n_samples=n_samples)
        u = np.linspace(0.0, L, n_samples) - 0.5 * L
        arc = np.column_stack([np.sin(k0 * u), 1.0 - np.cos(k0 * u)]) / k0
        assert np.max(np.abs(spec.points - arc)) < 1e-12
        tangents = np.column_stack([np.cos(k0 * u), np.sin(k0 * u)])
        assert np.max(np.abs(spec.tangents - tangents)) < 1e-12


class TestWidthProfile:
    def test_constant_and_array_inputs_agree(self):
        a = width_profile(0.4, math.pi, n_samples=65)
        b = width_profile(np.full(65, 0.4), math.pi, n_samples=65)
        np.testing.assert_allclose(a.delta_samples, b.delta_samples)

    def test_derivative_samples(self):
        L = math.pi
        prof = width_profile(lambda s: 0.3 + 0.1 * np.cos(2 * np.pi * s / L), L)
        s = np.linspace(0.0, L, len(prof.delta_samples))
        exact = -0.1 * (2 * np.pi / L) * np.sin(2 * np.pi * s / L)
        err = np.abs(prof.ddelta_samples - exact)
        # centered differences inside, first order one-sided at the ends
        assert np.max(err[1:-1]) < 1e-4
        assert max(err[0], err[-1]) < 5e-3

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveWeight):
            width_profile(lambda s: s - 1.0, math.pi)

    def test_uneven_rejected(self):
        with pytest.raises(AsymmetricWeight):
            width_profile(lambda s: 1.0 + 0.1 * s, math.pi)

    def test_nan_sample_rejected(self):
        delta = np.full(65, 0.4)
        delta[[3, -4]] = np.nan
        with pytest.raises(NonpositiveWeight):
            width_profile(delta, math.pi, n_samples=65)

    @pytest.mark.parametrize("ends", [[0], [0, -1]])
    def test_infinite_sample_rejected(self, ends):
        # Named as not finite; the evenness residual inf - inf would be NaN.
        delta = np.full(65, 0.4)
        delta[ends] = np.inf
        with pytest.raises(NonpositiveWeight, match="not finite"):
            width_profile(delta, math.pi, n_samples=65)

    def test_infinite_constant_rejected(self):
        with pytest.raises(NonpositiveWeight, match="not finite"):
            width_profile(math.inf, 3.0)

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_needs_both_ends(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            width_profile(0.4, math.pi, n_samples=n_samples)


class TestDomain:
    def test_jacobian_min_positive_curvature(self, annulus):
        # k = -0.5, delta = 0.5: J ranges over [1 - 0.25, 1]
        assert annulus.jacobian_min == pytest.approx(0.75, abs=1e-9)
        assert annulus.valid

    def test_fermi_map_hits_curve_at_zero_offset(self, annulus):
        s = annulus.s_samples
        pts = fermi_map(annulus, s, np.zeros_like(s))
        np.testing.assert_array_equal(pts, annulus.curve.points)

    def test_fermi_map_mirror_symmetry(self, wavy):
        s = np.linspace(0.0, wavy.L, 101)
        t = np.linspace(0.0, 1.0, 7)[:, None]
        pts = fermi_map(wavy, s[None, :], t * wavy.delta_at(s)[None, :])
        flipped = pts[:, ::-1].copy()
        flipped[..., 0] *= -1.0
        assert np.max(np.abs(pts - flipped)) < 1e-6

    def test_fermi_map_out_of_domain(self, annulus):
        with pytest.raises(OutOfDomain):
            fermi_map(annulus, -0.1, 0.0)
        with pytest.raises(OutOfDomain):
            fermi_map(annulus, 1.0, 1.0)

    def test_offset_curve_formula(self, annulus):
        tang = annulus.curve.tangents
        normal = np.column_stack([tang[:, 1], -tang[:, 0]])
        expected = annulus.curve.points + annulus.width.delta_samples[:, None] * normal
        assert np.max(np.abs(annulus.offset_curve - expected)) < 1e-12

    def test_folding_strip_flagged_invalid(self):
        # J = 1 + r k dips negative when k = -2 and delta = 1
        curve = reconstruct_from_curvature(math.pi, lambda s: -2.0)
        width = width_profile(lambda s: 1.0, math.pi)
        domain = make_domain(curve, width)
        assert not domain.valid
        assert domain.jacobian_min < 0.0
        with pytest.raises(InvalidDomain):
            domain.require_valid()

    def test_overlap_without_folding_flagged(self):
        # k = 4, delta = 0.4 keeps J in [1, 2.6] but the offset band
        # wraps around its own center and self-intersects
        curve = reconstruct_from_curvature(math.pi, lambda s: 4.0)
        width = width_profile(lambda s: 0.4, math.pi)
        domain = make_domain(curve, width)
        assert domain.jacobian_min > 0.0
        assert not domain.valid
        assert domain.collision_count > 0

    def test_validate_domain_report(self, annulus):
        assert annulus.jacobian_min == pytest.approx(0.75, abs=1e-9)
        assert annulus.collision_count == 0
        assert annulus.valid

    def test_steep_width_strip_valid(self):
        # 1 + delta k >= 1 and a simple boundary
        curve = reconstruct_from_curvature(0.797, lambda s: 1.757)
        domain = make_domain(curve, width_profile(_steep, 0.797))
        assert domain.jacobian_min == 1.0
        assert domain.valid
        assert domain.collision_count == 0

    def test_scale_width(self, annulus):
        half = scale_width(annulus, 0.5)
        np.testing.assert_allclose(
            half.width.delta_samples, 0.5 * annulus.width.delta_samples
        )
        np.testing.assert_allclose(
            half.width.ddelta_samples, 0.5 * annulus.width.ddelta_samples
        )
        assert half.curve is annulus.curve
        assert half.jacobian_min > annulus.jacobian_min


@given(
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=20, deadline=None)
def test_constant_curvature_jacobian(k0, delta):
    """jacobian_min equals 1 + delta*min(k, 0) for constant data."""
    curve = reconstruct_from_curvature(math.pi, lambda s: k0, n_samples=257)
    width = width_profile(delta, math.pi, n_samples=257)
    domain = make_domain(curve, width)
    expected = 1.0 + delta * min(k0, 0.0)
    assert domain.jacobian_min == pytest.approx(expected, abs=1e-9)


def _brute_crossings(points, offset):
    """Meeting pairs of non-adjacent boundary edges, by the textbook
    orientation and on-segment test over all O(m^2) pairs."""
    poly = np.concatenate([points, offset[::-1]])
    m = len(poly)
    head, tail = poly, np.roll(poly, -1, axis=0)

    def direction(p, q, r):
        cross = (r[..., 0] - p[..., 0]) * (q[..., 1] - p[..., 1]) - (
            q[..., 0] - p[..., 0]
        ) * (r[..., 1] - p[..., 1])
        return np.sign(cross)

    def on_segment(p, q, r):
        return np.all((np.minimum(p, q) <= r) & (r <= np.maximum(p, q)), axis=-1)

    count = 0
    for i in range(m):
        # edges i + 2 .. m - 1, minus edge m - 1 when it closes onto edge 0
        j = np.arange(i + 2, m if i > 0 else m - 1)
        p1, p2, p3, p4 = head[i], tail[i], head[j], tail[j]
        d1, d2 = direction(p3, p4, p1), direction(p3, p4, p2)
        d3, d4 = direction(p1, p2, p3), direction(p1, p2, p4)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        hit |= (d1 == 0) & on_segment(p3, p4, p1)
        hit |= (d2 == 0) & on_segment(p3, p4, p2)
        hit |= (d3 == 0) & on_segment(p1, p2, p3)
        hit |= (d4 == 0) & on_segment(p1, p2, p4)
        count += int(np.count_nonzero(hit))
    return count


@pytest.mark.parametrize(
    "L, k, delta, simple",
    [
        (math.pi, -0.5, 0.5, True),  # annulus
        # straight spine whose offset edges outreach the collinear spine
        # edges, which are disjoint and do not meet
        (0.797, 0.0, _steep, True),
        (math.pi, 4.0, 0.4, False),  # offset band wraps onto itself
        (1.942, 3.231, 0.587, True),  # ring one cell short of closing
        (math.pi, -2.0, 1.0, False),  # folded: 1 + r k < 0
    ],
    ids=["annulus", "straight-steep", "overlap", "open-ring", "folded"],
)
def test_boundary_crossings_match_brute_force(L, k, delta, simple):
    curve = reconstruct_from_curvature(L, lambda s: k)
    domain = make_domain(curve, width_profile(delta, L))
    count = _boundary_crossings(curve.points, domain.offset_curve)
    assert count == _brute_crossings(curve.points, domain.offset_curve)
    assert (count == 0) == simple


def test_touching_edges_count_as_meeting():
    # The offset vertex (1.5, 0) lies inside the spine edge (1, 0)-(2, 0),
    # so both offset edges at that vertex touch it.
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    offset = np.array([[0.0, -1.0], [1.5, 0.0], [2.0, -1.0], [3.0, -1.0]])
    assert _boundary_crossings(points, offset) == _brute_crossings(points, offset) == 2


def _random_strip(L, k0, k1, delta, amp, n):
    """An even strip: k = k0 + k1 cos(2 pi s / L), width delta (1 + amp cos)."""
    curve = reconstruct_from_curvature(
        L, lambda s: k0 + k1 * np.cos(2.0 * np.pi * s / L), n_samples=n
    )
    width = width_profile(
        lambda s: delta * (1.0 + amp * np.cos(2.0 * np.pi * s / L)), L, n_samples=n
    )
    return make_domain(curve, width)


# k delta reaches 9, so many of these strips fold or overlap themselves.
STRIPS = dict(
    L=st.floats(min_value=1.0, max_value=6.0),
    k0=st.floats(min_value=-3.0, max_value=3.0),
    k1=st.floats(min_value=-3.0, max_value=3.0),
    delta=st.floats(min_value=0.05, max_value=3.0),
    amp=st.floats(min_value=0.0, max_value=0.5),
)


@given(**STRIPS, n=st.integers(min_value=4, max_value=700))
@settings(max_examples=60, deadline=None)
def test_near_pairs_contain_kdtree_pairs(L, k0, k1, delta, amp, n):
    """The grid hash returns each unordered pair once, and among them every
    pair of side-edge midpoints that a k-d tree finds within reach."""
    domain = _random_strip(L, k0, k1, delta, amp, n)
    poly = np.concatenate([domain.curve.points, domain.offset_curve[::-1]])
    m = len(poly)
    head, tail = poly, np.roll(poly, -1, axis=0)
    sides = np.setdiff1d(np.arange(m), [n - 1, m - 1])
    centers = 0.5 * (head[sides] + tail[sides])
    reach = float(np.max(np.hypot(*(tail[sides] - head[sides]).T)))

    pairs = _near_pairs(centers, reach)
    found = {(min(i, j), max(i, j)) for i, j in pairs.tolist()}
    assert len(found) == len(pairs)
    assert all(i != j for i, j in found)
    tree = cKDTree(centers).query_pairs(reach, p=np.inf)
    assert tree <= found


@given(**STRIPS, n=st.integers(min_value=4, max_value=40))
@settings(max_examples=60, deadline=None)
def test_boundary_crossings_match_brute_force_on_random_strips(L, k0, k1, delta, amp, n):
    domain = _random_strip(L, k0, k1, delta, amp, n)
    points, offset = domain.curve.points, domain.offset_curve
    assert _boundary_crossings(points, offset) == _brute_crossings(points, offset)


def test_strip_below_double_precision_validates_without_warning():
    # Side edges of about 1e-203 against an extent of 0.4: uncapped, the
    # offset curve's cell indices would leave int64.  Any warning fails.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        domain = make_domain(
            reconstruct_from_curvature(1e-200, 0.0), width_profile(0.4, 1e-200)
        )
    assert domain.collision_count == 0

