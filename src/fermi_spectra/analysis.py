"""Explicit spectral bounds, thresholds, and certificates for strip domains.

Everything here is closed-form or low-dimensional quadrature: no PDE solves.
The quantities revolve around the area factor 1 + r k(s) of the strip map
and the one-dimensional reference eigenvalue (pi_p / L)^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, SolveFailure
from .geometry import _check_weight

# Curvature magnitudes below this count as zero when classifying signs.
K_ZERO = 1e-12


def _require_p(p):
    if not p > 1.0:
        raise BadExponent(f"p must exceed 1 (got {p})")


def _power(base, p):
    """base ** p for floats, inf where Python raises OverflowError instead."""
    try:
        return base ** p
    except OverflowError:
        return math.inf


def _finite(value, what, L):
    """value, or SolveFailure when it is not a finite double: on a strip
    this short, (pi / L)^p or its reciprocal leaves double range."""
    if not math.isfinite(value):
        raise SolveFailure(f"{what} is not a finite double on a strip of length L = {L:.6g}")
    return value


def pi_p(p):
    """Half-period of the p-trigonometric sine: 2 pi (p-1)^(1/p) / (p sin(pi/p))."""
    _require_p(p)
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def pi_p_quadrature(p):
    """Evaluate pi_p from its integral definition, 2 * int_0^inf dt / (1 + t^p/(p-1)).

    Substituting t = (p-1)^(1/p) u turns the integrand into 1/(1+u^p).  The
    tail over [1, inf) maps onto [0, 1] via u -> 1/u as the integral of
    u^(p-2) / (1+u^p), singular at 0 for p < 2; v = u^(p-1) turns that into
    1/(p-1) times the integral of the smooth 1/(1+v^q), with q = p/(p-1)
    the conjugate exponent.  Serves as the independent oracle for the
    closed form; it alone in the package imports scipy.integrate.
    """
    import scipy.integrate

    _require_p(p)

    def integral(e):  # int_0^1 du / (1 + u^e)
        return scipy.integrate.quad(
            lambda u: 1.0 / (1.0 + u**e), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200
        )[0]

    return 2.0 * (p - 1.0) ** (1.0 / p) * (integral(p) + integral(p / (p - 1.0)) / (p - 1.0))


def c_p(p):
    """Constant with (a^2+b^2)^(p/2) >= c_p (a^p + b^p) for a, b >= 0."""
    _require_p(p)
    return 2.0 ** ((p - 2.0) / 2.0) if p < 2.0 else 1.0


def _max_fermi_factor(domain):
    """max over the closed strip of 1 + r k(s); attained at r = 0 or r = delta."""
    edge = 1.0 + domain.width.delta_samples * domain.curve.k_samples
    return max(1.0, float(np.max(edge)))


def _bound_constants(domain, p):
    """(A_p, B_p) without validating the domain; see a_p and b_p."""
    A = _max_fermi_factor(domain) ** (-p)
    prefactor = 2.0 ** (-p / 2.0) if p < 2.0 else 2.0 ** (1.0 - p)
    return A, prefactor * A


def a_p(domain, p):
    """min over the closed strip of (1 + r k)^(-p); monotone in r, so edges suffice."""
    _require_p(p)
    domain.require_valid()
    return _bound_constants(domain, p)[0]


def b_p(domain, p):
    """Prefactor 2^(-p/2) (p < 2) or 2^(1-p) (p >= 2) times min{1, min (1+rk)^(-p)}.

    The max of 1 + r k over the strip is at least 1 (r = 0), so the min is
    just a_p.
    """
    _require_p(p)
    domain.require_valid()
    return _bound_constants(domain, p)[1]


@dataclass
class ConcavityResult:
    passed: bool
    worst_residual: float


def concavity_check(samples, tol=1e-9):
    """Concavity of uniform samples: every centered second difference <= tol * scale."""
    u = np.asarray(samples, dtype=float)
    if len(u) < 3:
        return ConcavityResult(True, 0.0)
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    worst = float(np.max(d2))
    scale = float(np.max(np.abs(u)))
    return ConcavityResult(bool(worst <= tol * scale), worst)


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    residual: float


@dataclass
class BoundReport:
    label: str
    value: float
    constants: dict
    hypothesis_results: list
    applicable: bool


@dataclass
class Certificate:
    case_label: str
    threshold: float
    mu1_upper: float
    certified: bool


@dataclass
class ProofConstants:
    s: float
    B1_sq: float | None
    B2_sq: float | None
    B1_sq_closed: float | None
    B2_sq_closed: float | None
    C1_lower: float | None
    C2_lower: float | None


def oddness_threshold(domain):
    """Case label and smallness threshold from the curvature sign pattern.

    Case 'a' (k >= 0): 1 / max_s (2 delta + delta^2 k)^2.
    Case 'b' (k < 0):  1 / max_s (4 delta^2 / (1 + delta k)^2).
    Case 'c' (mixed):  the smaller of the two.
    Samples with |k| < 1e-12 count as nonnegative; strictly negative means
    every sample below -1e-12.
    """
    domain.require_valid()
    k = domain.curve.k_samples
    delta = domain.width.delta_samples

    convex_denom = float(np.max((2.0 * delta + delta**2 * k) ** 2))
    concave_denom = float(np.max(4.0 * delta**2 / (1.0 + delta * k) ** 2))

    if np.all(k >= -K_ZERO):
        return "a", 1.0 / convex_denom
    if np.all(k < -K_ZERO):
        return "b", 1.0 / concave_denom
    return "c", 1.0 / max(convex_denom, concave_denom)


def fermi_layer_integral(delta, k, q):
    """int_0^delta (1 + r k)^q dr, exact in every regime, elementwise on arrays.

    Uses a four-term series when |delta k| < 1e-8, the logarithm when the
    antiderivative exponent q + 1 vanishes, and expm1/log1p otherwise so
    the formula stays stable as q + 1 -> 0 or k -> 0.  Scalar delta and k
    give a float.
    """
    d, kk = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(k, dtype=float)
    )
    a = d * kk
    out = np.empty_like(a)
    small = np.abs(a) < 1e-8
    if np.any(small):
        q2, q3 = q * (q - 1.0), q * (q - 1.0) * (q - 2.0)
        asm = a[small]
        out[small] = d[small] * (
            1.0 + q * asm / 2.0 + q2 * asm * asm / 6.0 + q3 * asm**3 / 24.0
        )
    rest = ~small
    if np.any(rest):
        ar, kr = a[rest], kk[rest]
        if abs(q + 1.0) < 1e-12:
            out[rest] = np.log1p(ar) / kr
        else:
            out[rest] = np.expm1((q + 1.0) * np.log1p(ar)) / ((q + 1.0) * kr)
    return float(out) if out.ndim == 0 else out


PANELS, PANEL_ORDER = 256, 10


def _panel_rule(L):
    """Nodes and weights of a composite Gauss rule on [0, L]: PANELS panels
    of PANEL_ORDER points."""
    gx, gw = np.polynomial.legendre.leggauss(PANEL_ORDER)
    edges = np.linspace(0.0, L, PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * gx[None, :]).ravel()
    weights = np.tile(half * gw, PANELS)
    return nodes, weights


def test_function_upper_bound(domain, p):
    """Rayleigh quotient of the profile cos(pi s / L) over the strip.

    The quotient is (pi/L)^p times the ratio of int |sin|^p I_{1-p} ds to
    int |cos|^p I_1 ds, where I_q(s) integrates (1+rk)^q across the layer;
    I_1 is the layer mass delta + delta^2 k / 2.  The profile has weighted
    p-mean zero by symmetry, so this dominates the first nonzero eigenvalue.
    """
    _require_p(p)
    domain.require_valid()
    L = domain.L
    nodes, weights = _panel_rule(L)
    delta = domain.delta_at(nodes)
    k = domain.k_at(nodes)
    layer_mass = delta + 0.5 * delta**2 * k
    layer_grad = fermi_layer_integral(delta, k, 1.0 - p)
    phase = math.pi * nodes / L
    num = float(np.dot(weights, np.abs(np.sin(phase)) ** p * layer_grad))
    den = float(np.dot(weights, np.abs(np.cos(phase)) ** p * layer_mass))
    return _finite(_power(math.pi / L, p) * num / den, "the test-function quotient", L)


def certify_odd(domain, mu1_upper=None):
    """Certify that the first nonzero Neumann eigenvalue has an odd eigenfunction.

    Compares a computable upper bound for the p = 2 eigenvalue (the cosine
    profile quotient unless the caller supplies a tighter one) with the
    smallness threshold for the curvature case at hand.
    """
    case_label, threshold = oddness_threshold(domain)
    if mu1_upper is None:
        mu1_upper = test_function_upper_bound(domain, 2.0)
    return Certificate(
        case_label=case_label,
        threshold=threshold,
        mu1_upper=float(mu1_upper),
        certified=bool(mu1_upper < threshold),
    )


def _divide(num, den):
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson(y, x):
    """Composite Simpson integral of samples y on the increasing grid x.

    The formulas and their order of operations are those of
    scipy.integrate.simpson(y, x=x), so the value is the same to the bit:
    the irregular-grid rule on pairs of intervals, and for an even number
    of samples Cartwright's correction on the last interval (the trapezoid
    for two samples).
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float))
    n = len(y)
    if n == 2:
        return float(0.5 * h[0] * (y[1] + y[0]))
    stop = n - 3 if n % 2 == 0 else n - 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = _divide(h0, h1)
    result = np.sum(
        hsum / 6.0 * (
            y[0:stop:2] * (2.0 - _divide(np.ones_like(h0divh1), h0divh1))
            + y[1:stop + 1:2] * (hsum * _divide(hsum, hprod))
            + y[2:stop + 2:2] * (2.0 - h0divh1)
        )
    )
    if n % 2 == 0:
        a, b = h[-2:-1], h[-1:]
        alpha = _divide(2 * b**2 + 3 * a * b, 6 * (b + a))
        beta = _divide(b**2 + 3.0 * a * b, 6 * a)
        eta = _divide(b**3, 6 * a * (a + b))
        result += (alpha * y[-1] + beta * y[-2] - eta * y[-3])[0]
    return float(result)


def lyapunov_bound(w_samples, L, p, evenness_tol=1e-8):
    """Lower bound min w / int_0^{L/2} (L/2 - s)^(p-1) w(s) ds.

    w must be positive and even about L/2; the integral uses composite
    Simpson on the sample grid (the L/2 node is interpolated when the grid
    has no node there).  Equals p (2/L)^p exactly when w is constant.
    """
    _require_p(p)
    w = np.asarray(w_samples, dtype=float)
    _check_weight(w, evenness_tol, "weight")

    s = np.linspace(0.0, float(L), len(w))
    half = 0.5 * float(L)
    left = s[s <= half + 1e-12 * L]
    w_left = w[: len(left)]
    if abs(left[-1] - half) > 1e-12 * L:
        left = np.append(left, half)
        w_left = np.append(w_left, np.interp(half, s, w))
    # At large p the power, or Simpson's weighted sum of it, leaves double
    # range; the bound is then 0 or _finite's error, so the overflow is not
    # worth a warning.
    with np.errstate(over="ignore"):
        integrand = (half - left) ** (p - 1.0) * w_left
        integral = _simpson(integrand, left)
    bound = float(np.min(w)) / integral if integral > 0.0 else math.inf
    return _finite(bound, "the Lyapunov bound", L)


def figure2_data(p_grid):
    """Table of x = 1/p, sin(pi x)/(pi x), (1-x)^x, and their gap.

    A positive gap at x = 1/p is equivalent to 2 p^(1/p) < pi_p, the strict
    comparison between the constant-weight Lyapunov bound and the true
    one-dimensional eigenvalue.
    """
    p_arr = np.asarray(p_grid, dtype=float)
    if np.any(p_arr <= 1.0):
        raise BadExponent("p grid must lie in (1, inf)")
    x = 1.0 / p_arr
    r = np.sinc(x)  # sin(pi x) / (pi x)
    b = np.exp(x * np.log1p(-x))
    return np.column_stack([x, r, b, b - r])


FIGURE2_COLUMNS = ("x", "r", "b", "b_minus_r")


GOLDEN_SCAN, GOLDEN_ITERS = 64, 120


def _golden_max(f, a, b):
    """Maximum of a unimodal-ish f on [a, b]: a scan of GOLDEN_SCAN intervals,
    then at most GOLDEN_ITERS golden-section steps around the best point."""
    xs = np.linspace(a, b, GOLDEN_SCAN + 1)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, GOLDEN_SCAN)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_ITERS):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        if hi - lo < 1e-13 * max(1.0, abs(b)):
            break
    return max(f1, f2, vals[i])


def proof_constants(domain, s):
    """Interior estimate data at arc position s.

    For k(s) > 0 the relevant product pairs the outward layer mass above r
    with the inverse-factor mass below it; for k(s) < 0 the roles reverse
    and the product integrates from the far edge.  Each exact maximum over
    r is certified against its closed-form bound; the output also carries
    the Poincare-type constants 1/(4 B^2).
    """
    domain.require_valid()
    k = float(domain.k_at(s))
    delta = float(domain.delta_at(s))

    B1_sq = B2_sq = B1_closed = B2_closed = None
    if k > K_ZERO:

        def product_up(r):
            outer = (delta - r) * (1.0 + 0.5 * (delta + r) * k)
            inner = math.log1p(r * k) / k
            return outer * inner

        B1_sq = _golden_max(product_up, 0.0, delta)
        B1_closed = (delta + 0.5 * delta**2 * k) ** 2
    elif k < -K_ZERO:

        def product_down(r):
            outer = (delta - r) * (1.0 + 0.5 * (delta - r) * k)
            inner = (math.log1p((delta - r) * k) - math.log1p(delta * k)) / (-k)
            return outer * inner

        B2_sq = _golden_max(product_down, 0.0, delta)
        B2_closed = delta**2 / (1.0 + delta * k) ** 2
    else:
        # Flat case: both products degenerate to (delta - r) r.
        B1_sq = B2_sq = _golden_max(lambda r: (delta - r) * r, 0.0, delta)
        B1_closed = B2_closed = delta**2

    return ProofConstants(
        s=float(s),
        B1_sq=B1_sq,
        B2_sq=B2_sq,
        B1_sq_closed=B1_closed,
        B2_sq_closed=B2_closed,
        C1_lower=None if B1_sq is None else 1.0 / (4.0 * B1_sq),
        C2_lower=None if B2_sq is None else 1.0 / (4.0 * B2_sq),
    )


def _jacobian_hypothesis(domain):
    jmin = float(domain.jacobian_min)
    return HypothesisCheck("positive area factor", jmin > 0.0, jmin)


def _embedded_hypothesis(domain):
    """The strip is embedded (domain.valid); the residual is the number of
    boundary crossings."""
    return HypothesisCheck("embedded strip", domain.valid, float(domain.collision_count))


WIDTH_TOL = 1e-9


def lower_bound_constant_width(domain, p, concavity_tol=1e-9):
    """Lower bound A_p (pi_p / L)^p for constant width and concave curvature.

    The width is constant when (max - min) / max <= WIDTH_TOL = 1e-9."""
    _require_p(p)
    delta = domain.width.delta_samples
    k = domain.curve.k_samples
    L = domain.L

    spread = float((np.max(delta) - np.min(delta)) / np.max(delta))
    conc = concavity_check(k, concavity_tol)
    checks = [
        HypothesisCheck("constant width", spread <= WIDTH_TOL, spread),
        HypothesisCheck("concave curvature", conc.passed, conc.worst_residual),
        _jacobian_hypothesis(domain),
        _embedded_hypothesis(domain),
    ]

    A_p = _bound_constants(domain, p)[0]
    value = _finite(A_p * _power(pi_p(p) / L, p), "the constant-width bound", L)
    return BoundReport(
        label="constant-width",
        value=float(value),
        constants={"pi_p": pi_p(p), "A_p": A_p, "L": L, "p": p},
        hypothesis_results=checks,
        applicable=all(c.passed for c in checks),
    )


SLOPE_TOL = 1e-9


def lower_bound_variable_width(domain, p, concavity_tol=1e-9):
    """Lower bound B_p (pi_p / L)^p for concave width with moderate slope.

    Hypotheses: delta concave; delta * k or delta^2 * k concave (either
    suffices); |delta'| <= 1 up to SLOPE_TOL = 1e-9; positive area factor;
    embedded strip.
    """
    _require_p(p)
    delta = domain.width.delta_samples
    k = domain.curve.k_samples
    L = domain.L

    conc_w = concavity_check(delta, concavity_tol)
    conc_dk = concavity_check(delta * k, concavity_tol)
    conc_d2k = concavity_check(delta**2 * k, concavity_tol)
    slope = float(np.max(np.abs(domain.width.ddelta_samples)))
    checks = [
        HypothesisCheck("concave width", conc_w.passed, conc_w.worst_residual),
        HypothesisCheck(
            "concave width-curvature product",
            conc_dk.passed or conc_d2k.passed,
            min(conc_dk.worst_residual, conc_d2k.worst_residual),
        ),
        HypothesisCheck("width slope at most one", slope <= 1.0 + SLOPE_TOL, slope - 1.0),
        _jacobian_hypothesis(domain),
        _embedded_hypothesis(domain),
    ]

    B_p = _bound_constants(domain, p)[1]
    value = _finite(B_p * _power(pi_p(p) / L, p), "the variable-width bound", L)
    return BoundReport(
        label="variable-width",
        value=float(value),
        constants={"pi_p": pi_p(p), "B_p": B_p, "L": L, "p": p},
        hypothesis_results=checks,
        applicable=all(c.passed for c in checks),
    )


def lyapunov_bound_report(domain, p):
    """The one-dimensional Lyapunov bound packaged for the width weight,
    checked against the width profile's own evenness tolerance."""
    w = domain.width.delta_samples
    evenness_tol = domain.width.evenness_tol
    value = lyapunov_bound(w, domain.L, p, evenness_tol=evenness_tol)
    # lyapunov_bound raised unless both hypotheses hold; this only reads
    # their residuals.
    w_min, res = _check_weight(w, evenness_tol, "weight")
    checks = [
        HypothesisCheck("positive weight", True, w_min),
        HypothesisCheck("even weight", True, res),
    ]
    return BoundReport(
        label="lyapunov",
        value=float(value),
        constants={"min_w": w_min, "L": domain.L, "p": p},
        hypothesis_results=checks,
        applicable=True,
    )
