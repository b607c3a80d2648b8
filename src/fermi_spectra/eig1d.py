"""First nonzero Neumann eigenvalue of the weighted one-dimensional p-Laplacian.

The problem on (0, L) with positive even weight w reads

    -(w |u'|^(p-2) u')' = mu w |u|^(p-2) u,   u'(0) = u'(L) = 0.

Evenness of w makes the first nonzero eigenfunction odd about L/2 and
strictly monotone, so shooting only needs the half interval with a zero
target at L/2.  A discretized route provides the independent cross-check:
a sparse shift-invert eigensolve of the tridiagonal finite-element pencil
at p = 2, inverse power iteration from its eigenvector otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .analysis import lyapunov_bound
from .errors import BadExponent, NoCrossing, SolveFailure, StiffFailure
from .geometry import _check_weight

PHI_FLOOR = 1e-14


@dataclass
class OneDimProblem:
    L: float
    p: float
    w_samples: np.ndarray
    evenness_tol: float = 1e-8

    def __post_init__(self):
        if not 1.0 < self.p < np.inf:
            raise BadExponent(f"p must exceed 1 and be finite (got {self.p})")
        if not self.L > 0.0:
            raise ValueError("L must be positive")
        w = np.asarray(self.w_samples, dtype=float)
        if len(w) < 8:
            raise ValueError("need at least 8 weight samples")
        _check_weight(w, self.evenness_tol, "weight")
        self.w_samples = w

    @property
    def s_samples(self):
        return np.linspace(0.0, self.L, len(self.w_samples))


@dataclass
class EigenResult:
    mu: float
    u_samples: np.ndarray
    residual: float
    method: str
    iterations: int
    converged: bool = True
    du_samples: np.ndarray = None


def _phi(z, power):
    """|z|^power * sign(z) with a small floor keeping the fractional power finite."""
    if z == 0.0:
        return 0.0
    az = abs(z)
    if az < PHI_FLOOR:
        az = PHI_FLOOR
    r = az**power
    return r if z > 0.0 else -r


def _shoot(mu, p, q, w_stage, h, n_steps, record=False):
    """RK4 integration of u' = phi_q(v/w), v' = -mu w phi_p(u) from (1, 0).

    Integrates the whole half interval and returns (crossed, u_end, us, vs):
    whether u became nonpositive at some step, the terminal value u(L/2),
    and, with record, the sampled trajectory (None otherwise).
    """
    pm1 = p - 1.0
    qm1 = q - 1.0
    u = 1.0
    v = 0.0
    us = [1.0] if record else None
    vs = [0.0] if record else None
    crossed = False
    for i in range(n_steps):
        j = 2 * i
        w0 = w_stage[j]
        wm = w_stage[j + 1]
        w1 = w_stage[j + 2]
        du1 = _phi(v / w0, qm1)
        dv1 = -mu * w0 * _phi(u, pm1)
        ua = u + 0.5 * h * du1
        va = v + 0.5 * h * dv1
        du2 = _phi(va / wm, qm1)
        dv2 = -mu * wm * _phi(ua, pm1)
        ub = u + 0.5 * h * du2
        vb = v + 0.5 * h * dv2
        du3 = _phi(vb / wm, qm1)
        dv3 = -mu * wm * _phi(ub, pm1)
        uc = u + h * du3
        vc = v + h * dv3
        du4 = _phi(vc / w1, qm1)
        dv4 = -mu * w1 * _phi(uc, pm1)
        u += h * (du1 + 2.0 * (du2 + du3) + du4) / 6.0
        v += h * (dv1 + 2.0 * (dv2 + dv3) + dv4) / 6.0
        if u != u or v != v:
            raise StiffFailure(f"integration produced non-finite state at mu={mu:.6g}")
        if u <= 0.0:
            crossed = True
        if record:
            us.append(u)
            vs.append(v)
    if record:
        return crossed, u, np.array(us), np.array(vs)
    return crossed, u, None, None


BRENT_RTOL = 4.0 * float(np.finfo(float).eps)


def _divide(a, b):
    """a / b as C divides doubles: a zero divisor gives an infinity or NaN."""
    if b != 0.0:
        return a / b
    if a == 0.0 or a != a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _brentq(f, a, b, xtol, rtol=BRENT_RTOL, maxiter=100):
    """A root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy.optimize.brentq's C routine, iterate for iterate: the
    same secant and inverse quadratic steps, bisection safeguard, sign
    tests and stop test |half bracket| < (xtol + rtol |x|) / 2, so it
    returns the same root to the bit.  Returns (root, converged); converged
    is False when maxiter iterations end without the stop test holding.
    Raises ValueError when f(a) and f(b) have the same sign, and
    SolveFailure when f returns NaN.
    """

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise SolveFailure(f"Brent's method met a NaN function value at x={x!r}")
        return fx

    # Python floats throughout: f sees the iterates as given, and a numpy
    # scalar would make every shot's pure-Python arithmetic slower.
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, True
    if fcur == 0.0:
        return xcur, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant through the bracket ends
                stry = _divide(-fcur * (xcur - xpre), fcur - fpre)
            else:  # inverse quadratic through the last three points
                dpre = _divide(fpre - fcur, xpre - xcur)
                dblk = _divide(fblk - fcur, xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur, False


def solve_shooting(problem, tol=1e-10, n_steps=4096):
    """Locate the smallest mu whose shot from s = 0 vanishes by L/2.

    Brackets by doubling from the Lyapunov lower bound with the crossing
    predicate, which is monotone in mu, then runs Brent's method on the
    terminal value u(L/2; mu), which is continuous in mu and changes sign
    across the bracket.  tol is relative on mu; converged says that Brent's
    method converged and that the final bracket of the crossing predicate (the
    largest uncrossed and the smallest crossed mu shot) is at most tol * mu
    wide.  iterations counts the shots that located mu.  Returns the
    eigenfunction on the problem grid, extended oddly to [0, L].
    """
    p = problem.p
    q = p / (p - 1.0)
    L = problem.L
    half = 0.5 * L
    h = half / n_steps
    stage_s = np.linspace(0.0, half, 2 * n_steps + 1)
    w_stage = np.interp(stage_s, problem.s_samples, problem.w_samples).tolist()

    shots = {}

    def shoot(mu):
        """(crossed, u(L/2)) at mu; each mu is integrated once."""
        if mu not in shots:
            try:
                shots[mu] = _shoot(mu, p, q, w_stage, h, n_steps)[:2]
            except OverflowError as exc:  # a float power in _phi overflowed
                raise StiffFailure(f"integration overflowed at mu={mu:.6g}") from exc
        return shots[mu]

    lo = lyapunov_bound(problem.w_samples, L, p, evenness_tol=problem.evenness_tol)
    guard = 0
    while shoot(lo)[0]:
        lo *= 0.5
        guard += 1
        if guard > 60:
            raise NoCrossing("no uncrossed lower bracket found")
    hi = 2.0 * lo
    guard = 0
    while not shoot(hi)[0]:
        lo = hi
        hi *= 2.0
        guard += 1
        if guard > 60:
            raise NoCrossing("doubling never produced a crossing")
    # A crossed shot ends below zero unless it crossed back; shrink such an
    # end with the crossing predicate until the terminal value changes sign.
    guard = 0
    while shoot(hi)[1] >= 0.0:
        mid = 0.5 * (lo + hi)
        if shoot(mid)[0]:
            hi = mid
        else:
            lo = mid
        guard += 1
        if guard > 60:
            raise NoCrossing("no crossed bracket end with a negative terminal value")

    # xtol > 0 and rtol >= 4 eps keep Brent's stop test meaningful; tol
    # alone sets the width.
    mu, root_converged = _brentq(
        lambda m: shoot(m)[1],
        lo,
        hi,
        xtol=np.finfo(float).tiny,
        rtol=max(tol, BRENT_RTOL),
    )
    lo = max(m for m, (c, _) in shots.items() if not c)
    hi = min(m for m, (c, _) in shots.items() if c)
    converged = root_converged and hi - lo <= tol * mu

    # Sample the eigenfunction at the largest uncrossed mu shot so it stays
    # positive up to the midpoint; the boundary defect goes into residual.
    _, _, us, vs = _shoot(lo, p, q, w_stage, h, n_steps, record=True)
    residual = abs(us[-1]) / np.max(np.abs(us))
    dus = np.array([_phi(v / w, q - 1.0) for v, w in zip(vs, w_stage[::2])])

    s_grid = problem.s_samples
    n = len(s_grid)
    left = s_grid[s_grid <= half + 1e-12 * L]
    u_left = np.interp(left, stage_s[::2], us)
    du_left = np.interp(left, stage_s[::2], dus)
    u_full = np.empty(n)
    du_full = np.empty(n)
    u_full[: len(left)] = u_left
    du_full[: len(left)] = du_left
    for i in range(len(left), n):
        u_full[i] = -u_full[n - 1 - i]
        du_full[i] = du_full[n - 1 - i]
    if n % 2 == 1:
        u_full[n // 2] = 0.0

    return EigenResult(
        mu=mu,
        u_samples=u_full,
        residual=float(residual),
        method="shooting",
        iterations=len(shots),
        converged=bool(converged),
        du_samples=du_full,
    )


def pmean_shift(values, weights, p):
    """The scalar c with sum w |v - c|^(p-2) (v - c) = 0.

    The sum falls monotonically in c from its value at min v to its value
    at max v, so Brent's method on that bracket finds the unique root.
    Raises SolveFailure when values holds an infinity or a NaN.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    pm1 = p - 1.0

    def g(c):
        d = v - c
        return float(np.sum(w * np.abs(d) ** pm1 * np.sign(d)))

    lo, hi = float(np.min(v)), float(np.max(v))
    # min and max propagate NaN, which fails every comparison.
    if not -np.inf < lo <= hi < np.inf:
        raise SolveFailure(f"iterate is not finite (values range over [{lo}, {hi}])")
    if hi - lo == 0.0:
        return lo
    root, converged = _brentq(g, lo, hi, xtol=1e-15 * max(1.0, abs(hi) + abs(lo)))
    if not converged:
        raise SolveFailure(f"p-mean shift did not converge on [{lo}, {hi}]")
    return root


def _discrete_quotient(u, h, w_mid, m_lumped, p):
    du = np.diff(u) / h
    num = float(np.sum(w_mid * h * np.abs(du) ** p))
    den = float(np.sum(m_lumped * np.abs(u) ** p))
    return num, den


def _cumtrap(f, h):
    out = np.empty(len(f))
    out[0] = 0.0
    np.cumsum(0.5 * h * (f[:-1] + f[1:]), out=out[1:])
    return out


def _lowest_pairs(K, M):
    """The three lowest eigenpairs of the tridiagonal pencil (K, M), ascending.

    K and M are the stiffness and mass matrices on the unit interval (see
    solve_discretized).  Shift-invert Lanczos (ARPACK through
    scipy.sparse.linalg.eigsh) runs about sigma = -1e-3 times the Rayleigh
    quotient of cos(pi t): with sigma < 0, K - sigma M is positive definite
    though K holds the constant mode in its null space, so nothing is
    deflated, and each Lanczos step is one solve with the tridiagonal
    factor, linear in n.  The start vector cos(pi t) + 0.5 is fixed, so
    reruns repeat every digit.  Raises SolveFailure when the factorization
    or ARPACK fails or an eigenvalue is not a finite double.
    """
    c = np.cos(np.pi * np.linspace(0.0, 1.0, K.shape[0]))
    sigma = -1e-3 * (c @ (K @ c)) / (c @ (M @ c))
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(K, k=3, M=M, sigma=sigma, v0=c + 0.5)
    except RuntimeError as exc:  # SuperLU's singular factor, ARPACK's own errors
        raise SolveFailure(f"discrete eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise SolveFailure("discrete eigenvalues are not finite doubles")
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


DISCRETIZED_MAX_ITER, DISCRETIZED_TOL = 400, 1e-8


def solve_discretized(problem, n=512):
    """Independent discrete route on a uniform grid.

    For p = 2 this is the generalized eigenproblem of the assembled
    piecewise-linear stiffness and mass matrices (second eigenvalue; the
    first is the constant mode at zero).  Both matrices stay tridiagonal
    and the pencil is solved by shift-invert Lanczos, so time and memory
    are linear in n.  For p != 2 it runs inverse power iteration from that
    p = 2 eigenvector: each step solves -(w phi_p(v'))' = mu w phi_p(u)
    by integrating the flux from the left Neumann end, inverting phi_p,
    and integrating again, then restores the weighted p-mean-zero
    constraint with a scalar shift.  The solve is exact up to trapezoid quadrature
    because the flux has an explicit antiderivative in one dimension.  It
    stops once an update moves u by at most 1e-8 or the last five quotients
    agree to DISCRETIZED_TOL = 1e-8 (relative), and stops unconverged
    after DISCRETIZED_MAX_ITER = 400 updates.
    """
    if n < 32:
        raise ValueError("n must be at least 32")
    p = problem.p
    L = problem.L
    s = np.linspace(0.0, L, n + 1)
    h = L / n
    w = np.interp(s, problem.s_samples, problem.w_samples)
    w_mid = 0.5 * (w[:-1] + w[1:])

    # The pencil is assembled on the unit interval with the weight over its
    # maximum, so its entries are finite and its eigenvalues stay near
    # pi^2 whatever L and the weight's scale; those on (0, L) are the
    # same over L^2.
    # Exact element integrals for linear v: stiffness n v_mid, mass by rows.
    v = w / np.max(w)
    v_mid = 0.5 * (v[:-1] + v[1:])
    main = np.zeros(n + 1)
    m_main = np.zeros(n + 1)
    main[:-1] += n * v_mid
    main[1:] += n * v_mid
    m_main[:-1] += (3.0 * v[:-1] + v[1:]) / (12.0 * n)
    m_main[1:] += (v[:-1] + 3.0 * v[1:]) / (12.0 * n)
    m_upper = (v[:-1] + v[1:]) / (12.0 * n)
    K = scipy.sparse.diags([-n * v_mid, main, -n * v_mid], [-1, 0, 1], format="csc")
    M = scipy.sparse.diags([m_upper, m_main, m_upper], [-1, 0, 1], format="csc")
    vals, vecs = _lowest_pairs(K, M)
    with np.errstate(over="ignore", under="ignore"):
        mu = vals[1] / L / L
    if not np.isfinite(mu):
        # on an interval this short the eigenvalues leave double range
        raise SolveFailure(f"discrete eigenvalues are not finite doubles (L = {L:.6g})")
    u2 = vecs[:, 1]
    if abs(u2[0]) > 1e-12 * np.max(np.abs(u2)):
        u2 = u2 / u2[0]

    if p == 2.0:
        if mu == 0.0:
            raise SolveFailure(f"discrete eigenvalue underflows to zero (L = {L:.6g})")
        r = K @ u2 - vals[1] * (M @ u2)
        residual = float(np.linalg.norm(r) / np.linalg.norm(K @ u2))
        u_out = np.interp(problem.s_samples, s, u2)
        return EigenResult(
            mu=float(mu),
            u_samples=u_out,
            residual=residual,
            method="discretized",
            iterations=1,
            converged=True,
        )

    # Lumped weights keep the p-mean constraint a clean nodal sum.
    m_lumped = np.zeros(n + 1)
    m_lumped[:-1] += 0.5 * h * w_mid
    m_lumped[1:] += 0.5 * h * w_mid
    pm1 = p - 1.0

    def project(u):
        u = u - pmean_shift(u, m_lumped, p)
        return u / np.max(np.abs(u))

    u = project(u2.copy())
    num, den = _discrete_quotient(u, h, w_mid, m_lumped, p)
    value = num / den
    converged = False
    iterations = 0
    shift = 0.0
    window = []
    # Near p = 1 an update can overflow; project's pmean_shift turns the
    # non-finite iterate into SolveFailure, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, DISCRETIZED_MAX_ITER + 1):
            f = value * w * np.abs(u) ** pm1 * np.sign(u)
            flux = -_cumtrap(f, h)
            # The weighted p-mean of u vanishes, so the total load does too up
            # to quadrature; recenter the flux so both ends are exact Neumann.
            flux -= flux[-1] * np.linspace(0.0, 1.0, n + 1)
            dv = np.abs(flux / w) ** (1.0 / pm1) * np.sign(flux)
            v = project(_cumtrap(dv, h))
            shift = float(np.max(np.abs(v - u)))
            num, den = _discrete_quotient(v, h, w_mid, m_lumped, p)
            u = v
            value = num / den
            # Near p = 1 the iterate can keep moving in directions the quotient
            # barely sees, so convergence is judged on the eigenvalue itself.
            window.append(value)
            if len(window) > 5:
                window.pop(0)
            spread = max(window) - min(window)
            if shift <= 1e-8 or (len(window) == 5 and spread <= DISCRETIZED_TOL * value):
                value = float(np.mean(window))
                converged = True
                break

    u_out = np.interp(problem.s_samples, s, u)
    return EigenResult(
        mu=float(value),
        u_samples=u_out,
        residual=shift,
        method="discretized",
        iterations=iterations,
        converged=converged,
    )
