"""First nonzero Neumann eigenvalue of the weighted one-dimensional p-Laplacian.

The problem on (0, L) with positive even weight w reads

    -(w |u'|^(p-2) u')' = mu w |u|^(p-2) u,   u'(0) = u'(L) = 0.

Evenness of w makes the first nonzero eigenfunction odd about L/2 and
strictly monotone, so shooting only needs the half interval with a zero
target at L/2.  Shooting runs on a chain of RK4 resolutions, n_steps / 64,
n_steps / 8 and n_steps, each coarser one only with at least 64 steps.
The coarsest brackets by doubling from the Lyapunov bound and runs Brent's
method; each finer one starts from the root and slope of the one below
and takes Newton and secant steps: 2 shots on the intermediate level and,
on the sample configs, 2 at p = 2 and 3 otherwise on the full one, whose
last shot lies just past the root so that two shots bracket it within
tol.  A level that fails is skipped, and the next finer one brackets by
doubling as a single level would.  Only full-resolution shots enter the
result.  A discretized route on the same half interval, with u(L/2) = 0
in place of the constant mode, provides the independent cross-check:
unshifted inverse iteration on the tridiagonal finite-element pencil at
p = 2, each solve two cumulative sums, and inverse power iteration from
its eigenvector otherwise.  Both routes extend their half-interval function
oddly to [0, L] by one helper, and both run on numpy and pure Python;
neither loads a scipy subpackage.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .analysis import _require_p, lyapunov_bound
from .errors import FermiSpectraError, NoCrossing, SolveFailure, StiffFailure
from .geometry import _check_weight

PHI_FLOOR = 1e-14


@dataclass(eq=False)
class OneDimProblem:
    L: float
    p: float
    w_samples: np.ndarray
    evenness_tol: float = 1e-8

    def __post_init__(self):
        _require_p(self.p)
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


@dataclass(eq=False)
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


def _shoot(mu, p, q, w_stage, h, n_steps):
    """RK4 integration of u' = phi_q(v/w), v' = -mu w phi_p(u) from (1, 0).

    Integrates the whole half interval and returns (crossed, u_end, us, vs):
    whether u became nonpositive at some step, the terminal value u(L/2),
    and the sampled trajectory as lists.  w_stage is a _StageWeights, so
    -mu w is one numpy multiply of its array.

    Each _phi is inlined with its float operations in the same order, so
    the state matches step-by-step calls of _phi to the bit: -mu * w
    parses as (-mu) * w and 0.5 * h * x as (0.5 * h) * x, so both factors
    are taken once; a value of modulus above PHI_FLOOR is raised to the
    power directly, and the power is skipped when its exponent is exactly
    1, where x ** 1.0 == x.  Zero, floored and NaN values go through _phi.
    """
    pm1 = p - 1.0
    qm1 = q - 1.0
    pow_u = pm1 != 1.0
    pow_v = qm1 != 1.0
    floor = PHI_FLOOR
    hh = 0.5 * h
    nmu = -mu
    a_stage = (nmu * w_stage.array).tolist()
    u = 1.0
    v = 0.0
    us = [1.0]
    vs = [0.0]
    crossed = False
    # w_stage holds 2 n_steps + 1 values: step i starts at 2i, has its
    # midpoint at 2i + 1 and ends at 2i + 2.
    stages = zip(w_stage[0::2], w_stage[1::2], w_stage[2::2], a_stage[0::2], a_stage[1::2], a_stage[2::2])
    for w0, wm, w1, a0, am, a1 in stages:
        z = v / w0
        if z > floor:
            du1 = z**qm1 if pow_v else z
        elif z < -floor:
            du1 = -((-z) ** qm1) if pow_v else z
        else:
            du1 = _phi(z, qm1)
        if u > floor:
            dv1 = a0 * (u**pm1 if pow_u else u)
        elif u < -floor:
            dv1 = a0 * (-((-u) ** pm1) if pow_u else u)
        else:
            dv1 = a0 * _phi(u, pm1)
        ua = u + hh * du1
        va = v + hh * dv1
        z = va / wm
        if z > floor:
            du2 = z**qm1 if pow_v else z
        elif z < -floor:
            du2 = -((-z) ** qm1) if pow_v else z
        else:
            du2 = _phi(z, qm1)
        if ua > floor:
            dv2 = am * (ua**pm1 if pow_u else ua)
        elif ua < -floor:
            dv2 = am * (-((-ua) ** pm1) if pow_u else ua)
        else:
            dv2 = am * _phi(ua, pm1)
        ub = u + hh * du2
        vb = v + hh * dv2
        z = vb / wm
        if z > floor:
            du3 = z**qm1 if pow_v else z
        elif z < -floor:
            du3 = -((-z) ** qm1) if pow_v else z
        else:
            du3 = _phi(z, qm1)
        if ub > floor:
            dv3 = am * (ub**pm1 if pow_u else ub)
        elif ub < -floor:
            dv3 = am * (-((-ub) ** pm1) if pow_u else ub)
        else:
            dv3 = am * _phi(ub, pm1)
        uc = u + h * du3
        vc = v + h * dv3
        z = vc / w1
        if z > floor:
            du4 = z**qm1 if pow_v else z
        elif z < -floor:
            du4 = -((-z) ** qm1) if pow_v else z
        else:
            du4 = _phi(z, qm1)
        if uc > floor:
            dv4 = a1 * (uc**pm1 if pow_u else uc)
        elif uc < -floor:
            dv4 = a1 * (-((-uc) ** pm1) if pow_u else uc)
        else:
            dv4 = a1 * _phi(uc, pm1)
        u += h * (du1 + 2.0 * (du2 + du3) + du4) / 6.0
        v += h * (dv1 + 2.0 * (dv2 + dv3) + dv4) / 6.0
        if u != u or v != v:
            raise StiffFailure(f"integration produced non-finite state at mu={mu:.6g}")
        if u <= 0.0:
            crossed = True
        us.append(u)
        vs.append(v)
    return crossed, u, us, vs


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


# solve_shooting's chain of levels: n_steps // _LEVEL_RATIO**2 and
# n_steps // _LEVEL_RATIO RK4 steps below the full n_steps, a coarser level
# only when it has at least _COARSE_MIN_STEPS.  A level with no estimate
# from below brackets by doubling and runs Brent's method, to _COARSE_RTOL
# below the full level.  The full level shoots _NUDGE tol mu past a Newton
# or secant point that moved its last shot by at most _CLOSE tol mu; after
# _REFINE_SHOTS shots past its first one without a bracket it runs Brent's
# method on its shots' tightest bracket, or brackets about its last shot
# with eta from _START_ETA, times _ETA_GROWTH on each miss.  On the sample
# configs and the benchmark's limit problems at n_steps = 4096 the chain
# takes 7 or 8 shots of 64 steps, 2 of 512 and 2 (p = 2) or 3 of 4096.
_LEVEL_RATIO, _COARSE_MIN_STEPS, _COARSE_RTOL = 8, 64, 1e-8
_CLOSE, _NUDGE, _REFINE_SHOTS = 0.5, 0.25, 3
_START_ETA, _ETA_GROWTH = 1e-7, 16.0


class _StageWeights(list):
    """The weight at the RK4 stage points: a list for _shoot's loop, and the same values as an array."""

    def __init__(self, array):
        super().__init__(array.tolist())
        self.array = array


def _newton(x, fx, slope):
    """The Newton point x - fx / slope, or None unless it is positive and finite."""
    r = x - _divide(fx, slope)
    return r if 0.0 < r < math.inf else None


class _Level:
    """Shots on n_steps RK4 steps of the half interval, each mu integrated once.

    shots maps each mu shot to (crossed, u_end), and uncrossed is
    (mu, us, vs) of the largest uncrossed shot: its trajectory samples the
    eigenfunction, so no shot is integrated twice.
    """

    def __init__(self, problem, n_steps):
        p = problem.p
        half = 0.5 * problem.L
        self.problem = problem
        self.p, self.q = p, p / (p - 1.0)
        self.n_steps, self.h = n_steps, half / n_steps
        stage_s = np.linspace(0.0, half, 2 * n_steps + 1)
        self.w_stage = _StageWeights(np.interp(stage_s, problem.s_samples, problem.w_samples))
        self.shots = {}
        self.uncrossed = (-math.inf, None, None)

    def shoot(self, mu):
        """(crossed, u(L/2)) at mu."""
        if mu not in self.shots:
            try:
                crossed, u_end, us, vs = _shoot(mu, self.p, self.q, self.w_stage, self.h, self.n_steps)
            except OverflowError as exc:  # a float power in _phi overflowed
                raise StiffFailure(f"integration overflowed at mu={mu:.6g}") from exc
            self.shots[mu] = crossed, u_end
            if not crossed and mu > self.uncrossed[0]:
                self.uncrossed = mu, us, vs
        return self.shots[mu]

    def root(self, tol, start=None):
        """Brent's root of u(L/2; mu) and whether Brent's method converged.

        With start None the bracket comes from doubling from the Lyapunov
        lower bound with the crossing predicate, which is monotone in mu;
        with a start, from shots at start (1 + eta)^(+-1) away from start's
        side of the root (dividing keeps mu positive).  A crossed end whose
        shot crossed back is then shrunk until the terminal value changes
        sign, and Brent's method runs to rtol max(tol, BRENT_RTOL).
        """
        shoot = self.shoot
        if start is None:
            problem = self.problem
            lo = lyapunov_bound(problem.w_samples, problem.L, self.p, evenness_tol=problem.evenness_tol)
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
        else:
            crossed = shoot(start)[0]
            near, eta = start, _START_ETA
            for _ in range(61):
                far = start / (1.0 + eta) if crossed else start * (1.0 + eta)
                if shoot(far)[0] != crossed:
                    break
                near, eta = far, eta * _ETA_GROWTH
            else:
                raise NoCrossing(f"no bracket found about mu={start:.6g}")
            lo, hi = (far, near) if crossed else (near, far)
        return self.brent(tol, lo, hi)

    def brent(self, tol, lo, hi):
        """Brent's method on the bracket [lo, hi] of the crossing predicate, as root runs it."""
        shoot = self.shoot
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
        return _brentq(
            lambda m: shoot(m)[1],
            lo,
            hi,
            xtol=np.finfo(float).tiny,
            rtol=max(tol, BRENT_RTOL),
        )

    def bracket(self):
        """The tightest bracket of the shots taken: the largest uncrossed mu and
        the smallest mu ending below zero, -inf and inf where there is none."""
        hi = min((m for m, (_, u_end) in self.shots.items() if u_end < 0.0), default=math.inf)
        return self.uncrossed[0], hi

    def estimate(self, below):
        """(mu, slope): this level's root of u(L/2; mu) and the slope of u(L/2; mu).

        below is the same pair from the next coarser level, or None.  With
        None the level runs root to _COARSE_RTOL; the pair is then the secant
        through its final bracket (the largest uncrossed shot and the
        smallest one ending below zero).  Otherwise it shoots at below's mu
        and at the Newton point of below's slope, and the pair is the secant
        through those two shots.  Raises SolveFailure when a point is not
        positive and finite.
        """
        if below is None:
            self.root(_COARSE_RTOL)
            a, b = self.bracket()
        else:
            a, slope = below
            b = _newton(a, self.shoot(a)[1], slope)
            if b is None:
                raise SolveFailure(f"no Newton step from mu={a:.6g}")
        fb = self.shoot(b)[1]
        slope = _divide(fb - self.shots[a][1], b - a)
        mu = _newton(b, fb, slope)
        if mu is None:
            raise SolveFailure(f"no secant step from mu={b:.6g}")
        return mu, slope

    def refine(self, tol, below):
        """Root of u(L/2; mu) from a coarser level's (mu, slope), and whether it converged.

        The level shoots at below's mu, then steps by Newton with below's
        slope and by secants through its own shots.  Once a step from the
        last shot x to r moves at most _CLOSE tol x, the next shot y lies
        _NUDGE tol x past r, away from x; when x and y bracket the root
        (one uncrossed, the other ending below zero), the bracket is at
        most tol r wide and r is the root.  After _REFINE_SHOTS shots
        without such a bracket, Brent's method runs on the tightest bracket
        among the shots taken, or, when they do not bracket the root, root
        brackets about x with eta.
        """
        x, slope = below
        crossed, fx = self.shoot(x)
        for _ in range(_REFINE_SHOTS):
            r = _newton(x, fx, slope)
            # A crossed shot ending at or above zero crossed back, and a
            # step away from the root has a slope of the wrong sign.
            if r is None or (crossed and fx >= 0.0) or (r < x) != crossed:
                break
            close = abs(r - x) <= _CLOSE * tol * x
            nudge = _NUDGE * tol * x if close else 0.0
            y = r - nudge if crossed else r + nudge
            crossed_y, fy = self.shoot(y)
            if close and crossed_y != crossed and min(fx, fy) < 0.0:
                return r, True
            slope = _divide(fy - fx, y - x)
            x, crossed, fx = y, crossed_y, fy
        lo, hi = self.bracket()
        if -math.inf < lo and hi < math.inf:
            return self.brent(tol, lo, hi)
        return self.root(tol, start=x)


def _signed_powers(zs, power):
    """[_phi(z, power) for z in zs] with _phi inlined as in _shoot, to the bit."""
    floor = PHI_FLOOR
    if power == 1.0:
        return [z if z > floor or z < -floor else _phi(z, power) for z in zs]
    return [
        z**power if z > floor else -((-z) ** power) if z < -floor else _phi(z, power)
        for z in zs
    ]


def solve_shooting(problem, tol=1e-10, n_steps=4096):
    """Locate the smallest mu whose shot from s = 0 vanishes by L/2.

    Runs on a chain of levels of n_steps // 64, n_steps // 8 and n_steps
    RK4 steps; a coarser level joins only with at least 64 steps.  The
    coarsest brackets by doubling from the Lyapunov lower bound with the
    crossing predicate, which is monotone in mu, and runs Brent's method
    on the terminal value u(L/2; mu), which is continuous in mu and changes
    sign across the bracket, to rtol 1e-8.  It passes its root and the
    slope of u(L/2; mu) up the chain.  An intermediate level shoots at that
    root and at the Newton point of that slope, and passes the secant root
    and slope of its two shots.  The full level shoots at the root from
    below, then steps by Newton and secants until a step moves at most
    tol mu / 2; its next shot, tol mu / 4 past the new point, brackets the
    root within tol mu, and that Newton or secant point is mu.  On the
    sample configs and the benchmark's limit problems that takes 2 shots on
    the intermediate level and 2 (p = 2) or 3 on the full one, against 8
    and 3 or 4 for two levels.  A full level with no such bracket after
    three more shots runs Brent's method to tol on the tightest bracket of
    its shots, or on one it finds about its last shot.  A level that raises
    (StiffFailure, NoCrossing, SolveFailure) is skipped, and the next finer
    level brackets by doubling itself.

    Only full-resolution shots count: converged says that the root
    converged (a bracket within tol mu, or Brent's method) and that the
    final bracket of the crossing predicate (the largest uncrossed and the
    smallest crossed mu shot) is at most tol * mu wide, iterations counts
    the n_steps shots, and the eigenfunction is the trajectory of the
    largest uncrossed one, extended oddly to [0, L] and sampled on the
    problem grid; its boundary defect is the residual.  Raises ValueError
    unless n_steps is an integer of at least 1 and 0 <= tol < inf (at
    tol = 0 the root is never converged, and mu is the best the shots give).
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer of at least 1 (got {n_steps!r})")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and not negative (got {tol!r})")
    below = None
    for n in (n_steps // _LEVEL_RATIO**2, n_steps // _LEVEL_RATIO):
        if n >= _COARSE_MIN_STEPS:
            try:
                below = _Level(problem, n).estimate(below)
            except FermiSpectraError:
                below = None  # a missed hint, not a failed solve: the next level doubles
    level = _Level(problem, n_steps)
    mu, root_converged = level.root(tol) if below is None else level.refine(tol, below)
    lo, us, vs = level.uncrossed
    hi = min(m for m, (c, _) in level.shots.items() if c)
    converged = root_converged and hi - lo <= tol * mu

    # Sample the eigenfunction at the largest uncrossed mu shot so it stays
    # positive up to the midpoint; the boundary defect goes into residual.
    us = np.array(us)
    residual = abs(us[-1]) / np.max(np.abs(us))
    dus = np.array(_signed_powers((np.array(vs) / level.w_stage.array[::2]).tolist(), level.q - 1.0))
    node_s = np.linspace(0.0, 0.5 * problem.L, n_steps + 1)

    return EigenResult(
        mu=mu,
        u_samples=_mirror_extend(problem, node_s, us, -1),
        residual=float(residual),
        method="shooting",
        iterations=len(level.shots),
        converged=bool(converged),
        du_samples=_mirror_extend(problem, node_s, dus, 1),
    )


def _mirror_extend(problem, half_s, values, sign):
    """values, given on half_s (a grid of [0, L/2]), sampled on problem.s_samples.

    The samples up to the midpoint interpolate values; the rest mirror
    them about L/2 times sign, -1 for an odd function (whose sample at the
    midpoint itself is then zero) and +1 for an even one.
    """
    L = problem.L
    s_grid = problem.s_samples
    n = len(s_grid)
    left = s_grid[s_grid <= 0.5 * L + 1e-12 * L]
    out = np.empty(n)
    out[: len(left)] = np.interp(left, half_s, values)
    # left ends at or before the midpoint, so the mirror reads only left.
    out[len(left) :] = sign * out[: n - len(left)][::-1]
    if sign < 0 and n % 2 == 1:
        out[n // 2] = 0.0
    return out


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
    # A sum that overflows is inf or NaN, and _brentq raises SolveFailure on
    # a NaN: the overflow is not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
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


PENCIL_MAX_ITER, PENCIL_TOL = 60, 1e-13


def _tridiag_mul(diag, off, x):
    """The symmetric tridiagonal matrix with this diagonal and off-diagonal, times x."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _lowest_pair(c, m_diag, m_off):
    """The lowest eigenpair (lam, x) of K x = lam M x, x^T M x = 1, and its update count.

    K = D^T diag(c) D is the stiffness matrix of the edge conductances c
    (D the difference matrix) on the nodes left of a pinned midpoint:
    every node has a conductance to its right, the last one to the
    midpoint, where the function is zero.  M is the tridiagonal mass
    matrix with diagonal m_diag and off-diagonal m_off.  K is a
    nonsingular Stieltjes matrix, so K^-1 has only positive entries, and
    K^-1 f is two cumulative sums: the flux from the free end, divided by
    the conductance, summed back from the pinned end.  By Perron-Frobenius
    unshifted inverse iteration, x <- K^-1 M x scaled to max |x| = 1, from
    the positive cos(pi t) on t = 0, 1/n, ..., 1/2 - 1/n converges on the
    lowest pair.  It stops once an update moves x by at most PENCIL_TOL,
    and lam is the Rayleigh quotient of that x.  Raises SolveFailure when
    a quotient is not a finite double or after PENCIL_MAX_ITER updates.
    """

    def mass(x):
        return _tridiag_mul(m_diag, m_off, x)

    x = np.cos(np.pi * np.linspace(0.0, 0.5, len(m_diag) + 1)[:-1])
    mx = mass(x)
    for iterations in range(1, PENCIL_MAX_ITER + 1):
        y = np.cumsum((np.cumsum(mx) / c)[::-1])[::-1]
        y /= np.max(np.abs(y))
        my = mass(y)
        lam = float(np.sum(c * np.diff(y, append=0.0) ** 2) / (y @ my))
        if not 0.0 < lam < np.inf:
            raise SolveFailure("discrete eigenvalues are not finite doubles")
        shift = np.max(np.abs(y - x))
        x, mx = y, my
        if shift <= PENCIL_TOL:
            return lam, x / math.sqrt(x @ mx), iterations
    raise SolveFailure("discrete eigensolve did not converge")


DISCRETIZED_MAX_ITER, DISCRETIZED_TOL = 400, 1e-8


def solve_discretized(problem, n=512):
    """Independent discrete route on a uniform grid of n cells, n even.

    The eigenfunction is odd about L/2, so the route solves on the n/2
    cells of [0, L/2] with u(L/2) = 0, which takes the place of the
    constant mode, and extends the result oddly to [0, L].  For p = 2 the
    lowest eigenpair of the piecewise-linear stiffness and mass matrices,
    both tridiagonal, comes from unshifted inverse iteration
    (_lowest_pair), linear in n per update.  For p != 2
    inverse power iteration starts from that eigenvector: each step solves
    -(w phi_p(v'))' = mu w phi_p(u) by integrating the flux from the
    Neumann end at 0, inverting phi_p and integrating again, with
    v(L/2) = 0; the flux has an explicit antiderivative in one dimension,
    so the solve is exact up to trapezoid quadrature.  It stops once an
    update moves u by at most 1e-8 or the last five quotients agree to
    DISCRETIZED_TOL = 1e-8 (relative), and stops unconverged after
    DISCRETIZED_MAX_ITER = 400 updates.  mu is the quotient of the last
    iterate, the function returned in u_samples.  An iterate that is not
    finite raises SolveFailure.

    iterations counts the inverse-iteration updates at p = 2 and the
    p-updates after that start otherwise.  residual at p = 2 is the
    normwise backward error of the pencil's eigenpair, ||K x - lam M x|| /
    (|| |K| |x| || + lam || |M| |x| ||), the residual against the size of
    the terms that form it, so it stays at rounding level where the
    entries of K x cancel.  Otherwise it is the size of the last update
    (max |v - u|, u scaled to max |u| = 1).
    """
    if n < 32 or n % 2:
        raise ValueError(f"n must be even and at least 32 (got {n})")
    p = problem.p
    L = problem.L
    half = n // 2
    # The left half of the uniform grid on [0, L]; its last node is L/2.
    s = np.linspace(0.0, L, n + 1)[: half + 1]
    h = L / n
    w = np.interp(s, problem.s_samples, problem.w_samples)
    w_mid = 0.5 * (w[:-1] + w[1:])

    # The pencil is assembled on the unit interval with the weight over its
    # maximum, so its entries are finite and its eigenvalues stay near
    # pi^2 whatever L and the weight's scale; those on (0, L) are the
    # same over L^2.
    # Exact element integrals for linear v: stiffness n v_mid, mass by rows;
    # the pinned midpoint has no row or column.
    v = w / np.max(w)
    c = n * (0.5 * (v[:-1] + v[1:]))
    m_diag = (3.0 * v[:-1] + v[1:]) / (12.0 * n)
    m_diag[1:] += (v[:-2] + 3.0 * v[1:-1]) / (12.0 * n)
    m_off = (v[:-2] + v[1:-1]) / (12.0 * n)
    lam, x, updates = _lowest_pair(c, m_diag, m_off)
    with np.errstate(over="ignore", under="ignore"):
        mu = lam / L / L
    if not np.isfinite(mu):
        # on an interval this short the eigenvalues leave double range
        raise SolveFailure(f"discrete eigenvalues are not finite doubles (L = {L:.6g})")
    # The lowest eigenvector keeps one sign; scale it to u(0) = 1.
    u = np.append(x / x[0], 0.0)

    if p == 2.0:
        if mu == 0.0:
            raise SolveFailure(f"discrete eigenvalue underflows to zero (L = {L:.6g})")
        ku = -np.diff(c * np.diff(x, append=0.0), prepend=0.0)
        mx = _tridiag_mul(m_diag, m_off, x)
        r = ku - lam * mx
        # |K| |x| edge by edge: c_i (|x_i| + |x_i+1|) to both ends of edge i.
        ax = np.abs(x)
        edge = c * (ax + np.append(ax[1:], 0.0))
        k_abs = edge + np.append(0.0, edge[:-1])
        # M has positive entries and x one sign, so |M| |x| = |M x|.
        scale = np.linalg.norm(k_abs) + lam * np.linalg.norm(mx)
        return EigenResult(
            mu=float(mu),
            u_samples=_mirror_extend(problem, s, u, -1),
            residual=float(np.linalg.norm(r) / scale),
            method="discretized",
            iterations=updates,
            converged=True,
        )

    m_lumped = np.zeros(half + 1)
    m_lumped[:-1] += 0.5 * h * w_mid
    m_lumped[1:] += 0.5 * h * w_mid
    pm1 = p - 1.0
    num, den = _discrete_quotient(u, h, w_mid, m_lumped, p)
    value = num / den
    converged = False
    window = []
    # Near p = 1 an update can overflow; the check on its maximum turns the
    # non-finite iterate into SolveFailure, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, DISCRETIZED_MAX_ITER + 1):
            f = value * w * np.abs(u) ** pm1 * np.sign(u)
            flux = -_cumtrap(f, h)
            dv = np.abs(flux / w) ** (1.0 / pm1) * np.sign(flux)
            v = _cumtrap(dv, h)
            v -= v[-1]
            scale = np.max(np.abs(v))
            # max propagates NaN, which fails every comparison.
            if not 0.0 < scale < np.inf:
                raise SolveFailure(f"iterate is not finite and nonzero (max |u| = {scale})")
            v /= scale
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
                converged = True
                break

    return EigenResult(
        mu=float(value),
        u_samples=_mirror_extend(problem, s, u, -1),
        residual=shift,
        method="discretized",
        iterations=iterations,
        converged=converged,
    )
