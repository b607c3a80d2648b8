"""Symmetric planar curves in arc-length form and the strips built over them.

A curve is stored as uniform arc-length samples of position, tangent, and
signed curvature on [0, L], mirror symmetric about the vertical axis: the
midpoint sits at the origin with horizontal tangent, x is odd and y even
about s = L/2, so curvature is even.  A strip (domain) attaches a width
profile delta(s) > 0 along the clockwise normal (y', -x'); the area factor
of that map is 1 + r k(s).  The strip is embedded when that factor stays
positive and its boundary polygon is simple: a locally one-to-one map of
a closed disk that is one-to-one on its boundary is one-to-one (Meisters
and Olech, Duke Math. J. 30, 1963).  make_domain counts the crossings
of that polygon.  A grid hash of the side edges' midpoints, in cells as
wide as the longest side edge, proposes the pairs that can meet; any
superset of them gives the same count, since an exact straddle test
decides each pair.  All sampled quantities interpolate linearly between
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricCurvature,
    AsymmetricWeight,
    InvalidDomain,
    NonpositiveWeight,
    OutOfDomain,
    SymmetryViolation,
    ZeroSpeed,
)


@dataclass(eq=False)
class CurveSpec:
    """Arc-length samples of a symmetric planar curve."""

    L: float
    k_samples: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    symmetry_tol: float = 1e-6

    @property
    def n(self):
        return len(self.k_samples)

    @property
    def s_samples(self):
        return np.linspace(0.0, self.L, self.n)


@dataclass(eq=False)
class WidthProfile:
    """Positive even width samples and their arc-length derivative."""

    delta_samples: np.ndarray
    ddelta_samples: np.ndarray
    evenness_tol: float = 1e-8


@dataclass(eq=False)
class FermiDomain:
    """A strip: curve, width, and the outcome of validation (see make_domain)."""

    curve: CurveSpec
    width: WidthProfile
    jacobian_min: float
    offset_curve: np.ndarray
    collision_count: int
    valid: bool

    @property
    def L(self):
        return self.curve.L

    @property
    def s_samples(self):
        return self.curve.s_samples

    def k_at(self, s):
        return np.interp(s, self.s_samples, self.curve.k_samples)

    def delta_at(self, s):
        return np.interp(s, self.s_samples, self.width.delta_samples)

    def ddelta_at(self, s):
        return np.interp(s, self.s_samples, self.width.ddelta_samples)

    def require_valid(self):
        if not self.valid:
            raise InvalidDomain(
                f"domain failed validation (jacobian_min={self.jacobian_min:.6g}, "
                f"collisions={self.collision_count})"
            )


def _vectorized(f):
    """Make a scalar or vector callable accept numpy arrays."""

    def g(t):
        t = np.asarray(t, dtype=float)
        try:
            out = np.asarray(f(t), dtype=float)
            if out.shape == t.shape:
                return out
        except (TypeError, ValueError):
            pass
        flat = np.atleast_1d(t).ravel()
        out = np.array([float(f(float(ti))) for ti in flat])
        return out.reshape(t.shape)

    return g


def _profile(f, L):
    """A callable of arc length, a constant, or samples on a uniform grid
    over [0, L] (interpolated linearly), as a vectorized function on [0, L]."""
    if callable(f):
        return _vectorized(f)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return lambda s: np.full(np.shape(s), float(arr))
    own = np.linspace(0.0, L, len(arr))
    return lambda s: np.interp(s, own, arr)


def _fd_derivatives(f, h):
    """Fourth-order central difference first and second derivatives of f."""

    def d1(t):
        return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)

    def d2(t):
        return (-f(t - 2 * h) + 16 * f(t - h) - 30 * f(t) + 16 * f(t + h) - f(t + 2 * h)) / (
            12 * h * h
        )

    return d1, d2


def check_curve(spec):
    """Raise if the sampled curve violates its symmetry or unit-speed contract."""
    k = np.asarray(spec.k_samples, dtype=float)
    pts = np.asarray(spec.points, dtype=float)
    tan = np.asarray(spec.tangents, dtype=float)
    tol = spec.symmetry_tol

    speed_err = np.max(np.abs(np.hypot(tan[:, 0], tan[:, 1]) - 1.0))
    if speed_err > 1e-8:
        raise SymmetryViolation(f"tangent samples deviate from unit length by {speed_err:.3g}")

    # Negated so that NaN fails; an infinite sample fails through the bound.
    k_res = np.max(np.abs(k - k[::-1])) if len(k) else 0.0
    if not k_res <= tol * (1.0 + np.max(np.abs(k))) < np.inf:
        raise AsymmetricCurvature(f"curvature samples are not even about L/2 (residual {k_res:.3g})")

    scale = 1.0 + np.max(np.abs(pts))
    x_res = np.max(np.abs(pts[:, 0] + pts[::-1, 0]))
    y_res = np.max(np.abs(pts[:, 1] - pts[::-1, 1]))
    if max(x_res, y_res) > tol * scale:
        raise SymmetryViolation(
            f"curve samples are not mirror symmetric (x residual {x_res:.3g}, y residual {y_res:.3g})"
        )


def _check_weight(w, evenness_tol, noun):
    """Raise unless the samples w are positive, finite and even about their
    midpoint.

    Returns (min w, evenness residual).  The positivity test is negated,
    so a NaN sample fails it; an infinite one fails the finiteness test
    before the evenness test, where inf - inf would read as NaN.  noun
    ("width" or "weight") names w in the message.
    """
    w_min, w_max = float(np.min(w)), float(np.max(w))
    if not w_min > 0.0:
        raise NonpositiveWeight(f"{noun} must be positive (min {w_min:.6g})")
    if w_max == np.inf:
        raise NonpositiveWeight(f"{noun} must be finite (max {w_max:.6g} is not finite)")
    res = float(np.max(np.abs(w - w[::-1])))
    if not res <= evenness_tol * w_max:
        raise AsymmetricWeight(f"{noun} is not even about L/2 (residual {res:.3g})")
    return w_min, res


def curvature_from_parametric(x, y, t_range, n_samples=1024, derivatives=None, symmetry_tol=1e-6):
    """Resample a twice differentiable parametric curve by arc length.

    x, y map the parameter to coordinates.  derivatives, when given, is a
    tuple (dx, dy, ddx, ddy) of exact derivative callables; otherwise
    derivatives come from fourth-order central differences.  The speed is
    integrated by 5-point Gauss-Legendre panels over max(4096, 4 n_samples)
    equal parameter steps, and L is their sum.  Newton's method inverts
    each arc-length node in its panel, on the same rule from the panel's
    start, clipped to the panel.  Returns a CurveSpec with n_samples
    uniform arc-length nodes.  Raises ZeroSpeed when the parametrization
    stalls or its speed is not finite, SymmetryViolation when the traced
    curve is not mirror symmetric about the vertical axis.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0:
        raise ValueError("t_range must be increasing")
    fx, fy = _vectorized(x), _vectorized(y)
    if derivatives is not None:
        dx, dy, ddx, ddy = (_vectorized(f) for f in derivatives)
    else:
        h = 2e-4 * (t1 - t0)
        dx, ddx = _fd_derivatives(fx, h)
        dy, ddy = _fd_derivatives(fy, h)

    def speed(t):
        return np.hypot(dx(t), dy(t))

    dense_n = max(4096, 4 * n_samples)
    t_dense = np.linspace(t0, t1, dense_n + 1)
    # User curves may evaluate to NaN or inf; the negated test rejects them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sp_dense = speed(t_dense)
        if not np.min(sp_dense) >= 1e-9 * np.max(sp_dense):
            finite = np.isfinite(sp_dense)
            at = t_dense[np.argmin(sp_dense) if finite.all() else np.argmin(finite)]
            raise ZeroSpeed(f"speed vanishes or is not finite near t={at:.6g}")

    gx, gw = np.polynomial.legendre.leggauss(5)

    def arc(a, b):  # the Gauss rule for the arc length over each [a, b]
        nodes = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * gx
        return 0.5 * (b - a) * (speed(nodes.ravel()).reshape(-1, 5) @ gw)

    s_dense = np.concatenate(([0.0], np.cumsum(arc(t_dense[:-1], t_dense[1:]))))
    L = float(s_dense[-1])

    s_j = np.linspace(0.0, L, n_samples)[1:-1]
    i = np.minimum(np.searchsorted(s_dense, s_j, side="right") - 1, dense_n - 1)
    a, b, rest = t_dense[i], t_dense[i + 1], s_j - s_dense[i]
    t = a + (b - a) * rest / (s_dense[i + 1] - s_dense[i])
    for _ in range(50):  # quadratic from the interpolant; the cap bounds rough speeds
        step = (arc(a, t) - rest) / speed(t)
        t = np.clip(t - step, a, b)
        if np.max(np.abs(step), initial=0.0) <= 1e-14 * max(1.0, abs(t1)):
            break
    t_of_s = np.concatenate(([t0], t, [t1]))

    xd, yd = dx(t_of_s), dy(t_of_s)
    sp = np.hypot(xd, yd)
    pts = np.column_stack([fx(t_of_s), fy(t_of_s)])
    tangents = np.column_stack([xd / sp, yd / sp])
    k = (xd * ddy(t_of_s) - yd * ddx(t_of_s)) / sp**3

    spec = CurveSpec(L=L, k_samples=k, points=pts, tangents=tangents, symmetry_tol=symmetry_tol)
    check_curve(spec)
    return spec


# User profiles may evaluate to NaN or inf; the checks that follow reject
# them, so numpy's floating-point warnings would only add noise.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reconstruct_from_curvature(L, k, n_samples=1024, symmetry_tol=1e-6):
    """Integrate an even curvature description into curve samples.

    k may be a callable of arc length, a constant, or samples on a uniform
    grid over [0, L].  The tangent angle solves theta' = k anchored at
    theta(L/2) = 0 and gamma(L/2) = (0, 0); integration is one-step RK4 on
    the right half, mirrored onto the left so the symmetry invariants hold
    exactly.  Raises AsymmetricCurvature when k is not even about L/2.

    All steps run at once as arrays.  theta' = k(s) does not depend on
    theta, so RK4 on it is Simpson's rule and every theta increment is
    known before any step runs; the stage angles follow from theta at each
    step start.  Cumulative sums add the increments in step order, so
    every sample rounds exactly as the step-by-step recurrence does.
    """
    L = float(L)
    if L <= 0:
        raise ValueError("L must be positive")
    s_grid = np.linspace(0.0, L, n_samples)
    k_eval = _profile(k, L)
    k_samples = k_eval(s_grid)

    # RK4 steps of (theta, x, y)' = (k, cos theta, sin theta) from L/2 to
    # each node of the right half, which starts at node mid.  A node that
    # rounds to L/2 or just below it takes no step, and the next step starts
    # at L/2.
    mid = np.nonzero(s_grid >= 0.5 * L - 1e-12 * L)[0][0]
    ends = s_grid[mid:]
    start = np.concatenate(([0.5 * L], np.maximum(ends[:-1], 0.5 * L)))
    h = ends - start
    taken = h > 0
    k1, k2, k4 = k_eval(start), k_eval(start + 0.5 * h), k_eval(start + h)

    # The state at L/2 and after each step: the running sum of the
    # increments from 0, each added to the sum before it as a recurrence
    # would add it.
    def advance(k1_, k2_, k3_, k4_):
        step = np.where(taken, h * (k1_ + 2 * k2_ + 2 * k3_ + k4_) / 6.0, 0.0)
        return np.cumsum(np.concatenate(([0.0], step)))

    theta = advance(k1, k2, k2, k4)
    theta0 = theta[:-1]
    t2 = theta0 + 0.5 * h * k1
    t3 = theta0 + 0.5 * h * k2
    t4 = theta0 + h * k2
    x = advance(np.cos(theta0), np.cos(t2), np.cos(t3), np.cos(t4))
    y = advance(np.sin(theta0), np.sin(t2), np.sin(t3), np.sin(t4))

    # Mirror the left half; evenness of k makes this the exact solution there.
    thetas = np.empty(n_samples)
    pts = np.empty((n_samples, 2))
    thetas[mid:], pts[mid:, 0], pts[mid:, 1] = theta[1:], x[1:], y[1:]
    mirror = n_samples - 1 - np.arange(mid)
    thetas[:mid], pts[:mid, 0], pts[:mid, 1] = -thetas[mirror], -pts[mirror, 0], pts[mirror, 1]

    tangents = np.column_stack([np.cos(thetas), np.sin(thetas)])
    spec = CurveSpec(
        L=L, k_samples=k_samples, points=pts, tangents=tangents, symmetry_tol=symmetry_tol
    )
    check_curve(spec)
    return spec


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def width_profile(width, L, n_samples=1024, evenness_tol=1e-8):
    """Sample a width description (callable, constant, or samples) on [0, L]."""
    s_grid = np.linspace(0.0, float(L), n_samples)
    delta = _profile(width, float(L))(s_grid)
    _check_weight(delta, evenness_tol, "width")
    ddelta = np.gradient(delta, s_grid[1] - s_grid[0])
    return WidthProfile(delta_samples=delta, ddelta_samples=ddelta, evenness_tol=evenness_tol)


def fermi_map(domain, s, r):
    """Map strip coordinates (s, r) to the plane; r runs along the clockwise normal.

    Accepts scalars or arrays (broadcast together); raises OutOfDomain when a
    point leaves [0, L] x [0, delta(s)] beyond interpolation tolerance.
    """
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    s, r = np.broadcast_arrays(s, r)
    L = domain.L
    tol_s = 1e-9 * L
    if np.any(s < -tol_s) or np.any(s > L + tol_s):
        raise OutOfDomain("arc length outside [0, L]")
    delta = domain.delta_at(s)
    tol_r = 1e-9 * (1.0 + np.max(domain.width.delta_samples))
    if np.any(r < -tol_r) or np.any(r > delta + tol_r):
        raise OutOfDomain("offset outside [0, delta(s)]")

    grid = domain.s_samples
    px = np.interp(s, grid, domain.curve.points[:, 0])
    py = np.interp(s, grid, domain.curve.points[:, 1])
    tx = np.interp(s, grid, domain.curve.tangents[:, 0])
    ty = np.interp(s, grid, domain.curve.tangents[:, 1])
    out = np.stack([px + r * ty, py - r * tx], axis=-1)
    return out


# The cell's own offset first; with the four after it, every pair of
# neighbouring cells is visited from exactly one of its two cells.
_HALF_STENCIL = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _near_pairs(centers, reach):
    """Index pairs (i, j) of rows of centers, each unordered pair once, that
    include every pair within reach of each other in the max-norm.

    A grid hash: the points are sorted by square cells of side at least
    reach, so such a pair shares a cell or sits in two neighbouring ones,
    and each cell is paired with itself and with the half stencil of its
    neighbours.  Farther pairs in those cells are returned too.  Cell
    indices are capped at 2^24, which keeps the keys inside int64 however
    small reach is (capping is monotone, so neighbours stay neighbours);
    the factor 1 + 2^-20 on the side absorbs the rounding of the scaled
    coordinates below the cap.
    """
    lo = np.min(centers, axis=0)
    # reach = 0 gives inf or NaN (0 / 0); fmin caps both.
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (centers - lo) / ((1.0 + 2.0**-20) * reach)
    cell = np.fmin(scaled, 2.0**24).astype(np.int64)  # floor: scaled >= 0
    # Columns of height ny + 2 keep the row offsets -1 and +1 of the
    # stencil from wrapping into the next column.
    height = int(np.max(cell[:, 1])) + 3
    key = cell[:, 0] * height + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    n = len(key)
    shifts = np.array([dx * height + dy for dx, dy in _HALF_STENCIL])
    target = key[None, :] + shifts[:, None]
    start = np.searchsorted(key, target, side="left")
    stop = np.searchsorted(key, target, side="right")
    start[0] = np.arange(1, n + 1)  # own cell: only the points sorted after
    counts = (stop - start).ravel()
    first = np.repeat(np.tile(np.arange(n), len(shifts)), counts)
    run_start = np.repeat(np.cumsum(counts) - counts, counts)
    second = np.repeat(start.ravel(), counts) + np.arange(len(run_start)) - run_start
    return np.column_stack([order[first], order[second]])


def _boundary_crossings(points, offset):
    """Count pairs of non-adjacent edges of the strip's boundary polygon that meet.

    The closed polygon runs along the curve samples, up the end normal at
    s = L, back along the offset curve and down the end normal at s = 0.
    Edges that touch count as meeting; disjoint collinear edges do not.
    Side edges are paired by a grid hash of their midpoints (_near_pairs).
    It returns a superset of the pairs that can meet, and that suffices
    because the exact straddle-and-box test below decides every pair.
    """
    poly = np.concatenate([points, offset[::-1]])
    m, n = len(poly), len(points)
    head, tail = poly, np.roll(poly, -1, axis=0)
    ends = np.array([n - 1, m - 1])
    # A mask rather than np.setdiff1d, whose np.unique imports numpy.ma.
    side = np.ones(m, dtype=bool)
    side[ends] = False
    sides = np.flatnonzero(side)

    # Side edges that meet have midpoints at most one longest side edge
    # apart; the max-norm search (a superset, free of squared distances
    # that underflow) finds them.  The end normals face every edge.
    reach = float(np.max(np.hypot(*(tail[sides] - head[sides]).T)))
    near = sides[_near_pairs(0.5 * (head[sides] + tail[sides]), reach)]
    i = np.concatenate([near[:, 0], np.repeat(ends, m)])
    j = np.concatenate([near[:, 1], np.tile(np.arange(m), 2)])
    gap = np.abs(i - j)
    # Cyclically adjacent edges share a vertex; the end normals pair once.
    keep = (np.minimum(gap, m - gap) > 1) & ~((i == m - 1) & (j == n - 1))
    i, j = i[keep], j[keep]

    def turn(p, q, r):  # signs, as a product of two small crosses can underflow
        u, v = q - p, r - p
        return np.sign(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    a, b, c, d = head[i], tail[i], head[j], tail[j]
    straddle = (turn(a, b, c) * turn(a, b, d) <= 0) & (turn(c, d, a) * turn(c, d, b) <= 0)
    lo_ab, hi_ab = np.minimum(a, b), np.maximum(a, b)
    lo_cd, hi_cd = np.minimum(c, d), np.maximum(c, d)
    boxes = np.all((lo_ab <= hi_cd) & (lo_cd <= hi_ab), axis=1)
    return int(np.count_nonzero(straddle & boxes))


def make_domain(curve, width):
    """Attach a width profile to a curve and validate the resulting strip:
    valid when jacobian_min > 0 and the boundary has no crossings."""
    if len(width.delta_samples) != curve.n:
        raise ValueError(
            f"width samples ({len(width.delta_samples)}) must match curve samples ({curve.n})"
        )
    # 1 + r k is linear in r, so its minimum sits at r = 0 or r = delta.
    jacobian_min = float(min(1.0, np.min(1.0 + width.delta_samples * curve.k_samples)))
    tangents = curve.tangents
    normal = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    # A width near the top of double range overflows the offset curve or
    # the polygon's extent, and a width above about 1e154 the cross products
    # of the crossing test (each at most 2 extent^2); the negated test below
    # rejects both.
    with np.errstate(over="ignore", invalid="ignore"):
        offset = curve.points + width.delta_samples[:, None] * normal
        extent = np.max(np.ptp(np.concatenate([curve.points, offset]), axis=0))
        cross_bound = 2.0 * extent**2
    if not cross_bound < np.inf:
        raise InvalidDomain(
            "the strip's boundary polygon is too large for double precision: "
            "the cross products of its crossing test are not finite "
            f"(max width {np.max(width.delta_samples):.6g})"
        )
    collisions = _boundary_crossings(curve.points, offset)
    return FermiDomain(
        curve=curve,
        width=width,
        jacobian_min=jacobian_min,
        offset_curve=offset,
        collision_count=collisions,
        valid=bool(jacobian_min > 0.0 and collisions == 0),
    )


def scale_width(domain, factor):
    """A new domain over the same curve with the width scaled by factor > 0."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    scaled = WidthProfile(
        delta_samples=domain.width.delta_samples * factor,
        ddelta_samples=domain.width.ddelta_samples * factor,
        evenness_tol=domain.width.evenness_tol,
    )
    return make_domain(domain.curve, scaled)
