"""First nonzero Neumann eigenvalue of the p-Laplacian on a curved strip.

The strip is never meshed in physical coordinates.  The map
(s, t) -> curve(s) + t delta(s) n(s) pulls everything back to the unit
reference band, where the Dirichlet integrand becomes grad^T G grad with

    G = [[a^2, a*b], [a*b, b^2 + 1/delta^2]],
    a = 1/(1 + r k),  b = -t delta' / ((1 + r k) delta),  r = t delta,

and the area element (1 + r k) delta ds dt.  Bilinear quadrilaterals with
2 x 2 Gauss quadrature discretize the band.  Odd eigenvalues use the half
band with a homogeneous essential condition on the midline, which is
equivalent to odd reflection when the weight data is even.

The p = 2 systems (K + sigma M on the full strip, K on the odd half, and
the descent's preconditioner K + mu M) are symmetric positive definite.
build_mesh numbers the nodes t-fastest, so every entry lies within
nt + 2 of the diagonal, and they are factored by banded Cholesky
(LAPACK pbtrf through scipy.linalg.cholesky_banded) at O(ns nt^3) cost.
The band is narrow because every mesh in use has ns >= nt.

The mesh's cell tables (conn, shape, shape_grad, metric, gauss_weight)
are the one discrete representation of the strip.  assemble contracts
them into the p = 2 matrices.  The descent's p-quotient (p != 2) gathers
each cell's nodal values through conn and contracts them with the shape
tables at the Gauss points; its gradient scatters the per-cell terms
back to the nodes with one bincount.  No matrix is built for it.

The descent preconditions its direction by the p = 2 operator P and
measures its Barzilai-Borwein step in P's inner product, the metric the
direction lives in: with y the change of gradient between accepted
iterates and du the change of iterate, the step is (du . y) / (P^-1 y . y),
and P^-1 y is the change of direction, already at hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .eig1d import pmean_shift
from .errors import BadExponent, DegenerateCell, SolveFailure

_GPTS = np.array([-1.0, 1.0]) / np.sqrt(3.0)


@dataclass
class Mesh2D:
    conn: np.ndarray
    node_s: np.ndarray
    node_t: np.ndarray
    gauss_weight: np.ndarray
    metric: np.ndarray
    shape: np.ndarray
    shape_grad: np.ndarray

    @property
    def n_nodes(self):
        return len(self.node_s)


@dataclass
class Eigen2DResult:
    mu: float
    u: np.ndarray
    residual: float
    method: str
    iterations: int
    converged: bool
    mesh: Mesh2D


def build_mesh(domain, ns, nt, s_range=None):
    """Tensor mesh over [s0, s1] x [0, 1] with frame-metric quadrature data.

    Cells where the area factor 1 + r k is not strictly positive at a
    quadrature point are reported as degenerate rather than silently
    flipping orientation, and so are cells whose metric overflows (a
    width so small that 1 / delta^2 is not a finite double).
    """
    if ns < 2 or nt < 1:
        raise ValueError("mesh needs at least 2 x 1 cells")
    s0, s1 = (0.0, domain.L) if s_range is None else map(float, s_range)
    s_nodes = np.linspace(s0, s1, ns + 1)
    t_nodes = np.linspace(0.0, 1.0, nt + 1)
    hs = (s1 - s0) / ns
    ht = 1.0 / nt

    jj, ii = np.meshgrid(np.arange(nt + 1), np.arange(ns + 1))
    node_s = s_nodes[ii].ravel()
    node_t = t_nodes[jj].ravel()

    ci, cj = np.meshgrid(np.arange(ns), np.arange(nt), indexing="ij")
    ci = ci.ravel()
    cj = cj.ravel()
    stride = nt + 1
    conn = np.stack(
        [
            ci * stride + cj,
            (ci + 1) * stride + cj,
            (ci + 1) * stride + cj + 1,
            ci * stride + cj + 1,
        ],
        axis=1,
    )

    xi, eta = np.meshgrid(_GPTS, _GPTS, indexing="ij")
    xi = xi.ravel()
    eta = eta.ravel()
    shape = 0.25 * np.stack(
        [
            (1 - xi) * (1 - eta),
            (1 + xi) * (1 - eta),
            (1 + xi) * (1 + eta),
            (1 - xi) * (1 + eta),
        ],
        axis=1,
    )
    dxi = 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)], axis=1)
    deta = 0.25 * np.stack([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)], axis=1)
    shape_grad = np.stack([dxi * (2.0 / hs), deta * (2.0 / ht)], axis=2)

    s_g = s_nodes[ci][:, None] + hs * 0.5 * (1.0 + xi)[None, :]
    t_g = t_nodes[cj][:, None] + ht * 0.5 * (1.0 + eta)[None, :]
    delta = domain.delta_at(s_g)
    ddelta = domain.ddelta_at(s_g)
    k = domain.k_at(s_g)
    jac = 1.0 + t_g * delta * k
    if np.min(jac) <= 0.0:
        raise DegenerateCell(
            f"area factor reaches {np.min(jac):.6g}; the strip folds over itself"
        )
    alpha = 1.0 / jac
    metric = np.empty(jac.shape + (2, 2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = -t_g * ddelta / (jac * delta)
        metric[..., 0, 0] = alpha**2
        metric[..., 0, 1] = alpha * beta
        metric[..., 1, 0] = alpha * beta
        metric[..., 1, 1] = beta**2 + 1.0 / delta**2
    if not np.all(np.isfinite(metric)):
        raise DegenerateCell(
            f"frame metric is not finite (width down to {np.min(delta):.6g}); "
            "the strip is too thin for double precision"
        )
    gauss_weight = jac * delta * (hs * ht * 0.25)

    return Mesh2D(
        conn=conn,
        node_s=node_s,
        node_t=node_t,
        gauss_weight=gauss_weight,
        metric=metric,
        shape=shape,
        shape_grad=shape_grad,
    )


def assemble(mesh):
    """Sparse stiffness and mass matrices for the quadratic (p = 2) forms.

    Raises DegenerateCell when a cell matrix overflows, as on a strip so
    short that the squared shape gradients (of order 1 / hs^2) leave
    double range.
    """
    w = mesh.gauss_weight
    dN = mesh.shape_grad
    N = mesh.shape
    with np.errstate(over="ignore", invalid="ignore"):
        k_cells = np.einsum("cg,gax,cgxy,gby->cab", w, dN, mesh.metric, dN, optimize=True)
        m_cells = np.einsum("cg,ga,gb->cab", w, N, N, optimize=True)
    if not (np.isfinite(k_cells).all() and np.isfinite(m_cells).all()):
        span = mesh.node_s[-1] - mesh.node_s[0]
        raise DegenerateCell(
            f"cell matrices overflow in the stiffness contraction (mesh length {span:.6g}); "
            "the strip is too short for double precision"
        )
    rows = np.broadcast_to(mesh.conn[:, :, None], k_cells.shape).ravel()
    cols = np.broadcast_to(mesh.conn[:, None, :], k_cells.shape).ravel()
    n = mesh.n_nodes
    K = scipy.sparse.coo_matrix((k_cells.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = scipy.sparse.coo_matrix((m_cells.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


class _BandCholesky:
    """Banded Cholesky factor of a sparse symmetric positive definite matrix.

    The half-bandwidth is read from the stored entries (nt + 2 on a strip
    mesh) and the upper band is packed in LAPACK band storage.  Raises
    SolveFailure when the matrix is not positive definite.
    """

    def __init__(self, A):
        A = A.tocoo()
        A.sum_duplicates()
        upper = A.col >= A.row
        rows, cols = A.row[upper], A.col[upper]
        self.bandwidth = int(np.max(cols - rows))
        band = np.zeros((self.bandwidth + 1, A.shape[0]))
        band[self.bandwidth + rows - cols, cols] = A.data[upper]
        try:
            self._factor = scipy.linalg.cholesky_banded(
                band, overwrite_ab=True, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"band Cholesky failed: {exc}") from exc

    def solve(self, b):
        return scipy.linalg.cho_solve_banded((self._factor, False), b, check_finite=False)


# Inverse iteration stops when mu changes by at most INVERSE_TOL (relative),
# or by at most INVERSE_FLOOR_TOL and no less than the step before: on thin
# strips mu settles at a rounding floor above INVERSE_TOL.
INVERSE_TOL = 1e-12
INVERSE_FLOOR_TOL = 1e-9
INVERSE_MAX_ITER = 200


def _inverse_iterate(A_chol, K, M, u0, deflate=None):
    u = u0 / np.sqrt(u0 @ (M @ u0))
    if deflate is not None:
        u = u - deflate * (deflate @ (M @ u))
    mu = float(u @ (K @ u))
    change_prev = np.inf
    it = 0
    for it in range(1, INVERSE_MAX_ITER + 1):
        v = A_chol.solve(M @ u)
        if deflate is not None:
            v = v - deflate * (deflate @ (M @ v))
        v = v / np.sqrt(v @ (M @ v))
        mu_prev, mu = mu, float(v @ (K @ v))
        u = v
        change = abs(mu - mu_prev)
        if change <= INVERSE_TOL * abs(mu) or change_prev <= change <= INVERSE_FLOOR_TOL * abs(mu):
            break
        change_prev = change
    else:
        raise SolveFailure(f"inverse iteration stalled at mu={mu:.9g}")
    r = K @ u - mu * (M @ u)
    residual = float(np.linalg.norm(r) / max(np.linalg.norm(K @ u), 1e-300))
    return mu, u, residual, it


def solve_mu1_linear(domain, ns=256, nt=16):
    """First nonzero Neumann eigenvalue for p = 2 on the full strip.

    Shifted inverse iteration with the constant mode deflated in the mass
    inner product; deterministic cosine start.  The shifted matrix
    K + sigma M is factored once by banded Cholesky, half-bandwidth nt + 2.
    """
    return _full_linear(domain, ns, nt)[0]


def _full_linear(domain, ns, nt):
    """solve_mu1_linear's result together with the K and M it assembled."""
    domain.require_valid()
    mesh = build_mesh(domain, ns, nt)
    K, M = assemble(mesh)
    ones = np.ones(mesh.n_nodes)
    ones = ones / np.sqrt(ones @ (M @ ones))
    u0 = np.cos(np.pi * mesh.node_s / domain.L)
    u0 = u0 - ones * (ones @ (M @ u0))
    sigma = 0.5 * float(u0 @ (K @ u0)) / float(u0 @ (M @ u0))
    A_chol = _BandCholesky(K + sigma * M)
    mu, u, residual, it = _inverse_iterate(A_chol, K, M, u0, deflate=ones)
    result = Eigen2DResult(
        mu=mu, u=u, residual=residual, method="linear", iterations=it,
        converged=True, mesh=mesh,
    )
    return result, K, M


def solve_mu1_odd_linear(domain, ns=256, nt=16):
    """Smallest eigenvalue among modes odd about the midline, p = 2.

    Solved on the half strip with the midline held at zero; for even
    curvature and width data this is the odd-reflection eigenvalue.
    """
    return _odd_linear(domain, ns, nt)[0]


def _odd_linear(domain, ns, nt):
    """solve_mu1_odd_linear's result with its stiffness factor and free nodes."""
    domain.require_valid()
    if ns % 2 != 0:
        raise ValueError("odd-mode solves need an even ns")
    mesh = build_mesh(domain, ns // 2, nt, s_range=(0.0, 0.5 * domain.L))
    K, M = assemble(mesh)
    essential = mesh.node_s >= 0.5 * domain.L - 1e-12 * domain.L
    keep = np.flatnonzero(~essential)
    K_red = K[keep][:, keep].tocsr()
    M_red = M[keep][:, keep].tocsr()
    A_chol = _BandCholesky(K_red)
    u0 = np.cos(np.pi * mesh.node_s[keep] / domain.L)
    mu, u_red, residual, it = _inverse_iterate(A_chol, K_red, M_red, u0)
    u = np.zeros(mesh.n_nodes)
    u[keep] = u_red
    result = Eigen2DResult(
        mu=mu, u=u, residual=residual, method="linear-odd", iterations=it,
        converged=True, mesh=mesh,
    )
    return result, A_chol, keep


ENERGY_FLOOR = 1e-60  # keeps energy^(p/2 - 1) finite for p < 2


def _p_rayleigh(mesh, u, p):
    U = u[mesh.conn]
    gs, gt = U @ mesh.shape_grad[:, :, 0].T, U @ mesh.shape_grad[:, :, 1].T
    ug = U @ mesh.shape.T
    G = mesh.metric
    g_ss, g_st, g_ts, g_tt = G[..., 0, 0], G[..., 0, 1], G[..., 1, 0], G[..., 1, 1]
    # grad . G grad as four terms in row-major order of G, which rounds like
    # the per-cell contraction.
    energy = gs * g_ss * gs + gs * g_st * gt + gt * g_ts * gs + gt * g_tt * gt
    energy = np.maximum(energy, ENERGY_FLOOR)
    num = float(np.sum(mesh.gauss_weight * energy ** (0.5 * p)))
    den = float(np.sum(mesh.gauss_weight * np.abs(ug) ** p))
    return num, den, (gs, gt), energy, ug


def _p_rayleigh_grad(mesh, p, num, den, grad, energy, ug):
    gs, gt = grad
    G = mesh.metric
    g_ss, g_st, g_ts, g_tt = G[..., 0, 0], G[..., 0, 1], G[..., 1, 0], G[..., 1, 1]
    s1 = mesh.gauss_weight * energy ** (0.5 * p - 1.0)
    s2 = mesh.gauss_weight * np.abs(ug) ** (p - 1.0) * np.sign(ug)
    flux_s = s1 * (g_ss * gs + g_st * gt)
    flux_t = s1 * (g_ts * gs + g_tt * gt)
    dN = mesh.shape_grad
    cells = flux_s @ dN[:, :, 0] + flux_t @ dN[:, :, 1] - (num / den) * (s2 @ mesh.shape)
    return p * np.bincount(mesh.conn.ravel(), cells.ravel(), minlength=mesh.n_nodes) / den


DESCENT_MAX_ITER = 20000
STALL_WINDOW = 50
STALL_TOL = 1e-9


def solve_mu1_nonlinear(domain, p, ns=256, nt=16, odd=False):
    """First nonzero eigenvalue for general p > 1 by Rayleigh descent.

    Minimizes the discrete p-quotient along directions preconditioned by
    the quadratic operator (a Sobolev gradient: K + mu M, or K on the odd
    half, factored by banded Cholesky with half-bandwidth nt + 2), with
    Barzilai-Borwein (BB2) steps in the preconditioner's inner product,
    (du . y) / (P^-1 y . y) for the changes du of iterate and y of
    gradient, doubled from the last accepted trial step when either
    product is not positive, and a backtracking safeguard, warm-started
    from the p = 2 eigenvector.  The gradient and its preconditioned
    direction are computed only at accepted iterates: a rejected
    backtracking candidate costs one projection and one quotient value.
    The full-strip variant enforces the zero weighted p-mean constraint
    with a scalar shift; the odd variant works on the half strip with the
    midline pinned, where no constraint is needed.  It stops converged
    when 40 step halvings fail to lower the quotient or the quotient drops
    by at most STALL_TOL = 1e-9 (relative) over STALL_WINDOW = 50 accepted
    steps, and unconverged after DESCENT_MAX_ITER = 20000 steps: converged
    reports stagnation, the attainable notion of success for a descent
    method, and mu is an upper estimate of the discrete minimum.  At p = 2
    it returns the result of solve_mu1_linear, or of solve_mu1_odd_linear
    when odd.
    """
    if not 1.0 < p < np.inf:
        raise BadExponent(f"p must exceed 1 and be finite (got {p})")
    domain.require_valid()
    if p == 2.0:
        return solve_mu1_odd_linear(domain, ns, nt) if odd else solve_mu1_linear(domain, ns, nt)

    if odd:
        lin, A_chol, free = _odd_linear(domain, ns, nt)
        mesh = lin.mesh
        u = lin.u

        def precondition(vec):
            out = np.zeros(mesh.n_nodes)
            out[free] = A_chol.solve(vec[free])
            return out

    else:
        lin, K2, M = _full_linear(domain, ns, nt)
        mesh = lin.mesh
        u = lin.u
        free = None
        m_lump = np.asarray(M.sum(axis=1)).ravel()
        precondition = _BandCholesky(K2 + lin.mu * M).solve

    def project(vec):
        if free is None:
            vec = vec - pmean_shift(vec, m_lump, p)
        else:
            out = np.zeros(mesh.n_nodes)
            out[free] = vec[free]
            vec = out
        return vec / np.max(np.abs(vec))

    def evaluate(vec):
        """The quotient at vec and a function computing its gradient g and
        preconditioned direction P^-1 g: a rejected candidate never pays
        for them."""
        num, den, grad, energy, ug = _p_rayleigh(mesh, vec, p)

        def direction():
            g = _p_rayleigh_grad(mesh, p, num, den, grad, energy, ug)
            return g, precondition(g)

        return num / den, direction

    u = project(u)
    value, direction = evaluate(u)
    g, d = direction()
    step = 1.0
    history = [value]
    converged = False
    iterations = 0
    for iterations in range(1, DESCENT_MAX_ITER + 1):
        trial = step
        accepted = False
        for _ in range(40):
            cand = project(u - trial * d)
            cval, cdirection = evaluate(cand)
            if cval < value:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            converged = True
            break
        cg, cd = cdirection()
        # Barzilai-Borwein (BB2) step in the P inner product: with
        # y = g_new - g_old, P^-1 y is the change of direction.
        du = cand - u
        y = cg - g
        sy = float(du @ y)
        yy = float((cd - d) @ y)
        step = sy / yy if sy > 0 and yy > 0 else trial * 2.0
        u, g, d, value = cand, cg, cd, cval
        history.append(value)
        if len(history) > STALL_WINDOW:
            drop = history[-STALL_WINDOW - 1] - value
            if drop <= STALL_TOL * value:
                converged = True
                break

    residual = float(np.linalg.norm(d) / value)
    return Eigen2DResult(
        mu=float(value),
        u=u,
        residual=residual,
        method="descent-odd" if odd else "descent",
        iterations=iterations,
        converged=converged,
        mesh=mesh,
    )
