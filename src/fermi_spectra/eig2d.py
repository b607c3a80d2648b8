"""First nonzero Neumann eigenvalue of the p-Laplacian on a curved strip.

The strip is never meshed in physical coordinates.  The map
(s, t) -> curve(s) + t delta(s) n(s) pulls everything back to the unit
reference band, where the Dirichlet integrand becomes grad^T G grad with

    G = [[a^2, a*b], [a*b, b^2 + 1/delta^2]],
    a = 1/(1 + r k),  b = -t delta' / ((1 + r k) delta),  r = t delta,

and the area element (1 + r k) delta ds dt.  Bilinear quadrilaterals with
2 x 2 Gauss quadrature discretize the band.

Every strip is mirror symmetric about the midline s = L/2, so every p = 2
mode is even or odd, and both classes live on the half band s in
[0, L/2]: the even class with the midline free (its natural condition),
the odd class with the midline held at zero, which is equivalent to odd
reflection when the weight data is even.  The half band's K + sigma M
(sigma > 0 and small) is assembled and factored once.  build_mesh
numbers the nodes t-fastest, so the midline column is the last nt + 1
unknowns, the odd class's matrix is the leading principal block of
K + sigma M, and its Cholesky factor is the leading columns of the
band factor.  The full p = 2 solve is the lower of the two classes; its
eigenvector is mirrored onto the whole strip, u(L - s) = +-u(s).

One p = 2 system is kept per strip and mesh: the half band's K + sigma M,
symmetric positive definite with every entry within nt + 2 of the
diagonal, factored by banded Cholesky (LAPACK pbtrf) at O(ns nt^3) cost.
The descent at p != 2 factors its own reweighted matrices of the same
band (below) and keeps none of them.  The band is narrow because every
mesh in use has ns >= nt.  The LAPACK routines come from scipy's LAPACK
extension module, loaded without the scipy.linalg package (_lapack).

The p = 2 class solves are two-level on a half mesh of at least
_COARSE_MIN_NODES = 4096 nodes (from 512 x 32 on; 256 x 16 has 2193).
A coarse half strip of the same domain, about _COARSE_RATIO = 4 times
coarser each way, is built, factored and solved in both classes, and
each class's two lowest Ritz vectors are interpolated bilinearly onto the
fine half mesh as that class's start block.  The fine stop rule is
unchanged; what the start saves is the iterations that would recover
what the coarse solve knows (its vectors are within O(h^2) of the fine
ones), up to three quarters of them (BENCH_26.json).
The coarse level is solved like any half strip, so a coarse mesh still
above the threshold has a coarse level of its own.  It is transient: it
is dropped once its Ritz vectors are taken, is never kept between solves,
and a coarse level that fails (any FermiSpectraError) leaves the analytic
start, a missed hint and not a failed solve.  Below the threshold every
solve starts from the analytic block, and a result's iterations count
fine-level iterations only.

The mesh's cell tables (conn, shape, shape_grad, metric, gauss_weight)
are the one discrete representation of the strip.  A cell's node order
is written once, in _STEPS (each local node's (s, t) step from the cell's
base node), and conn, the shape tables and _UPPER_PAIRS derive from it.
assemble contracts the tables into cell matrices, and _scatter sums them
onto the 9-point stencil of the t-fastest numbering, as a Stencil: the
diagonals its cell pairs land on (all nine for K and M), each stored
column-aligned, as LAPACK stores its upper band, so the band factor packs
its input with one row copy per upper diagonal.  One numpy routine
(_stencil_product) multiplies by them.  The descent's p-quotient (p != 2)
gathers each cell's nodal values through conn and contracts them
with the shape tables at the Gauss points; its gradient scatters the
per-cell terms back to the nodes with one bincount.  No matrix is built
for it.  Both read the tables in the layout they use, which the mesh
derives from its fields on its first quotient evaluation and keeps,
read-only, in its __dict__ (Mesh2D's cached properties): each metric
component and the transposed shape tables as contiguous arrays; the
gradient reads the shape gradients as transposed views of the latter.
A mesh solved only at p = 2 never builds them.
Every term keeps the floating-point operations, and their order, of the
formulas read straight from the fields, so the quotient and its
gradient are the same to the bit.

The descent (p != 2) runs on the same half band, in one mirror class,
and preconditions its direction by P = K_H + sigma M, sigma = SHIFT mu:
the stiffness with the 2 x 2 tensor

    H = w w_hat (G + (p - 2) a a^T / E_f),  a = G grad u,

at each Gauss point in place of w G, w_hat = (E_f / max E)^(p/2 - 1) the
weight on the energy E = grad u . G grad u, floored to
E_f = max(E, WEIGHT_FLOOR max E) (_second_variation).  K_H is the
numerator's second variation up to a constant factor: its isotropic part,
whose weight is |grad u|^(p-2), is the relaxed Kacanov stiffness
(Diening, Fornasier, Tomasi & Wank, Numer. Math. 145, 2020), and its
rank-one term along grad u is what the descent needs at large p and near
p = 1.  It is positive definite for every p > 1.  P is factored at the
start and again whenever a log-weight log w_hat has moved by more than
REFACTOR_LOG_MOVE = log 1.5 since the last factorization, with the
rank-one direction taken at that point: 3 or 4 times per descent on a
16 x 16 strip, more often where the weights keep moving.  A refresh
builds the tensor from the quotient's Gauss-point terms, contracts it
with the upper pairs' columns of the shape-gradient pair table in one
product, as assemble contracts w G, and sums the entries through
assemble's scatter onto its five upper diagonals: one matrix product, one
bincount and pbtrf, with no assembly and no table kept but the 16 x 10
pair columns.  The descent
measures its Barzilai-Borwein step in P's inner product, the metric the
direction lives in: with y the change of gradient between
accepted iterates and du the change of iterate, the step is
(du . y) / (P^-1 y . y), and P^-1 y is the change of direction (after a
refresh, the old direction is solved again with the new factor).  A
candidate whose rounded quotient ties the iterate's (within the
quotient's rounding bound) is judged by the change Q(c) - Q(u) computed
from per-Gauss-point differences (_quotient_change), whose error shrinks
with the step, so the line search sees below the quotient's rounding
floor; every other candidate is judged by the rounded values alone.  Its
residual is ||(K + sigma M)^-1 g|| / mu on the p = 2 factor, whatever P
is, one more band solve per accepted step.  It stops on the first
accepted step where the residual is at most DESCENT_TOL, the usual exit
of a Barzilai-Borwein descent.  Short of it, it stops on stagnation.
Whatever stopped it, it is converged by the p = 2 rule, on its residual
(Eigen2DResult).

Solves on one strip share their work.  The module keeps one half strip,
the latest solved: its mesh, K and M, band factor, and one memo of class
results (_HalfStrip.result), keyed by (p, class): the p = 2 inverse
iteration and the descent at each other p.  The half strip is found by
content (ns, nt, L and the exact bytes of the curvature, width and
width-derivative samples), not by the domain object.  So a full and an
odd request on one strip and mesh, in either order, or a sweep over p,
cost one mesh, one assembly, one kept factorization (and one transient
coarse one above the threshold), one p = 2 solve per class and one
descent per (p, class).  The state is held until a strip or mesh that
differs is solved, and is dropped before the new one is built; at
1024 x 64 it is about 29 MiB after the p = 2 solves, and a descent adds
the quotient's mesh tables.
Its arrays are read-only: results share
the mesh, and every returned u is the caller's own array.  A failed solve
is not kept.  Every request, full or odd at any p, becomes its
Eigen2DResult in one place (_strip_result), which judges converged, by
one rule for every class at every p, when the result is made.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import _require_p
from .eig1d import pmean_shift
from .errors import DegenerateCell, FermiSpectraError, SolveFailure

_GPTS = np.array([-1.0, 1.0]) / np.sqrt(3.0)
# The bilinear element's node order: the (s, t) step of each local node from
# its cell's base node, counterclockwise.  conn, the shape tables and
# _UPPER_PAIRS are derived from it.
_STEPS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
# A cell's ten local node pairs that land on the mesh matrix's upper
# triangle: each unordered pair once, the node whose step comes first in
# the t-fastest numbering first.
_UPPER_PAIRS = tuple(
    tuple(sorted(pair, key=_STEPS.tolist().__getitem__)) for pair in np.ndindex(4, 4) if pair[0] <= pair[1]
)


@dataclass(eq=False)
class Mesh2D:
    """A tensor mesh of the reference band with its cell tables (build_mesh).

    The p-quotient (_p_rayleigh, _p_rayleigh_grad) and its change
    (_quotient_change) read the tables in a layout of their own: the
    private cached properties below, built from the fields on first use and
    then kept, read-only, in the instance's __dict__.  conn needs no such
    copy (conn.ravel() is a view), nor do the shape gradients, which the
    gradient reads as transposed views of _gauss_tables.  A mesh only solved
    at p = 2 never builds them, and none of them says where a cell pair
    lands in a matrix (_scatter).  The descent's preconditioner keeps only
    the upper pairs' columns of _gradient_pairs, which assemble reads whole:
    its tensor is contracted with them at each refresh (_weighted_band).
    conn, shape and shape_grad number a cell's nodes in the order of _STEPS.
    """

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

    @cached_property
    def _metric_terms(self):
        """metric[..., i, j] as one contiguous (cells, 4) array per (i, j):
        g_ss, g_st, g_ts and g_tt."""
        return _frozen(np.moveaxis(self.metric.reshape(-1, 4, 4), 2, 0))

    @cached_property
    def _gauss_tables(self):
        """dN/ds, dN/dt and N, each transposed: U @ _gauss_tables is
        (du/ds, du/dt, u) at the Gauss points of cells with nodal values U."""
        dN = self.shape_grad
        return _frozen(np.stack([dN[:, :, 0].T, dN[:, :, 1].T, self.shape.T]))

    @property
    def _gradient_pairs(self):
        """[x, y, g, a, b] = dN_a/dx dN_b/dy at Gauss point g, the products
        both stiffness contractions read (assemble, _weighted_band)."""
        dN = np.moveaxis(self.shape_grad, 2, 0)  # (x, g, a)
        return dN[:, None, :, :, None] * dN[None, :, :, None, :]

    @cached_property
    def _upper_gradient_pairs(self):
        """The columns of _gradient_pairs for _UPPER_PAIRS, a (16, 10)
        table in (x, y, g) order: the descent's contraction (_weighted_band)."""
        a, b = np.array(_UPPER_PAIRS).T
        return _frozen(self._gradient_pairs[..., a, b].reshape(16, len(a)))


def _frozen(a):
    """a as a read-only C-contiguous array (a copy unless a already is one)."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class Eigen2DResult:
    """One strip eigenvalue, as every strip solver returns it (_strip_result).

    parity is the mirror parity about the midline s = L/2 ("even" or
    "odd") of the returned mode.  gap is the relative distance
    (mu_next - mu) / mu to the next eigenvalue, for p = 2 only (None
    otherwise).  mesh is the half mesh, s in [0, L/2], that every solve
    runs on.  u holds the mode at the nodes of the whole strip for the
    full solves (mirrored from the half strip; at p = 2 unit in the whole
    strip's mass norm) and of the half mesh for the odd ones.  iterations
    counts every class solve behind the result, on the result's own mesh
    only (not a coarse level's).  converged holds when, in each class
    behind the result, a stop rule fired and the residual is at most
    RESIDUAL_TOL or the class's rounding level eps max(K_ii / M_ii) / mu_2,
    mu_2 its p = 2 eigenvalue, whichever is larger: one rule at every p,
    judged when the result is made (_strip_result).
    """

    mu: float
    u: np.ndarray
    residual: float
    method: str
    iterations: int
    converged: bool
    mesh: Mesh2D
    parity: str
    gap: float | None


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
    base = ci.ravel() * (nt + 1) + cj.ravel()
    conn = base[:, None] + _STEPS @ (nt + 1, 1)

    # Gauss point g of a cell sits at (_GPTS[gi[g]], _GPTS[gj[g]]).  With
    # sigma = 2 step - 1, node a's shape is 0.25 (1 + sigma_s xi)(1 + sigma_t eta).
    gi, gj = (a.ravel() for a in np.meshgrid([0, 1], [0, 1], indexing="ij"))
    xi, eta = _GPTS[gi], _GPTS[gj]
    sigma = 2 * _STEPS - 1
    factor = 1 + sigma * np.stack([xi, eta], axis=1)[:, None, :]  # (g, a, (s, t))
    shape = 0.25 * (factor[..., 0] * factor[..., 1])
    shape_grad = 0.25 * (sigma * factor[..., ::-1]) * (2.0 / hs, 2.0 / ht)

    # k, delta and delta' depend on s alone: they are read once per column of
    # Gauss points (2 ns values), and the point data is formed on a
    # (cell column, cell row, Gauss point) grid, then flattened to cells.
    s_col = s_nodes[:-1, None] + hs * 0.5 * (1.0 + _GPTS)
    delta = domain.delta_at(s_col)[:, None, gi]
    ddelta = domain.ddelta_at(s_col)[:, None, gi]
    k = domain.k_at(s_col)[:, None, gi]
    t_g = t_nodes[:-1, None] + ht * 0.5 * (1.0 + eta)
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
        gauss_weight=gauss_weight.reshape(ns * nt, 4),
        metric=metric.reshape(ns * nt, 4, 2, 2),
        shape=shape,
        shape_grad=shape_grad,
    )


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's LAPACK wrappers: the extension module behind its lapack module.

    Importing the scipy.linalg package costs some 0.2 s, most of it in
    scipy's array-API set-up, which imports every lazy numpy submodule;
    the routines the strip solver calls (dpbtrf, dpbtrs, dsygvd) need none
    of it.  So the extension module is loaded from its file after bare
    scipy, whose __init__ makes the bundled libraries loadable, and is
    registered under its own name: a later import of scipy.linalg finds it
    there and uses the same module, and one already loaded is used here.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy

        directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(directory, extensions).find_spec(_FLAPACK)
        if spec is None:  # a scipy laid out otherwise: import it the usual way
            return importlib.import_module(_FLAPACK)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module


@dataclass(eq=False)
class Stencil:
    """A square matrix on the 9-point stencil of build_mesh's t-fastest
    numbering, stored by diagonals: data[k, j] = A[j - offsets[k], j], with
    the offsets ascending.  Each diagonal is column-aligned, as in scipy's
    sparse DIA format and LAPACK's upper band; entries that fall outside
    the matrix are zero."""

    offsets: np.ndarray
    data: np.ndarray


# Up to this many nodes _stencil_product reads all nine diagonals at once
# (_grid_product): a small product costs its numpy calls, and this takes
# two, not two per diagonal.  On larger meshes its strided reduction is
# the slower one: solve_mu1_linear takes 4.4 against 5.2 ms by diagonals
# on a half mesh of 1105 nodes, 8.2 against 7.7 ms on 2193 (one BLAS thread).
_GRID_NODES = 2048
# Nodes per chunk of the product by diagonals: a chunk of the product and
# its temporary stay in a core's L2 cache.
_CHUNK = 16384


def _stencil_product(offsets, data, x):
    """A x for the Stencil matrices data (..., diagonal, n) on offsets and
    the vectors x (..., n), broadcast over their leading axes.

    Each entry sums its diagonals in ascending offset order, starting from
    zero, as scipy's sparse DIA and CSR products sum a row, so the
    products are theirs to the bit.
    """
    n = x.shape[-1]
    shape = np.broadcast(data[..., 0, :], x).shape[:-1]
    if n <= _GRID_NODES and len(offsets) == 9:
        return _grid_product(offsets, data, x, shape)
    y = np.zeros(shape + (n,))
    term = np.empty(shape + (min(n, _CHUNK),))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        for k, offset in enumerate(offsets.tolist()):
            # rows i of the chunk meet columns i + offset inside the matrix
            lo, hi = max(start, -offset), min(stop, n - offset)
            if lo >= hi:
                continue
            t = term[..., : hi - lo]
            np.multiply(data[..., k, lo + offset : hi + offset], x[..., lo + offset : hi + offset], out=t)
            np.add(y[..., lo:hi], t, out=y[..., lo:hi])
    return y


def _grid_product(offsets, data, x, shape):
    """_stencil_product by one multiplication and one reduction.

    Nine distinct offsets are the whole 9-point stencil,
    (g - 1)(nt + 1) + (e - 1) for g, e in 0, 1, 2, so row i meets its terms
    data[k, j] x[j], j = i + offsets[k], along a 3 x 3 grid of strides
    through the terms of every column, padded with zeros outside the
    matrix (adding +0.0 to a sum that starts from +0.0 changes no bit).
    The reduction runs through the grid in stride order, g then e, which
    is ascending offset order.
    """
    n = x.shape[-1]
    stride = int(offsets[7])  # nt + 1
    pad = stride + 1  # the largest offset
    terms = np.zeros(shape + (9, n + 2 * pad))  # column j at j + pad
    np.multiply(data, x[..., None, :], out=terms[..., pad : pad + n])
    *outer, row, col = terms.strides
    grid = np.ndarray(
        shape + (3, 3, n), buffer=terms, strides=(*outer, 3 * row + stride * col, row + col, col)
    )
    return np.add.reduce(grid, axis=(-3, -2), initial=0.0)


def _row_sums(A):
    """Row sums of a Stencil, rounded as scipy's sparse CSR sum(axis=1):
    np.add.reduceat over each row's nonzeros in column order.  Zeros are
    dropped, not added, since a pairwise sum groups its terms by their
    count."""
    n = A.data.shape[1]
    rows = np.zeros((n, len(A.offsets)))
    for k, offset in enumerate(A.offsets.tolist()):
        rows[max(0, -offset) : n - max(0, offset), k] = A.data[k, max(0, offset) : n + min(0, offset)]
    nonzero = rows != 0.0
    count = np.count_nonzero(nonzero, axis=1)
    return np.add.reduceat(rows[nonzero], np.cumsum(count) - count)


def _scatter(mesh, entries, pairs):
    """The Stencil summing entries[c, k] into A[i, j], i and j the nodes of
    cell c's local nodes a and b, (a, b) the k-th of pairs.

    build_mesh numbers the nodes t-fastest, so local node a of a cell is
    its base node conn[c, 0] plus step[a] = _STEPS[a] . (nt + 1, 1), which
    is (0, nt + 1, nt + 2, 1):
    the pair (a, b) lands on the diagonal of offset step[b] - step[a], at
    column conn[c, 0] + step[b].  The Stencil holds the diagonals the pairs
    land on and no others: nine for all sixteen pairs (seven when nt = 1),
    the five upper ones 0, 1, nt, nt + 1 and nt + 2 for _UPPER_PAIRS.  One
    np.bincount sums the entries in ascending cell order, from zero.
    """
    n = mesh.n_nodes
    first = mesh.conn[0].tolist()
    step = [node - first[0] for node in first]
    steps = [(step[a], step[b]) for a, b in pairs]
    offsets = sorted({j - i for i, j in steps})
    lands = [offsets.index(j - i) * n + j for i, j in steps]
    data = np.bincount((mesh.conn[:, :1] + lands).ravel(), entries.ravel(), minlength=len(offsets) * n)
    return Stencil(np.array(offsets), data.reshape(-1, n))


def assemble(mesh):
    """Stiffness and mass matrices for the quadratic (p = 2) forms, as
    Stencils on the mesh's 9-point stencil (_scatter).  The cell matrices
    are one product each: w G in (x, y, g) order times the shape-gradient
    pair table (Mesh2D._gradient_pairs), and w times N_a N_b.

    Raises DegenerateCell when a cell matrix overflows (its sums are then
    inf or nan), as on a strip so short that the squared shape gradients
    (of order 1 / hs^2) leave double range.
    """
    w = mesh.gauss_weight
    N = mesh.shape
    weighted_metric = np.empty((len(w), 2, 2, 4))  # (cell, x, y, g)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(w[:, :, None, None], mesh.metric, out=weighted_metric.transpose(0, 3, 1, 2))
        k_cells = weighted_metric.reshape(-1, 16) @ mesh._gradient_pairs.reshape(16, 16)
        del weighted_metric  # no two cell tables are held with _scatter's index
        K = _scatter(mesh, k_cells, np.ndindex(4, 4))
        del k_cells
        M = _scatter(mesh, w @ (N[:, :, None] * N[:, None, :]).reshape(4, 16), np.ndindex(4, 4))
    if not (np.isfinite(K.data).all() and np.isfinite(M.data).all()):
        span = mesh.node_s[-1] - mesh.node_s[0]
        raise DegenerateCell(
            f"cell matrices overflow in the stiffness contraction (mesh length {span:.6g}); "
            "the strip is too short for double precision"
        )
    return K, M


def _upper_band(A):
    """A symmetric Stencil's LAPACK upper band, in Fortran order: row
    bandwidth - offset holds the diagonal of that offset, column-aligned
    as the Stencil stores it, with bandwidth its largest offset."""
    offsets = A.offsets.tolist()
    bandwidth = max(offsets)
    band = np.zeros((bandwidth + 1, A.data.shape[1]), order="F")
    for k, offset in enumerate(offsets):
        if offset >= 0:
            band[bandwidth - offset] = A.data[k]
    return band


class _BandCholesky:
    """Banded Cholesky factor of a symmetric positive definite Stencil.

    Its half-bandwidth is the largest offset (nt + 2 on a strip mesh).
    The stencil's diagonals are column-aligned like LAPACK's upper band, so
    each upper diagonal is one row copy into the band, which is packed
    column by column: the factor of a leading block is a contiguous slice
    of it (leading).  Raises SolveFailure when the matrix is not positive
    definite.
    """

    def __init__(self, A):
        self._factorize(_upper_band(A))

    @classmethod
    def of_band(cls, band):
        """Factor of the matrix stored in band, its LAPACK upper band in
        Fortran order, which the factorization overwrites."""
        chol = cls.__new__(cls)
        chol._factorize(band)
        return chol

    def _factorize(self, band):
        self.bandwidth = len(band) - 1
        lapack = _lapack()
        self._factor, info = lapack.dpbtrf(band, overwrite_ab=1)
        self._dpbtrs = lapack.dpbtrs
        if info != 0:
            raise SolveFailure(
                f"band Cholesky failed: the leading minor of order {info} is not positive definite"
            )

    def leading(self, m):
        """Factor of the leading m x m block of the matrix, with no new factorization.

        A = U^T U with U upper triangular gives A[:m, :m] = U[:m, :m]^T U[:m, :m],
        and U[:m, :m] is stored in the first m columns of the band.
        """
        block = copy.copy(self)
        block._factor = self._factor[:, :m]
        return block

    def solve(self, b):
        """A^-1 b for a vector or for each column of a block, returned in
        Fortran order."""
        return self._dpbtrs(self._factor, b)[0]


# Inverse iteration stops when mu changes by at most INVERSE_TOL (relative),
# or by no less than the step before and at most the larger of
# INVERSE_FLOOR_TOL mu and eps max_i K_ii / M_ii: on thin strips mu settles
# at a rounding floor above INVERSE_TOL, and on strips some 1e4 times
# longer than wide that floor, of order eps times the pencil's largest
# eigenvalue, exceeds INVERSE_FLOOR_TOL mu.
INVERSE_TOL = 1e-12
INVERSE_FLOOR_TOL = 1e-9
INVERSE_MAX_ITER = 200
# A p = 2 solve is converged when its stop rule fired and its residual
# ||K u - mu M u|| / ||K u|| is at most RESIDUAL_TOL, or at most its
# rounding level ritz_floor / mu where that is larger.  Where the stop rule
# fires the residual is at most 1.5e-7 on 60 solves of the benchmark's
# strips (256x16 to 1024x64) and on 144 thin-strip solves down to width 0.0075,
# and 3.6e-7 on the wide rectangle (width 3.5, 1024x64); the tolerance
# leaves a factor of about 30 above that.  On strips 7e4 times longer than
# wide the rounding level (8e-5) is larger, and residuals reach 0.36-0.64 of it.
RESIDUAL_TOL = 1e-5
# K + sigma M is factored with sigma = SHIFT times the Rayleigh quotient of
# cos(pi s / L): positive, so the matrix is definite with the constant
# mode included, and small, so the odd class converges as fast as unshifted.
SHIFT = 1e-3
# A half strip of at least _COARSE_MIN_NODES nodes starts its p = 2 class
# solves from a coarse half strip's Ritz vectors (_coarse_ritz), on a mesh
# with about _COARSE_RATIO times fewer cells each way.  Below it the coarse
# solve costs more than the fine iterations it saves.
_COARSE_MIN_NODES = 4096
_COARSE_RATIO = 4


@dataclass(eq=False)
class _ClassResult:
    """One mirror class's solve at one p, on the half mesh.

    At p = 2 it is the inverse iteration: next_mu is the class's second
    Ritz value and next_u its vector.  At other p it is the Rayleigh
    descent, with no next_mu or next_u.  stopped says that a stop rule
    fired (not the descent's step cap); whether the result is converged is
    judged from it and the residual when a result is made (_strip_result).
    """

    parity: str
    mu: float
    u: np.ndarray
    residual: float
    iterations: int
    stopped: bool
    next_mu: float | None
    next_u: np.ndarray | None


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


class _HalfStrip:
    """The half strip s in [0, L/2], with K + sigma M assembled and factored once.

    Every domain is mirror symmetric about s = L/2 and K, M commute with
    the reflection, so every mode is even or odd about the midline.  The
    even class uses every node of the half mesh (a free midline is the
    natural condition of an even mode); the odd class holds the midline at
    zero.  build_mesh numbers the nodes t-fastest, so the midline column is
    the last nt + 1 unknowns: the odd class's matrix is the leading
    principal block of K + sigma M, and its Cholesky factor is the leading
    columns of the band factor.  Odd-class vectors keep all nodes, with
    zeros on the midline.

    At p = 2 each class runs block inverse iteration from _start: on a
    half mesh of at least _COARSE_MIN_NODES nodes the interpolated Ritz
    vectors of a transient coarse half strip, built, solved and dropped in
    __init__ (_coarse_ritz), and otherwise, or when that coarse level
    fails, the analytic block.

    An instance also keeps what was solved on it: each class's result at
    each p (result), computed on first request.  Its mesh, matrices, factor
    and kept vectors are read-only.  Instances come from _half_strip, which
    keeps the latest one, and from _coarse_ritz, which keeps none.
    """

    def __init__(self, domain, ns, nt):
        if ns % 2 != 0:
            raise ValueError("p = 2 solves run on the half strip and need an even ns")
        self.L = domain.L
        self.nt = nt
        mesh = build_mesh(domain, ns // 2, nt, s_range=(0.0, 0.5 * domain.L))
        K, M = assemble(mesh)
        # K and M as one pencil: the two products with a block take one pass
        # over the stencil.
        self.offsets = K.offsets
        self.pencil = np.stack([K.data, M.data])
        del K, M  # the pencil holds the only copy of their data
        cos = np.cos(np.pi * mesh.node_s / domain.L)
        k_cos, m_cos = _stencil_product(self.offsets, self.pencil, cos)
        sigma = SHIFT * float(cos @ k_cos) / float(cos @ m_cos)
        chol = _BandCholesky(Stencil(self.offsets, self.pencil[0] + sigma * self.pencil[1]))
        n_odd = mesh.n_nodes - (nt + 1)
        _read_only(*vars(mesh).values(), self.offsets, self.pencil, chol._factor)
        self.mesh = mesh
        self.free = {"even": mesh.n_nodes, "odd": n_odd}
        self.chol = {"even": chol, "odd": chol.leading(n_odd)}
        # The rounding floor of a Ritz value: eps times the pencil's largest
        # eigenvalue, which max K_ii / M_ii estimates from below.
        k_main, m_main = self.pencil[:, np.searchsorted(self.offsets, 0)]
        self.ritz_floor = np.finfo(float).eps * float(np.max(k_main / m_main))
        self._results = {}
        self._coarse = _coarse_ritz(domain, ns, nt) if mesh.n_nodes >= _COARSE_MIN_NODES else None

    def _start(self, parity):
        """Start block of the class: the coarse level's two Ritz vectors
        (_coarse_ritz) interpolated onto the half mesh, or, without a coarse
        level, a deterministic block with components along the low modes of
        the class in both directions: a block that varies only in s is
        M-orthogonal to the rectangle's even mode cos(pi t).  The even
        block's first column is the constant, and its other columns start
        M-orthogonal to it: the solve amplifies a constant component by
        1 / sigma, and one left in the start would swamp the modes sought."""
        s = self.mesh.node_s / self.L
        if self._coarse is not None:
            cells = self.mesh.n_nodes // (self.nt + 1) - 1
            V = _interpolate(_interpolate(self._coarse[parity], cells, 1), self.nt, 2)
            V = np.ascontiguousarray(V.reshape(len(V), -1).T)
        else:
            ramp = (1.0 + s) * (1.0 + np.cos(np.pi * self.mesh.node_t))
            cos = np.cos(np.pi * s)
            V = np.column_stack([np.cos(2.0 * np.pi * s), ramp] if parity == "even" else [cos, ramp * cos])
        if parity == "even":
            V = np.column_stack([np.ones_like(s), V])
            mass = _stencil_product(self.offsets, self.pencil[1], V[:, 0])
            V[:, 1:] -= np.outer(V[:, 0], (mass @ V[:, 1:]) / (mass @ V[:, 0]))
            return V
        V[self.free["odd"]:] = 0.0
        return V

    def result(self, p, parity):
        """The class's result at p, computed on first request: the inverse
        iteration at p = 2, the Rayleigh descent (_descent) otherwise."""
        key = (p, parity)
        if key not in self._results:
            self._results[key] = self._inverse_iteration(parity) if p == 2.0 else _descent(self, p, parity)
        return self._results[key]

    def _inverse_iteration(self, parity):
        """Lowest eigenpairs of one mirror class: block inverse iteration
        with Rayleigh-Ritz, stopped on the class's first nonzero Ritz value.
        The even block keeps the constant, an exact null vector of K, as
        its first column without solving for it, so its Ritz values start
        with 0, and its products with K and M are formed once.

        The block is held as columns, whose BLAS rounding the kept reports
        carry.  The band solve returns its columns in Fortran order, so
        their transpose is the rows the stencil product runs along.
        """
        m = self.free[parity]
        target = 1 if parity == "even" else 0
        offsets, chol = self.offsets, self.chol[parity]
        pencil = self.pencil[:, None]  # K and M, each against every vector
        dsygvd = _lapack().dsygvd
        W = self._start(parity)
        # K W and M W; columns before target are the even block's constant
        products = np.empty((2,) + W.shape)
        for j in range(target):
            products[:, :, j] = _stencil_product(offsets, self.pencil, W[:, j])
        MV = _stencil_product(offsets, self.pencil[1], W.T).T
        # the solved columns as rows, zero on the odd class's midline
        block = np.zeros((W.shape[1] - target, self.mesh.n_nodes))
        mu = np.inf
        change_prev = np.inf
        for it in range(1, INVERSE_MAX_ITER + 1):
            solved = chol.solve(MV[:m, target:])
            W[:m, target:] = solved
            block[:, :m] = solved.T
            # copied into the columns one vector at a time: a copy of the
            # whole block would run along its short axis
            for j, product in enumerate(_stencil_product(offsets, pencil, block).swapaxes(0, 1), target):
                products[:, :, j] = product
            KW, MW = products
            gram_k, gram_m = W.T @ KW, W.T @ MW
            # Rayleigh-Ritz with the columns scaled to unit M-norm, so the
            # small Gram matrices stay well conditioned.
            d = 1.0 / np.sqrt(np.diag(gram_m))
            # dsygvd's defaults, itype 1 and the lower triangle, are eigh's
            theta, Y, info = dsygvd(d[:, None] * gram_k * d, d[:, None] * gram_m * d)
            if info != 0:
                raise SolveFailure(f"Rayleigh-Ritz failed: LAPACK dsygvd returned {info} ({parity} modes)")
            Y = d[:, None] * Y
            MV = MW @ Y
            mu_prev, mu = mu, float(theta[target])
            change = abs(mu - mu_prev)
            floor = max(INVERSE_FLOOR_TOL * abs(mu), self.ritz_floor)
            if change <= INVERSE_TOL * abs(mu) or change_prev <= change <= floor:
                break
            change_prev = change
        else:
            raise SolveFailure(f"inverse iteration stalled at mu={mu:.9g} ({parity} modes)")
        u = W @ Y[:, target]
        Ku = (KW @ Y[:, target])[:m]
        residual = float(np.linalg.norm(Ku - mu * MV[:m, target]) / max(np.linalg.norm(Ku), 1e-300))
        if u[np.argmax(np.abs(u))] < 0.0:
            u = -u
        next_u = W @ Y[:, target + 1]
        _read_only(u, next_u)
        return _ClassResult(
            parity=parity, mu=mu, u=u, residual=residual, iterations=it,
            stopped=True, next_mu=float(theta[target + 1]), next_u=next_u,
        )

    def lowest(self):
        """Both mirror classes: (winner, other), odd on a tie."""
        even, odd = self.result(2.0, "even"), self.result(2.0, "odd")
        return (odd, even) if odd.mu <= even.mu else (even, odd)

    def mirror(self, u, parity):
        """The whole-strip field of a half-strip vector: u(L - s) = u(s) for
        an even mode, -u(s) for an odd one."""
        rows = u.reshape(-1, self.nt + 1)
        sign = 1.0 if parity == "even" else -1.0
        return np.concatenate([rows, sign * rows[-2::-1]]).ravel()


def _coarse_ritz(domain, ns, nt):
    """The coarse level of a half strip's p = 2 class solves: each class's
    two lowest Ritz vectors (its target and the next) on a half strip about
    _COARSE_RATIO times coarser each way, ns kept even, as an array
    (vector, s node, t node); None when the coarse level fails, a missed
    hint and not a failed solve.  The coarse half strip is solved as any
    other, from a coarser level of its own when it is large enough, and is
    dropped on return: it is never kept (_slot)."""
    try:
        coarse = _HalfStrip(domain, 2 * max(2, ns // (2 * _COARSE_RATIO)), max(1, nt // _COARSE_RATIO))
        results = [coarse.result(2.0, parity) for parity in ("even", "odd")]
        return {c.parity: np.stack([c.u, c.next_u]).reshape(2, -1, coarse.nt + 1) for c in results}
    except FermiSpectraError:
        return None


def _interpolate(values, cells, axis):
    """Linear interpolation of values along axis, from its nodes to cells + 1
    nodes, both uniform on one interval with the same ends."""
    n = values.shape[axis] - 1
    x = np.arange(cells + 1) * n / cells  # in units of the old spacing, exact at the ends
    i = np.minimum(x.astype(np.intp), n - 1)
    w = (x - i).reshape((-1,) + (1,) * (values.ndim - axis - 1))
    return (1.0 - w) * np.take(values, i, axis) + w * np.take(values, i + 1, axis)


# The latest half strip, with its key: nothing else is kept between solves.
_slot = None


def _strip_key(domain, ns, nt):
    """What a half strip is built from: the mesh and the exact samples."""
    samples = (domain.curve.k_samples, domain.width.delta_samples, domain.width.ddelta_samples)
    return (ns, nt, float(domain.L), *(np.asarray(a, dtype=float).tobytes() for a in samples))


def _half_strip(domain, ns, nt):
    """The _HalfStrip of (domain, ns, nt): the kept one when its strip and
    mesh are the same, else a new one, which replaces it."""
    global _slot
    domain.require_valid()
    key = _strip_key(domain, ns, nt)
    if _slot is None or _slot[0] != key:
        _slot = None
        _slot = (key, _HalfStrip(domain, ns, nt))
    return _slot[1]


def _strip_result(domain, p, ns, nt, odd):
    """The Eigen2DResult of one request: the odd class, or the p = 2
    winner's class mirrored onto the whole strip, taken with the other
    class at p = 2 for the gap, iterations and converged (Eigen2DResult's
    one rule, at every p)."""
    half = _half_strip(domain, ns, nt)
    linear = p == 2.0
    if odd:
        classes = [half.result(p, "odd")]
        u = classes[0].u.copy()
    else:
        winner, other = half.lowest()
        classes = [winner, other] if linear else [half.result(p, winner.parity)]
        u = half.mirror(classes[0].u, winner.parity)
        if linear:
            u /= np.sqrt(2.0)  # unit in the whole strip's mass norm
    first = classes[0]
    converged = all(
        c.stopped and c.residual <= max(RESIDUAL_TOL, half.ritz_floor / half.result(2.0, c.parity).mu)
        for c in classes
    )
    gap = min([first.next_mu] + [c.mu for c in classes[1:]]) / first.mu - 1.0 if linear else None
    return Eigen2DResult(
        mu=first.mu, u=u, residual=first.residual,
        method=("linear" if linear else "descent") + ("-odd" if odd else ""),
        iterations=sum(c.iterations for c in classes), converged=converged,
        mesh=half.mesh, parity=first.parity, gap=gap,
    )


def solve_mu1_linear(domain, ns=256, nt=16):
    """First nonzero Neumann eigenvalue for p = 2 on the full strip.

    Solved by mirror parity on the half strip s in [0, L/2] (ns even):
    K + sigma M is assembled and factored by banded Cholesky once, and
    each class (even: free midline; odd: midline held at zero) runs block
    inverse iteration with Rayleigh-Ritz on the shared factor, started
    from a coarse mesh's Ritz vectors on large meshes (module docstring).
    mu is the smaller class eigenvalue, odd on a tie, and parity names its
    class.
    gap is (mu_next - mu) / mu, with mu_next the smaller of the other
    class's eigenvalue and the winning class's second Ritz value (an
    upper estimate of its second eigenvalue, converged only as far as the
    first needs).  u is the eigenvector mirrored onto the whole strip,
    u(L - s) = +-u(s), numbered like build_mesh(domain, ns, nt).  Its
    norm, mesh, iterations and converged are as Eigen2DResult says, over
    both classes.

    The half strip and both class solves are kept until a different strip
    or mesh is solved (module docstring), so solve_mu1_odd_linear on the
    same strip and mesh reuses the odd class.  mesh is read-only and
    shared; u is the caller's own.
    """
    return _strip_result(domain, 2.0, ns, nt, odd=False)


def solve_mu1_odd_linear(domain, ns=256, nt=16):
    """Smallest eigenvalue among modes odd about the midline, p = 2.

    The odd class of solve_mu1_linear alone: the half strip with the
    midline held at zero, solved on the leading block of the half strip's
    K + sigma M factor.  For even curvature and width data this is the
    odd-reflection eigenvalue.  u lives on the half mesh (zero on the
    midline); gap is measured to the class's second Ritz value; converged
    is as Eigen2DResult says.  It shares the kept half strip and odd class
    solve with solve_mu1_linear (module docstring); mesh is read-only and
    shared, u is the caller's own copy.
    """
    return _strip_result(domain, 2.0, ns, nt, odd=True)


ENERGY_FLOOR = 1e-60  # keeps energy^(p/2 - 1) finite for p < 2


def _p_rayleigh(mesh, u, p):
    gs, gt, ug = u[mesh.conn] @ mesh._gauss_tables
    g_ss, g_st, g_ts, g_tt = mesh._metric_terms
    # grad . G grad as four terms in row-major order of G, which rounds like
    # the per-cell contraction.
    energy = gs * g_ss * gs + gs * g_st * gt + gt * g_ts * gs + gt * g_tt * gt
    np.maximum(energy, ENERGY_FLOOR, out=energy)
    num = float((mesh.gauss_weight * energy ** (0.5 * p)).sum())
    den = float((mesh.gauss_weight * np.abs(ug) ** p).sum())
    return num, den, (gs, gt), energy, ug


def _p_rayleigh_grad(mesh, p, num, den, grad, energy, ug):
    gs, gt = grad
    g_ss, g_st, g_ts, g_tt = mesh._metric_terms
    s1 = mesh.gauss_weight * energy ** (0.5 * p - 1.0)
    s2 = mesh.gauss_weight * np.abs(ug) ** (p - 1.0) * np.sign(ug)
    flux_s = s1 * (g_ss * gs + g_st * gt)
    flux_t = s1 * (g_ts * gs + g_tt * gt)
    dN_s, dN_t = mesh._gauss_tables[:2]
    cells = flux_s @ dN_s.T + flux_t @ dN_t.T - (num / den) * (s2 @ mesh.shape)
    return p * np.bincount(mesh.conn.ravel(), cells.ravel(), minlength=mesh.n_nodes) / den


DESCENT_MAX_ITER = 20000
DESCENT_TOL = 1e-6
STALL_WINDOW = 50
STALL_TOL = 1e-9


def solve_mu1_nonlinear(domain, p, ns=256, nt=16, odd=False):
    """First nonzero eigenvalue for general p > 1 by Rayleigh descent.

    The descent runs on the half strip of the p = 2 solve, in the mirror
    class of the p = 2 winner (the odd class when odd), from that class's
    p = 2 eigenvector: the quotient is reflection invariant, so a descent
    started in a class stays in it.  The odd class holds the midline at
    zero; the even class enforces the zero weighted p-mean constraint with
    a scalar shift on the half mesh's lumped masses, whose midline nodes
    carry half the whole-strip mass, so the constraint is the whole
    strip's.  Directions are preconditioned by P = K_H + sigma M, the
    stiffness with the numerator's second variation
    H = w w_hat (G + (p - 2) a a^T / E_f) at each Gauss point, where
    a = G grad u, E = |grad u|^2 in the strip's metric, E_f = E floored at
    1e-8 max E and w_hat = (E_f / max E)^(p/2 - 1), plus sigma = 1e-3 mu
    times the mass, factored at the start and again whenever a log-weight
    log w_hat has moved by more than log 1.5 (module docstring); the odd
    class solves with the factor of its leading block.
    An even direction is projected onto the tangent space of the
    constraint, along P^-1 w with w = m |u|^(p-2) (|u| floored at 1e-12):
    a direction off it would be partly undone by the shift.  The step is
    Barzilai-Borwein (BB2) in that inner product (module docstring),
    doubled from the last accepted trial step when either of its products
    is not positive, with a backtracking safeguard that accepts a candidate
    whose rounded quotient is lower, or ties to rounding and is lower by
    the change computed from differences (module docstring).  The gradient
    and its direction are computed only at accepted iterates: a rejected
    candidate costs one projection and one quotient value (and, at a tie,
    one change).  residual is
    ||(K + sigma M)^-1 g|| / mu at the last iterate, with the p = 2
    factor of the class (and, in the even class, the same projection),
    whatever P is: the 2-norm over the half mesh's nodes, over mu, so it
    grows with the node count.  The residual stop comes first: the descent
    stops on the first accepted step whose residual is at most
    DESCENT_TOL = 1e-6.  Short of it, it stops when 40 step halvings fail
    to lower the quotient (fewer once u - step * d rounds to u, since every
    shorter step repeats that candidate) or the quotient drops by at most
    STALL_TOL = 1e-9 (relative) over STALL_WINDOW = 50 accepted steps, and
    after DESCENT_MAX_ITER = 20000 steps.  converged is Eigen2DResult's one
    rule: a stop rule fired, not the step cap, and the residual is within
    the p = 2 class's bound.  A stagnated descent above it is unconverged,
    and its mu is an upper estimate of the discrete minimum.  parity is the
    class searched; gap, mesh and u are as Eigen2DResult says, u numbered
    like build_mesh(domain, ns, nt) for the full solve.  At p = 2 it
    returns the result of solve_mu1_linear, or of solve_mu1_odd_linear
    when odd.  p outside (1, inf) raises BadExponent.

    Each class's descent at each p is kept with the half strip until a
    different strip or mesh is solved (module docstring).  When the odd
    class wins, the full and the odd request therefore share one descent,
    and a sweep over p on one strip shares the mesh, p = 2 factor and p = 2
    class solves.  mesh is read-only and shared; u is the caller's own.
    """
    _require_p(p)
    if p == 2.0:
        return solve_mu1_odd_linear(domain, ns, nt) if odd else solve_mu1_linear(domain, ns, nt)
    return _strip_result(domain, p, ns, nt, odd)


# |u| is floored here in the even class's constraint weight m |u|^(p-2).
TANGENT_FLOOR = 1e-12
# The descent preconditioner's energy floor, relative to the largest
# Gauss-point energy, and the move of any log-weight since the last
# factorization that makes the descent factor it anew.
WEIGHT_FLOOR = 1e-8
REFACTOR_LOG_MOVE = np.log(1.5)


def _weighted_band(mesh, tensor, m_band, sigma):
    """The LAPACK upper band of K_H + sigma M: K_H the stiffness with the
    symmetric 2 x 2 tensor[c, :, :, g] in place of w G at each Gauss point,
    contracted like assemble's K (one product with the upper pairs'
    columns of Mesh2D._gradient_pairs, _upper_gradient_pairs) and
    scattered onto its upper diagonals, and m_band the mass matrix's band."""
    entries = tensor.reshape(-1, 16) @ mesh._upper_gradient_pairs
    band = _upper_band(_scatter(mesh, entries, _UPPER_PAIRS))
    band += sigma * m_band
    return band


def _second_variation(mesh, p, grad, energy, log_w):
    """The descent's stiffness tensor at each Gauss point, laid out
    (cells, x, y, g) for _weighted_band:

        H = w w_hat (G + (p - 2) a a^T / E_f),  a = G grad u,

    with w_hat = exp(log_w) = (E_f / max E)^(p/2 - 1) and
    E_f = max(E, WEIGHT_FLOOR max E), E the energy grad u . G grad u.  It is
    the second variation of the integral of |grad u|^p, up to the factor
    p (max E)^(p/2 - 1), with E floored.  Since (a . v)^2 <= E v . G v, it
    is positive definite for every p > 1: v . H v >= min(1, p - 1) w w_hat
    v . G v."""
    gs, gt = grad
    g_ss, g_st, g_ts, g_tt = mesh._metric_terms
    a_s, a_t = g_ss * gs + g_st * gt, g_ts * gs + g_tt * gt
    scale = mesh.gauss_weight * np.exp(log_w)
    rank = (p - 2.0) * scale / np.maximum(energy, WEIGHT_FLOOR * energy.max())
    tensor = np.empty((len(scale), 2, 2, 4))
    tensor[:, 0, 0] = scale * g_ss + rank * a_s * a_s
    tensor[:, 0, 1] = tensor[:, 1, 0] = scale * g_st + rank * a_s * a_t
    tensor[:, 1, 1] = scale * g_tt + rank * a_t * a_t
    return tensor


# The branch np.where drops may overflow at large q; a change that is not
# finite is no decrease, so the candidate is rejected.
@np.errstate(over="ignore", invalid="ignore")
def _power_change(base, other, change, q):
    """other^q - base^q for other = base + change >= 0, base >= 0: written
    with expm1 and log1p where |change| < base, so that it keeps its digits
    when other and base agree to rounding."""
    near = np.abs(change) < base
    ratio = np.divide(change, base, out=np.zeros_like(base), where=near)
    return np.where(near, base**q * np.expm1(q * np.log1p(ratio)), other**q - base**q)


def _quotient_change(mesh, p, u, cand, at_u, at_cand):
    """Q(cand) - Q(u) for the p-quotient Q, from _p_rayleigh's terms at
    both vectors and per-Gauss-point differences: grad (cand - u) at the
    Gauss points, E_cand - E_u = grad (cand - u) . G (grad cand + grad u)
    and each term's change by _power_change.  Its rounding error scales
    with cand - u, where the difference of the two rounded quotients has
    the quotient's own rounding error."""
    num, den, (gs, gt), energy, ug = at_u
    _, _, (cs, ct), cenergy, cug = at_cand
    ds, dt, dug = (cand - u)[mesh.conn] @ mesh._gauss_tables
    g_ss, g_st, g_ts, g_tt = mesh._metric_terms
    ss, st = cs + gs, ct + gt
    d_energy = ds * (g_ss * ss + g_st * st) + dt * (g_ts * ss + g_tt * st)
    w = mesh.gauss_weight
    d_num = float((w * _power_change(energy, cenergy, d_energy, 0.5 * p)).sum())
    d_den = float((w * _power_change(np.abs(ug), np.abs(cug), np.sign(ug) * dug, p)).sum())
    return (d_num - (num / den) * d_den) / (den + d_den)


# An overflow in |grad u|^p makes the quotient inf, which evaluate reports
# and the descent handles; it is not worth a warning.
@np.errstate(over="ignore")
def _descent(half, p, parity):
    """Rayleigh descent at p in one mirror class of half (solve_mu1_nonlinear)."""
    start = half.result(2.0, parity)
    mesh = half.mesh
    free = half.free[parity]
    m_band = _upper_band(Stencil(half.offsets, half.pencil[1]))
    # A bound on the quotient's relative rounding error: each of its sums
    # adds n positive terms, which leaves at most about n eps (Higham,
    # Accuracy and Stability of Numerical Algorithms, sec. 4.2), with each
    # term's power good to about p eps.
    rounding = (mesh.gauss_weight.size + p) * np.finfo(float).eps

    if parity == "even":
        # Summed as compressed rows, whose rounding the kept reports carry.
        m_lump = _row_sums(Stencil(half.offsets, half.pencil[1]))

        def constrain(vec):
            return vec - pmean_shift(vec, m_lump, p)

        def precondition(chol, g, vec):
            # P^-1 g projected along P^-1 w onto w . d = 0, the tangent
            # space of sum m |u|^(p-2) u = 0 at vec.
            w = m_lump * np.maximum(np.abs(vec), TANGENT_FLOOR) ** (p - 2.0)
            d, pw = chol.solve(np.column_stack([g, w])).T
            return d - ((w @ d) / (w @ pw)) * pw

    else:

        def constrain(vec):
            # In place: vec is the descent's own array, a copy of the start
            # or the line search's raw step u - trial * d, whose midline is
            # already zero when trial is finite (and which equals u neither
            # way when it is not), so the collapse test is unchanged.
            vec[free:] = 0.0
            return vec

        def precondition(chol, g, vec):
            d = np.zeros(mesh.n_nodes)
            d[:free] = chol.solve(g[:free])
            return d

    def project(vec):
        vec = constrain(vec)
        return vec / np.abs(vec).max()

    def evaluate(vec):
        """The quotient at vec and its Gauss-point terms (_p_rayleigh's),
        from which the gradient is computed only at accepted iterates: a
        rejected candidate never pays for it.  The quotient is inf when its
        numerator or denominator is not a finite positive double, as when
        |grad u|^p leaves double range at large p."""
        terms = _p_rayleigh(mesh, vec, p)
        num, den = terms[:2]
        if not (0.0 < num < np.inf and 0.0 < den < np.inf):
            return np.inf, terms
        return num / den, terms

    def lower(cand, cval, cterms):
        """Whether cand lowers the quotient: its rounded value is below the
        iterate's, or ties it to rounding and the change computed from
        differences (_quotient_change) is negative."""
        if cval < value:
            return True
        tie = cval - value <= rounding * value
        return tie and _quotient_change(mesh, p, u, cand, terms, cterms) < 0.0

    def log_weight(energy):
        """log (E / max E)^(p/2 - 1), E floored at WEIGHT_FLOOR max E: a
        log, so that no power of the energy can overflow."""
        top = energy.max()
        return (0.5 * p - 1.0) * np.log(np.maximum(energy / top, WEIGHT_FLOOR))

    def factor(log_w, terms, value):
        """The class's factor of K_H + sigma M, sigma = SHIFT value, K_H
        the stiffness of _second_variation at the point of terms: the
        leading block's in the odd class."""
        tensor = _second_variation(mesh, p, terms[2], terms[3], log_w)
        band = _weighted_band(mesh, tensor, m_band, SHIFT * value)
        return _BandCholesky.of_band(band[:, :free])

    def measure(g, vec, value):
        """The residual ||P^-1 g|| / mu with the p = 2 factor, whatever P is."""
        residual = float(np.linalg.norm(precondition(half.chol[parity], g, vec)) / value)
        if not residual < np.inf:
            raise SolveFailure(
                f"the p-quotient's gradient at p={p:.9g} is not finite; "
                "p is too large for double precision"
            )
        return residual

    u = project(start.u.copy())
    value, terms = evaluate(u)
    if not value < np.inf:
        raise SolveFailure(
            f"the p-quotient at p={p:.9g} is not finite at the p = 2 start; "
            "p is too large for double precision"
        )
    g = _p_rayleigh_grad(mesh, p, *terms)
    residual = measure(g, u, value)
    factored = log_weight(terms[3])
    chol = factor(factored, terms, value)
    d = precondition(chol, g, u)
    step = 1.0
    history = [value]
    stopped = True
    iterations = 0
    for iterations in range(1, DESCENT_MAX_ITER + 1):
        trial = step
        accepted = False
        for _ in range(40):
            raw = u - trial * d
            cand = project(raw)
            cval, cterms = evaluate(cand)
            if lower(cand, cval, cterms):
                accepted = True
                break
            if (raw == u).all():
                # The step has collapsed onto the iterate, so every shorter
                # step gives this candidate again.  The raw step is tested
                # because the even projection moves u itself.
                break
            trial *= 0.5
        if not accepted:
            break
        cg = _p_rayleigh_grad(mesh, p, *cterms)
        log_w = log_weight(cterms[3])
        if np.max(np.abs(log_w - factored)) > REFACTOR_LOG_MOVE:
            factored = log_w
            chol = factor(factored, cterms, cval)
            # The old direction in the new factor's metric, so that cd - d
            # below is P^-1 y for one P.
            d = precondition(chol, g, u)
        cd = precondition(chol, cg, cand)
        # Barzilai-Borwein (BB2) step in the P inner product: with
        # y = g_new - g_old, P^-1 y is the change of direction.
        du = cand - u
        y = cg - g
        sy = float(du @ y)
        yy = float((cd - d) @ y)
        step = sy / yy if sy > 0 and yy > 0 else trial * 2.0
        u, g, d, value, terms = cand, cg, cd, cval, cterms
        residual = measure(g, u, value)
        history.append(value)
        if residual <= DESCENT_TOL:
            break
        if len(history) > STALL_WINDOW:
            drop = history[-STALL_WINDOW - 1] - value
            if drop <= STALL_TOL * value:
                break
    else:
        stopped = False  # DESCENT_MAX_ITER steps, and no rule stopped it
    _read_only(u)
    return _ClassResult(
        parity=parity, mu=float(value), u=u, residual=residual, iterations=iterations,
        stopped=stopped, next_mu=None, next_u=None,
    )
