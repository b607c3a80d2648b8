"""Strip eigenvalue solvers on the tensor mesh in frame coordinates.

The curved reference case is the annular sector (constant curvature -0.5,
constant width 0.5, length pi, radii 1.5 to 2).  Its first nonzero
Neumann eigenvalue separates in polar coordinates; the angular mode
solves a radial equation that an independent shooting oracle integrates
below.  The frozen oracle value is asserted against a fresh recompute so
the constant cannot drift from its derivation.  annular_sector_mu gives
the same eigenvalues exactly, as roots of a Bessel cross product.
"""

import dataclasses
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh, spsolve
from scipy.special import jvp, yvp

from fermi_spectra import (
    build_mesh,
    make_domain,
    pi_p,
    reconstruct_from_curvature,
    scale_width,
    solve_mu1_linear,
    solve_mu1_nonlinear,
    solve_mu1_odd_linear,
    width_profile,
)
from fermi_spectra import eig2d
from fermi_spectra.asymptotics import limit_problem
from fermi_spectra.cli import build_domain
from fermi_spectra.config import load_config
from fermi_spectra.eig1d import _brentq, solve_discretized
from fermi_spectra.eig2d import (
    Stencil,
    _BandCholesky,
    _p_rayleigh,
    _p_rayleigh_grad,
    _row_sums,
    _stencil_product,
    assemble,
)
from fermi_spectra.errors import BadExponent, DegenerateCell, SolveFailure

ANNULUS_MU1_RADIAL = 1.3139311581  # frozen output of radial_oracle(nu=2)


def radial_oracle(nu, lo=1.0, hi=1.6):
    """First Neumann eigenvalue of -(rho h')' + nu^2 h / rho = mu rho h on [1.5, 2]."""

    def end_slope(mu):
        def rhs(rho, y):
            h, dh = y
            return [dh, -dh / rho + (nu**2 / rho**2 - mu) * h]

        sol = solve_ivp(rhs, (1.5, 2.0), [1.0, 0.0], rtol=1e-11, atol=1e-12)
        return sol.y[1, -1]

    return brentq(end_slope, lo, hi, xtol=1e-10)


def annular_sector_mu(k, width, L, n):
    """Exact Neumann eigenvalue of angular mode n on the annular sector of
    constant curvature k and width: x^2 for the first positive root x of
    J'_nu(x a) Y'_nu(x b) - J'_nu(x b) Y'_nu(x a), nu = n pi / Theta, with
    a, b the radii and Theta = L |k| the opening angle.  Mode n is odd
    about the midline when n is odd; n = 0 is the radial mode."""
    R = 1.0 / abs(k)
    a, b = (R - width, R) if k < 0 else (R, R + width)
    nu = n * math.pi / (L / R)

    def cross(x):
        return jvp(nu, x * a) * yvp(nu, x * b) - jvp(nu, x * b) * yvp(nu, x * a)

    x = np.linspace(0.01, 10.0, 2000)
    i = np.flatnonzero(np.diff(np.sign(cross(x))))[0]
    root, converged = _brentq(cross, x[i], x[i + 1], xtol=1e-15)
    assert converged
    return root**2


ANNULUS_EXACT = 1.313931151760767  # annular_sector_mu(-0.5, 0.5, pi, 1)


def sparse(A):
    """A Stencil as the scipy.sparse.dia_array it stores, or a scipy.sparse or
    dense matrix as the Stencil of its diagonals: the tests' one bridge
    between the solver's stencils and scipy."""
    if isinstance(A, Stencil):
        n = A.data.shape[1]
        return scipy.sparse.dia_array((A.data, A.offsets), shape=(n, n))
    dia = scipy.sparse.dia_array(A)
    data = np.zeros((len(dia.offsets), dia.shape[0]))
    data[:, : dia.data.shape[1]] = dia.data[:, : dia.shape[0]]
    return Stencil(dia.offsets, data)


def assemble_sparse(mesh):
    """assemble's K and M as scipy.sparse.dia_array."""
    return tuple(sparse(A) for A in assemble(mesh))


def half_system(domain, ns, nt):
    """K and M of the odd half strip, midline nodes removed, as the odd solver builds them."""
    L = domain.L
    mesh = build_mesh(domain, ns // 2, nt, s_range=(0.0, 0.5 * L))
    K, M = (A.tocsr() for A in assemble_sparse(mesh))
    keep = np.flatnonzero(mesh.node_s < 0.5 * L - 1e-12 * L)
    return K[keep][:, keep].tocsr(), M[keep][:, keep].tocsr()


def eigsh_quotient(K, M, k):
    """Rayleigh quotient of the eigenvector of shift-invert eigsh's largest of k values."""
    vals, vecs = eigsh(K.tocsc(), k=k, M=M.tocsc(), sigma=-1e-3)
    v = vecs[:, np.argmax(vals)]
    return float(v @ (K @ v)) / float(v @ (M @ v))


@pytest.fixture
def empty_slot(monkeypatch):
    """No kept half strip: the solve under test runs in full, whatever ran before."""
    monkeypatch.setattr(eig2d, "_slot", None)


def wide_sector():
    """The annular sector k = -0.2, width 3 on L = pi, where an even mode wins."""
    return make_domain(
        reconstruct_from_curvature(math.pi, lambda s: -0.2), width_profile(3.0, math.pi)
    )


class TestMesh:
    def test_node_count(self, annulus):
        mesh = build_mesh(annulus, 32, 8)
        assert mesh.n_nodes == 33 * 9

    def test_total_mass_rectangle(self, rectangle):
        mesh = build_mesh(rectangle, 64, 8)
        assert np.sum(mesh.gauss_weight) == pytest.approx(math.pi * 0.4, rel=1e-12)

    def test_total_mass_annulus(self, annulus):
        # quarter turn between radii 1.5 and 2: area (Phi/2)(R^2 - r^2)
        mesh = build_mesh(annulus, 64, 8)
        assert np.sum(mesh.gauss_weight) == pytest.approx(0.4375 * math.pi, rel=1e-9)

    def test_equality_is_identity(self, annulus):
        # Field-wise == would compare arrays and raise ValueError.
        mesh = build_mesh(annulus, 4, 4)
        assert (build_mesh(annulus, 4, 4) == build_mesh(annulus, 4, 4)) is False
        assert (mesh == mesh) is True
        assert len({mesh, mesh, annulus}) == 2

    def test_folding_domain_degenerate(self):
        curve = reconstruct_from_curvature(math.pi, lambda s: -2.0)
        width = width_profile(1.0, math.pi)
        domain = make_domain(curve, width)
        with pytest.raises(DegenerateCell):
            build_mesh(domain, 32, 8)


class TestAssembly:
    def test_matches_physical_assembly_on_rectangle(self, rectangle):
        # same mesh assembled directly in physical coordinates with the
        # textbook bilinear element matrices
        mesh = build_mesh(rectangle, 24, 6)
        K, M = assemble_sparse(mesh)
        hx = rectangle.L / 24
        hy = 0.4 / 6
        k_x = (hy / (6.0 * hx)) * np.array(
            [[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]]
        )
        k_y = (hx / (6.0 * hy)) * np.array(
            [[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]]
        )
        m_e = (hx * hy / 36.0) * np.array(
            [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
        )
        n = mesh.n_nodes
        K_ref = np.zeros((n, n))
        M_ref = np.zeros((n, n))
        for cell in mesh.conn:
            K_ref[np.ix_(cell, cell)] += k_x + k_y
            M_ref[np.ix_(cell, cell)] += m_e
        assert np.max(np.abs(K.toarray() - K_ref)) < 1e-12
        assert np.max(np.abs(M.toarray() - M_ref)) < 1e-12

    def test_constant_in_stiffness_kernel(self, wavy):
        mesh = build_mesh(wavy, 32, 8)
        K, M = assemble_sparse(mesh)
        ones = np.ones(mesh.n_nodes)
        assert np.max(np.abs(K @ ones)) < 1e-12
        assert M @ ones @ ones == pytest.approx(np.sum(mesh.gauss_weight), rel=1e-12)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def parabola():
    return build_domain(load_config(CONFIG_DIR / "parabola.json", command="solve2d"))


# The contraction orders np.einsum_path picks for the cell matrices on every
# mesh of 16 cells or more.
K_PATH = ["einsum_path", (0, 2), (0, 1), (0, 1)]
M_PATH = ["einsum_path", (1, 2), (0, 1)]


def reference_assemble(mesh):
    """assemble by contracting the cell matrices with np.einsum and
    scattering every cell entry into a COO matrix summed as CSR: the
    assembly the stencil one replaced."""
    w, dN, N = mesh.gauss_weight, mesh.shape_grad, mesh.shape
    k_cells = np.einsum("cg,gax,cgxy,gby->cab", w, dN, mesh.metric, dN, optimize=K_PATH)
    m_cells = np.einsum("cg,ga,gb->cab", w, N, N, optimize=M_PATH)
    rows = np.broadcast_to(mesh.conn[:, :, None], k_cells.shape).ravel()
    cols = np.broadcast_to(mesh.conn[:, None, :], k_cells.shape).ravel()
    n = mesh.n_nodes
    K = scipy.sparse.coo_matrix((k_cells.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = scipy.sparse.coo_matrix((m_cells.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def reference_band_factor(A):
    """The band factor packed from A's upper COO entries, one fancy index
    for all of them, as _BandCholesky did before it read diagonals."""
    A = A.tocoo()
    A.sum_duplicates()
    upper = A.col >= A.row
    rows, cols = A.row[upper], A.col[upper]
    bandwidth = int(np.max(cols - rows))
    band = np.zeros((bandwidth + 1, A.shape[0]), order="F")
    band[bandwidth + rows - cols, cols] = A.data[upper]
    factor, info = scipy.linalg.lapack.dpbtrf(band, overwrite_ab=1)
    assert info == 0
    return factor


def pointwise_geometry(domain, ns, nt, s_range):
    """build_mesh's gauss_weight and metric with k, delta and delta' read by
    np.interp at every Gauss point of every cell."""
    s0, s1 = s_range
    s_nodes, t_nodes = np.linspace(s0, s1, ns + 1), np.linspace(0.0, 1.0, nt + 1)
    hs, ht = (s1 - s0) / ns, 1.0 / nt
    ci, cj = (a.ravel() for a in np.meshgrid(np.arange(ns), np.arange(nt), indexing="ij"))
    xi, eta = (a.ravel() for a in np.meshgrid(eig2d._GPTS, eig2d._GPTS, indexing="ij"))
    s_g = s_nodes[ci][:, None] + hs * 0.5 * (1.0 + xi)[None, :]
    t_g = t_nodes[cj][:, None] + ht * 0.5 * (1.0 + eta)[None, :]
    delta = np.interp(s_g, domain.s_samples, domain.width.delta_samples)
    ddelta = np.interp(s_g, domain.s_samples, domain.width.ddelta_samples)
    k = np.interp(s_g, domain.s_samples, domain.curve.k_samples)
    jac = 1.0 + t_g * delta * k
    alpha = 1.0 / jac
    beta = -t_g * ddelta / (jac * delta)
    metric = np.empty(jac.shape + (2, 2))
    metric[..., 0, 0] = alpha**2
    metric[..., 0, 1] = alpha * beta
    metric[..., 1, 0] = alpha * beta
    metric[..., 1, 1] = beta**2 + 1.0 / delta**2
    return jac * delta * (hs * ht * 0.25), metric


STENCIL_DOMAINS = ["rectangle", "annulus", "wavy", "parabola"]
STENCIL_MESHES = [(16, 16), (256, 16), (64, 4), (64, 32)]


class TestStencilAssembly:
    """The 9-point stencil assembly against the COO to CSR one, to the bit."""

    @pytest.mark.parametrize("ns, nt", STENCIL_MESHES)
    @pytest.mark.parametrize("name", STENCIL_DOMAINS)
    def test_matrices_and_products_match_reference(self, request, name, ns, nt):
        mesh = build_mesh(request.getfixturevalue(name), ns, nt)
        K, M = assemble(mesh)
        references = reference_assemble(mesh)
        X = np.random.default_rng(3).normal(size=(mesh.n_nodes, 3))
        for A, ref in zip((K, M), references):
            stored = scipy.sparse.dia_array(ref)
            np.testing.assert_array_equal(A.offsets, stored.offsets)
            np.testing.assert_array_equal(A.data, stored.data)
            # one vector per row of the product's input
            np.testing.assert_array_equal(_stencil_product(A.offsets, A.data, X.T), (ref @ X).T)
            np.testing.assert_array_equal(_stencil_product(A.offsets, A.data, X[:, 1]), ref @ X[:, 1])
            np.testing.assert_array_equal(A.data[list(A.offsets).index(0)], ref.diagonal())
        # K and M at once, as the inverse iteration multiplies its block
        both = _stencil_product(K.offsets, np.stack([K.data, M.data])[:, None], X.T)
        np.testing.assert_array_equal(both, [(ref @ X).T for ref in references])
        # the even descent's lumped masses
        lumped = np.asarray(references[1].sum(axis=1)).ravel()
        np.testing.assert_array_equal(_row_sums(M), lumped)

    def test_single_row_of_cells(self, wavy):
        # nt = 1: the t-neighbour and the diagonal neighbour along s share an
        # offset, so the stencil has seven diagonals
        mesh = build_mesh(wavy, 16, 1)
        K, M = assemble(mesh)
        assert list(K.offsets) == [-3, -2, -1, 0, 1, 2, 3]
        references = reference_assemble(mesh)
        n = mesh.n_nodes
        for A, ref in zip((K, M), references):
            columns = _stencil_product(A.offsets, A.data, np.eye(n))
            np.testing.assert_allclose(columns.T, ref.toarray(), rtol=1e-13, atol=1e-13 * np.max(np.abs(columns)))
        b = np.cos(np.arange(n))
        x = _BandCholesky(Stencil(K.offsets, K.data + 0.5 * M.data)).solve(b)
        reference = np.linalg.solve((references[0] + 0.5 * references[1]).toarray(), b)
        np.testing.assert_allclose(x, reference, rtol=1e-10)

    @pytest.mark.parametrize("nt", [1, 2, 4, 16])
    def test_scatter_holds_the_diagonals_its_pairs_land_on(self, wavy, nt):
        # The ten upper pairs land on five diagonals; all sixteen on nine,
        # seven when nt = 1, where the t-neighbour and the diagonal
        # neighbour along s share an offset.  None is left all zero.  The
        # upper pairs hold each unordered pair of local nodes once, each on
        # the upper triangle in every cell.
        mesh = build_mesh(wavy, 8, nt, s_range=(0.0, 0.5 * wavy.L))
        upper_pairs = eig2d._UPPER_PAIRS
        assert sorted(sorted(pair) for pair in upper_pairs) == [[a, b] for a, b in np.ndindex(4, 4) if a <= b]
        assert all((mesh.conn[:, a] <= mesh.conn[:, b]).all() for a, b in upper_pairs)
        upper = [0, 1, nt, nt + 1, nt + 2]
        for pairs, expected in [
            (eig2d._UPPER_PAIRS, sorted(set(upper))),
            (list(np.ndindex(4, 4)), sorted({sign * o for o in upper for sign in (1, -1)})),
        ]:
            A = eig2d._scatter(mesh, np.ones((len(mesh.conn), len(pairs))), pairs)
            assert A.offsets.tolist() == expected
            assert np.all(np.any(A.data != 0.0, axis=1))
        assert len(expected) == (7 if nt == 1 else 9)

    @pytest.mark.parametrize("nt", [1, 2, 16])
    def test_element_tables_follow_the_node_order(self, wavy, nt):
        # conn steps from each cell's base node as _STEPS says, and the
        # shape tables interpolate every bilinear field exactly: its values
        # and both derivatives at the Gauss points, which sit at
        # (_GPTS[g // 2], _GPTS[g % 2]) in the cell's reference square.
        ns = 6
        mesh = build_mesh(wavy, ns, nt, s_range=(0.0, 0.5 * wavy.L))
        assert (mesh.conn - mesh.conn[:, :1] == eig2d._STEPS @ (nt + 1, 1)).all()
        np.testing.assert_allclose(mesh.shape.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(mesh.shape_grad.sum(axis=1), 0.0, rtol=0.0, atol=1e-13)
        alpha, beta, gamma, delta = np.random.default_rng(2).normal(size=4)
        s, t = mesh.node_s, mesh.node_t
        u = alpha + beta * s + gamma * t + delta * s * t
        base = mesh.conn[:, :1]
        xi, eta = eig2d._GPTS[np.arange(4) // 2], eig2d._GPTS[np.arange(4) % 2]
        sg = s[base] + 0.5 * (1.0 + xi) * (0.5 * wavy.L / ns)
        tg = t[base] + 0.5 * (1.0 + eta) / nt
        ue = u[mesh.conn]
        np.testing.assert_allclose(ue @ mesh.shape.T, alpha + beta * sg + gamma * tg + delta * sg * tg, atol=1e-13)
        np.testing.assert_allclose(ue @ mesh.shape_grad[:, :, 0].T, beta + delta * tg, atol=1e-12)
        np.testing.assert_allclose(ue @ mesh.shape_grad[:, :, 1].T, gamma + delta * sg, atol=1e-12)

    @pytest.mark.parametrize("chunk", [97, 1100])
    def test_product_in_chunks_matches_reference(self, wavy, monkeypatch, chunk):
        # chunks that do not divide the node count (1105), as at 1024 x 64;
        # the last of 1100 holds fewer nodes than the largest offset
        monkeypatch.setattr(eig2d, "_GRID_NODES", 0)
        monkeypatch.setattr(eig2d, "_CHUNK", chunk)
        mesh = build_mesh(wavy, 64, 16)
        X = np.random.default_rng(5).normal(size=(2, mesh.n_nodes))
        for A, ref in zip(assemble(mesh), reference_assemble(mesh)):
            np.testing.assert_array_equal(_stencil_product(A.offsets, A.data, X), (ref @ X.T).T)

    @pytest.mark.parametrize("grid_nodes", [0, 10**9], ids=["by-diagonal", "grid"])
    @pytest.mark.parametrize("ns, nt", [(16, 16), (64, 4), (256, 16)])
    def test_each_product_path_matches_reference(self, annulus, monkeypatch, ns, nt, grid_nodes):
        # the inverse iteration's product, K and M against a block of rows,
        # on the half mesh; a vector of -0.0 gives +0.0, as a sum from zero
        monkeypatch.setattr(eig2d, "_GRID_NODES", grid_nodes)
        mesh = build_mesh(annulus, ns // 2, nt, s_range=(0.0, 0.5 * annulus.L))
        (K, M), references = assemble(mesh), reference_assemble(mesh)
        X = np.random.default_rng(7).normal(size=(3, mesh.n_nodes))
        both = _stencil_product(K.offsets, np.stack([K.data, M.data])[:, None], X)
        np.testing.assert_array_equal(both, [(ref @ X.T).T for ref in references])
        x = np.full(mesh.n_nodes, -0.0)
        for A, ref in zip((K, M), references):
            y, expected = _stencil_product(A.offsets, A.data, x), ref @ x
            np.testing.assert_array_equal(y, expected)
            np.testing.assert_array_equal(np.signbit(y), np.signbit(expected))

    @pytest.mark.parametrize("ns, nt", STENCIL_MESHES)
    @pytest.mark.parametrize("name", STENCIL_DOMAINS)
    def test_band_factor_matches_reference(self, request, name, ns, nt):
        # K + sigma M on the half mesh, as _HalfStrip factors it
        domain = request.getfixturevalue(name)
        mesh = build_mesh(domain, ns // 2, nt, s_range=(0.0, 0.5 * domain.L))
        (K, M), (K_ref, M_ref) = assemble(mesh), reference_assemble(mesh)
        sigma = 1e-3 * (1.0 + 0.5 * np.sqrt(2.0))
        stencil = Stencil(K.offsets, K.data + sigma * M.data)
        reference = reference_band_factor(K_ref + sigma * M_ref)
        np.testing.assert_array_equal(_BandCholesky(stencil)._factor, reference)
        np.testing.assert_array_equal(_BandCholesky(sparse(K_ref + sigma * M_ref))._factor, reference)

    @pytest.mark.parametrize("ns, nt, half", [(16, 16, False), (256, 16, True), (64, 4, False), (7, 3, True)])
    @pytest.mark.parametrize("name", ["annulus", "wavy", "parabola"])
    def test_column_geometry_matches_pointwise_interp(self, request, name, ns, nt, half):
        domain = request.getfixturevalue(name)
        s_range = (0.0, 0.5 * domain.L if half else domain.L)
        mesh = build_mesh(domain, ns, nt, s_range=s_range)
        weight, metric = pointwise_geometry(domain, ns, nt, s_range)
        np.testing.assert_array_equal(mesh.gauss_weight, weight)
        np.testing.assert_array_equal(mesh.metric, metric)


class TestAnnularSectorOracle:
    """Q1 on annular sectors against the exact Bessel eigenvalues."""

    def test_exact_value_matches_radial_shooting(self):
        exact = annular_sector_mu(-0.5, 0.5, math.pi, 1)
        assert exact == pytest.approx(ANNULUS_EXACT, rel=1e-14)
        assert exact == pytest.approx(ANNULUS_MU1_RADIAL, rel=1e-8)

    def test_annulus_error_is_second_order(self, annulus):
        errors = [solve_mu1_linear(annulus, ns, nt).mu - ANNULUS_EXACT for ns, nt in ((256, 16), (512, 32))]
        assert errors[0] > errors[1] > 0.0
        assert 1.9 <= math.log2(errors[0] / errors[1]) <= 2.1

    def test_wide_sector_winner_is_the_radial_mode(self):
        radial, angular = (annular_sector_mu(-0.2, 3.0, math.pi, n) for n in (0, 1))
        assert radial == pytest.approx(1.162593389, abs=1e-9)
        assert radial < angular
        result = solve_mu1_linear(wide_sector(), 256, 16)
        assert result.parity == "even"
        assert radial < result.mu < radial * (1.0 + 4e-3)


class TestLinearSolver:
    def test_rectangle_eigenvalue(self, rectangle):
        result = solve_mu1_linear(rectangle, ns=128, nt=8)
        assert result.mu == pytest.approx(1.0, rel=1e-3)
        assert result.converged
        assert result.residual < 1e-9

    def test_annulus_against_radial_oracle(self, annulus):
        oracle = radial_oracle(2)
        assert oracle == pytest.approx(ANNULUS_MU1_RADIAL, abs=1e-8)
        result = solve_mu1_linear(annulus, ns=256, nt=16)
        assert result.mu == pytest.approx(ANNULUS_MU1_RADIAL, rel=2e-4)

    def test_conforming_mesh_overestimates(self, annulus):
        coarse = solve_mu1_linear(annulus, ns=64, nt=8)
        fine = solve_mu1_linear(annulus, ns=256, nt=16)
        assert coarse.mu >= fine.mu >= ANNULUS_MU1_RADIAL * (1.0 - 1e-9)

    def test_odd_solver_matches_full(self, annulus):
        # symmetric data: the first nonzero mode is odd, so the half-strip
        # solve must reproduce the full eigenvalue
        full = solve_mu1_linear(annulus, ns=64, nt=8)
        odd = solve_mu1_odd_linear(annulus, ns=64, nt=8)
        assert odd.mu == pytest.approx(full.mu, rel=1e-12)

    def test_odd_solver_rejects_odd_ns(self, annulus):
        with pytest.raises(ValueError):
            solve_mu1_odd_linear(annulus, ns=63, nt=8)

    def test_full_solver_rejects_odd_ns(self, annulus):
        # the full solve runs on the half strip too
        with pytest.raises(ValueError):
            solve_mu1_linear(annulus, ns=63, nt=8)

    def test_converged_means_residual_below_tolerance(self, annulus, monkeypatch):
        result = solve_mu1_linear(annulus, ns=64, nt=8)
        assert result.converged and result.residual <= eig2d.RESIDUAL_TOL
        monkeypatch.setattr(eig2d, "RESIDUAL_TOL", 0.1 * result.residual)
        assert not solve_mu1_linear(annulus, ns=64, nt=8).converged
        assert not solve_mu1_odd_linear(annulus, ns=64, nt=8).converged

    def test_eigenfunction_odd_in_s(self, rectangle):
        result = solve_mu1_linear(rectangle, ns=64, nt=4)
        grid = result.u.reshape(65, 5)
        assert np.max(np.abs(grid + grid[::-1])) < 1e-8 * np.max(np.abs(grid))

    def test_dilation_scaling(self, annulus):
        c = 2.0
        curve = reconstruct_from_curvature(c * math.pi, lambda s: -0.5 / c)
        width = width_profile(c * 0.5, c * math.pi)
        dilated = make_domain(curve, width)
        a = solve_mu1_linear(annulus, ns=96, nt=8)
        b = solve_mu1_linear(dilated, ns=96, nt=8)
        assert b.mu == pytest.approx(a.mu / c**2, rel=1e-9)

    @pytest.mark.parametrize("L, k, odd", [(3.3, 0.3, False), (3.3, -0.4, True)])
    def test_thin_strip_rounding_floor(self, L, k, odd):
        # Width 0.0075: mu settles at a rounding floor where successive
        # values differ by more than 1e-12 relative, so a 1e-12 change test
        # alone never stops.  The shift-inverted Ritz value itself moves by
        # about 5e-10 with the shift here, so the reference is the Rayleigh
        # quotient of eigsh's eigenvector, evaluated like the solver's own.
        domain = make_domain(reconstruct_from_curvature(L, k), width_profile(0.0075, L))
        ns, nt = 256, 16
        if odd:
            result = solve_mu1_odd_linear(domain, ns, nt)
            K, M = half_system(domain, ns, nt)
        else:
            result = solve_mu1_linear(domain, ns, nt)
            K, M = assemble_sparse(build_mesh(domain, ns, nt))
        assert result.converged
        assert result.mu == pytest.approx(eigsh_quotient(K, M, 1 if odd else 2), rel=1e-10)

    @pytest.mark.parametrize("kL", [0.0, 0.3, -0.4])
    @pytest.mark.parametrize("L, width", [(math.pi, 3e-4), (20.0, 3e-4), (20.0, 1e-3)])
    def test_very_thin_strip_reaches_limit(self, L, width, kL):
        # L / width up to 7e4: the Ritz value's rounding noise, about
        # eps max K_ii / M_ii, exceeds INVERSE_FLOOR_TOL mu, and the floor
        # rule must still stop.  On L = 20, width 3e-4 the residual stays
        # above RESIDUAL_TOL but below its rounding level, ritz_floor / mu,
        # and the solve is converged.
        domain = make_domain(reconstruct_from_curvature(L, kL / L), width_profile(width, L))
        limit = solve_discretized(limit_problem(domain, 2.0), n=2048).mu
        for ns, nt in ((64, 16), (256, 16)):
            for solve in (solve_mu1_linear, solve_mu1_odd_linear):
                result = solve(domain, ns, nt)
                assert result.mu == pytest.approx(limit, rel=1e-3)
                assert result.converged

    def test_annulus_matches_eigsh(self, annulus):
        # The band Cholesky factor behind both solves, checked against an
        # independent shift-invert Lanczos on the same matrices.
        ns, nt = 512, 32
        full = solve_mu1_linear(annulus, ns, nt)
        odd = solve_mu1_odd_linear(annulus, ns, nt)
        K, M = assemble_sparse(build_mesh(annulus, ns, nt))
        assert full.mu == pytest.approx(eigsh_quotient(K, M, 2), rel=1e-10)
        K, M = half_system(annulus, ns, nt)
        assert odd.mu == pytest.approx(eigsh_quotient(K, M, 1), rel=1e-10)


# Wide strips on L = pi where an even mode lies below the first odd one.
# The first three are annular sectors or rectangles (k constant); on the
# sector k = -0.2, width 3 the radial mode wins, 1.1626 against 1.6400 for
# the first angular (odd) mode.
WIDE_STRIPS = [
    pytest.param(lambda s: 0.0, 3.5, id="k0-w3.5"),
    pytest.param(lambda s: -0.2, 3.0, id="k-0.2-w3"),
    pytest.param(lambda s: 0.05, 3.5, id="k0.05-w3.5"),
    pytest.param(lambda s: 0.1 * np.cos(2.0 * s), 3.5, id="k0.1cos2s-w3.5"),
]


class TestMirrorParity:
    NS, NT = 256, 16

    @pytest.mark.parametrize("k, width", WIDE_STRIPS)
    def test_wide_strip_matches_full_mesh_eigsh(self, k, width):
        # The half-strip solve by parity against shift-invert Lanczos on the
        # whole strip's K and M: the first nonzero eigenvalue is even here,
        # and the next one (the gap) is the first odd one or the second even.
        domain = make_domain(reconstruct_from_curvature(math.pi, k), width_profile(width, math.pi))
        result = solve_mu1_linear(domain, self.NS, self.NT)
        odd = solve_mu1_odd_linear(domain, self.NS, self.NT)
        K, M = assemble_sparse(build_mesh(domain, self.NS, self.NT))
        assert result.mu == pytest.approx(eigsh_quotient(K, M, 2), rel=1e-10)
        assert result.parity == "even"
        assert result.converged
        assert result.mu < odd.mu
        lowest = np.sort(eigsh(K.tocsc(), k=3, M=M.tocsc(), sigma=-1e-3)[0])
        assert result.gap == pytest.approx(lowest[2] / lowest[1] - 1.0, rel=1e-8)

    def test_even_mode_is_mirror_symmetric(self):
        domain = make_domain(
            reconstruct_from_curvature(math.pi, lambda s: -0.2), width_profile(3.0, math.pi)
        )
        result = solve_mu1_linear(domain, ns=64, nt=4)
        grid = result.u.reshape(65, 5)
        assert result.parity == "even"
        assert np.max(np.abs(grid - grid[::-1])) == 0.0
        K, M = assemble_sparse(build_mesh(domain, 64, 4))
        assert result.u @ (M @ result.u) == pytest.approx(1.0, rel=1e-12)
        assert result.u @ (K @ result.u) == pytest.approx(result.mu, rel=1e-10)

    def test_thin_strip_is_odd_with_gap(self, annulus):
        # cos(pi s / L) wins, and the next mode is the even cos(2 pi s / L)
        # at about four times mu
        result = solve_mu1_linear(annulus, self.NS, self.NT)
        odd = solve_mu1_odd_linear(annulus, self.NS, self.NT)
        assert result.parity == "odd" and odd.parity == "odd"
        assert result.mu == odd.mu
        assert 2.0 < result.gap < 4.0
        assert odd.gap > result.gap


class TestBandCholesky:
    NS, NT = 256, 16

    @pytest.fixture(scope="class")
    def systems(self, annulus):
        K, M = assemble_sparse(build_mesh(annulus, self.NS, self.NT))
        K_red, _ = half_system(annulus, self.NS, self.NT)
        return {"full": (K + 0.5 * M).tocsr(), "odd": K_red}

    @pytest.mark.parametrize("which", ["full", "odd"])
    def test_solve_matches_spsolve(self, systems, which):
        A = systems[which]
        b = np.cos(0.37 * np.arange(A.shape[0]))
        x = _BandCholesky(sparse(A)).solve(b)
        reference = spsolve(A.tocsc(), b)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("which", ["full", "odd"])
    def test_bandwidth_read_from_matrix(self, systems, which):
        assert _BandCholesky(sparse(systems[which])).bandwidth == self.NT + 2

    def test_leading_columns_solve_leading_block(self, systems):
        # Dropping the last column of nodes, as the odd class drops the
        # midline: the factor's first m columns solve the leading m x m block.
        A = systems["full"]
        m = A.shape[0] - (self.NT + 1)
        b = np.cos(0.37 * np.arange(m))
        x = _BandCholesky(sparse(A)).leading(m).solve(b)
        reference = spsolve(A[:m, :m].tocsc(), b)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_indefinite_matrix_is_solve_failure(self, annulus):
        K, M = assemble_sparse(build_mesh(annulus, 64, 16))
        mu1 = solve_mu1_linear(annulus, 64, 16).mu
        with pytest.raises(SolveFailure):
            _BandCholesky(sparse(K - 2.0 * mu1 * M))


class TestNonlinearSolver:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_rectangle_matches_segment_value(self, rectangle, p):
        result = solve_mu1_nonlinear(rectangle, p, ns=96, nt=8)
        exact = (pi_p(p) / math.pi) ** p
        assert result.converged
        assert result.mu == pytest.approx(exact, rel=2e-3)

    def test_p2_consistency_with_linear(self, annulus):
        # p = 2 delegates to the linear solver of the parity, so the
        # results are the same numbers, not merely close ones.
        for odd, linear in ((False, solve_mu1_linear), (True, solve_mu1_odd_linear)):
            lin = linear(annulus, ns=64, nt=8)
            non = solve_mu1_nonlinear(annulus, 2.0, ns=64, nt=8, odd=odd)
            assert non.mu == lin.mu
            np.testing.assert_array_equal(non.u, lin.u)
            assert non.method == lin.method

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_full_is_odd_descent_when_odd_wins(self, annulus, p):
        # The full descent searches the p = 2 winner's class on the half
        # strip; when that class is odd it is the odd descent, mirrored.
        full = solve_mu1_nonlinear(annulus, p, ns=64, nt=16)
        odd = solve_mu1_nonlinear(annulus, p, ns=64, nt=16, odd=True)
        assert full.parity == odd.parity == "odd"
        assert (full.mu, full.residual, full.iterations) == (odd.mu, odd.residual, odd.iterations)
        rows = odd.u.reshape(33, 17)
        np.testing.assert_array_equal(full.u, np.concatenate([rows, -rows[-2::-1]]).ravel())

    # The whole-strip descent's values on the sector k = -0.2, width 3,
    # 64x16, before the descent moved to the half strip.
    WIDE_SECTOR_MU = {1.5: 1.09221381619, 3.0: 1.11510678357}

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_even_class_descent_on_wide_sector(self, p):
        domain = wide_sector()
        full = solve_mu1_nonlinear(domain, p, ns=64, nt=16)
        odd = solve_mu1_nonlinear(domain, p, ns=64, nt=16, odd=True)
        assert full.parity == "even" and full.mu < odd.mu
        grid = full.u.reshape(65, 17)
        np.testing.assert_array_equal(grid, grid[::-1])
        # The even direction lies in the tangent space of the p-mean
        # constraint, so the constraint's shift undoes none of a step and the
        # descent does not stall short of the minimum.
        assert full.converged and full.residual <= 1e-6
        assert full.mu == pytest.approx(self.WIDE_SECTOR_MU[p], abs=1e-5)

    def test_odd_mode(self, annulus):
        full = solve_mu1_nonlinear(annulus, 3.0, ns=64, nt=8)
        odd = solve_mu1_nonlinear(annulus, 3.0, ns=64, nt=8, odd=True)
        assert odd.converged
        assert odd.mu == pytest.approx(full.mu, rel=1e-6)

    @pytest.mark.parametrize("odd", [False, True], ids=["full", "odd"])
    def test_no_accepted_step_is_converged_only_near_critical(self, annulus, monkeypatch, odd):
        # With the gradient's sign flipped every direction points uphill, so
        # every trial of the first line search is rejected, far from a
        # critical point: that is stagnation, not convergence.
        original = eig2d._p_rayleigh_grad
        monkeypatch.setattr(eig2d, "_p_rayleigh_grad", lambda *args: -original(*args))
        monkeypatch.setattr(eig2d, "_slot", None)
        result = solve_mu1_nonlinear(annulus, 3.0, ns=64, nt=16, odd=odd)
        assert result.iterations == 1
        assert result.residual > eig2d.RESIDUAL_TOL
        assert not result.converged
        monkeypatch.setattr(eig2d, "_slot", None)
        monkeypatch.setattr(eig2d, "RESIDUAL_TOL", 2.0 * result.residual)
        assert solve_mu1_nonlinear(annulus, 3.0, ns=64, nt=16, odd=odd).converged

    def test_narrower_strip_approaches_segment_value(self, annulus):
        # constant width and curvature: the thin limit weight is constant,
        # so mu drifts toward (pi_p / L)^p as the strip narrows
        p = 1.5
        limit = (pi_p(p) / math.pi) ** p
        a = solve_mu1_nonlinear(annulus, p, ns=64, nt=8)
        b = solve_mu1_nonlinear(scale_width(annulus, 0.5), p, ns=64, nt=8)
        assert abs(b.mu - limit) < abs(a.mu - limit)


class TestReweightedDescent:
    """The descent preconditioned by K_H + sigma M: the stiffness with the
    tensor H = w w_hat (G + (p - 2) a a^T / E_f) at each Gauss point,
    w_hat = (E_f / max E)^(p/2 - 1) and a = G grad u, factored anew when a
    log-weight log w_hat moves by more than log 1.5."""

    @pytest.fixture(scope="class")
    def half_mesh(self, wavy):
        mesh = build_mesh(wavy, 8, 6, s_range=(0.0, 0.5 * wavy.L))
        return mesh, *assemble(mesh)

    def test_unit_weight_gives_the_shifted_stiffness(self, half_mesh):
        # The tensor w G is assemble's integrand, so K_H is assemble's K.
        mesh, K, M = half_mesh
        band = eig2d._weighted_band(mesh, metric_tensor(mesh), eig2d._upper_band(M), 0.25)
        expected = eig2d._upper_band(Stencil(K.offsets, K.data + 0.25 * M.data))
        assert band.flags.f_contiguous
        np.testing.assert_allclose(band, expected, rtol=0.0, atol=1e-14 * np.abs(expected).max())

    def test_weight_multiplies_the_gauss_weights(self, half_mesh):
        # A scalar weight on w G is assemble's K on the mesh whose Gauss
        # weights carry the weight.
        mesh, _, M = half_mesh
        weight = np.exp(np.random.default_rng(5).normal(size=mesh.gauss_weight.shape))
        K_w, _ = assemble(dataclasses.replace(mesh, gauss_weight=mesh.gauss_weight * weight))
        band = eig2d._weighted_band(mesh, metric_tensor(mesh, weight), eig2d._upper_band(M), 0.0)
        expected = eig2d._upper_band(K_w)
        np.testing.assert_allclose(band, expected, rtol=0.0, atol=1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("ns, nt", [(16, 16), (64, 4), (16, 1)])
    def test_band_matches_coo_scatter(self, wavy, ns, nt):
        # K_H from its definition, rank-one term included, placed straight
        # into the LAPACK upper band through conn, cell by cell: a COO
        # reference that never forms a Stencil or a tensor table.  u is
        # nearly constant on the first column of cells, whose energies are
        # floored.
        p = 3.0
        mesh = build_mesh(wavy, ns // 2, nt, s_range=(0.0, 0.5 * wavy.L))
        _, M = assemble(mesh)
        m_band = eig2d._upper_band(M)
        u = parity_vector(mesh, wavy.L, "odd", seed=11)
        u[: 2 * (nt + 1)] = 0.5 + 1e-6 * u[: 2 * (nt + 1)]
        expected = np.zeros_like(m_band)
        grads = np.einsum("gax,ca->cgx", mesh.shape_grad, u[mesh.conn])
        energy = np.einsum("cgx,cgxy,cgy->cg", grads, mesh.metric, grads)
        floored = np.maximum(energy, eig2d.WEIGHT_FLOOR * energy.max())
        bandwidth = nt + 2
        for c, cell in enumerate(mesh.conn):
            for g in range(4):
                G, a = mesh.metric[c, g], mesh.metric[c, g] @ grads[c, g]
                w_hat = (floored[c, g] / energy.max()) ** (0.5 * p - 1.0)
                H = mesh.gauss_weight[c, g] * w_hat * (G + (p - 2.0) * np.outer(a, a) / floored[c, g])
                dN = mesh.shape_grad[g]
                for i, j in eig2d._UPPER_PAIRS:
                    row, col = min(cell[i], cell[j]), max(cell[i], cell[j])
                    expected[bandwidth + row - col, col] += dN[i] @ H @ dN[j]
        expected += 0.3 * m_band
        assert (energy < eig2d.WEIGHT_FLOOR * energy.max()).any()
        band = eig2d._weighted_band(mesh, descent_tensor(mesh, u, p)[0], m_band, 0.3)
        np.testing.assert_allclose(band, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("p", [1.1, 1.5, 8.0])
    def test_tensor_is_definite(self, wavy, p):
        # v . H v >= min(1, p - 1) w w_hat v . G v at every Gauss point,
        # also where the energy is floored (a constant patch of u).
        mesh = build_mesh(wavy, 16, 8, s_range=(0.0, 0.5 * wavy.L))
        u = parity_vector(mesh, wavy.L, "odd", seed=7)
        u[:27] = 0.5
        tensor, log_w, energy = descent_tensor(mesh, u, p)
        H = np.moveaxis(tensor, 3, 1)  # (cells, g, x, y)
        lowest = np.linalg.eigvalsh(H)[..., 0]
        bound = min(1.0, p - 1.0) * mesh.gauss_weight * np.exp(log_w) * np.linalg.eigvalsh(mesh.metric)[..., 0]
        assert (energy <= eig2d.WEIGHT_FLOOR * energy.max()).any()
        assert np.all(lowest >= bound * (1.0 - 1e-12))

    def test_refactors_only_when_a_log_weight_moves(self, wavy, monkeypatch, empty_slot):
        # At p < 2 the rank-one term lowers H along a alone, so w_hat is the
        # larger eigenvalue of (w G)^-1 H: the log-weight read back from the
        # tensor.
        logs = []
        original = eig2d._weighted_band

        def recorded(mesh, tensor, *args):
            H = np.moveaxis(tensor, 3, 1)
            scaled = np.linalg.solve(mesh.gauss_weight[..., None, None] * mesh.metric, H)
            logs.append(np.log(np.linalg.eigvals(scaled).real.max(axis=-1)))
            return original(mesh, tensor, *args)

        monkeypatch.setattr(eig2d, "_weighted_band", recorded)
        result = solve_mu1_nonlinear(wavy, 1.5, ns=32, nt=8, odd=True)
        assert result.converged and result.residual <= eig2d.DESCENT_TOL
        assert 1 < len(logs) < result.iterations
        for old, new in zip(logs, logs[1:]):
            assert np.max(np.abs(new - old)) > eig2d.REFACTOR_LOG_MOVE

    # The odd class of configs/rectangle.json at 256 x 16, against its exact
    # value (pi_p / L)^p.  Below p = 1.5 the descent still stalls above the
    # tolerance, near the right mu: at p = 1.2 it stops at residual 0.2.
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0, 16.0])
    def test_rectangle_ladder(self, p):
        result = solve_mu1_nonlinear(config_strip("rectangle"), p, 256, 16, odd=True)
        assert result.mu == pytest.approx((pi_p(p) / math.pi) ** p, rel=2e-4)
        half = eig2d._slot[1]
        tol = max(eig2d.RESIDUAL_TOL, half.ritz_floor / half.result(2.0, "odd").mu)
        assert result.converged == (result.residual <= tol)
        if p >= 1.5:
            assert result.converged and result.residual <= eig2d.DESCENT_TOL

    @pytest.mark.parametrize("config, p, ns", [("rectangle", 1.2, 512), ("annulus", 1.2, 64)])
    def test_stalled_descent_is_converged_only_at_a_small_residual(self, monkeypatch, config, p, ns):
        # Both stop on the stall or collapse rule above RESIDUAL_TOL.  The
        # rectangle's mu is within 1e-5 of exact all the same.
        domain = config_strip(config)
        monkeypatch.setattr(eig2d, "_slot", None)
        result = solve_mu1_nonlinear(domain, p, ns, 16)
        assert result.iterations < eig2d.DESCENT_MAX_ITER
        assert result.residual > eig2d.RESIDUAL_TOL
        assert not result.converged
        if config == "rectangle":
            assert result.mu == pytest.approx((pi_p(p) / math.pi) ** p, rel=1e-5)
        monkeypatch.setattr(eig2d, "_slot", None)
        monkeypatch.setattr(eig2d, "RESIDUAL_TOL", 2.0 * result.residual)
        assert solve_mu1_nonlinear(domain, p, ns, 16).converged

    def test_step_cap_is_never_converged(self, wavy, monkeypatch):
        # The step cap is no stop rule: a descent it cuts off is not
        # converged, whatever the tolerance.
        monkeypatch.setattr(eig2d, "RESIDUAL_TOL", np.inf)
        monkeypatch.setattr(eig2d, "DESCENT_MAX_ITER", 2)
        monkeypatch.setattr(eig2d, "_slot", None)
        result = solve_mu1_nonlinear(wavy, 1.5, ns=32, nt=8, odd=True)
        assert result.iterations == 2 and not result.converged


def result_fields(result):
    """Every field of a strip result, arrays as their bytes."""
    fields = dict(vars(result))
    fields["u"] = result.u.tobytes()
    fields["mesh"] = {name: a.tobytes() for name, a in vars(result.mesh).items()}
    return fields


# Strips where the odd class wins (wavy) and where the even class wins.
MEMO_STRIPS = [
    pytest.param("wavy", (32, 8), id="wavy"),
    pytest.param("wide", (64, 16), id="wide-sector"),
]


class TestKeptHalfStrip:
    """The latest half strip is kept with its class solves and descents."""

    @pytest.fixture
    def strips(self, wavy):
        return {"wavy": wavy, "wide": wide_sector()}

    @pytest.mark.parametrize("first_odd", [False, True], ids=["full-then-odd", "odd-then-full"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("name, mesh", MEMO_STRIPS)
    def test_pair_matches_solves_from_empty_slot(self, strips, monkeypatch, name, mesh, p, first_odd):
        domain = strips[name]

        def solve(odd):
            return result_fields(solve_mu1_nonlinear(domain, p, *mesh, odd=odd))

        fresh = {}
        for odd in (False, True):
            monkeypatch.setattr(eig2d, "_slot", None)
            fresh[odd] = solve(odd)
        monkeypatch.setattr(eig2d, "_slot", None)
        kept = {odd: solve(odd) for odd in (first_odd, not first_odd)}
        assert kept == fresh

    @pytest.mark.parametrize("name, mesh", MEMO_STRIPS)
    def test_one_factor_class_solve_and_descent_each(self, strips, monkeypatch, empty_slot, name, mesh):
        # Full and odd at p = 2, 3 and 4 on one strip and mesh: one p = 2
        # band factor, one p = 2 solve per class, one descent per (p, class).
        # The descents' reweighted factors (_BandCholesky.of_band) are their own.
        domain = strips[name]
        calls = {"factor": 0, "class": 0, "descent": 0}

        class Counted(eig2d._BandCholesky):
            def __init__(self, A):
                calls["factor"] += 1
                super().__init__(A)

        def counting(key, original):
            def counted(*args):
                calls[key] += 1
                return original(*args)

            return counted

        monkeypatch.setattr(eig2d, "_BandCholesky", Counted)
        monkeypatch.setattr(
            eig2d._HalfStrip, "_inverse_iteration",
            counting("class", eig2d._HalfStrip._inverse_iteration),
        )
        monkeypatch.setattr(eig2d, "_descent", counting("descent", eig2d._descent))
        parities = set()
        for p in (2.0, 3.0, 4.0):
            for odd in (False, True):
                parities.add(solve_mu1_nonlinear(domain, p, *mesh, odd=odd).parity)
        assert calls == {"factor": 1, "class": 2, "descent": 2 * len(parities)}

    def test_same_content_is_kept_different_width_or_mesh_is_not(self, wavy, monkeypatch, empty_slot):
        built = []

        class Counted(eig2d._BandCholesky):
            def __init__(self, A):
                built.append(A.data.shape[1])
                super().__init__(A)

        monkeypatch.setattr(eig2d, "_BandCholesky", Counted)
        same = make_domain(wavy.curve, wavy.width)  # another object, the same samples
        wider = scale_width(wavy, 1.0 + 1e-12)
        runs = [(wavy, 32), (same, 32), (wider, 32), (wider, 32), (wider, 48), (wavy, 32)]
        for domain, ns in runs:
            solve_mu1_odd_linear(domain, ns, 8)
        assert len(built) == 4

    @pytest.mark.parametrize("odd", [False, True], ids=["full", "odd"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("name, mesh", MEMO_STRIPS)
    def test_result_contract(self, strips, name, mesh, p, odd):
        domain = strips[name]
        ns, nt = mesh
        result = solve_mu1_nonlinear(domain, p, ns, nt, odd=odd)
        methods = {
            (2.0, False): "linear", (2.0, True): "linear-odd",
            (3.0, False): "descent", (3.0, True): "descent-odd",
        }
        assert result.method == methods[p, odd]
        winner = {"wavy": "odd", "wide": "even"}[name]
        assert result.parity == ("odd" if odd else winner)
        assert (result.gap is None) == (p != 2.0)
        whole = build_mesh(domain, ns, nt)
        assert len(result.u) == ((ns // 2 + 1) * (nt + 1) if odd else whole.n_nodes)
        if p == 2.0 and not odd:
            M = assemble_sparse(whole)[1]
            assert float(result.u @ (M @ result.u)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p, odd", [(2.0, False), (2.0, True), (3.0, False), (3.0, True)])
    def test_returned_u_is_the_callers(self, wavy, p, odd):
        first = solve_mu1_nonlinear(wavy, p, 32, 8, odd=odd)
        u = first.u.copy()
        first.u[:] = 7.0
        again = solve_mu1_nonlinear(wavy, p, 32, 8, odd=odd)
        np.testing.assert_array_equal(again.u, u)

    def test_kept_arrays_are_read_only(self, wavy):
        result = solve_mu1_linear(wavy, 32, 8)
        for array in vars(result.mesh).values():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_solve_failure_is_not_kept(self, wavy, monkeypatch, empty_slot):
        limit = eig2d.INVERSE_MAX_ITER
        monkeypatch.setattr(eig2d, "INVERSE_MAX_ITER", 1)
        with pytest.raises(SolveFailure):
            solve_mu1_odd_linear(wavy, 32, 8)
        monkeypatch.setattr(eig2d, "INVERSE_MAX_ITER", limit)
        result = solve_mu1_odd_linear(wavy, 32, 8)
        assert result.converged and result.iterations > 1


def config_strip(name):
    return build_domain(load_config(CONFIG_DIR / f"{name}.json", command="solve2d"))


def class_solves(domain, ns, nt):
    """Both p = 2 class results on a fresh half strip, and the half strip."""
    eig2d._slot = None
    half = eig2d._half_strip(domain, ns, nt)
    return {c: half.result(2.0, c) for c in ("even", "odd")}, half


class TestTwoLevelStart:
    """Half strips of at least _COARSE_MIN_NODES nodes start their p = 2
    class solves from a coarse half strip's Ritz vectors."""

    MESH = (512, 32)  # 8481 half-mesh nodes

    @pytest.fixture(autouse=True)
    def restore_slot(self, monkeypatch):
        monkeypatch.setattr(eig2d, "_slot", None)

    def test_benchmark_meshes_straddle_the_threshold(self):
        def nodes(ns, nt):
            return (ns // 2 + 1) * (nt + 1)

        assert nodes(256, 16) < eig2d._COARSE_MIN_NODES <= nodes(*self.MESH)

    @pytest.mark.parametrize("name", ["annulus", "wide_sector", "wavy_sweep", "thin_strip"])
    def test_matches_the_analytic_start(self, monkeypatch, name):
        # The same eigenvalue from either start.  On the thin strip
        # (L / width = 2e4) each class stops at its rounding floor, so the
        # two starts agree to that level, ritz_floor / mu (1e-5 here), not
        # to 1e-12.  The second Ritz value is an upper estimate, which the
        # prolonged second vector makes no worse.
        domain = config_strip(name)
        two, half = class_solves(domain, *self.MESH)
        assert half._coarse is not None
        full = solve_mu1_linear(domain, *self.MESH)
        monkeypatch.setattr(eig2d, "_COARSE_MIN_NODES", math.inf)
        one, analytic = class_solves(domain, *self.MESH)
        assert analytic._coarse is None
        reference = solve_mu1_linear(domain, *self.MESH)
        assert (full.parity, full.converged) == (reference.parity, True)
        for parity in ("even", "odd"):
            a, b = one[parity], two[parity]
            rel = max(1e-12, half.ritz_floor / a.mu if name == "thin_strip" else 0.0)
            assert b.mu == pytest.approx(a.mu, rel=rel)
            assert b.next_mu <= a.next_mu * (1.0 + rel)
            assert b.residual <= max(eig2d.RESIDUAL_TOL, half.ritz_floor / b.mu)
            if name != "thin_strip":
                assert b.residual <= eig2d.RESIDUAL_TOL
                assert b.iterations < a.iterations

    def test_results_do_not_depend_on_earlier_solves(self, wavy, annulus):
        def solve():
            return [result_fields(solver(wavy, *self.MESH)) for solver in (solve_mu1_linear, solve_mu1_odd_linear)]

        fresh = solve()
        for domain, mesh in ((annulus, self.MESH), (wavy, (256, 16)), (wavy, (768, 48)), (annulus, (128, 8))):
            solve_mu1_linear(domain, *mesh)
        assert solve() == fresh

    @pytest.mark.parametrize("mesh, sizes", [((256, 16), [2193]), ((512, 32), [8481, 585])])
    def test_one_kept_factor_and_one_transient_coarse_factor(self, wavy, monkeypatch, mesh, sizes):
        built, strips = [], []

        class Counted(eig2d._BandCholesky):
            def __init__(self, A):
                built.append(A.data.shape[1])
                super().__init__(A)

        class Tracked(eig2d._HalfStrip):
            def __init__(self, *args):
                strips.append(weakref.ref(self))
                super().__init__(*args)

        monkeypatch.setattr(eig2d, "_BandCholesky", Counted)
        monkeypatch.setattr(eig2d, "_HalfStrip", Tracked)
        for p in (2.0, 3.0):
            for odd in (False, True):
                solve_mu1_nonlinear(wavy, p, *mesh, odd=odd)
        assert built == sizes
        gc.collect()
        kept = eig2d._slot[1]
        assert eig2d._slot[0][:2] == mesh and kept.mesh.n_nodes == sizes[0]
        assert [ref() for ref in strips] == [kept] + [None] * (len(sizes) - 1)

    def test_failed_coarse_level_is_the_analytic_start(self, wavy, monkeypatch):
        def solve():
            return [result_fields(solver(wavy, *self.MESH)) for solver in (solve_mu1_linear, solve_mu1_odd_linear)]

        threshold = eig2d._COARSE_MIN_NODES
        monkeypatch.setattr(eig2d, "_COARSE_MIN_NODES", math.inf)
        analytic = solve()
        monkeypatch.setattr(eig2d, "_COARSE_MIN_NODES", threshold)
        inverse_iteration = eig2d._HalfStrip._inverse_iteration
        coarse_calls = []

        def failing(half, parity):
            if half.mesh.n_nodes < eig2d._COARSE_MIN_NODES:
                coarse_calls.append(parity)
                raise SolveFailure("coarse level made to fail")
            return inverse_iteration(half, parity)

        monkeypatch.setattr(eig2d, "_slot", None)
        monkeypatch.setattr(eig2d._HalfStrip, "_inverse_iteration", failing)
        fallback = solve()
        assert coarse_calls == ["even"]
        assert eig2d._slot[1]._coarse is None
        assert fallback == analytic

    @pytest.mark.parametrize("cells", [(4, 2), (3, 5), (8, 8), (13, 7)])
    def test_interpolation_is_exact_on_bilinear_fields(self, cells):
        # From a 5 x 3 node grid on [0, 1]^2, to cells[0] x cells[1] cells.
        def field(s, t):
            return 1.0 - 2.0 * s + 3.0 * t + 0.5 * s * t

        s, t = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3), indexing="ij")
        coarse = np.stack([field(s, t), -field(s, t)])
        fine = eig2d._interpolate(eig2d._interpolate(coarse, cells[0], 1), cells[1], 2)
        s, t = np.meshgrid(*(np.linspace(0.0, 1.0, n + 1) for n in cells), indexing="ij")
        np.testing.assert_allclose(fine, np.stack([field(s, t), -field(s, t)]), rtol=0, atol=1e-14)
        # the end nodes are copied, so an odd vector's zero midline stays zero
        coarse[:, -1] = 0.0
        fine = eig2d._interpolate(eig2d._interpolate(coarse, cells[0], 1), cells[1], 2)
        assert not fine[:, -1].any()


def loop_quotient(mesh, u, p):
    """Numerator and denominator of the p-quotient, one cell and Gauss point at a time."""
    num = den = 0.0
    for c, cell in enumerate(mesh.conn):
        ue = u[cell]
        for g in range(len(mesh.shape)):
            grad = mesh.shape_grad[g].T @ ue
            energy = grad @ mesh.metric[c, g] @ grad
            w = mesh.gauss_weight[c, g]
            num += w * energy ** (0.5 * p)
            den += w * abs(mesh.shape[g] @ ue) ** p
    return num, den


def reference_quotient(mesh, u, p):
    """_p_rayleigh as first written: the metric read through
    mesh.metric[..., i, j] and each sum taken by np.sum."""
    U = u[mesh.conn]
    gs, gt = U @ mesh.shape_grad[:, :, 0].T, U @ mesh.shape_grad[:, :, 1].T
    ug = U @ mesh.shape.T
    G = mesh.metric
    energy = (
        gs * G[..., 0, 0] * gs + gs * G[..., 0, 1] * gt + gt * G[..., 1, 0] * gs + gt * G[..., 1, 1] * gt
    )
    energy = np.maximum(energy, eig2d.ENERGY_FLOOR)
    num = float(np.sum(mesh.gauss_weight * energy ** (0.5 * p)))
    den = float(np.sum(mesh.gauss_weight * np.abs(ug) ** p))
    return num, den, (gs, gt), energy, ug


def reference_gradient(mesh, p, num, den, grad, energy, ug):
    """_p_rayleigh_grad as first written, like reference_quotient."""
    gs, gt = grad
    G = mesh.metric
    s1 = mesh.gauss_weight * energy ** (0.5 * p - 1.0)
    s2 = mesh.gauss_weight * np.abs(ug) ** (p - 1.0) * np.sign(ug)
    flux_s = s1 * (G[..., 0, 0] * gs + G[..., 0, 1] * gt)
    flux_t = s1 * (G[..., 1, 0] * gs + G[..., 1, 1] * gt)
    dN = mesh.shape_grad
    cells = flux_s @ dN[:, :, 0] + flux_t @ dN[:, :, 1] - (num / den) * (s2 @ mesh.shape)
    return p * np.bincount(mesh.conn.ravel(), cells.ravel(), minlength=mesh.n_nodes) / den


# (mesh, p) pairs for the quotient checks; full-mesh cases keep the bare p
# as their id.
QUOTIENT_CASES = [
    pytest.param(kind, p, id=str(p) if kind == "full" else f"{kind}-{p}")
    for kind in ("full", "odd-half")
    for p in (1.5, 3.0, 4.0)
]


def traced_descent(monkeypatch, domain, p, mesh, odd, tol):
    """A solve from an empty slot at eig2d.DESCENT_TOL = tol, and its
    p-quotient calls in order: a quotient's vector, or None for a gradient.
    The patches are undone on return."""
    monkeypatch.setattr(eig2d, "_slot", None)
    monkeypatch.setattr(eig2d, "DESCENT_TOL", tol)
    events = []
    for name in ("_p_rayleigh", "_p_rayleigh_grad"):
        original = getattr(eig2d, name)

        def recorded(*args, _name=name, _original=original):
            events.append(args[1].copy() if _name == "_p_rayleigh" else None)
            return _original(*args)

        monkeypatch.setattr(eig2d, name, recorded)
    result = solve_mu1_nonlinear(domain, p, *mesh, odd=odd)
    monkeypatch.undo()
    return result, events


def metric_tensor(mesh, weight=1.0):
    """weight w G in _weighted_band's (cells, x, y, g) layout."""
    return np.moveaxis(mesh.metric, 1, 3) * (weight * mesh.gauss_weight)[:, None, None, :]


def descent_tensor(mesh, u, p):
    """_second_variation at u, the log-weight the descent gives it, and
    the Gauss-point energy."""
    _, _, grad, energy, _ = _p_rayleigh(mesh, u, p)
    log_w = (0.5 * p - 1.0) * np.log(np.maximum(energy / energy.max(), eig2d.WEIGHT_FLOOR))
    return eig2d._second_variation(mesh, p, grad, energy, log_w), log_w, energy


class TestPQuotient:
    """The p-quotient on a curved, variable-width strip, on the full mesh
    and on the odd half mesh."""

    @pytest.fixture(scope="class")
    def mesh_and_u(self, wavy, request):
        if request.param == "full":
            mesh = build_mesh(wavy, 16, 8)
        else:
            mesh = build_mesh(wavy, 8, 8, s_range=(0.0, 0.5 * wavy.L))
        rng = np.random.default_rng(7)
        u = np.cos(np.pi * mesh.node_s / wavy.L) + 0.2 * rng.normal(size=mesh.n_nodes)
        return mesh, u

    @pytest.mark.parametrize("mesh_and_u, p", QUOTIENT_CASES, indirect=["mesh_and_u"])
    def test_value_matches_cell_loop(self, mesh_and_u, p):
        mesh, u = mesh_and_u
        num, den, *_ = _p_rayleigh(mesh, u, p)
        ref_num, ref_den = loop_quotient(mesh, u, p)
        assert num == pytest.approx(ref_num, rel=1e-12)
        assert den == pytest.approx(ref_den, rel=1e-12)

    @pytest.mark.parametrize("mesh_and_u, p", QUOTIENT_CASES, indirect=["mesh_and_u"])
    def test_gradient_matches_central_differences(self, mesh_and_u, p):
        mesh, u = mesh_and_u

        def quotient(vec):
            num, den, *_ = _p_rayleigh(mesh, vec, p)
            return num / den

        grad = _p_rayleigh_grad(mesh, p, *_p_rayleigh(mesh, u, p))
        h = 1e-6
        fd = np.empty(mesh.n_nodes)
        for i in range(mesh.n_nodes):
            e = np.zeros(mesh.n_nodes)
            e[i] = h
            fd[i] = (quotient(u + e) - quotient(u - e)) / (2.0 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("mesh_and_u, p", QUOTIENT_CASES, indirect=["mesh_and_u"])
    def test_change_keeps_its_digits(self, mesh_and_u, p):
        # On a step of 1e-3 the change from differences is the difference of
        # the two quotients; on a step of 1e-12, where that difference has
        # kept about 4 digits, it is the first-order change grad . (c - u)
        # to 1e-7.
        mesh, u = mesh_and_u
        at_u = _p_rayleigh(mesh, u, p)
        grad = _p_rayleigh_grad(mesh, p, *at_u)
        direction = np.random.default_rng(13).normal(size=mesh.n_nodes)
        for h in (1e-3, 1e-12):
            cand = u + h * direction
            at_cand = _p_rayleigh(mesh, cand, p)
            change = eig2d._quotient_change(mesh, p, u, cand, at_u, at_cand)
            if h == 1e-3:
                rounded = at_cand[0] / at_cand[1] - at_u[0] / at_u[1]
                assert change == pytest.approx(rounded, rel=1e-9)
            else:
                assert change == pytest.approx(grad @ (cand - u), rel=1e-7)

    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
    def test_rejects_exponent_outside_one_to_infinity(self, wavy, p):
        with pytest.raises(BadExponent, match="p must exceed 1 and be finite"):
            solve_mu1_nonlinear(wavy, p, ns=32, nt=8)

    def test_gradient_only_at_accepted_iterates(self, wavy, monkeypatch, empty_slot):
        # A backtracking candidate the line search rejects needs only its
        # quotient value: the gradient runs once at the start and once per
        # accepted step.
        calls = {"_p_rayleigh": 0, "_p_rayleigh_grad": 0}
        for name in calls:
            original = getattr(eig2d, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(eig2d, name, counted)
        result = solve_mu1_nonlinear(wavy, 1.5, ns=32, nt=8)
        assert calls["_p_rayleigh_grad"] <= result.iterations + 1
        assert calls["_p_rayleigh_grad"] < calls["_p_rayleigh"]

    @pytest.mark.parametrize(
        "strip, p, odd",
        [("wavy", 1.5, True), ("wide", 3.0, True), ("wide", 1.5, False), ("wide", 3.0, False)],
        ids=["wavy-1.5-odd", "wide-3-odd", "wide-1.5-even", "wide-3-even"],
    )
    def test_line_search_ends_once_step_collapses(self, wavy, monkeypatch, strip, p, odd):
        # Once u - trial * d rounds to u, every shorter step gives the same
        # candidate again, so the search ends there rather than after 40
        # halvings.  An odd iterate is its own projection, so in the odd
        # class that candidate is the iterate itself, and the quotient is
        # never evaluated after it.  The even projection moves the iterate
        # by a p-mean shift; there the last search is only seen to end early.
        # The residual stop is switched off, so the descent goes on to that
        # collapse.
        domain = wavy if strip == "wavy" else wide_sector()
        result, events = traced_descent(monkeypatch, domain, p, (32, 8), odd, tol=0.0)
        assert result.parity == ("odd" if odd else "even")
        # The start's quotient and gradient, then one line search per step:
        # its candidates, and a gradient (None) after an accepted one.
        assert events[1] is None
        iterate, candidates, searches = events[0], [], []
        for vec in events[2:]:
            if vec is None:
                searches.append((iterate, candidates))
                iterate, candidates = candidates[-1], []
            else:
                candidates.append(vec)
        assert 0 < len(candidates) < 40
        if odd:
            for u, cands in searches:
                assert not any(np.array_equal(c, u) for c in cands)
            hits = [k for k, c in enumerate(candidates) if np.array_equal(c, iterate)]
            assert hits == [len(candidates) - 1]

    @pytest.mark.parametrize(
        "strip, p, odd",
        [("wavy", 1.5, True), ("wavy", 3.0, True), ("wide", 3.0, False)],
        ids=["wavy-1.5-odd", "wavy-3-odd", "wide-3-even"],
    )
    def test_descent_stops_at_residual_tolerance(self, wavy, monkeypatch, strip, p, odd):
        # The descent stops on the first accepted step whose residual is at
        # most DESCENT_TOL, short of the line search that collapses onto the
        # iterate, and the steps it leaves out move mu by rounding only.
        domain = wavy if strip == "wavy" else wide_sector()
        stopped, events = traced_descent(monkeypatch, domain, p, (32, 8), odd, eig2d.DESCENT_TOL)
        unstopped, unstopped_events = traced_descent(monkeypatch, domain, p, (32, 8), odd, 0.0)
        assert stopped.parity == unstopped.parity == ("odd" if odd else "even")
        assert stopped.converged and stopped.residual <= eig2d.DESCENT_TOL
        # An accepted step ends with its gradient; a search that accepts
        # nothing ends with a quotient.
        assert events[-1] is None and unstopped_events[-1] is not None
        quotients = sum(e is not None for e in events)
        assert quotients < sum(e is not None for e in unstopped_events)
        assert stopped.mu == pytest.approx(unstopped.mu, rel=1e-12)

    def test_descent_short_of_tolerance_is_unchanged(self, monkeypatch):
        # On the rectangle at p = 1.2 the descent never reaches DESCENT_TOL,
        # so its result is the one without the residual stop, bit for bit.
        domain = config_strip("rectangle")
        stopped, _ = traced_descent(monkeypatch, domain, 1.2, (512, 16), False, eig2d.DESCENT_TOL)
        unstopped, _ = traced_descent(monkeypatch, domain, 1.2, (512, 16), False, 0.0)
        assert stopped.residual > eig2d.DESCENT_TOL
        assert (stopped.mu, stopped.residual, stopped.iterations, stopped.converged) == (
            unstopped.mu, unstopped.residual, unstopped.iterations, unstopped.converged,
        )
        np.testing.assert_array_equal(stopped.u, unstopped.u)

    @pytest.mark.parametrize("odd", [False, True], ids=["full", "odd"])
    def test_preconditioned_step_is_mostly_accepted(self, wavy, monkeypatch, empty_slot, odd):
        # The Barzilai-Borwein step is taken in the preconditioner's inner
        # product, so the line search rarely backtracks: at most two
        # quotient values per accepted step, where a step in the Euclidean
        # inner product needs 5.4 (full) and 5.6 (odd) on this strip.
        calls = 0
        original = eig2d._p_rayleigh

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(eig2d, "_p_rayleigh", counted)
        result = solve_mu1_nonlinear(wavy, 1.5, ns=32, nt=8, odd=odd)
        assert result.converged
        assert calls <= 2 * result.iterations
        if not odd:
            assert result.mu == pytest.approx(0.735501923927, rel=1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_full_strip_not_above_odd(self, wavy, p):
        # the odd space is part of the full one
        full = solve_mu1_nonlinear(wavy, p, ns=32, nt=8)
        odd = solve_mu1_nonlinear(wavy, p, ns=32, nt=8, odd=True)
        assert full.mu <= odd.mu * (1.0 + 1e-6)


def kernel_mesh(kind, wavy, annulus):
    """A mesh of the kernel checks."""
    if kind == "wavy-whole":
        return build_mesh(wavy, 16, 8)
    domain = wavy if kind == "wavy-half" else annulus
    nt = 8 if kind == "wavy-half" else 16
    return build_mesh(domain, 8, nt, s_range=(0.0, 0.5 * domain.L))


def parity_vector(mesh, L, parity, seed=3):
    """A smooth mode of the parity plus noise of the same parity about
    s = L/2; on a half mesh an odd vector is zero on the midline."""
    rng = np.random.default_rng(seed)
    column = int(np.sum(mesh.node_s == 0.0))  # nodes are numbered t-fastest
    noise = rng.normal(size=(mesh.n_nodes // column, column))
    s = mesh.node_s / L
    half = mesh.node_s[-1] < L - 1e-12 * L
    if parity == "odd":
        noise = noise if half else noise - noise[::-1]
        u = np.cos(np.pi * s) + 0.2 * noise.ravel()
        if half:
            u[-noise.shape[1]:] = 0.0
    else:
        u = np.cos(2.0 * np.pi * s) + 0.2 * (noise if half else noise + noise[::-1]).ravel()
    return u


class TestQuotientKernel:
    """The quotient and its gradient read the mesh's own tables and keep
    every bit of the formulas as first written."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("kind", ["wavy-whole", "wavy-half", "annulus-half-16x16"])
    def test_bit_identical_to_reference(self, wavy, annulus, kind, parity, p):
        mesh = kernel_mesh(kind, wavy, annulus)
        u = parity_vector(mesh, math.pi, parity)
        got, want = _p_rayleigh(mesh, u, p), reference_quotient(mesh, u, p)
        assert got[:2] == want[:2]
        for a, b in zip((*got[2], *got[3:]), (*want[2], *want[3:])):
            np.testing.assert_array_equal(a, b, strict=True)
        np.testing.assert_array_equal(
            _p_rayleigh_grad(mesh, p, *got), reference_gradient(mesh, p, *want), strict=True
        )

    def test_tables_come_with_the_descent_alone(self, wavy, monkeypatch, empty_slot):
        # A p = 2 solve builds no quotient table, on the mesh or on its
        # transient coarse level; a descent builds them read-only.
        strips = []
        init = eig2d._HalfStrip.__init__

        def recorded(self, *args):
            init(self, *args)
            strips.append(self)

        monkeypatch.setattr(eig2d._HalfStrip, "__init__", recorded)
        fields = {field.name for field in dataclasses.fields(eig2d.Mesh2D)}
        solve_mu1_linear(wavy, 512, 32)
        assert len(strips) == 2  # the fine half strip and its coarse level
        for half in strips:
            assert set(vars(half.mesh)) == fields
        mesh = solve_mu1_nonlinear(wavy, 3.0, 32, 8).mesh
        assert set(vars(mesh)) > fields
        for array in vars(mesh).values():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
