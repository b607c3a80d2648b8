"""Thin-width limit of the strip eigenvalue.

Shrinking the width profile by a factor eps sends the first nonzero
Neumann eigenvalue of the strip to the first nonzero eigenvalue of the
one-dimensional problem weighted by the width.  The sweep measures that
convergence, fits its rate, evaluates the certification threshold along
the way, and bounds each strip eigenvalue from above through the
one-dimensional minimizer transplanted back onto the strip.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .analysis import _simpson, certify_odd, fermi_layer_integral
from .eig1d import OneDimProblem, solve_shooting
from .errors import FermiSpectraError
from .geometry import scale_width


@dataclass
class MeshPolicy:
    """The sweep's mesh: ns an even integer of at least 8, as a config's
    mesh.ns for the sweep command, and nt at least 16."""

    ns: int = 256
    nt: int = 16

    def __post_init__(self):
        if self.nt < 16:
            raise ValueError("nt below 16 under-resolves the width direction")
        if isinstance(self.ns, bool) or not isinstance(self.ns, numbers.Integral) or self.ns < 8 or self.ns % 2:
            raise ValueError(f"ns must be an even integer of at least 8 (got {self.ns!r})")


@dataclass(eq=False)
class SweepResult:
    p: float
    epsilons: np.ndarray
    mu_values: np.ndarray
    mu_star: float
    rel_errors: np.ndarray
    upper_bounds: np.ndarray
    thresholds: np.ndarray
    certified: np.ndarray
    refine_estimates: np.ndarray
    converged: np.ndarray
    parities: list = field(default_factory=list)
    gaps: np.ndarray = None
    failures: list = field(default_factory=list)
    fitted_rate: float = None


def limit_problem(domain, p):
    """The thin-limit one-dimensional problem: weight and evenness tolerance of the width."""
    w = np.asarray(domain.width.delta_samples, dtype=float)
    return OneDimProblem(L=domain.L, p=p, w_samples=w, evenness_tol=domain.width.evenness_tol)


def upper_bound_epsilon(domain, p, eps, limit_result=None):
    """Quotient of the transplanted one-dimensional minimizer on the eps-strip.

    The minimizer u(s) of the limit problem, used as an s-only test
    function on the strip with width eps * delta, has Dirichlet integrand
    |u'|^p (1 + r k)^(1-p) and mass |u|^p (1 + r k); integrating the layer
    exactly in r leaves two one-dimensional Simpson integrals.  The value
    bounds the strip eigenvalue from above for every eps.
    """
    if limit_result is None:
        limit_result = solve_shooting(limit_problem(domain, p))
    s = domain.s_samples
    delta_eps = eps * np.asarray(domain.width.delta_samples, dtype=float)
    k = np.asarray(domain.curve.k_samples, dtype=float)
    layer_dirichlet = fermi_layer_integral(delta_eps, k, 1.0 - p)
    layer_mass = fermi_layer_integral(delta_eps, k, 1.0)
    num = _simpson(np.abs(limit_result.du_samples) ** p * layer_dirichlet, s)
    den = _simpson(np.abs(limit_result.u_samples) ** p * layer_mass, s)
    return num / den


def epsilon_sweep(domain, p, epsilons, policy=None):
    """Eigenvalues of the eps-scaled strips against the thin-limit value.

    Each width factor gets its own validated domain and solve; failures
    (a folded strip, a stalled solver) are recorded per entry instead of
    aborting the sweep.  Every entry is solved on the policy's mesh and
    on the mesh doubled in both directions; the difference between the two
    solves becomes the discretization estimate, and the reported value is
    the h^2 extrapolation of the pair.  Without the second solve the
    transplant upper bound can fall inside the discretization error of a
    thin entry, which would make a valid inequality look violated.  The
    stopping rules are fixed: the strip solves stop at eig2d.INVERSE_TOL =
    1e-12 (p = 2) or, by descent, first at a residual
    (||(K + sigma M)^-1 g|| over the half mesh's nodes, over mu) of at most
    DESCENT_TOL = 1e-6 and else at STALL_TOL = 1e-9 over STALL_WINDOW = 50
    steps, and the limit value at solve_shooting's default tol = 1e-10.
    An entry is converged when both of its strip solves are, so a descent
    that stalls above its residual tolerance leaves it unconverged.  The
    convergence rate is fitted on the last three successful entries in
    log-log coordinates.
    """
    # Imported here, so that the thin limit alone does not load the strip solver.
    from .eig2d import solve_mu1_nonlinear

    domain.require_valid()
    policy = policy or MeshPolicy()
    eps_arr = np.asarray(list(epsilons), dtype=float)
    n = len(eps_arr)
    mu_values = np.full(n, np.nan)
    upper_bounds = np.full(n, np.nan)
    thresholds = np.full(n, np.nan)
    certified = np.zeros(n, dtype=bool)
    refine_estimates = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    parities = [None] * n
    gaps = np.full(n, np.nan)
    failures = [None] * n

    limit_result = solve_shooting(limit_problem(domain, p))
    mu_star = limit_result.mu
    # Certification always compares the quadratic-case eigenvalue bound
    # against the curvature threshold, so a p != 2 sweep needs the
    # quadratic limit minimizer as well.
    limit_quad = limit_result if p == 2.0 else solve_shooting(limit_problem(domain, 2.0))

    for i, eps in enumerate(eps_arr):
        try:
            d_eps = scale_width(domain, float(eps))
            res = solve_mu1_nonlinear(d_eps, p, policy.ns, policy.nt)
            fine = solve_mu1_nonlinear(d_eps, p, 2 * policy.ns, 2 * policy.nt)
            refine_estimates[i] = abs(fine.mu - res.mu)
            mu_values[i] = fine.mu + (fine.mu - res.mu) / 3.0
            converged[i] = res.converged and fine.converged
            parities[i] = fine.parity
            gaps[i] = np.nan if fine.gap is None else fine.gap
            ub = upper_bound_epsilon(domain, p, float(eps), limit_result)
            upper_bounds[i] = ub
            ub_quad = ub if p == 2.0 else upper_bound_epsilon(
                domain, 2.0, float(eps), limit_quad
            )
            cert = certify_odd(d_eps, mu1_upper=ub_quad)
            thresholds[i] = cert.threshold
            certified[i] = cert.certified
        except FermiSpectraError as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"

    rel_errors = np.abs(mu_values - mu_star) / abs(mu_star)
    good = np.flatnonzero(~np.isnan(mu_values) & (rel_errors > 0))
    fitted_rate = None
    if len(good) >= 3:
        tail = good[-3:]
        slope = np.polyfit(np.log(eps_arr[tail]), np.log(rel_errors[tail]), 1)[0]
        fitted_rate = float(slope)

    return SweepResult(
        p=p,
        epsilons=eps_arr,
        mu_values=mu_values,
        mu_star=mu_star,
        rel_errors=rel_errors,
        upper_bounds=upper_bounds,
        thresholds=thresholds,
        certified=certified,
        refine_estimates=refine_estimates,
        converged=converged,
        parities=parities,
        gaps=gaps,
        failures=failures,
        fitted_rate=fitted_rate,
    )
