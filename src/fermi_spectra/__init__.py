"""Eigenvalue bounds and solvers for curved planar strips in Fermi coordinates.

A strip is a mirror-symmetric curve thickened on one side by a width
profile.  The package builds and validates such strips, evaluates the
closed-form spectral bounds and certificates that hold on them, computes
first nonzero Neumann p-Laplace eigenvalues in the strip and in its thin
one-dimensional limit, and studies the convergence between the two.
"""

from .analysis import (
    FIGURE2_COLUMNS,
    BoundReport,
    Certificate,
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
    oddness_threshold,
    pi_p,
    pi_p_quadrature,
    proof_constants,
    test_function_upper_bound,
)
from .asymptotics import (
    MeshPolicy,
    SweepResult,
    epsilon_sweep,
    limit_problem,
    upper_bound_epsilon,
)
from .config import RunConfig, load_config
from .eig1d import EigenResult, OneDimProblem, solve_discretized, solve_shooting
from .eig2d import (
    Eigen2DResult,
    Mesh2D,
    build_mesh,
    solve_mu1_linear,
    solve_mu1_nonlinear,
    solve_mu1_odd_linear,
)
from .errors import FermiSpectraError, ParseError, SchemaError
from .expressions import as_function, evaluate, parse_expression, pretty
from .geometry import (
    CurveSpec,
    FermiDomain,
    WidthProfile,
    curvature_from_parametric,
    fermi_map,
    make_domain,
    reconstruct_from_curvature,
    scale_width,
    width_profile,
)

__version__ = "0.1.0"
