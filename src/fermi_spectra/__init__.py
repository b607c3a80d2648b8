"""Eigenvalue bounds and solvers for curved planar strips in Fermi coordinates.

A strip is a mirror-symmetric curve thickened on one side by a width
profile.  The package builds and validates such strips, evaluates the
closed-form spectral bounds and certificates that hold on them, computes
first nonzero Neumann p-Laplace eigenvalues in the strip and in its thin
one-dimensional limit, and studies the convergence between the two.

Submodules load on first use: `import fermi_spectra` loads none of them,
and reading a public name (`fermi_spectra.solve_mu1_linear`) or a
submodule attribute (`fermi_spectra.eig2d`) imports that one module and
the modules it imports.  So a command that evaluates closed-form bounds
never pays for compiling the solvers.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "analysis": (
        "FIGURE2_COLUMNS", "BoundReport", "Certificate", "a_p", "b_p", "c_p", "certify_odd",
        "concavity_check", "fermi_layer_integral", "figure2_data", "lower_bound_constant_width",
        "lower_bound_variable_width", "lyapunov_bound", "lyapunov_bound_report",
        "oddness_threshold", "pi_p", "pi_p_quadrature", "proof_constants",
        "test_function_upper_bound",
    ),
    "asymptotics": (
        "MeshPolicy", "SweepResult", "epsilon_sweep", "limit_problem", "upper_bound_epsilon",
    ),
    "config": ("RunConfig", "load_config"),
    "eig1d": ("EigenResult", "OneDimProblem", "solve_discretized", "solve_shooting"),
    "eig2d": (
        "Eigen2DResult", "Mesh2D", "build_mesh", "solve_mu1_linear", "solve_mu1_nonlinear",
        "solve_mu1_odd_linear",
    ),
    "errors": ("FermiSpectraError", "ParseError", "SchemaError"),
    "expressions": ("as_function", "evaluate", "parse_expression", "pretty"),
    "geometry": (
        "CurveSpec", "FermiDomain", "WidthProfile", "curvature_from_parametric", "fermi_map",
        "make_domain", "reconstruct_from_curvature", "scale_width", "width_profile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Not cached: a name always reads its submodule's current binding, so a
    # function patched there is the one the package hands out.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
