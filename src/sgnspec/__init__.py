"""Resolvent and pseudospectrum toolkit for the damped wave model operator
-d^2/dx^2 + i sgn(x) on the line: closed-form resolvent kernel, two-sided
pseudospectral bounds, finite-difference oracles, Birman-Schwinger
machinery for perturbations, and the exactly solvable models.

The names below are loaded on first access (PEP 562), so importing the
package, or one of its modules, loads NumPy and SciPy only where that
module needs them."""

import importlib

# defining module -> the names the package exports from it
_EXPORTS = {
    "bounds": ("apply_resolvent", "default_strip_grid",
               "quadrature_operator_norm"),
    "bs": ("PotentialSpec", "RootSearch", "box", "decomposition_diagnostics",
           "delta_bump", "escape_scan", "find_eigenvalue", "gaussian",
           "hs_growth_rates", "hs_norm", "potential_grid",
           "search_eigenvalues", "spectral_radius", "weak_coupling_rate"),
    "closed": ("Region", "all_sigma", "classify_region", "delta_eigenvalue",
               "delta_eigenvalue_exists", "dirichlet_resolvent_norm",
               "find_step_eigenvalues", "gamma_point", "numrange_bound",
               "principal_sqrt", "pseudomode_lower_bound", "ray_distances",
               "regularized_pseudomode_ratio", "schur_upper_bound",
               "spectrum_distance", "step_implicit_residual", "wave_numbers"),
    "errors": ("ConfigError", "ConvergenceError", "DomainError",
               "EigenvalueLost", "SgnSpecError", "SingularError",
               "SpectrumError", "ZeroCouplingError"),
    "fdop": ("FDOperator", "OracleResult", "build_fd", "eigenvalue_near",
             "resolvent_norm_fd", "step_potential"),
    "field": ("GridSpec", "PseudospectrumField", "compute_field",
              "export_field", "field_to_csv", "field_to_json",
              "load_field_csv"),
    "kernel": ("dirichlet_kernel", "resolvent_kernel"),
    "models": (),  # re-exports only; listed so sgnspec.models resolves
    "quadrature": ("QuadratureGrid", "decay_half_length",
                   "gauss_legendre_grid", "oscillation_panel_width",
                   "trapezoid_grid"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as an eager import used to bind it
        return importlib.import_module(f"{__name__}.{name}")
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
