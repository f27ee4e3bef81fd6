"""Resolvent and pseudospectrum toolkit for the damped wave model operator
-d^2/dx^2 + i sgn(x) on the line: closed-form resolvent kernel, two-sided
pseudospectral bounds, finite-difference oracles, Birman-Schwinger
machinery for perturbations, and the exactly solvable models."""

from .bounds import (apply_resolvent, default_strip_grid, numrange_bound,
                     pseudomode_lower_bound, pseudomode_samples,
                     quadrature_operator_norm, regularized_pseudomode_ratio,
                     schur_upper_bound)
from .bs import (PotentialSpec, RootSearch, box, decomposition_diagnostics,
                 delta_bump, escape_scan, find_eigenvalue, gaussian,
                 hs_growth_rates, hs_norm, potential_grid, sampled,
                 search_eigenvalues, spectral_radius, step_well,
                 weak_coupling_rate)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     EigenvalueLost, SgnSpecError, SingularError,
                     SpectrumError, ZeroCouplingError)
from .fdop import (FDOperator, OracleResult, build_fd, eigenvalue_near,
                   resolvent_norm_fd, step_potential)
from .field import (GridSpec, PseudospectrumField, compute_field,
                    export_field, field_to_csv, field_to_json,
                    load_field_csv)
from .kernel import (Region, classify_region, dirichlet_kernel,
                     dirichlet_kernel_grid, principal_sqrt, ray_distances,
                     resolvent_kernel, resolvent_kernel_grid,
                     spectrum_distance, wave_numbers)
from .models import (all_sigma, delta_eigenvalue, delta_eigenvalue_exists,
                     dirichlet_bs_hs_norm, dirichlet_quadrature_norm,
                     dirichlet_resolvent_norm, find_step_eigenvalues,
                     gamma_branch, gamma_point, step_implicit_residual)
from .quadrature import (QuadratureGrid, decay_half_length,
                         gauss_legendre_grid, oscillation_panel_width,
                         trapezoid_grid)

__version__ = "0.1.0"
