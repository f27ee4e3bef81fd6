"""The three exactly solvable perturbations of the signed-damping operator.

Point interaction at the origin (delta coupling alpha), the step-like
well that cancels the imaginary sign on (-a, a) and digs a real well of
depth b, and the Dirichlet decoupling at zero.  Their closed-form
spectral data (the delta eigenvalue, the exceptional coupling curve, the
step-model eigenvalues, the exact Dirichlet norm 1 / dist(z, sigma))
are defined in closed; this module only re-exports them, so it loads
the standard library alone.  The Nystrom checks of the Dirichlet
resolvent are test references (tests/_reference.py).
"""

from .closed import (all_sigma, delta_eigenvalue,  # re-exported
                     delta_eigenvalue_exists, dirichlet_resolvent_norm,
                     find_step_eigenvalues, gamma_point)
