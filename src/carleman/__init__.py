"""Numerical laboratory for generalized Carleman (Hankel) operators.

Pipeline: Hankel kernels P(ln t)/t -> degenerate operators v Q(D) v ->
standard operators D^n + sum b_m(x) D^m (Liouville transform + gauge) ->
scattering matrices, eigenfunction asymptotics and large-time profiles.
"""

from .coeffmap import RealPolynomial, p_to_q, q_to_p
from .errors import (CarlemanError, ConfigurationError, DomainError,
                     NearExceptionalPointError, NumericalError,
                     ResolutionError)
from .profile import ChangeOfVariables, WeightProfile, a1_constant, decay_parameters
from .liouville import OperatorCoefficients, operator_apply_check
from .scattering import (EigenfunctionField, PotentialSpec,
                         eigenvalue_multiplicity_bound, free_resolvent_kernel,
                         ode_cross_check, scattering_matrix,
                         solve_lippmann_schwinger, square_well_reflection,
                         zeta_roots)
from .longrange import residual_symbol, sigma_iterate, theta_phase
from .hankelphase import (HankelEigenfunction, PhaseModel, ThetaEvaluator,
                          hankel_kernel, mellin_F, quadratic_form_check,
                          theta_asymptotic, theta_profile, varrho,
                          zeta_amplitude)
from .statphase import (BoundConstants, bound_constants, evaluate_J,
                        leading_term, verify_remainder)
from .evolution import (evolution_phase, evolution_profile, stationary_point_y,
                        stationary_residual, y_map)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
