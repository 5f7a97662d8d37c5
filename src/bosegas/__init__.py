"""Ground-state pair-correlation solver for the dilute repulsive Bose gas.

Solves the self-consistent system

    (-Delta + 4e + v) u = v + 2 e rho (u*u),    2e/rho = int (1-u) v dx

for the pair-correlation deficit u on R^3, computes the density-energy
relation rho(e) and its inverse, the associated resolvent operators, and
the physical observables (condensate depletion, momentum distribution,
tail decay constants), with every computable bound of the underlying
theory wired up as a checkable audit.
"""

__version__ = "0.1.0"

from .errors import (BosegasError, ConfigurationError, ConvergenceError,
                     GridMismatchError, InvariantViolation)
from .grids import (FREQUENCY, POSITION, RadialField, RadialGrid, auto_r_max,
                    convolve, evaluate, fast_grid_size, field_from_profile,
                    fourier_radial, healing_integral_check,
                    inverse_fourier_radial, make_grid)
from .operators import (LinearSolveReport, OperatorContext, apply_frakKe,
                        apply_Ge, apply_Ke, apply_Ye, symmetry_check,
                        xi_flatness)
from .potentials import (ExplicitSolutionSpec, Potential, QualityWarning,
                         explicit_potential, gaussian_potential,
                         potential_from_file, scattering_identity_defect,
                         scattering_length, tabulated_potential)
from .solver import (CROSS_VALIDATED, FOURIER, MONOTONE, SolutionState,
                     SolverConfig, SweepRecord, SweepRow, rho_prime,
                     rho_prime_fd, solve_fixed_e, solve_fixed_rho, sweep,
                     u_prime, u_prime_integral)
from .observables import (BoundAudit, DecayFit, ObservableReport,
                          beta_moment,
                          bogolyubov_depletion, bound_audit,
                          condensate_depletion, decay_constant,
                          lhy_coefficient, lhy_compare, momentum_distribution,
                          observables_report, tan_constant)
