"""Variational integrators for adiabatically closed simple thermodynamic systems."""

from .bench import (ErrorReport, ExperimentConfig, convergence_study,
                    hamiltonian_estimates, reference_integrate, rk2_integrate,
                    rk2_midpoint, run_experiment)
from .continuous import (LagrangianThermoSystem, ThermoState, Trajectory,
                         conserved_along, continuous_rhs, energy, legendre,
                         noether_lift_check, temperature)
from .discrete import (DiscretePath, DiscreteThermoSystem, DiscreteTriple,
                       del_residual, discrete_action, discrete_flow,
                       discrete_momenta, entropy_update, legendre_minus,
                       legendre_plus, midpoint_discretize, momentum_map,
                       noether_condition, omega_embedded, omega_matrices,
                       pullback_check, semiregularity_matrix)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     StructureDegenerateError, TemperatureDegenerateError,
                     ThermintError)
from .geometry import (HamiltonianPoint, PointStructure, assemble_structure,
                       contact_evolution_field, evolution_field,
                       evolution_field_coordinates, flat_matrix, reeb_field)
from .solve import NewtonConfig, StepReport, initialize, integrate, newton_solve
from .systems import (CATALOG, SystemCatalogEntry, get_system, hamiltonian_point,
                      hamiltonian_rhs, ideal_gas, oscillator, two_pistons,
                      van_der_waals)

__version__ = "0.1.0"
