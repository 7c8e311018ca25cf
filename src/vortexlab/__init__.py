"""Numerical laboratory for the gauged O(3) sigma-model vortex equation.

Layers, bottom up: kernels (scalar nonlinearities and primitives),
model (parameter and vortex value types), ewald (lattice Green
function), radial (entire-plane shooting), torus (periodic solvers and
integral identities), stability (principal eigenvalues), asymptotics
(small-epsilon sweeps, local masses, Pohozaev and quantization
diagnostics), config/cli (experiment plumbing).
"""

from .asymptotics import (Alternative, AlternativeVerdict, BlowupProfile,
                          GeometryError, ResolutionError, SweepError,
                          SweepRecord, VortexReport, classify_alternative,
                          export_sweep_csv, mass_partition, pohozaev_value,
                          quantization_value, rescale_blowup, run_sweep,
                          squared_ratio_test, vortex_mass)
from .config import (ConfigError, ExperimentConfig, load_config, load_field,
                     save_field)
from .kernels import F2_tau, df_tau, f_tau, q_tau
from .model import HypothesisReport, ModelParams, VortexSet, check_hypotheses
from .radial import (BCType, BetaCurve, BracketError,
                     IntegrationFailureError, MassKind, RadialSolution,
                     compute_beta_curve, export_curve_csv,
                     export_profile_csv, find_topological, integrate_radial,
                     mass_integral)
from .stability import (EigenConvergenceError, EigenResult, StabilityClass,
                        WeightIndefiniteError, classify_stability,
                        default_torus_margin, principal_eigen_torus,
                        weighted_eigen_radial)
from .torus import (CapacityError, ConvergenceError, MonotonicityError,
                    NewtonDivergenceError, ResolutionWarning, TorusDomain,
                    TorusField, TorusGeometry, cell_integral, gradient,
                    identity_check, laplacian, mass_bound_report,
                    poisson_solve, snap_to_grid, solve_monotone,
                    solve_newton, total_mass)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "f_tau", "df_tau", "F2_tau", "q_tau",
    # model
    "ModelParams", "VortexSet", "HypothesisReport", "check_hypotheses",
    # radial
    "integrate_radial", "find_topological", "compute_beta_curve",
    "mass_integral", "RadialSolution", "BetaCurve", "BCType", "MassKind",
    "export_profile_csv", "export_curve_csv", "BracketError",
    "IntegrationFailureError",
    # torus
    "TorusDomain", "TorusGeometry", "TorusField", "solve_newton",
    "solve_monotone", "identity_check", "total_mass",
    "mass_bound_report", "laplacian", "poisson_solve", "gradient",
    "cell_integral", "snap_to_grid",
    "NewtonDivergenceError", "MonotonicityError", "ConvergenceError",
    "CapacityError", "ResolutionWarning",
    # stability
    "principal_eigen_torus", "weighted_eigen_radial",
    "classify_stability", "default_torus_margin",
    "StabilityClass", "EigenResult", "WeightIndefiniteError",
    "EigenConvergenceError",
    # asymptotics
    "run_sweep", "classify_alternative", "squared_ratio_test",
    "vortex_mass", "mass_partition", "pohozaev_value", "quantization_value",
    "rescale_blowup", "export_sweep_csv", "SweepRecord",
    "AlternativeVerdict", "Alternative", "VortexReport", "BlowupProfile",
    "GeometryError", "ResolutionError", "SweepError",
    # config
    "ExperimentConfig", "load_config", "ConfigError", "save_field",
    "load_field",
]
