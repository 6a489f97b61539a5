"""netepi: discrete-time networked SIR/SEIR simulation, spectral convergence
diagnostics, and least-squares recovery of spread parameters."""

from .graph import Network, load_network, is_irreducible
from .dynamics import (SirParams, SeirParams, EpidemicState, Trajectory,
                       check_assumption, step, simulate, trajectory_to_csv,
                       trajectory_from_csv)
from .spectral import (SpreadingMatrix, ConvergenceReport,
                       build_spreading_matrix, dominant_eigenvalue,
                       convergence_diagnostics)
from .estimation import (RegressionSystem, IdentifiabilityVerdict,
                         EstimateReport, NoiseModel, check_identifiability,
                         build_regression, solve_least_squares, apply_noise,
                         estimate_pipeline)

__version__ = "0.1.0"
