"""Solitary waves of the power-degenerate NLS.

Profiles by constrained minimization and shooting, identity verification,
spectral stability classification, and radial time evolution with virial
monitoring.
"""

from .asymptotics import DecayFit, OriginReport, fit_decay, origin_asymptotics
from .config import RunConfig, load_config, save_config
from .discretization import (LineGrid, Profile, RadialGrid, SectorOperator, assemble_operator,
                             build_grid, build_line_grid, gradient_energy, sphere_area,
                             weighted_inner, weighted_norm)
from .dynamics import CrankNicolson, VirialTrace, evolve_and_trace
from .functionals import IdentityReport, evaluate_identities, l2_scale, scaled_energy
from .ground_state import (MinimizerReport, ReconcileReport, ground_state,
                           minimize_and_rescale, minimize_weinstein, reconcile, shoot_profile)
from .model import (ModelParams, StabilityVerdict, classify_by_threshold, critical_power,
                    exists_window, mass_scaling_exponent, omega_rescale)
from .spectral import (SpectralReport, assemble_linearized, eigenpairs, eigenvalues,
                       morse_index, slope_and_classify)

__version__ = "0.1.0"

__all__ = [
    "DecayFit", "OriginReport", "fit_decay", "origin_asymptotics",
    "RunConfig", "load_config", "save_config",
    "LineGrid", "Profile", "RadialGrid", "SectorOperator", "assemble_operator", "build_grid",
    "build_line_grid", "gradient_energy", "weighted_inner", "weighted_norm",
    "CrankNicolson", "VirialTrace", "evolve_and_trace",
    "IdentityReport", "evaluate_identities", "l2_scale", "scaled_energy", "sphere_area",
    "MinimizerReport", "ReconcileReport", "ground_state", "minimize_and_rescale",
    "minimize_weinstein", "reconcile", "shoot_profile",
    "ModelParams", "StabilityVerdict", "classify_by_threshold", "critical_power",
    "exists_window", "mass_scaling_exponent", "omega_rescale",
    "SpectralReport", "assemble_linearized", "eigenpairs", "eigenvalues", "morse_index",
    "slope_and_classify",
    "__version__",
]
