"""Discrete-velocity BGK solver with constrained-runs lifting."""

from .cr import (
    CRConfig,
    GMRESParams,
    LiftReport,
    cr_map,
    cr_weights,
    lift_macro,
    lift_newton,
    lift_picard,
    restrict_lift_error,
)
from .errors import ConvergenceError, KliftError, NumericalError, ZeroDensityError
from .kinetic import (
    BOLTZMANN,
    DistributionField,
    GasParams,
    MacroFields,
    SpatialGrid,
    VelocityGrid,
    build_spatial_grid,
    build_velocity_grid,
    discrete_equilibrium,
    equilibrium_field,
    mean_free_path,
    relaxation_frequency,
    restrict,
)
from .moments import (
    BasisKind,
    MomentBasis,
    basis_from_matrix,
    build_moment_basis,
    naive_projector,
    project_complement,
    reset_conserved,
)
from .scenario import Scenario, load_scenario, save_scenario
from .steppers import BGKStepper, D1Q3Stepper, stable_dt

__version__ = "0.1.0"
