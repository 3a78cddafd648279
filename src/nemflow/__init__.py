"""Structure-preserving pseudospectral solver for a regularised two-velocity
nematic flow model on the periodic unit torus.

The implicit time stepper keeps the discrete energy balance, solenoidality,
and zero-mean velocity at every step; the diagnostics ledger materialises
each term of that balance so runs certify themselves.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .coupling import director_transport
from .diagnostics import (
    EnergyLedger,
    build_ledger,
    check_energy_inequality,
    director_length_stats,
    h2_diagnostic,
)
from .energetics import (
    EnergyBreakdown,
    ModelParams,
    chemical_potential,
    total_energy,
)
from .fields import GridSpec, NonFiniteError, TensorField, VectorField
from .initial import initial_condition
from .operators import (
    divergence,
    gradient,
    laplacian,
    leray_project,
)
from .runner import RunReport, run_simulation
from .snapshots import read_snapshot, write_snapshot
from .stepper import (
    PicardConfig,
    PicardDivergenceError,
    StepResult,
    StepState,
    implicit_step,
    residual_fully_implicit,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EnergyBreakdown",
    "EnergyLedger",
    "GridSpec",
    "ModelParams",
    "NonFiniteError",
    "PicardConfig",
    "PicardDivergenceError",
    "RunConfig",
    "RunReport",
    "StepResult",
    "StepState",
    "TensorField",
    "VectorField",
    "build_ledger",
    "check_energy_inequality",
    "chemical_potential",
    "director_length_stats",
    "director_transport",
    "divergence",
    "gradient",
    "h2_diagnostic",
    "implicit_step",
    "initial_condition",
    "laplacian",
    "leray_project",
    "load_config",
    "parse_config",
    "read_snapshot",
    "residual_fully_implicit",
    "run_simulation",
    "total_energy",
    "write_snapshot",
]
