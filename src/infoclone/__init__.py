"""Attenuated cloning of a single oscillator coherent state, end to end.

The package builds the orthogonal amplitude transform that turns one held
coherent state plus N reference ancillas into N identical attenuated clones,
simulates ideal quadrature measurements on the clones, and inverts the clone
map to estimate the held amplitude with its predicted bias and spread. A
truncated number-basis oracle cross-checks the transform dynamics, and a CLI
drives reproducible, machine-readable experiments.
"""

from .errors import InfoCloneError
from .estimation import run_trials
from .transform import (
    CouplingConfig,
    StrategyKind,
    StrategySpec,
    apply_transform,
    build_transform,
    orthogonality_residual,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingConfig",
    "InfoCloneError",
    "StrategyKind",
    "StrategySpec",
    "apply_transform",
    "build_transform",
    "orthogonality_residual",
    "run_trials",
]
