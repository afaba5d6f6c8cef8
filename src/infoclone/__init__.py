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

# infoclone.fock loads on the first use of one of these names, so the campaigns skip it
_FOCK_NAMES = ("evolve", "fidelity", "product_state")


def __getattr__(name: str):
    if name in _FOCK_NAMES:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CouplingConfig",
    "InfoCloneError",
    "StrategyKind",
    "StrategySpec",
    "apply_transform",
    "build_transform",
    "evolve",
    "fidelity",
    "orthogonality_residual",
    "product_state",
    "run_trials",
]
