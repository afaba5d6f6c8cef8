"""Attenuated cloning of a single oscillator coherent state, end to end.

The package builds the orthogonal amplitude transform that turns one held
coherent state plus N reference ancillas into N identical attenuated clones,
simulates ideal quadrature measurements on the clones, and inverts the clone
map to estimate the held amplitude with its predicted bias and spread. A
truncated number-basis oracle cross-checks the transform dynamics, and a CLI
drives reproducible, machine-readable experiments.

A bare ``import infoclone`` loads ``errors`` and ``transform``, neither of
which imports numpy. ``run_trials``, and ``infoclone.estimation`` that
defines it, need numpy, so they load on first use (PEP 562): ``import
infoclone`` and ``infoclone --help`` load no numpy.
"""

from importlib import import_module as _import_module

from .errors import InfoCloneError
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


def __getattr__(name):
    if name in ("estimation", "run_trials"):
        estimation = _import_module(".estimation", __name__)
        return estimation if name == "estimation" else estimation.run_trials
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
