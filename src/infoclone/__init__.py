"""Attenuated cloning of a single oscillator coherent state, end to end.

The package builds the orthogonal amplitude transform that turns one held
coherent state plus N reference ancillas into N identical attenuated clones,
simulates ideal quadrature measurements on the clones, and inverts the clone
map to estimate the held amplitude with its predicted bias and spread. A
truncated number-basis oracle cross-checks the transform dynamics, and a CLI
drives reproducible, machine-readable experiments.

The public names, and the submodules ``errors``, ``estimation`` and
``transform``, load on first use (PEP 562). So a bare ``import infoclone``
imports no numpy, and ``python -m infoclone`` loads the CLI, and then the
modules its command runs, before numpy. When Python writes no bytecode
cache (``PYTHONDONTWRITEBYTECODE=1``, or a read-only install without one),
every run compiles those modules from source; done before numpy's import,
that compile's freed memory is reused by numpy instead of raising the
process's peak.
"""

from importlib import import_module as _import_module

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

# the module that defines each public name
_HOMES = {"InfoCloneError": "errors", "run_trials": "estimation"}
_HOMES.update((name, "transform") for name in __all__ if name not in _HOMES)
# the names' modules, which are attributes of the package too
_SUBMODULES = {"errors", "estimation", "transform"}


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
