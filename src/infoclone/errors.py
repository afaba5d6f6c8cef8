"""Exception types and small input-validation helpers shared by all modules."""

from __future__ import annotations

import math
import numbers


class InfoCloneError(ValueError):
    """Base class for every validation or consistency error raised here."""


class EmptyCouplingsError(InfoCloneError):
    """The coupling list is empty."""


class ZeroNormError(InfoCloneError):
    """All couplings are zero, so the coupling norm R vanishes."""


class NonFiniteInputError(InfoCloneError):
    """A numeric input contains NaN or infinity."""


class DimensionMismatchError(InfoCloneError):
    """Operands describe different mode counts or vector lengths."""


class MissingBetaError(InfoCloneError):
    """The strategy needs a known reference amplitude beta but none was given."""


class EpsilonOutOfRangeError(InfoCloneError):
    """The near-optimal detuning epsilon is missing or outside (0, 1)."""


class TooFewClonesError(InfoCloneError):
    """Fewer than two clones, so the two measurement groups cannot be formed."""


class AmplitudeTooLargeForCutoffError(InfoCloneError):
    """|amplitude|^2 exceeds cutoff/4, the truncation-safety guard."""


class StateTooLargeError(InfoCloneError):
    """The truncated multimode state would exceed the amplitude budget."""


def require_finite_real(value, name: str = "value") -> float:
    if isinstance(value, complex):
        raise InfoCloneError(f"{name} must be real, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise NonFiniteInputError(f"{name} must be finite, got {value!r}")
    return x


def require_finite_complex(value, name: str = "value") -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteInputError(
            f"{name} must have finite real and imaginary parts, got {value!r}"
        )
    return z


def require_seed(value, name: str = "seed") -> int:
    if not isinstance(value, numbers.Integral):
        raise InfoCloneError(f"{name} must be an integer, got {value!r}")
    s = int(value)
    if not 0 <= s < 2**64:
        raise InfoCloneError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return s
