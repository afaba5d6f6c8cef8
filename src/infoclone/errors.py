"""The exception type and small input-validation helpers shared by all modules."""

from __future__ import annotations

import math
import numbers


class InfoCloneError(ValueError):
    """Every rejected input: the message says which input and why."""


def require_finite_real(value, name: str = "value") -> float:
    """float(value) for a finite real number, numpy scalars included; text is refused, not parsed."""
    if not isinstance(value, numbers.Real):
        kind = "real" if isinstance(value, numbers.Complex) else "a real number"
        raise InfoCloneError(f"{name} must be {kind}, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise InfoCloneError(f"{name} must be finite, got {value!r}")
    return x


def require_finite_complex(value, name: str = "value") -> complex:
    """complex(value) for a finite number, numpy scalars included; text is refused, not parsed."""
    if not isinstance(value, numbers.Complex):
        raise InfoCloneError(f"{name} must be a number, got {value!r}")
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InfoCloneError(
            f"{name} must have finite real and imaginary parts, got {value!r}"
        )
    return z


def require_integer(value, name: str) -> int:
    """int(value) for an integer, numpy integers included; a float is refused, not truncated."""
    if not isinstance(value, numbers.Integral):
        raise InfoCloneError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_seed(value, name: str = "seed") -> int:
    s = require_integer(value, name)
    if not 0 <= s < 2**64:
        raise InfoCloneError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return s
