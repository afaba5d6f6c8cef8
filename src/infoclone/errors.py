"""The exception type and small input-validation helpers shared by all modules."""

from __future__ import annotations

import math
import numbers


class InfoCloneError(ValueError):
    """Every rejected input: the message says which input and why."""


def require_finite_real(value, name: str = "value") -> float:
    if isinstance(value, complex):
        raise InfoCloneError(f"{name} must be real, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise InfoCloneError(f"{name} must be finite, got {value!r}")
    return x


def require_finite_complex(value, name: str = "value") -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InfoCloneError(
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
