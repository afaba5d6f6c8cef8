"""Orthogonal amplitude transform for one held mode coupled to N ancilla modes.

A bilinear exchange coupling between the held oscillator and N ancillas acts
on the complex amplitude vector (alpha, beta_1, ..., beta_N) as a real
orthogonal rotation. The rotation depends on the couplings r_j and the
interaction time t only through the coupling norm R = sqrt(sum_j r_j^2) and
the angle R*t. With equal couplings and identically prepared ancillas every
ancilla output carries the same attenuated copy of the held amplitude; the
three measurement strategies in :class:`StrategyKind` are particular choices
of sin(R*t) for that symmetric configuration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InfoCloneError, require_finite_complex, require_finite_real

__all__ = [
    "CouplingConfig",
    "StrategyKind",
    "StrategySpec",
    "apply_transform",
    "build_transform",
    "orthogonality_residual",
]


@dataclass(frozen=True)
class CouplingConfig:
    """Couplings r_1..r_N and interaction time t, with the derived norm R.

    Any sequence of real couplings is accepted and stored as a tuple.
    """

    couplings: tuple[float, ...]
    time: float
    norm: float = field(init=False)

    def __post_init__(self):
        if len(self.couplings) == 0:
            raise InfoCloneError("at least one coupling is required")
        couplings = tuple(require_finite_real(r, "coupling") for r in self.couplings)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "time", require_finite_real(self.time, "time"))
        norm = math.hypot(*couplings)
        if norm == 0.0:
            raise InfoCloneError("all couplings are zero")
        object.__setattr__(self, "norm", norm)

    @property
    def angle(self) -> float:
        """Rotation angle R*t."""
        return self.norm * self.time


def build_transform(config: CouplingConfig) -> np.ndarray:
    """Real orthogonal (N+1) x (N+1) matrix acting on (alpha, beta_1..beta_N).

    Layout, with e_j = r_j / R, c = cos(R t), s = sin(R t):

        row 0:     ( c,  e_1 s, ..., e_N s )
        column 0:  ( c, -e_1 s, ..., -e_N s )
        interior:  delta_jk - e_j e_k (1 - c)

    The closed form equals the exponential of the antisymmetric generator
    with first row t*r and first column -t*r (checked by the test suite).
    """
    r = np.asarray(config.couplings, dtype=float)
    e = r / config.norm
    c = math.cos(config.angle)
    s = math.sin(config.angle)
    n = r.size
    u = np.empty((n + 1, n + 1), dtype=float)
    u[0, 0] = c
    u[0, 1:] = e * s
    u[1:, 0] = -e * s
    u[1:, 1:] = np.eye(n) - (1.0 - c) * np.outer(e, e)
    return u


def orthogonality_residual(matrix: np.ndarray) -> float:
    """Max-norm of U @ U.T - I, zero for an exactly orthogonal matrix."""
    m = np.asarray(matrix, dtype=float)
    return float(np.abs(m @ m.T - np.eye(m.shape[0])).max())


def apply_transform(matrix: np.ndarray, amplitudes: Sequence[complex]) -> np.ndarray:
    """Apply the real transform entrywise to a complex amplitude vector.

    Orthogonality of the matrix means sum_a |amplitude_a|^2 is conserved.
    """
    m = np.asarray(matrix, dtype=float)
    v = np.asarray(amplitudes, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InfoCloneError(f"matrix must be square, got shape {m.shape}")
    if v.ndim != 1 or v.size != m.shape[0]:
        raise InfoCloneError(
            f"amplitude vector of length {v.size} does not match matrix dim {m.shape[0]}"
        )
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise InfoCloneError("amplitude vector contains NaN or infinity")
    return m @ v


class StrategyKind(enum.Enum):
    """The three analyzed choices of sin(R*t) for symmetric cloning."""

    OPTIMAL = "optimal"
    OFFSET = "offset"
    NEAR_OPTIMAL = "near-optimal"


@dataclass(frozen=True)
class StrategySpec:
    """A cloning strategy with its derived clone map gamma = s*alpha + c*beta.

    sin_rt is -1 for OPTIMAL, 1/sqrt(2) for OFFSET and -1+epsilon for
    NEAR_OPTIMAL. The signal scale is s = -sin_rt/sqrt(N) and the offset
    scale is c = +sqrt(1 - sin_rt^2); beta is the known reference amplitude
    multiplying c. For OPTIMAL the offset scale is exactly zero and beta is
    irrelevant (stored as 0).

    This is the closed form of :func:`build_transform` for N equal couplings
    at the angle R*t = asin(sin_rt), where cos(R*t) >= 0: every ancilla
    output of (alpha, beta, ..., beta) is then gamma. sin_rt = -1 gives
    gamma = alpha/sqrt(N) whatever beta is. kind may be given by name.
    """

    kind: StrategyKind
    n_copies: int
    epsilon: float | None = None
    beta: complex | None = None
    sin_rt: float = field(init=False)
    signal_scale: float = field(init=False)
    offset_scale: float = field(init=False)

    def __post_init__(self):
        try:
            kind = StrategyKind(self.kind)
        except ValueError:
            names = ", ".join(k.value for k in StrategyKind)
            raise InfoCloneError(f"unknown strategy {self.kind!r}, expected one of: {names}") from None
        object.__setattr__(self, "kind", kind)
        n = int(self.n_copies)
        if n < 2:
            raise InfoCloneError(f"n_copies must be >= 2, got {self.n_copies!r}")
        object.__setattr__(self, "n_copies", n)

        if kind is StrategyKind.NEAR_OPTIMAL:
            if self.epsilon is None:
                raise InfoCloneError("near-optimal requires epsilon in (0, 1)")
            eps = require_finite_real(self.epsilon, "epsilon")
            if not 0.0 < eps < 1.0:
                raise InfoCloneError(
                    f"epsilon must lie in (0, 1), got {self.epsilon!r}"
                )
            object.__setattr__(self, "epsilon", eps)
            sin_rt = -1.0 + eps
        elif self.epsilon is not None:
            raise InfoCloneError(f"epsilon does not apply to {kind.value}")
        elif kind is StrategyKind.OPTIMAL:
            sin_rt = -1.0
        else:
            sin_rt = math.sqrt(0.5)

        if kind is StrategyKind.OPTIMAL:
            object.__setattr__(self, "beta", 0j)
        else:
            if self.beta is None:
                raise InfoCloneError(f"{kind.value} requires a reference amplitude beta")
            object.__setattr__(self, "beta", require_finite_complex(self.beta, "beta"))

        object.__setattr__(self, "sin_rt", sin_rt)
        object.__setattr__(self, "signal_scale", -sin_rt / math.sqrt(n))
        object.__setattr__(self, "offset_scale", math.sqrt(max(0.0, 1.0 - sin_rt * sin_rt)))

