"""Truncated number-basis oracle for the cloning interaction.

The held mode and the N ancillas are realized on a per-mode Fock ladder
truncated at a cutoff occupation, and states evolve under the exact bilinear
exchange generator. This gives a brute-force, transform-independent check
that a product of coherent states evolves into a product of coherent states
whose amplitudes are the ones predicted by :func:`~infoclone.transform.
build_transform`. It is test infrastructure, deliberately capped at 10^6
amplitudes, not a general-purpose simulator.

Amplitude vectors are indexed by occupation numbers in row-major order with
mode 1 slowest: index = n_1 * (cutoff+1)^(m-1) + ... + n_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .errors import InfoCloneError, require_finite_complex
from .transform import CouplingConfig

__all__ = [
    "MAX_AMPLITUDES",
    "FockState",
    "annihilation",
    "coherent_vector",
    "evolve",
    "fidelity",
    "product_state",
]

MAX_AMPLITUDES = 10**6


@dataclass(frozen=True, eq=False)
class FockState:
    """Complex amplitudes over a truncated multimode occupation basis."""

    n_modes: int
    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise InfoCloneError(f"n_modes must be >= 1, got {self.n_modes!r}")
        if self.cutoff < 1:
            raise InfoCloneError(f"cutoff must be >= 1, got {self.cutoff!r}")
        size = (self.cutoff + 1) ** self.n_modes
        if size > MAX_AMPLITUDES:
            raise InfoCloneError(
                f"(cutoff+1)^n_modes = {size} exceeds the {MAX_AMPLITUDES} amplitude budget"
            )
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (size,):
            raise InfoCloneError(
                f"expected {size} amplitudes for {self.n_modes} modes at cutoff "
                f"{self.cutoff}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def annihilation(cutoff: int) -> sparse.csr_matrix:
    """Lowering operator on the (cutoff+1)-level ladder, sqrt(n) above the diagonal.

    Its commutator with its transpose is the identity except in the last
    diagonal entry, the unavoidable truncation boundary.
    """
    return sparse.diags(np.sqrt(np.arange(1.0, cutoff + 1.0)), 1, format="csr")


def coherent_vector(alpha: complex, cutoff: int) -> FockState:
    """Single-mode coherent state, c_n = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!).

    Requires |alpha|^2 <= cutoff/4 so the occupation distribution's tail
    beyond the cutoff stays negligible.
    """
    alpha = require_finite_complex(alpha, "alpha")
    if cutoff < 1:
        raise InfoCloneError(f"cutoff must be >= 1, got {cutoff!r}")
    if abs(alpha) ** 2 > cutoff / 4.0:
        raise InfoCloneError(
            f"|alpha|^2 = {abs(alpha) ** 2:.4g} exceeds cutoff/4 = {cutoff / 4.0:.4g}"
        )
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return FockState(n_modes=1, cutoff=cutoff, amplitudes=amps)


def product_state(amplitudes: Sequence[complex], cutoff: int) -> FockState:
    """Tensor product of coherent states, one per mode, first mode slowest."""
    amps = [require_finite_complex(a, "amplitude") for a in amplitudes]
    if not amps:
        raise InfoCloneError("at least one mode amplitude is required")
    size = (cutoff + 1) ** len(amps)
    if size > MAX_AMPLITUDES:
        raise InfoCloneError(
            f"(cutoff+1)^n_modes = {size} exceeds the {MAX_AMPLITUDES} amplitude budget"
        )
    vec = coherent_vector(amps[0], cutoff).amplitudes
    for a in amps[1:]:
        vec = np.kron(vec, coherent_vector(a, cutoff).amplitudes)
    return FockState(n_modes=len(amps), cutoff=cutoff, amplitudes=vec)


def _mode_operator(op: sparse.csr_matrix, mode: int, n_modes: int) -> sparse.csr_matrix:
    """Embed a single-mode operator at the given mode index (0 = slowest)."""
    dim = op.shape[0]
    left = sparse.identity(dim**mode, format="csr")
    right = sparse.identity(dim ** (n_modes - mode - 1), format="csr")
    return sparse.kron(sparse.kron(left, op), right, format="csr")


def evolve(state: FockState, config: CouplingConfig) -> FockState:
    """Evolve under the exchange coupling between the held mode and the ancillas.

    The generator is t * (a_held^T B - a_held B^T) with B = sum_j r_j a_j over
    the ancilla modes. It is exactly antisymmetric on the truncated space, so
    the evolution is unitary there; only the amplitude content near the
    cutoff is approximate.

    The generator conserves the total photon number. On each sector that
    the cutoff keeps whole (total <= cutoff) its eigenvalues are i*k with
    integer k, so there the evolution has period 2*pi in R*t; the other
    sectors are the truncation tail. An angle |R*t| > pi is therefore
    reduced to [-pi, pi] first, which keeps the cost independent of t. The
    reduced angle is atan2(sin(R*t), cos(R*t)), so it agrees with the cos
    and sin that :func:`~infoclone.transform.build_transform` uses; a
    remainder by the float 2*pi would drift by about 4e-17 rad per radian.
    """
    n_modes = state.n_modes
    if len(config.couplings) + 1 != n_modes:
        raise InfoCloneError(
            f"config has {len(config.couplings)} couplings but the state has "
            f"{n_modes} modes (need couplings + 1)"
        )
    a = annihilation(state.cutoff)
    held = _mode_operator(a, 0, n_modes)
    ancilla_sum = sum(
        r * _mode_operator(a, j + 1, n_modes) for j, r in enumerate(config.couplings)
    )
    time, angle = config.time, config.angle
    if abs(angle) > math.pi:
        time = math.atan2(math.sin(angle), math.cos(angle)) / config.norm
    generator = time * (held.T @ ancilla_sum - held @ ancilla_sum.T)
    evolved = expm_multiply(generator.tocsc(), state.amplitudes, traceA=0.0)
    return FockState(n_modes=n_modes, cutoff=state.cutoff, amplitudes=evolved)


def fidelity(a: FockState, b: FockState) -> float:
    """Squared overlap |<a|b>|^2, symmetric in its arguments."""
    if a.n_modes != b.n_modes or a.cutoff != b.cutoff:
        raise InfoCloneError(
            f"states live on different spaces: {a.n_modes} modes at cutoff {a.cutoff} "
            f"vs {b.n_modes} modes at cutoff {b.cutoff}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
