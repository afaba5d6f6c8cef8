"""Number-conserving Fock oracle for the cloning interaction.

The held mode and the N ancillas (m = N + 1 modes) are realized on the
occupation-number basis truncated at a total photon number: every
occupation (n_1, ..., n_m) with n_1 + ... + n_m <= cutoff, C(cutoff+m, m)
states in all. The basis is ordered lexicographically with mode 1 slowest,
which is the row-major order of the per-mode grid (cutoff+1)^m with the
states above the cutoff left out; a state's index is its stars-and-bars
rank. This gives a brute-force, transform-independent check that a product
of coherent states evolves into a product of coherent states whose
amplitudes are the ones predicted by :func:`~infoclone.transform.
build_transform`. It is test infrastructure, deliberately capped at 10^6
amplitudes, not a general-purpose simulator.

The exchange generator conserves the total photon number, so on this basis
it is block diagonal, one block per kept sector, and each block is the
generator itself restricted to its sector: the evolution is exact on every
kept state. The only error is the weight the truncation drops from the
input, tau = P(Poisson(sum_j |a_j|^2) > cutoff). The transform is
orthogonal and keeps sum_j |a_j|^2, so the predicted product state loses the
same weight, and when the transform is right the evolved state is exactly
the truncated prediction: fidelity(evolved, predicted) = (1 - tau)^2.
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
    "FIDELITY_THRESHOLD",
    "MAX_AMPLITUDES",
    "MAX_TAIL",
    "FockState",
    "evolve",
    "fidelity",
    "product_state",
    "truncation_tail",
]

MAX_AMPLITUDES = 10**6
FIDELITY_THRESHOLD = 0.999
# The largest truncation tail that leaves fidelity (1 - tau)^2 within half of
# the 1 - FIDELITY_THRESHOLD slack; the other half is for the transform.
MAX_TAIL = 1.0 - math.sqrt(1.0 - (1.0 - FIDELITY_THRESHOLD) / 2.0)


def _state_size(n_modes: int, cutoff: int) -> int:
    """C(cutoff+n_modes, n_modes), checked against the amplitude budget."""
    if n_modes < 1:
        raise InfoCloneError(f"n_modes must be >= 1, got {n_modes!r}")
    if cutoff < 1:
        raise InfoCloneError(f"cutoff must be >= 1, got {cutoff!r}")
    size = math.comb(cutoff + n_modes, n_modes)
    if size > MAX_AMPLITUDES:
        raise InfoCloneError(
            f"C(cutoff+n_modes, n_modes) = {size} exceeds the {MAX_AMPLITUDES} amplitude budget"
        )
    return size


@dataclass(frozen=True, eq=False)
class FockState:
    """Complex amplitudes over the occupations of n_modes with total <= cutoff."""

    n_modes: int
    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        size = _state_size(self.n_modes, self.cutoff)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (size,):
            raise InfoCloneError(
                f"expected {size} amplitudes for {self.n_modes} modes at cutoff "
                f"{self.cutoff}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _basis(n_modes: int, cutoff: int) -> np.ndarray:
    """Every occupation with total <= cutoff, one per row, in basis order."""
    _state_size(n_modes, cutoff)
    basis = np.zeros((1, 0), dtype=np.int64)
    room = np.array([cutoff])
    for _ in range(n_modes):
        # each row branches into n = 0 .. room for the next mode
        counts = room + 1
        rows = np.repeat(np.arange(len(room)), counts)
        n = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        basis = np.column_stack([basis[rows], n])
        room = room[rows] - n
    return basis


def _rank(occupations: np.ndarray, cutoff: int) -> np.ndarray:
    """Index of each occupation row in the basis order (stars and bars).

    Mode i, with room R left by the modes before it and s modes from it on,
    adds the C(R+s, s) - C(R-n_i+s, s) occupations whose mode i holds fewer
    photons. Every count is at most the state size, so nothing overflows.
    """
    n_modes = occupations.shape[1]
    # fits[R, s] = C(R+s, s), the occupations of s modes with total <= R
    fits = np.ones((cutoff + 1, n_modes + 1), dtype=np.int64)
    for s in range(1, n_modes + 1):
        fits[:, s] = np.cumsum(fits[:, s - 1])
    room = cutoff - np.cumsum(occupations, axis=1) + occupations
    modes_left = np.arange(n_modes, 0, -1)
    return (fits[room, modes_left] - fits[room - occupations, modes_left]).sum(axis=1)


def truncation_tail(amplitudes: Sequence[complex], cutoff: int) -> float:
    """P(Poisson(sum_j |a_j|^2) > cutoff): the weight the truncation drops.

    The upper tail is summed directly, so it stays accurate far below the
    1e-16 at which 1 - cdf bottoms out.
    """
    radius = math.hypot(*(x for a in amplitudes for x in (a.real, a.imag)))
    mean = radius * radius  # inf, not OverflowError, past the double range
    if mean == 0.0:
        return 0.0
    if math.isinf(mean):
        return 1.0
    log_mean = math.log(mean)

    def pmf(n: int) -> float:
        return math.exp(n * log_mean - mean - math.lgamma(n + 1))

    if mean > cutoff:
        # most of the weight lies beyond the cutoff, where 1 - cdf is accurate
        return max(0.0, 1.0 - math.fsum(pmf(n) for n in range(cutoff + 1)))
    # the terms fall from n = cutoff + 1 on, since mean / n < 1
    n, term, tail = cutoff + 1, pmf(cutoff + 1), 0.0
    while term > tail * 1e-17:
        tail += term
        n += 1
        term *= mean / n
    return tail


def product_state(amplitudes: Sequence[complex], cutoff: int) -> FockState:
    """Product of coherent states, one per mode, truncated at total <= cutoff.

    Mode j contributes c_n = exp(-|a_j|^2 / 2) a_j^n / sqrt(n!) at its
    occupation n. Refused when the truncation tail exceeds MAX_TAIL.
    """
    amps = np.array([require_finite_complex(a, "amplitude") for a in amplitudes])
    if not amps.size:
        raise InfoCloneError("at least one mode amplitude is required")
    basis = _basis(amps.size, cutoff)
    tail = truncation_tail(amps, cutoff)
    if tail > MAX_TAIL:
        raise InfoCloneError(
            f"truncation tail P(Poisson(sum |a|^2) > {cutoff}) = {tail:.3g} exceeds {MAX_TAIL:.3g}"
        )
    # table[j, n]: the coherent amplitude of mode j at occupation n
    steps = np.empty((amps.size, cutoff + 1), dtype=complex)
    steps[:, 0] = np.exp(-np.abs(amps) ** 2 / 2.0)
    steps[:, 1:] = amps[:, None] / np.sqrt(np.arange(1.0, cutoff + 1.0))
    table = np.cumprod(steps, axis=1)
    vec = table[np.arange(amps.size), basis].prod(axis=1)
    return FockState(n_modes=amps.size, cutoff=cutoff, amplitudes=vec)


def evolve(state: FockState, config: CouplingConfig) -> FockState:
    """Evolve under the exchange coupling between the held mode and the ancillas.

    The generator is t * (a_held^T B - a_held B^T) with B = sum_j r_j a_j over
    the ancilla modes. Its a_held^T a_j term moves one photon from ancilla j
    to the held mode, (n_held, n_j) -> (n_held + 1, n_j - 1), with weight
    sqrt((n_held + 1) n_j); the other term is its negative transpose. Moves
    keep the total, so the generator is exact on the truncated basis and
    antisymmetric, and the evolution is orthogonal there.

    On each sector its eigenvalues are i*k with integer k, so the evolution
    has period 2*pi in R*t. An angle |R*t| > pi is therefore reduced to
    [-pi, pi] first, which keeps the cost independent of t. The reduced
    angle is atan2(sin(R*t), cos(R*t)), so it agrees with the cos and sin
    that :func:`~infoclone.transform.build_transform` uses; a remainder by
    the float 2*pi would drift by about 4e-17 rad per radian.
    """
    n_modes, cutoff = state.n_modes, state.cutoff
    if len(config.couplings) + 1 != n_modes:
        raise InfoCloneError(
            f"config has {len(config.couplings)} couplings but the state has "
            f"{n_modes} modes (need couplings + 1)"
        )
    time, angle = config.time, config.angle
    if abs(angle) > math.pi:
        time = math.atan2(math.sin(angle), math.cos(angle)) / config.norm
    basis = _basis(n_modes, cutoff)
    rows, cols, data = [], [], []
    for j, r in enumerate(config.couplings, start=1):
        (source,) = np.nonzero(basis[:, j])
        moved = basis[source]
        weight = time * r * np.sqrt((moved[:, 0] + 1.0) * moved[:, j])
        moved[:, 0] += 1
        moved[:, j] -= 1
        target = _rank(moved, cutoff)
        # the a_held^T a_j move and its negative transpose
        rows += [target, source]
        cols += [source, target]
        data += [weight, -weight]
    size = len(basis)
    generator = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    ).tocsc()
    evolved = expm_multiply(generator, state.amplitudes, traceA=0.0)
    return FockState(n_modes=n_modes, cutoff=cutoff, amplitudes=evolved)


def fidelity(a: FockState, b: FockState) -> float:
    """Squared overlap |<a|b>|^2, symmetric in its arguments."""
    if a.n_modes != b.n_modes or a.cutoff != b.cutoff:
        raise InfoCloneError(
            f"states live on different spaces: {a.n_modes} modes at cutoff {a.cutoff} "
            f"vs {b.n_modes} modes at cutoff {b.cutoff}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
