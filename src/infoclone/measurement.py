"""Ideal quadrature measurements on clone states.

A coherent state with amplitude gamma has Gaussian position and momentum
statistics: measuring x = (a + a^T)/sqrt(2) yields Normal(sqrt(2)*Re(gamma),
1/2) and measuring p yields Normal(sqrt(2)*Im(gamma), 1/2) (hbar = 1 units).
Sampling those distributions directly is therefore an exact simulation of
ideal homodyne-style measurement on the clones.

Reproducibility contract: every random draw comes from a Philox stream keyed
by SeedSequence(seed, spawn_key=(trial_index, group_tag)), one stream per
measurement group per trial. Streams are independent, so reordering the
position and momentum groups never changes either group's samples, and
trials can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfoCloneError, require_finite_complex, require_seed

__all__ = [
    "GROUP_MOMENTUM",
    "GROUP_POSITION",
    "QUADRATURE_STD",
    "MeasurementRecord",
    "group_sizes",
    "measure_clones",
    "substream",
]

# Per-sample quadrature noise of a coherent state: variance 1/2.
QUADRATURE_STD = math.sqrt(0.5)

GROUP_POSITION = 0
GROUP_MOMENTUM = 1

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MeasurementRecord:
    """Group averages from measuring N clones that all carry amplitude gamma.

    y is the mean of the position samples, z the mean of the momentum samples.
    """

    y: float
    z: float


def group_sizes(n_copies: int) -> tuple[int, int]:
    """(n_position, n_momentum) = (ceil(N/2), floor(N/2)) for N clones."""
    n = int(n_copies)
    if n < 2:
        raise InfoCloneError(f"need at least 2 clones to fill both groups, got {n_copies!r}")
    return (n + 1) // 2, n // 2


def substream(seed: int, trial_index: int, group_tag: int) -> np.random.Generator:
    """Philox stream for one measurement group of one trial."""
    seed = require_seed(seed)
    if trial_index < 0:
        raise InfoCloneError(f"trial_index must be >= 0, got {trial_index!r}")
    key = np.random.SeedSequence(entropy=seed, spawn_key=(int(trial_index), int(group_tag)))
    return np.random.Generator(np.random.Philox(key))


def measure_clones(
    gamma: complex,
    n_copies: int,
    seed: int,
    trial_index: int = 0,
) -> MeasurementRecord:
    """Measure N clones, position on one group and momentum on the other.

    The groups have the sizes :func:`group_sizes` gives, and each draws its
    samples in one batch from its own substream.
    """
    gamma = require_finite_complex(gamma, "gamma")
    n_position, n_momentum = group_sizes(n_copies)
    seed = require_seed(seed)
    rng_pos = substream(seed, trial_index, GROUP_POSITION)
    rng_mom = substream(seed, trial_index, GROUP_MOMENTUM)
    y = float(rng_pos.normal(_SQRT2 * gamma.real, QUADRATURE_STD, size=n_position).mean())
    z = float(rng_mom.normal(_SQRT2 * gamma.imag, QUADRATURE_STD, size=n_momentum).mean())
    return MeasurementRecord(y=y, z=z)
