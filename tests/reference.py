"""Per-clone reference sampler for ideal quadrature measurements on clone states.

A coherent state with amplitude gamma has Gaussian position and momentum
statistics: measuring x = (a + a^T)/sqrt(2) yields Normal(sqrt(2)*Re(gamma),
1/2) and measuring p yields Normal(sqrt(2)*Im(gamma), 1/2) (hbar = 1 units).
Sampling those distributions directly is therefore an exact simulation of
ideal homodyne-style measurement on the clones.

Each trial here draws all N clone samples; the tests compare the campaign
engine, which draws the two group averages directly, against this sampler.
A call draws from one Philox stream of SeedSequence(seed): first every
trial's position samples, then every trial's momentum samples.
"""

from __future__ import annotations

import math

import numpy as np

from infoclone.errors import InfoCloneError, require_finite_complex, require_integer, require_seed
from infoclone.estimation import group_sizes

__all__ = ["QUADRATURE_STD", "measure_clones"]

# Per-sample quadrature noise of a coherent state: variance 1/2.
QUADRATURE_STD = math.sqrt(0.5)

_SQRT2 = math.sqrt(2.0)


def measure_clones(
    gamma: complex,
    n_copies: int,
    n_trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Measure N clones n_trials times, position on one group, momentum on the other.

    Returns the per-trial group averages (y, z) of the position and momentum
    samples. The groups have the sizes :func:`group_sizes` gives; the
    samples are an (n_trials, n_position) block followed by an
    (n_trials, n_momentum) block of one stream, and each row is averaged.
    """
    gamma = require_finite_complex(gamma, "gamma")
    n_position, n_momentum = group_sizes(n_copies)
    m = require_integer(n_trials, "n_trials")
    if m < 1:
        raise InfoCloneError(f"n_trials must be >= 1, got {n_trials!r}")
    seed = require_seed(seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    y = rng.normal(_SQRT2 * gamma.real, QUADRATURE_STD, size=(m, n_position)).mean(axis=1)
    z = rng.normal(_SQRT2 * gamma.imag, QUADRATURE_STD, size=(m, n_momentum)).mean(axis=1)
    return y, z
