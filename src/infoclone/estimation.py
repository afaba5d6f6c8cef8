"""Recover the unknown amplitude from clone measurements and predict its spread.

Each clone carries gamma = s*alpha + c*beta with strategy constants
(s, c) = (signal_scale, offset_scale). On a coherent state of amplitude gamma
(hbar = 1) the quadrature x = (a + a^T)/sqrt(2) is Normal(sqrt(2)*Re(gamma),
1/2) and p is Normal(sqrt(2)*Im(gamma), 1/2), so the group averages give
y + i*z with expectation sqrt(2)*gamma, and the affine inversion

    alpha_est = ((y + i*z)/sqrt(2) - c*beta) / s

is unbiased for every strategy. A quadrature averaged over n_q clones has
variance 1/(2*n_q), so that quadrature of the estimate has standard deviation

    sqrt(N/(4*n_q)) / |sin_rt|,   (n_position, n_momentum) = (ceil(N/2), floor(N/2)).

For even N both quadratures give 1/sqrt(2) for the optimal choice (for any
number of clones), 1 for the offset choice, and (1/sqrt(2))/(1-epsilon) for
the near-optimal choice. For odd N the position quadrature, measured on the
larger group, is the tighter one. A campaign draws each trial's two group
averages, not the clones behind them. A campaign's result is its report
row, the dict that ``report.schema.json`` describes as ``$defs.row``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfoCloneError, require_finite_complex, require_integer, require_seed
from .transform import StrategySpec

__all__ = [
    "clone_amplitude",
    "estimate_alpha",
    "group_sizes",
    "run_trials",
    "theoretical_std",
]

_SQRT2 = math.sqrt(2.0)


def group_sizes(n_copies: int) -> tuple[int, int]:
    """(n_position, n_momentum) = (ceil(N/2), floor(N/2)) for N clones."""
    n = require_integer(n_copies, "n_copies")
    if n < 2:
        raise InfoCloneError(f"need at least 2 clones to fill both groups, got {n_copies!r}")
    return (n + 1) // 2, n // 2


def clone_amplitude(strategy: StrategySpec, alpha: complex) -> complex:
    """Per-clone amplitude produced from the held amplitude alpha."""
    alpha = require_finite_complex(alpha, "alpha")
    return strategy.signal_scale * alpha + strategy.offset_scale * strategy.beta


def estimate_alpha(y, z, strategy: StrategySpec):
    """Invert the clone map on the group averages y and z, numbers or arrays."""
    shifted = (y + 1j * z) / _SQRT2 - strategy.offset_scale * strategy.beta
    return shifted / strategy.signal_scale


def theoretical_std(strategy: StrategySpec) -> tuple[float, float]:
    """Predicted (real, imaginary) standard deviation of the estimate."""
    n = strategy.n_copies
    n_position, n_momentum = group_sizes(n)
    scale = abs(strategy.sin_rt)
    return (
        math.sqrt(n / (4.0 * n_position)) / scale,
        math.sqrt(n / (4.0 * n_momentum)) / scale,
    )


def run_trials(
    strategy: StrategySpec,
    true_alpha: complex,
    n_trials: int,
    seed: int,
) -> dict:
    """Repeat clone-measure-estimate n_trials times; return the report row.

    The mean of n iid Normal(mu, 1/2) samples is Normal(mu, 1/(2n)), so trial
    i draws its group averages y and z directly, from standard normals 2i and
    2i+1 of the Philox stream of SeedSequence(seed); the cost does not depend
    on N. The row is reproducible bit for bit, and a longer campaign with
    the same seed starts with the same trials. std_re and std_im are sample
    standard deviations (n_trials - 1 divisor) of the per-trial estimates'
    quadratures; theory_std_re and theory_std_im are their predicted values.
    A campaign whose mean or std overflows a double is refused with an
    InfoCloneError.
    """
    true_alpha = require_finite_complex(true_alpha, "true_alpha")
    m = require_integer(n_trials, "n_trials")
    if m < 2:
        raise InfoCloneError(f"n_trials must be >= 2, got {n_trials!r}")
    seed = require_seed(seed)
    gamma = require_finite_complex(clone_amplitude(strategy, true_alpha), "gamma")
    n_position, n_momentum = group_sizes(strategy.n_copies)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    xi = rng.standard_normal((m, 2))
    with np.errstate(all="ignore"):
        y = _SQRT2 * gamma.real + xi[:, 0] / math.sqrt(2.0 * n_position)
        z = _SQRT2 * gamma.imag + xi[:, 1] / math.sqrt(2.0 * n_momentum)
        estimates = estimate_alpha(y, z, strategy)
        mean = complex(estimates.mean())
        std_re = float(estimates.real.std(ddof=1))
        std_im = float(estimates.imag.std(ddof=1))
    if not all(map(math.isfinite, (mean.real, mean.imag, std_re, std_im))):
        raise InfoCloneError(
            f"alpha = {true_alpha!r} with beta = {strategy.beta!r} overflows a double: "
            "the campaign's mean or std is not finite"
        )
    theory_std_re, theory_std_im = theoretical_std(strategy)
    return {
        "strategy": strategy.kind.value,
        "n_copies": strategy.n_copies,
        "epsilon": strategy.epsilon,
        "beta_re": strategy.beta.real,
        "beta_im": strategy.beta.imag,
        "sin_rt": strategy.sin_rt,
        "signal_scale": strategy.signal_scale,
        "offset_scale": strategy.offset_scale,
        "alpha_re": true_alpha.real,
        "alpha_im": true_alpha.imag,
        "trials": m,
        "seed": seed,
        "mean_re": mean.real,
        "mean_im": mean.imag,
        "std_re": std_re,
        "std_im": std_im,
        "theory_std_re": theory_std_re,
        "theory_std_im": theory_std_im,
    }
