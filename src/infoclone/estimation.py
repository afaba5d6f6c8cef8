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
averages, not the clones behind them, a chunk of at most _CHUNK trials at a
time: its time grows as O(trials) and its memory as O(_CHUNK). Its normals
come from the module's own counter-based stream, Philox4x32-10 (Salmon et
al., SC'11) and Box and Muller's map, written in numpy integer and float
operations: trial i's pair depends on the seed and i alone, and no command
imports numpy.random. A campaign's result is its report row, the dict that
``report.schema.json`` describes as ``$defs.row``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfoCloneError, require_finite_complex, require_integer, require_seed
from .transform import StrategySpec

__all__ = [
    "MAX_TRIALS",
    "clone_amplitude",
    "estimate_alpha",
    "group_sizes",
    "run_trials",
    "theoretical_std",
]

_SQRT2 = math.sqrt(2.0)
# Trials drawn, estimated and reduced at a time. The stream's counters and
# work arrays take 56 bytes a trial, 0.46 MB in all, and a chunk's normals,
# group averages, estimates and deviations are written in them: tracemalloc
# reads a 0.47 MB peak for any campaign of at least one chunk.
# Smaller chunks pay numpy's per-call overhead more often, and larger ones
# fall out of cache: on a 2-CPU Linux VM a campaign took 1.35x as long with
# chunks of 2^12 trials and 1.2x with chunks of 2^16.
_CHUNK = 2**13
# Philox4x32-10's multipliers, key increments and rounds (Salmon et al. 2011)
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10
_MASK32 = 2**32 - 1
# A 53-bit integer k times these gives -u and 2*pi*u for u = k*2^-53, bit for
# bit: they are -1 and 2*pi scaled by a power of two
_UNIFORM_SCALE = np.array([[-(2.0**-53)], [2.0 * math.pi * 2.0**-53]])
# The longest campaign accepted. At about 90 ns a trial it runs for about 90 s
# (93 s on a 2-CPU Linux VM); a larger count is refused at once instead of
# running for hours.
MAX_TRIALS = 10**9


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
    """Invert the clone map on the group averages y and z, numbers or arrays.

    On arrays the estimates are built in one new complex array, in place;
    y and z are left as they are.
    """
    shifted = z * 1j
    shifted += y
    return _invert(shifted, strategy)


def _invert(shifted, strategy: StrategySpec):
    """The estimates from y + i*z, a number or a complex array it overwrites."""
    shifted /= _SQRT2
    shifted -= strategy.offset_scale * strategy.beta
    shifted /= strategy.signal_scale
    return shifted


def theoretical_std(strategy: StrategySpec) -> tuple[float, float]:
    """Predicted (real, imaginary) standard deviation of the estimate."""
    n = strategy.n_copies
    n_position, n_momentum = group_sizes(n)
    scale = abs(strategy.sin_rt)
    return (
        math.sqrt(n / (4.0 * n_position)) / scale,
        math.sqrt(n / (4.0 * n_momentum)) / scale,
    )


class _NormalStream:
    """One seed's standard normal pairs, trial by trial.

    Trial i's pair comes from the Philox4x32-10 block of counter
    (i mod 2^32, i >> 32, 0, 0) under key (seed mod 2^32, seed >> 32). Its
    output words w0..w3 give u1 = ((w0*2^32 + w1) >> 11)*2^-53 and u2 the same
    way from w2 and w3, and Box and Muller's map gives the pair
    sqrt(-2*log1p(-u1))*(cos(2*pi*u2), sin(2*pi*u2)), from numpy's log1p,
    sqrt, cos and sin. The work arrays, for up to size trials at a time, are
    allocated once, here.
    """

    def __init__(self, seed: int, size: int):
        k0, k1 = seed & _MASK32, seed >> 32
        # A round multiplies the even words (c0, c2) and mixes each product
        # into the other pair. The words are held as the pairs (c0, c2) and
        # (c1, c3), and each round reverses the order within them, so a round
        # reads its odd pair backwards and its constants alternate.
        self._rounds = []
        for r in range(_PHILOX_ROUNDS):
            multipliers = _PHILOX_M
            keys = ((k1 + r * _PHILOX_W[1]) & _MASK32, (k0 + r * _PHILOX_W[0]) & _MASK32)
            if r % 2:
                multipliers, keys = multipliers[::-1], keys[::-1]
            self._rounds.append((np.array(multipliers, np.uint64)[:, None], np.array(keys, np.uint64)[:, None]))
        self._counts = np.arange(size, dtype=np.uint64)
        self._work = np.empty((3, 2, size), np.uint64)
        self._pairs = self._work[2].view(np.float64).reshape(size, 2)

    def words(self, first: int, n: int) -> np.ndarray:
        """The blocks of trials first, ..., first + n - 1 as a (2, n) view of
        the work arrays: rows w0*2^32 + w1 and w2*2^32 + w3."""
        even, odd, product = self._work[:, :, :n]
        # counters (c0, c2) = (i mod 2^32, 0) and (c1, c3) = (i >> 32, 0)
        np.add(self._counts[:n], np.uint64(first), out=product[0])
        np.bitwise_and(product[0], _MASK32, out=even[0])
        np.right_shift(product[0], 32, out=odd[0])
        even[1] = odd[1] = 0
        for multipliers, keys in self._rounds:
            np.multiply(even, multipliers, out=product)
            np.right_shift(product, 32, out=even)
            even ^= odd[::-1]
            even ^= keys
            np.bitwise_and(product, _MASK32, out=odd)
        np.left_shift(even, 32, out=product)
        product |= odd
        return product

    def fill(self, first: int, n: int) -> np.ndarray:
        """The pairs of trials first, ..., first + n - 1, n at most size, as
        the rows of a C-contiguous (n, 2) view of the work arrays."""
        words = self.words(first, n)
        words >>= 11
        # the spent even and odd work arrays hold the floats, and the spent
        # words' array the pairs
        radius, angle = uniform = self._work[0, :, :n].view(np.float64)
        # a ufunc that casts buffers the words, 64 KB a call and 48 bytes a
        # trial for the last chunk of a part-filled stream; words below 2^53
        # convert exactly
        np.copyto(uniform, words, casting="unsafe")
        uniform *= _UNIFORM_SCALE
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        cos = self._work[1, 0, :n].view(np.float64)
        np.cos(angle, out=cos)
        out = self._pairs[:n]
        np.multiply(radius, cos, out=out[:, 0])
        np.sin(angle, out=angle)
        np.multiply(radius, angle, out=out[:, 1])
        return out


def _chunk_moments(estimates: np.ndarray) -> tuple[int, complex, float, float]:
    """(count, mean, M2_re, M2_im) of one chunk's estimates.

    M2 is a quadrature's sum of squared deviations from its own mean, in the
    arithmetic of numpy's std, so sqrt(M2/(count - 1)) is std(ddof=1) to the
    bit. The deviations overwrite the estimates, once their mean is taken.
    """
    count = estimates.size
    mean = complex(estimates.mean())
    m2 = []
    for part in (estimates.real, estimates.imag):
        np.subtract(part, part.sum() / count, out=part)
        np.square(part, out=part)
        m2.append(float(part.sum()))
    return count, mean, m2[0], m2[1]


def _merge(a: tuple, b: tuple) -> tuple[int, complex, float, float]:
    """The moments of two chunks taken together (Chan, Golub & LeVeque 1979)."""
    count_a, mean_a, m2_re_a, m2_im_a = a
    count_b, mean_b, m2_re_b, m2_im_b = b
    count = count_a + count_b
    delta = mean_b - mean_a
    weight = count_a * count_b / count
    return (
        count,
        mean_a + delta * (count_b / count),
        m2_re_a + m2_re_b + delta.real**2 * weight,
        m2_im_a + m2_im_b + delta.imag**2 * weight,
    )


def run_trials(
    strategy: StrategySpec,
    true_alpha: complex,
    n_trials: int,
    seed: int,
) -> dict:
    """Repeat clone-measure-estimate n_trials times; return the report row.

    The mean of n iid Normal(mu, 1/2) samples is Normal(mu, 1/(2n)), so trial
    i draws its group averages y and z directly, from the first and second
    standard normal of its pair in the seed's stream (_NormalStream: the
    Philox4x32-10 block of counter i under the seed as key, through Box and
    Muller's map); the cost does not depend on N. The trials are drawn,
    estimated and reduced _CHUNK at a time, so the memory does not depend on
    n_trials either; a trial's pair depends on the seed and i alone, whatever
    the chunk it falls in. The row is reproducible bit for bit, and a longer
    campaign with the same seed starts with the same trials. std_re and
    std_im are sample standard deviations (n_trials - 1 divisor) of the
    per-trial estimates' quadratures; theory_std_re and theory_std_im are
    their predicted values. Each chunk is reduced to its count, mean and
    per-quadrature M2, and the chunks are merged in order: a campaign of one
    chunk prints the estimates' numpy mean and std(ddof=1) exactly, a longer
    one agrees with them to rounding. More than MAX_TRIALS trials, or a
    campaign whose mean or std overflows a double, is refused with an
    InfoCloneError, at the first chunk whose merge is not finite.
    """
    true_alpha = require_finite_complex(true_alpha, "true_alpha")
    m = require_integer(n_trials, "n_trials")
    if m < 2:
        raise InfoCloneError(f"n_trials must be >= 2, got {n_trials!r}")
    if m > MAX_TRIALS:
        raise InfoCloneError(f"n_trials must be <= {MAX_TRIALS}, got {n_trials!r}")
    seed = require_seed(seed)
    gamma = clone_amplitude(strategy, true_alpha)
    n_position, n_momentum = group_sizes(strategy.n_copies)
    center_y, spread_y = _SQRT2 * gamma.real, math.sqrt(2.0 * n_position)
    center_z, spread_z = _SQRT2 * gamma.imag, math.sqrt(2.0 * n_momentum)
    stream = _NormalStream(seed, min(_CHUNK, m))
    moments = None
    with np.errstate(all="ignore"):
        for start in range(0, m, _CHUNK):
            # the stream's block of a chunk's normals becomes, in place, its
            # group averages y and z, its estimates y + i*z and its
            # deviations: no chunk allocates an array
            xi = stream.fill(start, min(_CHUNK, m - start))
            y, z = xi.T
            y /= spread_y
            y += center_y
            z /= spread_z
            z += center_z
            estimates = _invert(xi.view(np.complex128)[:, 0], strategy)
            chunk = _chunk_moments(estimates)
            moments = chunk if moments is None else _merge(moments, chunk)
            _, mean, m2_re, m2_im = moments
            # a merge of a mean or M2 that is not finite is not finite either,
            # so the first chunk that overflows decides the campaign
            if not all(map(math.isfinite, (mean.real, mean.imag, m2_re, m2_im))):
                raise InfoCloneError(
                    f"alpha = {true_alpha!r} with beta = {strategy.beta!r} overflows a double: "
                    "the campaign's mean or std is not finite"
                )
    std_re = math.sqrt(m2_re / (m - 1))
    std_im = math.sqrt(m2_im / (m - 1))
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
