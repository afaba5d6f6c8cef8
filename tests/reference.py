"""Independent references the tests compare the package against.

The numerical references use numpy and the stdlib only, each by a method
distinct from the code it checks:

- :func:`expm_antisymmetric` and :func:`generator_exponential`: the matrix
  exponential through a LAPACK eigensolver, against the transform's closed
  form and the Fock oracle's Chebyshev series;
- :func:`bessel_j`: Bessel values from a discrete Fourier transform, against
  the oracle's backward recurrence;
- :func:`bessel_j_exact`: one Bessel value from its power series in decimal
  arithmetic, for values below the 1e-16 a double FFT resolves;
- :func:`assert_exact_oracle`: the exact values an oracle check prints when
  the transform is right, from its truncation tail alone;
- :func:`philox4x32` and :func:`campaign_words`: the campaign stream's
  Philox4x32-10 blocks, one at a time in Python integers, from the Random123
  specification (Salmon et al., SC'11), against the package's vectorised
  rounds. :func:`box_muller` maps their words onto normal pairs with numpy's
  log1p, sqrt, cos and sin, the ufuncs the package's bytes depend on.

The per-clone reference sampler :func:`measure_clones` simulates ideal
quadrature measurements on clone states. A coherent state with amplitude
gamma has Gaussian position and momentum statistics: measuring
x = (a + a^T)/sqrt(2) yields Normal(sqrt(2)*Re(gamma), 1/2) and measuring p
yields Normal(sqrt(2)*Im(gamma), 1/2) (hbar = 1 units).
Sampling those distributions directly is therefore an exact simulation of
ideal homodyne-style measurement on the clones.

Each trial here draws all N clone samples; the tests compare the campaign
engine, which draws the two group averages directly, against this sampler.
A call draws from one Philox stream of SeedSequence(seed): first every
trial's position samples, then every trial's momentum samples.
"""

from __future__ import annotations

import decimal
import math

import numpy as np

from infoclone.errors import InfoCloneError, require_finite_complex, require_integer, require_seed
from infoclone.estimation import group_sizes

__all__ = [
    "EXACT_TOLERANCE",
    "QUADRATURE_STD",
    "assert_exact_oracle",
    "bessel_j",
    "box_muller",
    "campaign_words",
    "bessel_j_exact",
    "expm_antisymmetric",
    "generator_exponential",
    "measure_clones",
    "philox4x32",
]

# Per-sample quadrature noise of a coherent state: variance 1/2.
QUADRATURE_STD = math.sqrt(0.5)

_SQRT2 = math.sqrt(2.0)

# How far an oracle check's evolved norm and fidelity may sit from their exact
# values: the evolution rounds them by a few 1e-15, while one transform entry
# off by 1e-5 moves the fidelity by about 1e-9.
EXACT_TOLERANCE = 1e-13


_MASK32 = 2**32 - 1
# Philox4x32's round multipliers and Weyl key increments (Random123)
_PHILOX_M0, _PHILOX_M1 = 0xD2511F53, 0xCD9E8D57
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B9, 0xBB67AE85


def philox4x32(counter, key, rounds: int = 10) -> tuple[int, int, int, int]:
    """The Philox4x32 block of four 32-bit counter words under two key words.

    Each round takes the 64-bit products M0*c0 and M1*c2 and outputs
    (hi(M1*c2) ^ c1 ^ k0, lo(M1*c2), hi(M0*c0) ^ c3 ^ k1, lo(M0*c0)); the key
    grows by (W0, W1) mod 2^32 between rounds.
    """
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(rounds):
        if r:
            k0, k1 = (k0 + _PHILOX_W0) & _MASK32, (k1 + _PHILOX_W1) & _MASK32
        p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32
    return c0, c1, c2, c3


def campaign_words(seed: int, trial: int) -> tuple[int, int]:
    """Trial trial's block under seed, as (w0*2^32 + w1, w2*2^32 + w3)."""
    w0, w1, w2, w3 = philox4x32((trial & _MASK32, trial >> 32, 0, 0), (seed & _MASK32, seed >> 32))
    return w0 << 32 | w1, w2 << 32 | w3


def box_muller(words) -> np.ndarray:
    """The (n, 2) normal pairs of n blocks' (w0*2^32 + w1, w2*2^32 + w3).

    Each word's top 53 bits k give u = k*2^-53, and the pair is
    sqrt(-2*log1p(-u1))*(cos(2*pi*u2), sin(2*pi*u2)), each step one numpy
    ufunc on a contiguous array.
    """
    u1, u2 = (np.array([word >> 11 for word in column], dtype=float) * 2.0**-53 for column in zip(*words))
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


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


def expm_antisymmetric(a) -> np.ndarray:
    """exp(A) of a real antisymmetric matrix A.

    iA is Hermitian: with iA = V diag(lam) V^H from LAPACK's eigh,
    exp(A) = V diag(exp(-i lam)) V^H, which is real.
    """
    lam, v = np.linalg.eigh(1j * np.asarray(a, dtype=float))
    return ((v * np.exp(-1j * lam)) @ v.conj().T).real


def generator_exponential(couplings, time) -> np.ndarray:
    """exp(G) of the mode-space generator: first row t*r, first column -t*r."""
    r = np.asarray(couplings, dtype=float)
    g = np.zeros((r.size + 1, r.size + 1))
    g[0, 1:] = time * r
    g[1:, 0] = -time * r
    return expm_antisymmetric(g)


def bessel_j(rho: float) -> np.ndarray:
    """J_0(rho), J_1(rho), ... from the Fourier series of exp(i rho sin phi).

    J_k(rho) is the k-th Fourier coefficient of exp(i rho sin phi), so the
    DFT of size samples gives J_k plus aliases J_(k +- size), negligible on
    the first half returned: size >= 2 rho + 200. The phases rho sin phi
    carry an absolute rounding of about 1e-16 rho.
    """
    size = 2 ** math.ceil(math.log2(2.0 * rho + 200.0))
    phi = 2.0 * math.pi * np.arange(size) / size
    return (np.fft.fft(np.exp(1j * rho * np.sin(phi))) / size)[: size // 2].real


def bessel_j_exact(n: int, rho: float) -> float:
    """J_n(rho) from its power series, summed in decimal arithmetic.

    The terms (-1)^k (rho/2)^(2k+n) / (k! (k+n)!) are at most e^rho, so
    rho log10(e) + 40 digits keep the alternating sum to about 1e-40.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = int(rho * 0.4343) + 40
        half = decimal.Decimal(rho) / 2
        square = half * half
        term = half**n / math.factorial(n)
        total, k = term, 0
        # once k (k + n) > (rho/2)^2 the terms shrink and alternate, so the
        # rest of the sum is below the last term added
        while k * (k + n) <= square or abs(term) > decimal.Decimal("1e-40"):
            k += 1
            term *= -square / (k * (k + n))
            total += term
        return float(total)


def assert_exact_oracle(evolved_norm: float, fidelity: float, tail: float) -> None:
    """Assert that an oracle check printed the values of a right transform.

    Each kept sector evolves exactly and the transform keeps sum |a|^2, so
    the evolved state is the truncated prediction: its norm is
    sqrt(1 - tail) and its fidelity with the prediction (1 - tail)^2.
    """
    norm_defect = abs(evolved_norm - math.sqrt(1.0 - tail))
    fidelity_defect = abs(fidelity - (1.0 - tail) ** 2)
    assert norm_defect <= EXACT_TOLERANCE and fidelity_defect <= EXACT_TOLERANCE, (
        f"evolved_norm {evolved_norm!r} is {norm_defect:.3g} and fidelity {fidelity!r} is "
        f"{fidelity_defect:.3g} from their exact values at truncation tail {tail!r}"
    )
