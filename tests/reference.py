"""Independent references the tests compare the package against.

The numerical references use numpy and the stdlib only, each by a method
distinct from the code it checks:

- :func:`expm_antisymmetric` and :func:`generator_exponential`: the matrix
  exponential through a LAPACK eigensolver, against the transform's closed
  form and the Fock oracle's Chebyshev series;
- :func:`bessel_j`: Bessel values from a discrete Fourier transform, against
  the oracle's backward recurrence;
- :func:`bessel_j_exact`: one Bessel value from its power series in decimal
  arithmetic, for values below the 1e-16 a double FFT resolves.

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
    "QUADRATURE_STD",
    "bessel_j",
    "bessel_j_exact",
    "expm_antisymmetric",
    "generator_exponential",
    "measure_clones",
]

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
