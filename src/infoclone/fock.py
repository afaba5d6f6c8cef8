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

The generator is A = t * (a_held^T B - a_held B^T) with B = sum_j r_j a_j
over the ancillas. Its a_held^T a_j term moves one photon from ancilla j to
the held mode, (n_held, n_j) -> (n_held + 1, n_j - 1), with weight
sqrt((n_held + 1) n_j); the other term is its negative transpose. Moves keep
the total photon number, so A is block diagonal, one block per sector, and
the evolution is exact and orthogonal on every kept state. The only error is
the weight the truncation drops from the input,
tau = P(Poisson(sum_j |a_j|^2) > cutoff). The transform is orthogonal and
keeps sum_j |a_j|^2, so the predicted product loses the same weight, and
when the transform is right the evolved state is exactly the truncated
prediction: their fidelity is (1 - tau)^2.

A coherent product's sector weights are Poisson(sum_j |a_j|^2), and each
sector evolves on its own. :func:`overlap`, the one entry point, applies the
guards at the cutoff asked for and reads K' there off :func:`truncation_tail`.
Both truncations spend one budget, 1e-17 of the unit input: K' is the
smallest sector above which the input holds at most 1e-17 of its weight,
which moves the printed norm and fidelity by at most 2e-17, and each band's
series stops once the terms it leaves out move the band by under 2e-17, far
below the evolution's rounding of a few 1e-15. overlap takes sectors 0..K'
in bands of whole, consecutive sectors, of at most _BAND_ROWS rows unless one
sector is larger, builds each band's rows and the input and the prediction
on them, evolves the input and sums: no basis or state is built whole. Norms
and overlaps are ufunc sums, not BLAS calls: in a process whose OpenBLAS
has worker threads (the CLI starts none unless OPENBLAS_NUM_THREADS asks for
them), a BLAS call on a long vector wakes one, which spins until the run ends.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .errors import InfoCloneError, require_finite_complex, require_integer
from .transform import CouplingConfig

__all__ = [
    "FIDELITY_THRESHOLD",
    "MAX_AMPLITUDES",
    "MAX_TAIL",
    "overlap",
    "truncation_tail",
]

MAX_AMPLITUDES = 10**6
FIDELITY_THRESHOLD = 0.999
# The largest truncation tail that leaves fidelity (1 - tau)^2 within half of
# the 1 - FIDELITY_THRESHOLD slack; the other half is for the transform.
MAX_TAIL = 1.0 - math.sqrt(1.0 - (1.0 - FIDELITY_THRESHOLD) / 2.0)
# The oracle's one error budget, a share of the unit input: the weight w that
# may lie above the sectors it evolves, and the terms each band's series leaves
# out. Dropping w moves evolved_norm by at most w/2 and fidelity by at most 2w,
# under a fifth of the last bit of a number below 1.
_NEGLIGIBLE = 1e-17
# The most rows overlap works on at once: it evolves whole, consecutive
# sectors in bands of at most this many rows (a larger sector is a band of its
# own), so its move tables and recurrence vectors do not grow with the state.
_BAND_ROWS = 2**12


def _squared(v: np.ndarray) -> np.ndarray:
    """|v|^2, entry by entry."""
    return np.square(v.real) + np.square(v.imag)


def _branch(room: np.ndarray) -> np.ndarray:
    """n = 0 .. room[i] for each i in turn, one array."""
    counts = room + 1
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _rows(n_modes: int, lo: int, hi: int) -> np.ndarray:
    """Every occupation with total in lo..hi, one per row, in basis order.

    Each column is written once, into the final array: the prefixes
    (n_1, ..., n_j) are enumerated mode by mode, and each fills the
    C(room + rest, rest) - C(room - (hi - lo) - 1 + rest, rest) consecutive
    rows that complete it, room being the photons it leaves below hi and
    rest the modes after it.
    """
    # every entry is at most hi; signed, since np.bincount refuses sums of
    # unsigned 64-bit integers. The columns are written in this type: an
    # assignment that casts takes a 64 KB buffer.
    dtype = np.int16  # an oracle's cutoff is at most 1412: C(1414, 2) <= 10^6 < C(1415, 2)
    width = hi - lo
    size = math.comb(hi + n_modes, n_modes) - math.comb(lo - 1 + n_modes, n_modes)
    rows = np.empty((size, n_modes), dtype=dtype)
    # binomials[rest][r] = C(r + rest, rest), r = 0..hi: each the running sum
    # of the one before, exact in int64, as none exceeds C(hi + n_modes, n_modes)
    binomials = [np.ones(hi + 1, dtype=np.int64)]
    for _ in range(n_modes - 1):
        binomials.append(np.cumsum(binomials[-1]))
    room = np.array([hi])
    for j in range(n_modes - 1):
        # each prefix branches into n = 0 .. room for the next mode
        n = _branch(room)
        room = np.repeat(room, room + 1) - n
        table = binomials[n_modes - 1 - j]
        counts = table.copy()
        counts[width + 1 :] -= table[:lo]
        rows[:, j] = np.repeat(n.astype(dtype), counts[room])
    # the last mode completes each prefix alone, one row per n from
    # max(0, room - (hi - lo)) to room: steps of +1, and at each prefix but the
    # first a step from the room of the one before, summed in place in the row type
    first = np.maximum(room - width, 0)
    last = rows[:, -1]
    last[:] = 1
    last[0] = first[0]
    last[np.cumsum(room[:-1] - first[:-1] + 1)] = first[1:] - room[:-1]
    np.cumsum(last, out=last)
    return rows


def truncation_tail(amplitudes: Sequence[complex], cutoff: int) -> float:
    """P(Poisson(sum_j |a_j|^2) > cutoff): the weight the truncation drops.

    Whenever the terms fall from n = cutoff + 1 on (mean < cutoff + 2), the
    tail is summed directly, so it is accurate at every cutoff, 0 included,
    far below the 1e-16 at which 1 - cdf bottoms out.
    """
    cutoff = require_integer(cutoff, "cutoff")
    radius = math.hypot(*(x for a in amplitudes for x in (a.real, a.imag)))
    mean = radius * radius  # inf, not OverflowError, past the double range
    if mean == 0.0:
        return 0.0
    if math.isinf(mean):
        return 1.0
    log_mean = math.log(mean)

    def pmf(n: int) -> float:
        return math.exp(n * log_mean - mean - math.lgamma(n + 1))

    if mean >= cutoff + 2:
        # most of the weight lies beyond the cutoff, where 1 - cdf is accurate
        return max(0.0, 1.0 - math.fsum(pmf(n) for n in range(cutoff + 1)))
    # the terms fall from n = cutoff + 1 on, since mean / (cutoff + 2) < 1
    n, term, tail = cutoff + 1, pmf(cutoff + 1), 0.0
    while term > tail * 1e-17:
        tail += term
        n += 1
        term *= mean / n
    return tail


def _admitted(amplitudes: Sequence[complex], cutoff: int) -> tuple[np.ndarray, float, int]:
    """The mode amplitudes as an array, their truncation tail at cutoff and K'.

    Refused for a cutoff below 1, over the amplitude budget or when the tail
    exceeds MAX_TAIL. K' is the smallest k such that sectors k+1..cutoff
    hold at most _NEGLIGIBLE of the weight of sectors 0..cutoff, read off
    truncation_tail by bisection over floor(sum |a|^2) - 2..cutoff; the
    vacuum has K' = 0.
    """
    amps = np.array([require_finite_complex(a, "amplitude") for a in amplitudes])
    if not amps.size:
        raise InfoCloneError("at least one mode amplitude is required")
    if require_integer(cutoff, "cutoff") < 1:
        raise InfoCloneError(f"cutoff must be >= 1, got {cutoff!r}")
    size = math.comb(cutoff + amps.size, amps.size)
    if size > MAX_AMPLITUDES:
        raise InfoCloneError(
            f"C(cutoff+n_modes, n_modes) = {size} exceeds the {MAX_AMPLITUDES} amplitude budget"
        )
    tail = truncation_tail(amps, cutoff)
    if tail > MAX_TAIL:
        raise InfoCloneError(
            f"truncation tail P(Poisson(sum |a|^2) > {cutoff}) = {tail:.3g} exceeds {MAX_TAIL:.3g}"
        )
    # the sector law's median is at least mean - ln 2, so below floor(mean) - 2
    # the tail above k is over 1/2, far over the budget: no probe is needed there
    start = max(0, math.floor(_squared(amps).sum()) - 2)
    top = bisect.bisect_left(
        range(cutoff + 1), True, lo=start, key=lambda k: truncation_tail(amps, k) - tail <= _NEGLIGIBLE * (1.0 - tail)
    )
    return amps, tail, top


def _coherent(amps: np.ndarray, cutoff: int, basis: np.ndarray) -> np.ndarray:
    """The product of coherent states amps on the given rows, of totals at most cutoff.

    Mode j contributes c_n = exp(-|a_j|^2 / 2) a_j^n / sqrt(n!) at its
    occupation n.
    """
    # table[j, n]: the coherent amplitude of mode j at occupation n
    steps = np.empty((amps.size, cutoff + 1), dtype=complex)
    # exp(-|a_j|^2 / 2) is 0 in doubles once |a_j| > 39, so an |a_j|^2 past
    # the double range rightly gives exp(-inf) = 0
    with np.errstate(over="ignore"):
        steps[:, 0] = np.exp(-np.abs(amps) ** 2 / 2.0)
    steps[:, 1:] = amps[:, None] / np.sqrt(np.arange(1.0, cutoff + 1.0))
    table = np.cumprod(steps, axis=1)
    vec = table[0, basis[:, 0]]
    for j in range(1, amps.size):
        vec *= table[j, basis[:, j]]
    return vec


def _bessel_coefficients(rho: float, norm: float) -> np.ndarray:
    """J_0(rho), J_1(rho), ... up to the first k > rho with |J_k| norm < 1e-17.

    norm is that of the vector the series is applied to, which the terms left
    out move by about 2 |J_k| norm.

    Miller's backward recurrence, rescaled at every step: it is carried as
    the ratios J_k / J_{k-1} = rho / (2k - rho J_{k+1} / J_k), which never
    divide by rho, so a tiny rho cannot overflow and rho = 0 gives exactly
    (1, 0, ...). It starts 27 (rho/2)^(1/3) + 30 orders past rho, where
    J_start < 1e-45 for every rho up to pi * 1412 (the largest the amplitude
    budget admits), and is normalised by J_0 + 2 sum_k J_2k = 1.
    """
    start = math.ceil(rho + 27.0 * (rho / 2.0) ** (1.0 / 3.0)) + 30
    ratios = np.ones(start + 1)
    ratio = 0.0
    for k in range(start, 0, -1):
        ratio = rho / (2.0 * k - rho * ratio)
        ratios[k] = ratio
    scaled = np.cumprod(ratios)  # J_k / J_0
    coeffs = scaled / (1.0 + 2.0 * scaled[2::2].sum())
    (small,) = np.nonzero((np.arange(start + 1) > rho) & (np.abs(coeffs) * norm < _NEGLIGIBLE))
    return coeffs[: small[0]]


def _add_generator(out: np.ndarray, x: np.ndarray, offset: int, moves, part: np.ndarray) -> None:
    """out += G x for the generator G given as per-ancilla moves.

    The move of ancilla j sends row source[i] to row offset + i with weight
    weight[i]. Its negative transpose is a gather too, not a scatter: row r
    reads row partner[r] with weight back[r], zero where n_j = 0 (a scatter
    is slower). The products go through part, a buffer of x's size: a fresh
    array per gather costs page faults whenever malloc hands its memory back.
    mode="clip" gathers straight into part; the default mode buffers.
    """
    for source, weight, partner, back in moves:
        head = part[: len(source)]
        x.take(source, out=head, mode="clip")
        head *= weight
        out[offset:] += head
        x.take(partner, out=part, mode="clip")
        part *= back
        out += part


def _bands(n_modes: int, top: int) -> list[tuple[int, int]]:
    """Sectors 0..top as consecutive ranges (lo, hi) that share their rows evenly.

    The share is the rows of sectors 0..top over the fewest bands of at most
    _BAND_ROWS rows. A band is closed before the next sector would take it
    past the share; a sector larger than the share is a band of its own.
    """
    rows = math.comb(top + n_modes, n_modes)
    share = rows / math.ceil(rows / _BAND_ROWS)
    bands, lo, held = [], 0, 0
    for n in range(top + 1):
        size = math.comb(n + n_modes - 1, n_modes - 1)
        if held and held + size > share:
            bands.append((lo, n - 1))
            lo, held = n, 0
        held += size
    bands.append((lo, top))
    return bands


def _reduced_angle(config: CouplingConfig) -> float:
    """config's R*t, reduced to [-pi, pi].

    A / (R*t) rotates the held mode into the mode B / R, so on the sector of
    n photons its eigenvalues are i*k with integer |k| <= n: the evolution
    has period 2*pi in R*t, and the reduction keeps its cost independent of
    t. It is atan2(sin(R*t), cos(R*t)) of config.angle, which carries the
    rounding of fl(R)*t, about 2e-16 |R*t| rad. :func:`~infoclone.transform.
    build_transform` takes the same rounded angle, so the oracle cannot
    detect that error.
    """
    angle = config.angle
    if abs(angle) > math.pi:
        angle = math.atan2(math.sin(angle), math.cos(angle))
    return angle


def _evolve_band(basis: np.ndarray, v: np.ndarray, angle: float, config: CouplingConfig, top: int) -> np.ndarray:
    """exp(A) v on a band of whole sectors whose highest is top, at the reduced angle.

    basis holds the band's rows in basis order and v their amplitudes, which
    the recurrence overwrites. The rows with n_held >= 1 come last, and the
    move of ancilla j maps the rows with n_j >= 1, in order, one to one onto
    them, so A is applied by slicing and two gathers per ancilla, without a
    sparse matrix.

    exp(A) v is the Chebyshev-Bessel series (Tal-Ezer & Kosloff 1984)
    J_0(rho) v + 2 sum_k J_k(rho) chi_k, with chi_0 = v, chi_1 = A v / rho
    and chi_{k+1} = (2/rho) A chi_k + chi_{k-1}; its coefficients are real
    because A is real antisymmetric. It needs rho >= |A|, and
    rho = |R*t| * top is |A| on the band exactly, so a lower band takes
    fewer terms. It stops at the first k > rho with |J_k| |v| < 1e-17: the
    terms left out move the band's evolved vector by under 2e-17, so a band
    of little weight takes few terms past rho. The rounding of the recurrence
    dominates, and on the cutoff-60 oracle check the evolved state is off by
    about 1e-15 in norm.
    """
    coeffs = _bessel_coefficients(abs(angle) * top, math.sqrt(_squared(v).sum()))
    # 2 A / rho = (2 / top) sign(R*t) A / (R*t): r / R cannot overflow. The
    # vacuum, top = 0, has no moves.
    scale = math.copysign(2.0 / max(top, 1), angle)
    size = len(basis)
    offset = size - np.count_nonzero(basis[:, 0])
    moves = []
    for j, r in enumerate(config.couplings, start=1):
        (source,) = np.nonzero(basis[:, j])
        weight = r / config.norm * scale * np.sqrt((basis[source, 0] + 1.0) * basis[source, j])
        partner = np.zeros(size, dtype=np.intp)
        partner[source] = np.arange(offset, size)
        back = np.zeros(size)
        back[source] = -weight
        moves.append((source, weight, partner, back))
    evolved = coeffs[0] * v
    # two buffers, ping-ponged: chi_{k+1} overwrites chi_{k-1}, chi_2 v itself
    prev, cur, part = v, np.zeros_like(v), np.empty_like(v)
    for k, c in enumerate(coeffs[1:], start=1):
        if k == 1:
            _add_generator(cur, v, offset, moves, part)
            cur *= 0.5
        else:
            _add_generator(prev, cur, offset, moves, part)
            prev, cur = cur, prev
        np.multiply(cur, 2.0 * c, out=part)
        evolved += part
    return evolved


def overlap(
    amplitudes: Sequence[complex], predicted: Sequence[complex], config: CouplingConfig, cutoff: int
) -> tuple[float, float, float]:
    """The evolved norm, the fidelity and the truncation tail of an oracle check at cutoff.

    The norm of exp(A) applied to the coherent product amplitudes truncated
    at cutoff, and its squared overlap with the truncated product predicted.
    The guards and the tail are those at cutoff; K' is taken there too, read
    off truncation_tail, and the rows of each band of sectors 0..K' are
    built, evolved and summed in turn. A non-finite predicted amplitude is
    refused.
    """
    amps, tail, top = _admitted(amplitudes, cutoff)
    pred = np.array([require_finite_complex(p, "predicted amplitude") for p in predicted], dtype=complex)
    if not amps.size == pred.size == len(config.couplings) + 1:
        raise InfoCloneError(
            f"{amps.size} input modes, {pred.size} predicted modes and {len(config.couplings)} "
            "couplings (need couplings + 1 modes of each)"
        )
    angle = _reduced_angle(config)
    squares, inner = 0.0, 0j
    for lo, hi in _bands(amps.size, top):
        rows = _rows(amps.size, lo, hi)
        evolved = _evolve_band(rows, _coherent(amps, top, rows), angle, config, hi)
        squares += _squared(evolved).sum()
        inner += np.sum(evolved.conj() * _coherent(pred, top, rows))
    return math.sqrt(squares), float(abs(inner) ** 2), tail
