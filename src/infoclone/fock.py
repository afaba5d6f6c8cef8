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

Each sector also evolves on its own, so :func:`evolve` works only on the
sectors that hold the input's weight: those up to the smallest K' above
which the input holds at most (1e-17 |v|)^2. The sectors above K' are zero
in its result. For a coherent product that bound is known before any state
is built: the sector weights are Poisson(sum_j |a_j|^2), and the transform
keeps the sum, so the prediction weighs the same. :func:`working_cutoff`
gives it in closed form, as the working cutoff K_w, and an oracle run works
at K_w, with the guards still applied at the cutoff asked for: its memory,
like its time, follows the input, not the cutoff.

For the same reason :func:`evolve` takes the sectors 0..K' in bands of
whole, consecutive sectors, one band at a time, with at most _BAND_ROWS
rows in a band unless one sector is larger: the working set of the
evolution is one band's, and only the input, the result, the basis and the
rows' sector totals grow with the state. An oracle run, :func:`overlap`,
builds no state: band by band, it builds the input and the prediction on
the band's rows, evolves them and sums, so only the basis and the totals
grow with the input. On each band the exponential is a
Chebyshev-Bessel series in the generator (Tal-Ezer & Kosloff 1984), in
numpy alone, of about rho = |R*t| * (the band's highest sector) terms, the
generator's exact norm on the band. Its error, about 1e-15 in norm, shows
only in the last digits of evolved norms and fidelities. Norms and overlaps
are ufunc sums, not BLAS calls: the first BLAS call on a vector of this
length wakes OpenBLAS's worker thread, which then spins through the rest of
the run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfoCloneError, require_finite_complex, require_integer
from .transform import CouplingConfig

__all__ = [
    "FIDELITY_THRESHOLD",
    "MAX_AMPLITUDES",
    "MAX_TAIL",
    "FockState",
    "evolve",
    "fidelity",
    "overlap",
    "product_state",
    "truncation_tail",
    "working_cutoff",
]

MAX_AMPLITUDES = 10**6
FIDELITY_THRESHOLD = 0.999
# The largest truncation tail that leaves fidelity (1 - tau)^2 within half of
# the 1 - FIDELITY_THRESHOLD slack; the other half is for the transform.
MAX_TAIL = 1.0 - math.sqrt(1.0 - (1.0 - FIDELITY_THRESHOLD) / 2.0)
# The share of a state's weight, (1e-17)^2, that may lie above the sectors it
# is evolved on: the error the Chebyshev series already accepts.
_NEGLIGIBLE = 1e-34
# The most rows evolve works on at once: it evolves whole, consecutive
# sectors in bands of at most this many rows (a larger sector is a band of its
# own), so its move tables and recurrence vectors do not grow with the state.
_BAND_ROWS = 2**12


def _state_size(n_modes: int, cutoff: int) -> int:
    """C(cutoff+n_modes, n_modes), checked against the amplitude budget."""
    if n_modes < 1:
        raise InfoCloneError(f"n_modes must be >= 1, got {n_modes!r}")
    if require_integer(cutoff, "cutoff") < 1:
        raise InfoCloneError(f"cutoff must be >= 1, got {cutoff!r}")
    size = math.comb(cutoff + n_modes, n_modes)
    if size > MAX_AMPLITUDES:
        raise InfoCloneError(
            f"C(cutoff+n_modes, n_modes) = {size} exceeds the {MAX_AMPLITUDES} amplitude budget"
        )
    return size


def _squared(v: np.ndarray) -> np.ndarray:
    """|v|^2, entry by entry."""
    return np.square(v.real) + np.square(v.imag)


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
        return math.sqrt(_squared(self.amplitudes).sum())


def _branch(room: np.ndarray) -> np.ndarray:
    """n = 0 .. room[i] for each i in turn, one array."""
    counts = room + 1
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


# Evolving a product_state and checking it against a second one asks for one
# basis three times; an oracle run asks once. typed=True: a float cutoff is
# checked, not served the int cutoff's array. Callers share it: read-only.
@functools.lru_cache(maxsize=1, typed=True)
def _basis(n_modes: int, cutoff: int) -> np.ndarray:
    """Every occupation with total <= cutoff, one per row, in basis order.

    Each column is written once, into the final array: the prefixes
    (n_1, ..., n_j) are enumerated mode by mode, and each fills the
    C(room + rest, rest) consecutive rows that complete it, room being the
    photons it leaves and rest the modes after it.
    """
    # every entry is at most the cutoff; signed, since np.bincount refuses
    # sums of unsigned 64-bit integers. The columns are written in this type:
    # an assignment that casts takes a 64 KB buffer.
    dtype = np.int16 if cutoff < 2**15 else np.int32
    basis = np.empty((_state_size(n_modes, cutoff), n_modes), dtype=dtype)
    room = np.array([cutoff])
    for j in range(n_modes - 1):
        # each prefix branches into n = 0 .. room for the next mode
        n = _branch(room)
        room = np.repeat(room, room + 1) - n
        rest = n_modes - 1 - j
        completions = np.array([math.comb(r + rest, rest) for r in range(cutoff + 1)])
        basis[:, j] = np.repeat(n.astype(dtype), completions[room])
    # the last mode completes each prefix alone, one row per n: steps of +1,
    # and at each prefix but the first a step back by the room of the one
    # before, summed in place in the basis type
    last = basis[:, -1]
    last[:] = 1
    last[0] = 0
    last[np.cumsum(room[:-1] + 1)] = -room[:-1]
    np.cumsum(last, out=last)
    basis.flags.writeable = False
    return basis


def truncation_tail(amplitudes: Sequence[complex], cutoff: int) -> float:
    """P(Poisson(sum_j |a_j|^2) > cutoff): the weight the truncation drops.

    The upper tail is summed directly, so it stays accurate far below the
    1e-16 at which 1 - cdf bottoms out.
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


def _admitted(amplitudes: Sequence[complex], cutoff: int) -> tuple[np.ndarray, float]:
    """The mode amplitudes as an array and their truncation tail at cutoff.

    Refused over the amplitude budget or when the tail exceeds MAX_TAIL.
    """
    amps = np.array([require_finite_complex(a, "amplitude") for a in amplitudes])
    if not amps.size:
        raise InfoCloneError("at least one mode amplitude is required")
    _state_size(amps.size, cutoff)
    tail = truncation_tail(amps, cutoff)
    if tail > MAX_TAIL:
        raise InfoCloneError(
            f"truncation tail P(Poisson(sum |a|^2) > {cutoff}) = {tail:.3g} exceeds {MAX_TAIL:.3g}"
        )
    return amps, tail


def working_cutoff(amplitudes: Sequence[complex], cutoff: int) -> tuple[int, float]:
    """The working cutoff K_w of a coherent product, and its truncation tail.

    The guards of :func:`product_state` and the tail are those at cutoff.
    Sector n holds e^-mu mu^n / n! of the product's weight, with
    mu = sum_j |a_j|^2, and an orthogonal transform keeps mu, so the
    predicted product weighs the same. K_w is the smallest k <= cutoff above
    which sectors 0..cutoff hold at most _NEGLIGIBLE of their weight: the K'
    that :func:`evolve` finds in the state built at cutoff, but at least 1,
    the smallest cutoff a state takes. Nothing of size C(cutoff+m, m) is
    built.
    """
    amps, tail = _admitted(amplitudes, cutoff)
    return max(_poisson_top(amps, cutoff), 1), tail


def _poisson_top(amps: np.ndarray, cutoff: int) -> int:
    """The K' of the coherent product with mode amplitudes amps, at cutoff.

    Sector n weighs e^-mu mu^n / n!, mu = sum_j |a_j|^2; the vacuum has K' = 0.
    """
    mean = float(_squared(amps).sum())
    if mean == 0.0:
        return 0
    n = np.arange(cutoff + 1)
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(cutoff + 1)])
    return _top(np.exp(n * math.log(mean) - mean - log_factorials))


def _coherent(amps: np.ndarray, cutoff: int, basis: np.ndarray) -> np.ndarray:
    """The amplitudes of :func:`product_state` on the given rows of its basis."""
    # table[j, n]: the coherent amplitude of mode j at occupation n
    steps = np.empty((amps.size, cutoff + 1), dtype=complex)
    steps[:, 0] = np.exp(-np.abs(amps) ** 2 / 2.0)
    steps[:, 1:] = amps[:, None] / np.sqrt(np.arange(1.0, cutoff + 1.0))
    table = np.cumprod(steps, axis=1)
    vec = table[0, basis[:, 0]]
    for j in range(1, amps.size):
        vec *= table[j, basis[:, j]]
    return vec


def product_state(amplitudes: Sequence[complex], cutoff: int) -> FockState:
    """Product of coherent states, one per mode, truncated at total <= cutoff.

    Mode j contributes c_n = exp(-|a_j|^2 / 2) a_j^n / sqrt(n!) at its
    occupation n. Refused when the truncation tail exceeds MAX_TAIL.
    """
    amps, _ = _admitted(amplitudes, cutoff)
    vec = _coherent(amps, cutoff, _basis(amps.size, cutoff))
    return FockState(n_modes=amps.size, cutoff=cutoff, amplitudes=vec)


def _bessel_coefficients(rho: float) -> np.ndarray:
    """J_0(rho), J_1(rho), ... up to the first k > rho with |J_k| < 1e-17.

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
    (small,) = np.nonzero((np.arange(start + 1) > rho) & (np.abs(coeffs) < 1e-17))
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


def _top(sectors: np.ndarray) -> int:
    """The smallest k such that sectors[k+1:] hold at most _NEGLIGIBLE of the sum."""
    # the weight above sector k, for k = 0 .. len - 2: it never increases
    above = np.cumsum(sectors[:0:-1])[::-1]
    return int(np.count_nonzero(above > _NEGLIGIBLE * sectors.sum()))


def _top_sector(basis: np.ndarray, v: np.ndarray, cutoff: int) -> int:
    """The smallest sector K' such that v holds at most _NEGLIGIBLE |v|^2 above it.

    A weight that is not finite cannot be compared: then every sector is kept.
    """
    sectors = np.bincount(basis.sum(axis=1), weights=_squared(v), minlength=cutoff + 1)
    if not math.isfinite(sectors.sum()):
        return cutoff
    return _top(sectors)


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


def _banded(basis: np.ndarray, cutoff: int, top: int):
    """(rows, basis[rows], highest sector) of each band of sectors 0..top of the basis at cutoff.

    When one band is the whole basis, rows is a slice: nothing is copied.
    """
    bands = _bands(basis.shape[1], top)
    if bands == [(0, cutoff)]:
        yield slice(None), basis, cutoff
        return
    totals = basis.sum(axis=1, dtype=basis.dtype)
    for lo, hi in bands:
        rows = np.flatnonzero((totals >= lo) & (totals <= hi))
        yield rows, basis[rows], hi


def _reduced_angle(config: CouplingConfig, n_modes: int) -> float:
    """R*t reduced to [-pi, pi] as :func:`evolve` says, once config is checked against n_modes."""
    if len(config.couplings) + 1 != n_modes:
        raise InfoCloneError(
            f"config has {len(config.couplings)} couplings but the state has "
            f"{n_modes} modes (need couplings + 1)"
        )
    angle = config.angle
    if abs(angle) > math.pi:
        angle = math.atan2(math.sin(angle), math.cos(angle))
    return angle


def _evolve_band(basis: np.ndarray, v: np.ndarray, angle: float, config: CouplingConfig, top: int) -> np.ndarray:
    """exp(A) v on a band of whole sectors whose highest is top.

    basis holds the band's rows in basis order and v their amplitudes.
    """
    coeffs = _bessel_coefficients(abs(angle) * top)
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
    # two buffers, ping-ponged: chi_{k+1} overwrites chi_{k-1}
    prev, cur, part = v.copy(), np.zeros_like(v), np.empty_like(v)
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


def evolve(state: FockState, config: CouplingConfig) -> FockState:
    """Evolve under the exchange coupling between the held mode and the ancillas.

    The generator is A = t * (a_held^T B - a_held B^T) with B = sum_j r_j a_j
    over the ancilla modes. Its a_held^T a_j term moves one photon from
    ancilla j to the held mode, (n_held, n_j) -> (n_held + 1, n_j - 1), with
    weight sqrt((n_held + 1) n_j); the other term is its negative transpose.
    Moves keep the total, so the generator is exact on the truncated basis
    and antisymmetric, and the evolution is orthogonal there.

    Each sector also evolves on its own, so only the sectors that hold the
    input's weight are evolved: those up to the smallest K' <= cutoff above
    which the input holds at most (1e-17 |v|)^2, the error the series
    already accepts. The higher sectors of the result are zero. A product
    state built at :func:`working_cutoff` has K' equal to its cutoff (the
    vacuum, K' = 0, aside); the cut serves states of any other shape.

    The sectors 0..K' are evolved in bands of whole, consecutive sectors,
    one band at a time, each written into the zero-initialised result. The
    rows are shared evenly among the fewest bands of at most _BAND_ROWS
    rows: a band is closed before the next sector would take it past its
    share, and a larger sector is a band of its own. The move tables and the
    recurrence vectors thus live for one band at a time and are bounded by
    _BAND_ROWS rows, not by the state; only the input, the result, the
    basis and the rows' sector totals are full size (:func:`overlap` makes
    no state at all). A state that fits in one band is evolved without a
    copy of it or of the basis. In order, the rows of a band with
    n_held >= 1 come last, and the move of ancilla j maps the band's rows
    with n_j >= 1, in order, one to one onto them, so A is applied by
    slicing and two gathers per ancilla, without a sparse matrix.

    A / (R*t) rotates the held mode into the mode B / R, so on the sector of
    n photons its eigenvalues are i*k with integer |k| <= n. The evolution
    thus has period 2*pi in R*t, and |R*t| > pi is reduced to [-pi, pi]
    first, which keeps the cost independent of t. The reduced angle is
    atan2(sin(R*t), cos(R*t)), as in :func:`~infoclone.transform.
    build_transform`; a remainder by the float 2*pi would drift 4e-17 rad/rad.

    On each band, exp(A) v is the Chebyshev-Bessel series (Tal-Ezer &
    Kosloff 1984) J_0(rho) v + 2 sum_k J_k(rho) chi_k, with chi_0 = v,
    chi_1 = A v / rho and chi_{k+1} = (2/rho) A chi_k + chi_{k-1}. The
    coefficients are real because A is real antisymmetric. The series needs
    rho >= |A|, and rho = |R*t| * (the band's highest sector) is |A| on the
    band exactly, so a lower band takes fewer terms; A is normal, so
    |chi_k| <= |v|. The series stops at the first k > rho with
    |J_k| < 1e-17, which leaves a truncation error near 1e-17 |v|; the
    rounding of the recurrence dominates. On the cutoff-60 oracle check the
    evolved state differs from the exact truncated prediction by about 1e-15
    in norm.
    """
    n_modes, cutoff = state.n_modes, state.cutoff
    angle = _reduced_angle(config, n_modes)
    basis, v = _basis(n_modes, cutoff), state.amplitudes
    evolved = np.zeros_like(v)
    for rows, band, hi in _banded(basis, cutoff, _top_sector(basis, v, cutoff)):
        evolved[rows] = _evolve_band(band, v[rows], angle, config, hi)
    return FockState(n_modes=n_modes, cutoff=cutoff, amplitudes=evolved)


def fidelity(a: FockState, b: FockState) -> float:
    """Squared overlap |<a|b>|^2, symmetric in its arguments."""
    if a.n_modes != b.n_modes or a.cutoff != b.cutoff:
        raise InfoCloneError(
            f"states live on different spaces: {a.n_modes} modes at cutoff {a.cutoff} "
            f"vs {b.n_modes} modes at cutoff {b.cutoff}"
        )
    return float(abs(np.sum(a.amplitudes.conj() * b.amplitudes)) ** 2)


def overlap(
    amplitudes: Sequence[complex], predicted: Sequence[complex], config: CouplingConfig, cutoff: int
) -> tuple[float, float]:
    """The evolved norm and the fidelity of an oracle check, with no state built.

    They are those of evolve(product_state(amplitudes, cutoff), config)
    against product_state(predicted, cutoff) but for the last digits: each
    band of sectors 0..K' (K' from the input's Poisson sector weights) is
    built, evolved and summed in turn.
    """
    amps, _ = _admitted(amplitudes, cutoff)
    pred, _ = _admitted(predicted, cutoff)
    if pred.size != amps.size:
        raise InfoCloneError(f"{amps.size} input modes but {pred.size} predicted modes")
    angle = _reduced_angle(config, amps.size)
    squares, inner = 0.0, 0j
    basis = _basis(amps.size, cutoff)
    for _, band, hi in _banded(basis, cutoff, _poisson_top(amps, cutoff)):
        evolved = _evolve_band(band, _coherent(amps, cutoff, band), angle, config, hi)
        squares += _squared(evolved).sum()
        inner += np.sum(evolved.conj() * _coherent(pred, cutoff, band))
    return math.sqrt(squares), float(abs(inner) ** 2)
