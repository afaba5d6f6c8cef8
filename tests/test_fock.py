import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from infoclone import fock
from infoclone.cli import main
from infoclone.errors import InfoCloneError
from infoclone.fock import (
    MAX_AMPLITUDES,
    MAX_TAIL,
    _admitted,
    _bessel_coefficients,
    _coherent,
    _evolve_band,
    _reduced_angle,
    _rows,
    overlap,
    truncation_tail,
)
from infoclone.estimation import clone_amplitude
from infoclone.transform import CouplingConfig, StrategySpec, apply_transform, build_transform
from reference import assert_exact_oracle, bessel_j, bessel_j_exact, expm_antisymmetric


def coherent(amps, cutoff):
    """The coherent product of amps on the whole basis at cutoff."""
    amps = np.asarray(amps, dtype=complex)
    return _coherent(amps, cutoff, _rows(amps.size, 0, cutoff))


def coherent_vector(alpha, cutoff):
    """A single-mode product: the coherent ladder up to the cutoff."""
    return coherent([alpha], cutoff)


def evolved(v, config, cutoff):
    """exp(A) v on the whole basis at cutoff, as one band; v is left as it is."""
    n_modes = len(config.couplings) + 1
    return _evolve_band(_rows(n_modes, 0, cutoff), v.copy(), _reduced_angle(config), config, cutoff)


def top_sector(amps, cutoff):
    """K' of the coherent product amps at cutoff: the highest sector overlap evolves."""
    return _admitted(amps, cutoff)[2]


@pytest.fixture
def rows_calls(monkeypatch):
    """The (n_modes, lo, hi) of each set of rows fock builds while the test runs."""
    calls = []

    def spy(n_modes, lo, hi):
        calls.append((n_modes, lo, hi))
        return _rows(n_modes, lo, hi)

    monkeypatch.setattr(fock, "_rows", spy)
    return calls


@pytest.fixture
def rhos(monkeypatch):
    """The rho of each Chebyshev series fock builds while the test runs."""
    calls = []

    def spy(rho, norm):
        calls.append(rho)
        return _bessel_coefficients(rho, norm)

    monkeypatch.setattr(fock, "_bessel_coefficients", spy)
    return calls


def band_calls(n_modes, top):
    """The _rows calls of an oracle run at K' = top: one per band, in band order."""
    return [(n_modes, lo, hi) for lo, hi in fock._bands(n_modes, top)]


# The traced peak of an oracle run, whatever its K': it holds one band's rows,
# states and move tables at a time, and no array sized by sectors 0..K'
ORACLE_TRACED_PEAK = 1_588_000


def zero_time_fidelity(a, b, cutoff):
    """The fidelity overlap reports for coherent products a and b at zero time."""
    return overlap(a, b, CouplingConfig([1.0] * (len(a) - 1), 0.0), cutoff)[1]


def occupations(n_modes, cutoff):
    """The basis by brute force: the per-mode grid in row-major order, mode 1
    slowest, without the occupations whose total exceeds the cutoff."""
    grid = itertools.product(range(cutoff + 1), repeat=n_modes)
    return [occ for occ in grid if sum(occ) <= cutoff]


def dense_generator(couplings, time, cutoff):
    """The exchange generator as a dense matrix, one photon move at a time,
    on the brute-force basis with a dict index."""
    rows = occupations(len(couplings) + 1, cutoff)
    index = {occ: i for i, occ in enumerate(rows)}
    gen = np.zeros((len(rows), len(rows)))
    for i, occ in enumerate(rows):
        for j, r in enumerate(couplings, start=1):
            if occ[j]:
                moved = list(occ)
                moved[0] += 1
                moved[j] -= 1
                weight = time * r * math.sqrt((occ[0] + 1) * occ[j])
                gen[index[tuple(moved)], i] += weight
                gen[i, index[tuple(moved)]] -= weight
    return gen


def poisson_tail(mean, cutoff):
    """P(Poisson(mean) > cutoff) as an explicit sum of 400 pmf terms."""
    terms = (math.exp(n * math.log(mean) - mean - math.lgamma(n + 1)) for n in range(cutoff + 1, cutoff + 401))
    return math.fsum(terms)


class TestCoherentVector:
    def test_vacuum(self):
        state = coherent_vector(0.0, 10)
        assert state[0] == 1.0
        assert np.all(state[1:] == 0.0)

    def test_unit_amplitude_leading_terms(self):
        amps = coherent_vector(1.0, 30)
        root = math.exp(-0.5)
        assert amps[0] == pytest.approx(root, rel=1e-15)
        assert amps[1] == pytest.approx(root, rel=1e-15)
        assert amps[2] == pytest.approx(root / math.sqrt(2.0), rel=1e-15)

    def test_norm_close_to_one(self):
        state = coherent_vector(0.5 + 0.5j, 30)
        assert abs(np.linalg.norm(state) ** 2 - 1.0) <= 1e-12

    def test_amplitude_guard(self):
        # P(Poisson(9) > 4) = 0.945, far above the tail bound
        with pytest.raises(
            InfoCloneError, match=re.escape("truncation tail P(Poisson(sum |a|^2) > 4) = 0.945 exceeds 0.00025")
        ):
            _admitted([3.0], 4)

    def test_bad_cutoff(self):
        with pytest.raises(InfoCloneError, match="cutoff must be >= 1, got 0"):
            _admitted([0.1], 0)

    @pytest.mark.parametrize("cutoff", [3.0, 2.5, "3"])
    def test_cutoff_must_be_an_integer(self, cutoff):
        config = CouplingConfig([1.0], 0.5)
        with pytest.raises(InfoCloneError, match=re.escape(f"cutoff must be an integer, got {cutoff!r}")):
            _admitted([0.1, 0.2], cutoff)
        with pytest.raises(InfoCloneError, match="cutoff must be an integer"):
            overlap([0.1, 0.2], [0.1, 0.2], config, cutoff)
        with pytest.raises(InfoCloneError, match="cutoff must be an integer"):
            truncation_tail([1.0], cutoff)
        assert overlap([0.1, 0.2], [0.1, 0.2], config, np.int64(3)) == overlap([0.1, 0.2], [0.1, 0.2], config, 3)


class TestProductState:
    def test_all_vacuum(self):
        state = coherent([0.0, 0.0, 0.0], 5)
        assert state[0] == 1.0
        assert np.all(state[1:] == 0.0)

    def test_tensor_with_vacuum(self):
        alpha = 0.4 - 0.2j
        state = coherent([alpha, 0.0], 15)
        single = coherent_vector(alpha, 15)
        expected = [single[n1] if n2 == 0 else 0.0 for n1, n2 in occupations(2, 15)]
        np.testing.assert_array_equal(state, expected)

    def test_two_mode_norm(self):
        assert np.linalg.norm(coherent([1.0, 1j], 20)) >= 1.0 - 1e-10

    def test_size_guard(self):
        # C(203, 3) = 1373701 over budget; two modes at cutoff 1100 now fit
        with pytest.raises(InfoCloneError, match=re.escape("C(cutoff+n_modes, n_modes) = 1373701 exceeds")):
            _admitted([0.1, 0.1, 0.1], 200)
        assert coherent([0.1, 0.1], 1100).size == math.comb(1102, 2)

    def test_index_order_first_mode_slowest(self):
        # amplitude at (n_1, n_2) = (1, 0) must sit at index 1 * (cutoff+1)
        cutoff = 6
        state = coherent([0.5, 0.0], cutoff)
        single = coherent_vector(0.5, cutoff)
        assert state[1 * (cutoff + 1)] == single[1]

    def test_matches_loop_reference(self):
        amps = [0.5 + 0.2j, -0.3j, 0.25, 0.1 - 0.4j]
        cutoff = 7
        state = coherent(amps, cutoff)
        tables = [coherent_vector(a, cutoff) for a in amps]
        expected = [math.prod(t[n] for t, n in zip(tables, occ)) for occ in occupations(len(amps), cutoff)]
        assert state.size == math.comb(cutoff + len(amps), len(amps))
        np.testing.assert_allclose(state, expected, rtol=1e-14, atol=0)


class TestTruncationTail:
    @pytest.mark.parametrize(
        "mean, cutoff", [(1.0, 10), (12.0, 60), (2.0, 8), (16.0, 25), (9.0, 4), (0.5, 1), (1e-20, 0)]
    )
    def test_matches_explicit_sum(self, mean, cutoff):
        tail = truncation_tail([math.sqrt(mean)], cutoff)
        assert tail == pytest.approx(poisson_tail(mean, cutoff), rel=1e-13, abs=0)

    def test_far_tail_is_not_rounded_to_zero(self):
        # 1 - cdf would read 0 here
        tail = truncation_tail([2.0, 2.0j, 2.0], 60)
        assert 1e-24 < tail < 1e-22

    def test_is_the_weight_the_truncation_drops(self):
        state = coherent([1.0, 0.3 - 0.5j], 8)
        tail = truncation_tail([1.0, 0.3 - 0.5j], 8)
        assert tail > 1e-5
        assert np.linalg.norm(state) ** 2 == pytest.approx(1.0 - tail, abs=1e-15)

    def test_vacuum_and_overflow(self):
        assert truncation_tail([0.0, 0.0], 3) == 0.0
        # sum |a|^2 overflows the double range: refused, not an overflow error
        assert truncation_tail([1e200, 0.0], 5) == 1.0
        with pytest.raises(InfoCloneError, match="truncation tail"):
            _admitted([1e200, 0.0], 5)

    def test_guard_sits_at_the_bound(self):
        # P(Poisson(2) > 8) = 2.37e-4 is kept, P(Poisson(2.1) > 8) = 3.4e-4 is not
        assert truncation_tail([math.sqrt(2.0)], 8) < MAX_TAIL
        _admitted([1.0, 1.0], 8)
        with pytest.raises(InfoCloneError, match="truncation tail"):
            _admitted([1.0, math.sqrt(1.1)], 8)


BASIS_GRID = [(2, 1), (2, 9), (3, 6), (4, 5), (5, 3), (7, 2)]


class TestBasis:
    @pytest.mark.parametrize("n_modes, cutoff", BASIS_GRID)
    def test_rows_of_a_band(self, n_modes, cutoff):
        # the rows of totals lo..hi are the brute-force basis at cutoff with
        # the other totals left out, in the same order
        every = occupations(n_modes, cutoff)
        for lo in range(cutoff + 1):
            for hi in range(lo, cutoff + 1):
                rows = _rows(n_modes, lo, hi)
                assert rows.dtype == np.int16
                assert [tuple(row) for row in rows] == [occ for occ in every if lo <= sum(occ) <= hi]

    @pytest.mark.parametrize("n_modes, cutoff", BASIS_GRID)
    def test_moves_land_on_the_suffix(self, n_modes, cutoff):
        # the move (n_held, n_j) -> (n_held + 1, n_j - 1) sends the rows with
        # n_j >= 1, in basis order, onto the rows with n_held >= 1, which come
        # last: on the whole basis, the last C(cutoff-1+m, m) rows, and inside
        # every band of totals lo..hi too, since a move keeps the total
        assert np.count_nonzero(_rows(n_modes, 0, cutoff)[:, 0]) == math.comb(cutoff - 1 + n_modes, n_modes)
        for lo in range(cutoff + 1):
            for hi in range(lo, cutoff + 1):
                rows = _rows(n_modes, lo, hi)
                index = {tuple(row): i for i, row in enumerate(rows)}
                offset = len(rows) - np.count_nonzero(rows[:, 0])
                assert all(row[0] >= 1 for row in rows[offset:]) and all(row[0] == 0 for row in rows[:offset])
                for j in range(1, n_modes):
                    images = []
                    for row in rows[rows[:, j] >= 1]:
                        moved = list(row)
                        moved[0] += 1
                        moved[j] -= 1
                        images.append(index[tuple(moved)])
                    assert images == list(range(offset, len(rows)))

    def test_built_once_per_oracle_run(self, rows_calls, run_cli):
        # an oracle run builds the rows of each band of sectors 0..K' once,
        # and the band's input, evolution and prediction all use them
        argv = ["oracle", "--couplings", "1,2", "--time", "0.5", "--alpha=0.5,0", "--cutoff", "12"]
        assert run_cli(*argv)[0] == 0
        assert rows_calls == band_calls(3, top_sector([0.5, 0.0, 0.0], 12))
        rows_calls.clear()
        # one ancilla at --alpha=12,0: K' = 257 in 10 bands, each built once
        argv = ["oracle", "--couplings", "1", "--time", "1", "--alpha=12,0", "--cutoff", "1412"]
        assert run_cli(*argv)[0] == 0
        assert rows_calls == band_calls(2, 257) and len(rows_calls) == 10

    def test_built_in_little_more_than_its_size(self):
        # the columns are written in the row type: no full-size int64
        # intermediate, so the build peaks below 2.5 times the rows
        # (about 4 times while the last column was built in int64)
        tracemalloc.start()
        try:
            rows = _rows(3, 0, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.nbytes == 6 * math.comb(63, 3)
        assert peak <= 2.5 * rows.nbytes

    def test_compact_dtype(self):
        # an oracle has two modes at least, so the amplitude budget admits
        # cutoffs up to 1412, whose entries int16 holds
        widest = _rows(2, 0, 1412)
        assert widest.dtype == np.int16
        np.testing.assert_array_equal(widest[[0, 1412, -1]], [[0, 0], [0, 1412], [1412, 0]])
        top = _rows(2, 1412, 1412)
        assert top.dtype == np.int16 and len(top) == 1413
        np.testing.assert_array_equal(top[[0, -1]], [[0, 1412], [1412, 0]])
        with pytest.raises(InfoCloneError, match=re.escape("C(cutoff+n_modes, n_modes) = 1000405 exceeds")):
            _admitted([0.1, 0.1], 1413)


class TestBesselCoefficients:
    # pi * 1412 is the largest rho = |R*t| * cutoff within the amplitude
    # budget: one ancilla at cutoff 1412
    @pytest.mark.parametrize("rho", [0.0, 1e-3, 0.5, 47.0, 1000.0, 3200.0, math.pi * 1412])
    def test_match_reference(self, rho):
        coeffs = _bessel_coefficients(rho, 1.0)
        n = len(coeffs)
        assert n > rho
        # the series stops where the rest is below 1e-17
        assert abs(bessel_j_exact(n, rho)) < 1e-17
        # the FFT reference's own error grows with rho, as its phases
        # rho*sin(phi) are rounded to about 1e-16*rho (2.5e-14 at pi*1412)
        np.testing.assert_allclose(coeffs, bessel_j(rho)[:n], rtol=0, atol=2e-16 * max(1.0, rho))

    @pytest.mark.parametrize("rho, norm", [(0.5, 1e-3), (47.0, 1e-6), (47.0, 0.0), (1000.0, 1e-12), (3200.0, 0.3)])
    def test_a_lighter_vector_takes_fewer_terms(self, rho, norm):
        # the series stops at the first k > rho with |J_k| norm < 1e-17: the
        # terms it leaves out move a vector of that norm by about 2e-17
        coeffs = _bessel_coefficients(rho, norm)
        n = len(coeffs)
        assert n > rho
        assert abs(bessel_j_exact(n, rho)) * norm < 1e-17
        assert n - 1 <= rho or abs(bessel_j_exact(n - 1, rho)) * norm >= 1e-17
        # the coefficients are those of the unit vector, cut short
        whole = _bessel_coefficients(rho, 1.0)
        assert n < len(whole)
        np.testing.assert_array_equal(coeffs, whole[:n])


# couplings, R*t and cutoff of the checks against the dense exponential
DENSE_CASES = [
    ([1.3], math.pi - 1e-9, 20),
    ([1.3], -(math.pi - 1e-3), 20),
    ([0.8, -0.6], -(math.pi - 0.05), 10),
    ([0.8, -0.6], 2.1, 10),
    ([0.5, 1.1, -0.7], math.pi - 1e-6, 6),
    ([0.5, 1.1, -0.7], -0.4, 6),
]


def dense_input(couplings, cutoff):
    """A random complex unit vector on the basis at cutoff: not a product state."""
    rng = np.random.default_rng(31)
    n_modes = len(couplings) + 1
    size = math.comb(cutoff + n_modes, n_modes)
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    return vec / np.linalg.norm(vec)


class TestEvolve:
    """The evolution of one band, and the oracle's physics through overlap."""

    @pytest.mark.parametrize("couplings, angle, cutoff", DENSE_CASES)
    def test_matches_dense_exponential(self, couplings, angle, cutoff):
        # against expm of the generator built move by move, on the whole basis
        time = angle / math.hypot(*couplings)
        v = dense_input(couplings, cutoff)
        out = evolved(v, CouplingConfig(couplings, time), cutoff)
        propagator = expm_antisymmetric(dense_generator(couplings, time, cutoff))
        np.testing.assert_allclose(out, propagator @ v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("couplings, angle, cutoff", DENSE_CASES)
    def test_matches_dense_exponential_in_bands(self, monkeypatch, couplings, angle, cutoff):
        # bands of at most 16 rows: the basis spans at least 3 of them, each
        # evolved on its own rows with its own series
        monkeypatch.setattr(fock, "_BAND_ROWS", 16)
        n_modes = len(couplings) + 1
        config = CouplingConfig(couplings, angle / math.hypot(*couplings))
        basis = _rows(n_modes, 0, cutoff)
        totals = basis.sum(axis=1)
        v = dense_input(couplings, cutoff)
        out = np.full_like(v, np.nan)
        bands = fock._bands(n_modes, cutoff)
        assert len(bands) >= 3
        for lo, hi in bands:
            rows = np.flatnonzero((totals >= lo) & (totals <= hi))
            band = _rows(n_modes, lo, hi)
            np.testing.assert_array_equal(band, basis[rows])
            out[rows] = _evolve_band(band, v[rows], _reduced_angle(config), config, hi)
        propagator = expm_antisymmetric(dense_generator(couplings, config.time, cutoff))
        np.testing.assert_allclose(out, propagator @ v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "couplings, angle, cutoff",
        [
            ([1.3], 2.9, 20),
            ([0.8, -0.6], -1.7, 10),
            ([0.5, 1.1, -0.7], math.pi, 6),
            ([-2.0, 0.3, 0.9, -1.5], 0.6, 4),
            ([0.5 + k / 8 for k in range(8)], -2.2, 2),
        ],
    )
    def test_spectral_radius_is_the_cutoff(self, couplings, angle, cutoff):
        # the series takes rho = |R*t| * cutoff: A / (R*t) rotates the held
        # mode into B / R, with eigenvalues i*k, |k| <= n, on sector n
        gen = dense_generator(couplings, angle / math.hypot(*couplings), cutoff)
        assert np.abs(np.linalg.eigvalsh(1j * gen)).max() == pytest.approx(abs(angle) * cutoff, rel=0, abs=1e-9)

    @pytest.mark.parametrize(
        "couplings, time", [([1.0, 0.4], 0.0), ([1.0, 0.4], 1e-300), ([1.0, 0.4], -1e-300), ([2.2e-311, 0.0], 1.0)]
    )
    def test_vanishing_angle_returns_the_input(self, couplings, time):
        state = coherent([0.5 + 0.2j, -0.3j, 0.1], 15)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            out = evolved(state, CouplingConfig(couplings, time), 15)
        np.testing.assert_array_equal(out, state)

    def test_vacuum_is_fixed(self):
        vac = coherent([0.0, 0.0, 0.0], 8)
        out = evolved(vac, CouplingConfig([0.7, -1.1], 1.3), 8)
        assert abs(np.vdot(vac, out)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_time_is_identity(self):
        state = coherent([0.5 + 0.2j, -0.3j], 20)
        np.testing.assert_allclose(evolved(state, CouplingConfig([1.0], 0.0), 20), state, atol=1e-12)

    @pytest.mark.parametrize("couplings", [[1.3], [0.8, -0.6]])
    @pytest.mark.parametrize("turns", [1, 3, 10])
    def test_whole_turns_match_steps_below_pi(self, couplings, turns):
        # one evolution at |R*t| > pi (angle reduced) against the same angle
        # walked in steps of |R*t| <= pi (no reduction)
        cutoff, r = 10, math.hypot(*couplings)
        angle = 0.7 + 2.0 * math.pi * turns
        n_steps = math.ceil(angle / math.pi)
        state = coherent([0.5 + 0.2j] + [-0.3j] * len(couplings), cutoff)
        whole = evolved(state, CouplingConfig(couplings, angle / r), cutoff)
        stepped = state
        for _ in range(n_steps):
            stepped = evolved(stepped, CouplingConfig(couplings, angle / r / n_steps), cutoff)
        # the truncation keeps whole sectors only, so the period holds on
        # every amplitude
        np.testing.assert_allclose(whole, stepped, rtol=0, atol=1e-13)
        assert abs(np.vdot(whole, stepped)) ** 2 == pytest.approx(np.linalg.norm(stepped) ** 4, abs=1e-12)

    def test_quarter_turn_single_ancilla(self):
        cfg = CouplingConfig([1.0], math.pi / 2)
        fid = overlap([0.6, 0.0], [0.0, -0.6], cfg, 25)[1]
        assert fid >= 0.999
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            cfg = CouplingConfig(rng.uniform(-2.0, 2.0, size=2), float(rng.uniform(-3, 3)))
            amps = [complex(*rng.uniform(-0.55, 0.55, 2)) for _ in range(3)]
            state = coherent(amps, 12)
            assert abs(np.linalg.norm(evolved(state, cfg, 12)) - np.linalg.norm(state)) <= 1e-8

    def test_mode_count_mismatch(self):
        cfg = CouplingConfig([1.0, 1.0], 0.5)
        message = "2 input modes, 2 predicted modes and 2 couplings (need couplings + 1 modes of each)"
        with pytest.raises(InfoCloneError, match=re.escape(message)):
            overlap([0.5, 0.0], [0.5, 0.0], cfg, 10)

    def test_fidelity_is_truncated_weight_squared(self):
        rng = np.random.default_rng(24)
        tails = []
        for n_ancillas in (1, 2, 3, 4, 1, 2, 3, 4):
            cfg = CouplingConfig(rng.uniform(-1.5, 1.5, size=n_ancillas), float(rng.uniform(-3.0, 3.0)))
            amps = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(n_ancillas + 1)]
            # the smallest cutoff that keeps the tail at or below 1e-6
            cutoff = next(k for k in itertools.count(1) if truncation_tail(amps, k) <= 1e-6)
            predicted = apply_transform(build_transform(cfg), amps)
            evolved_norm, fid, tail = overlap(amps, predicted, cfg, cutoff)
            assert_exact_oracle(evolved_norm, fid, tail)
            tails.append(tail)
        assert max(tails) > 1e-8


class TestSectorBound:
    """overlap works on the sectors up to K', the smallest above which the
    input holds at most 1e-17 of its weight, not on the whole cutoff."""

    @pytest.mark.parametrize("n_modes, cutoff, top", [(2, 10, 0), (3, 12, 5), (4, 8, 8), (5, 6, 2)])
    def test_kept_rows_are_the_smaller_basis(self, n_modes, cutoff, top):
        basis = _rows(n_modes, 0, cutoff)
        kept = basis[basis.sum(axis=1) <= top]
        # at K' = 0 the basis is the vacuum row alone
        np.testing.assert_array_equal(kept, _rows(n_modes, 0, top))

    def test_cost_follows_the_input(self, monkeypatch, rows_calls, rhos, run_cli):
        # |R*t| = 1; no weight above sector 13 worth keeping, out of 1000
        argv = ["oracle", "--couplings", "1", "--time", "1", "--alpha=0.6,0", "--cutoff", "1000"]
        assert run_cli(*argv)[0] == 0
        assert len(rhos) == 1 and 0 < rhos[0] <= 30.0
        # an input with weight worth keeping in every sector keeps them all:
        # rho = |R*t| * cutoff
        rhos.clear()
        config = CouplingConfig([0.8, -0.6], 0.7)
        amps = [1.0, 1.0, 0.7]
        assert top_sector(amps, 10) == 10
        overlap(amps, amps, config, 10)
        assert rhos == [abs(config.angle) * 10]
        # K' is taken once, at the cutoff asked for: at cutoff 60 the weight
        # above sector 58 is not negligible, so the rows of sectors 0..59 are
        # built, in one band, and evolved at rho = 59, not 58 (K' at 59)
        rhos.clear()
        rows_calls.clear()
        edge = ["oracle", "--couplings", "1", "--time", "1", "--alpha=3.9,0", "--cutoff", "60"]
        assert run_cli(*edge)[0] == 0
        assert top_sector([3.9, 0.0], 59) == 58
        assert rows_calls == band_calls(2, 59) == [(2, 0, 59)]
        assert rhos == [59.0]
        # in bands of at most 64 rows, each band takes rho = |R*t| times its
        # highest sector, and the last one |R*t| * K'. A band closes before
        # the next sector would take it past its share: 105 / 2 = 52.5 rows
        # for sectors 0..13 of 2 modes (sector n holds n + 1), 286 / 5 = 57.2
        # for sectors 0..10 of 3 modes (sector n holds C(n+2, 2)).
        monkeypatch.setattr(fock, "_BAND_ROWS", 64)
        rhos.clear()
        rows_calls.clear()
        assert run_cli(*argv)[0] == 0
        assert rhos == [1.0 * k for k in (8, 12, 13)]
        assert rows_calls == band_calls(2, 13) and [hi for _, _, hi in rows_calls] == [8, 12, 13]
        rhos.clear()
        overlap(amps, amps, config, 10)
        assert rhos == [abs(config.angle) * k for k in (5, 6, 7, 8, 9, 10)]

    def test_vacuum_is_returned_exactly(self, rows_calls):
        # K' = 0 at cutoff 8: one band, of the vacuum row alone, is built, and
        # that row is evolved by no term
        assert overlap([0.0] * 3, [0.0] * 3, CouplingConfig([0.7, -1.1], 1.3), 8) == (1.0, 1.0, 0.0)
        assert rows_calls == band_calls(3, 0) == [(3, 0, 0)]

    def test_zero_vector_stays_zero(self):
        zero = np.zeros(math.comb(11, 3), dtype=complex)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out = evolved(zero, CouplingConfig([0.7, -1.1], 1.3), 8)
        np.testing.assert_array_equal(out, zero)

    @pytest.mark.parametrize("seed", range(40))
    def test_working_cutoff_is_the_top_sector(self, seed):
        # K', from the Poisson sector weights alone, is that of the state
        # built at the cutoff asked for, found from its weight by row total;
        # the draws put sum |a|^2 between 1e-3 and half the largest cutoff the
        # budget admits, so that K' < cutoff in 31 of the 40 cases. overlap
        # returns the tail at the cutoff asked for.
        rng = np.random.default_rng(seed)
        n_modes = int(rng.integers(2, 5))
        largest = max(k for k in range(1, 201) if math.comb(k + n_modes, n_modes) <= MAX_AMPLITUDES)
        z = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        amps = list(z * math.sqrt(10.0 ** rng.uniform(-3.0, math.log10(largest / 2))) / np.linalg.norm(z))
        smallest = next(k for k in range(1, largest + 1) if truncation_tail(amps, k) <= MAX_TAIL)
        cutoff = int(rng.integers(smallest, largest + 1))
        basis = _rows(n_modes, 0, cutoff)
        weights = np.abs(_coherent(np.asarray(amps), cutoff, basis)) ** 2
        sectors = np.bincount(basis.sum(axis=1), weights=weights, minlength=cutoff + 1)
        top = next(k for k in range(cutoff + 1) if sectors[k + 1 :].sum() <= fock._NEGLIGIBLE * sectors.sum())
        assert top_sector(amps, cutoff) == top
        config = CouplingConfig([1.0] * (n_modes - 1), 0.0)
        assert overlap(amps, amps, config, cutoff)[2] == truncation_tail(amps, cutoff)
        assert top_sector(np.zeros(3), 8) == 0
        # sector 1 weighs 9e-10 and the sectors above it 4e-19, so K' = 1:
        # the bisection probes k = 0, where the tail must be summed directly
        assert top_sector([3e-5, 0.0], 5) == 1

    def test_oracle_run_is_sized_by_its_input(self, tmp_path, run_cli):
        # the deepest one-ancilla run the budget admits builds nothing of its
        # 998,991 states: every state lives at K' = 13. The guards and the
        # report still read the cutoff asked for.
        out = tmp_path / "report.json"
        argv = ["oracle", "--couplings", "1", "--time", "1", "--alpha=0.6,0", "--cutoff", "1412"]
        assert self.traced_peak(argv, out) <= ORACLE_TRACED_PEAK
        report = json.loads(out.read_text())
        assert report["state_size"] == 998_991
        assert top_sector([0.6, 0.0], 1412) == 13
        # the tail at 1412 underflows to 0; the one at K' does not
        assert report["truncation_tail"] == truncation_tail([0.6, 0.0], 1412) == 0.0
        assert truncation_tail([0.6, 0.0], 13) > 0.0
        code, out = run_cli("oracle", "--couplings", "1", "--time", "1", "--alpha=0,0", "--cutoff", "5")
        assert code == 0
        report = json.loads(out)
        assert (report["evolved_norm"], report["fidelity"]) == (1, 1)

    @staticmethod
    def traced_peak(argv, out):
        """The traced peak of the oracle run argv, its report written to out."""
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def traced_peak_of_filled_run(self, tmp_path, couplings, time, alpha, beta, cutoff):
        """The traced peak of an oracle run whose input fills its cutoff (K' = K)."""
        argv = [
            "oracle", "--couplings", couplings, "--time", repr(time), f"--alpha={alpha.real!r},{alpha.imag!r}",
            f"--beta={beta.real!r},{beta.imag!r}", "--cutoff", str(cutoff),
        ]
        assert top_sector([alpha, beta, beta], cutoff) == cutoff
        return self.traced_peak(argv, tmp_path / "report.json")

    def test_oracle_run_that_fills_its_cutoff(self, tmp_path):
        # K' = K = 60, 39,711 rows in 12 bands: the rows and the states are
        # built, evolved and summed one band at a time
        time = math.pi / (4.0 * math.hypot(1.1, 0.7))
        peak = self.traced_peak_of_filled_run(tmp_path, "1.1,0.7", time, 3.5, 2 + 1j, 60)
        assert peak <= ORACLE_TRACED_PEAK

    def test_oracle_run_that_fills_a_deep_cutoff(self, tmp_path):
        # K' = K = 99, 171,700 rows in 50 bands: the same bound
        peak = self.traced_peak_of_filled_run(tmp_path, "1,1", 1.0, 4 + 2j, 3 + 2j, 99)
        assert peak <= ORACLE_TRACED_PEAK

    def test_oracle_run_of_many_bands_below_its_cutoff(self, tmp_path):
        # one ancilla at --alpha=12,0 and cutoff 1412: K' = 257, 33,411 rows
        # in 10 bands, under the same bound
        argv = ["oracle", "--couplings", "1", "--time", "1", "--alpha=12,0", "--cutoff", "1412"]
        assert top_sector([12.0, 0.0], 1412) == 257
        assert self.traced_peak(argv, tmp_path / "report.json") <= ORACLE_TRACED_PEAK


class TestOverlap:
    """overlap is the oracle check streamed: the norm of the evolved coherent
    product, and its fidelity with the predicted product, summed one band at
    a time, each band from its own rows."""

    @pytest.mark.parametrize("band_rows", [fock._BAND_ROWS, 16])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_library_path(self, monkeypatch, rhos, band_rows, seed):
        # 1 to 3 ancillas, sum |a|^2 between 0.3 and 3, at cutoff 40, so K' is
        # 13 to 20; at the module's band size the 1- and 2-ancilla states fit
        # one band, at 16 rows every state spans many
        default_rows = fock._BAND_ROWS
        monkeypatch.setattr(fock, "_BAND_ROWS", band_rows)
        rng = np.random.default_rng(seed)
        n_ancillas = 1 + seed % 3
        n_modes = n_ancillas + 1
        config = CouplingConfig(list(rng.uniform(-1.5, 1.5, size=n_ancillas)), float(rng.uniform(-4.0, 4.0)))
        z = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        amps = list(z * math.sqrt(10.0 ** rng.uniform(-0.5, 0.5)) / np.linalg.norm(z))
        predicted = apply_transform(build_transform(config), amps)
        top = top_sector(amps, 40)
        evolved_norm, fid, _ = overlap(amps, predicted, config, 40)
        # each band with its own series, of rho = |R*t| * its highest sector
        angle = abs(_reduced_angle(config))
        assert rhos == [angle * hi for _, hi in fock._bands(n_modes, top)]
        if math.comb(top + n_modes, n_modes) <= band_rows:
            assert len(rhos) == 1
        else:
            assert len(rhos) >= 3
        # the band size changes only the order of the sums and where each
        # band's series stops, both at the rounding
        monkeypatch.setattr(fock, "_BAND_ROWS", default_rows)
        assert overlap(amps, predicted, config, 40)[:2] == pytest.approx((evolved_norm, fid), rel=0, abs=1e-15)
        # against the dense exponential, on the bases small enough for it:
        # seeds 0, 1 and 3, of 231, 560 and 190 rows
        if math.comb(top + n_modes, n_modes) <= 1000:
            out = expm_antisymmetric(dense_generator(config.couplings, config.time, top)) @ coherent(amps, top)
            assert abs(evolved_norm - np.linalg.norm(out)) <= 1e-12
            assert abs(fid - abs(np.vdot(coherent(predicted, top), out)) ** 2) <= 1e-12

    def test_vacuum_is_exact(self):
        # K' = 0 at any cutoff: the vacuum row alone is evolved, and no
        # weight lies above it
        config = CouplingConfig([0.7, -1.1], 1.3)
        for cutoff in (1, 8, 40):
            assert overlap([0.0] * 3, [0.0] * 3, config, cutoff) == (1.0, 1.0, 0.0)

    def test_non_finite_prediction_is_refused(self):
        config = CouplingConfig([1.0], 0.3)
        message = "predicted amplitude must have finite real and imaginary parts, got nan"
        with pytest.raises(InfoCloneError, match=message):
            overlap([0.5, 0.1], [math.nan, 0.1], config, 10)

    def test_overflowing_prediction_has_zero_fidelity(self):
        # |1e200|^2 overflows a double: the predicted product's vacuum weight
        # exp(-|a|^2 / 2) is 0, without an overflow warning
        config = CouplingConfig([1.0], 0.3)
        evolved_norm, fid, tail = overlap([0.5, 0.1], [1e200, 0.1], config, 10)
        assert fid == 0.0
        assert (evolved_norm, tail) == overlap([0.5, 0.1], [0.5, 0.1], config, 10)[::2]

    def test_mode_counts_must_agree(self):
        config = CouplingConfig([0.7, -1.1], 1.3)
        with pytest.raises(InfoCloneError, match="3 input modes, 2 predicted modes and 2 couplings"):
            overlap([0.5, 0.0, 0.0], [0.5, 0.0], config, 10)
        with pytest.raises(InfoCloneError, match="at least one mode amplitude is required"):
            overlap([], [], CouplingConfig([1.0], 1.0), 5)


class TestStrategyOracle:
    """The campaigns' clone map, against the number-basis evolution that realizes it."""

    ALPHA, BETA = 0.4 - 0.3j, 0.2 + 0.1j

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize(
        "kind, options, ancilla_beta",
        [
            ("optimal", {}, None),
            ("optimal", {}, BETA),
            ("offset", {"beta": BETA}, None),
            ("near-optimal", {"epsilon": 0.3, "beta": BETA}, None),
        ],
        ids=["optimal", "optimal-ancilla-beta", "offset", "near-optimal"],
    )
    def test_clones_are_the_clone_map(self, kind, options, ancilla_beta, n):
        # N equal couplings at R*t = asin(sin_rt) take (alpha, beta, ..., beta)
        # to the held c*alpha + sin_rt*sqrt(N)*beta and N copies of the clone
        # that the estimator inverts; the ancillas hold spec.beta unless given
        spec = StrategySpec(kind, n, **options)
        beta = spec.beta if ancilla_beta is None else ancilla_beta
        cfg = CouplingConfig([1.0] * n, math.asin(spec.sin_rt) / math.sqrt(n))
        amps = [self.ALPHA] + [beta] * n
        held = spec.offset_scale * self.ALPHA + spec.sin_rt * math.sqrt(n) * beta
        assert_exact_oracle(*overlap(amps, [held] + [clone_amplitude(spec, self.ALPHA)] * n, cfg, 6))


class TestFidelity:
    """The fidelity overlap reports, at zero time: that of two coherent products."""

    def test_self_fidelity(self):
        a = [0.3 + 0.4j, -0.2]
        assert zero_time_fidelity(a, a, 15) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_against_unit_coherent(self):
        assert zero_time_fidelity([0.0, 0.0], [1.0, 0.0], 30) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_symmetry(self):
        a, b = [0.3 + 0.1j, 0.0], [-0.2 + 0.4j, 0.0]
        assert zero_time_fidelity(a, b, 20) == pytest.approx(zero_time_fidelity(b, a, 20), rel=1e-12)


# Admitted oracle inputs (couplings, time, alpha, beta, cutoff): 1 to 3
# ancillas at cutoffs 20 to 60, tails from 1e-111 to 2.4e-4, K' from 13 to
# the cutoff, seven of them over 5 to 12 bands
DEFECT_INPUTS = [
    ("1.097", "2.141", "-3.36,1.05", "1.19,3.01", 50),
    ("0.39,0.879", "-2.435", "4.32,2.77", "-0.29,-0.77", 50),
    ("1.394,0.462,0.347", "-2.055", "-0.49,-0.09", "0.39,0.99", 25),
    ("0.834", "-1.042", "0.96,2.68", "-0.1,0.36", 20),
    ("-0.128,-0.666", "2.986", "1.25,-1.97", "-0.43,0.98", 20),
    ("-1.411,0.189,-1.176", "-2.353", "0.46,0.21", "-0.75,-1.74", 25),
    ("-0.09", "2.882", "1.68,0.83", "0.19,-1.04", 20),
    ("-0.566,-1.455", "-0.54", "1.36,1.54", "1.47,0.1", 20),
    ("-0.967,0.178,-0.158", "-1.856", "1.25,1.35", "0.99,0.89", 25),
    ("-1.499", "2.186", "-3.2,-2.11", "0.7,0.09", 30),
    ("0.426,-1.199", "2.936", "-0.17,3.29", "-0.76,1.41", 60),
    ("-1.277,-0.874,0.41", "-2.907", "-0.32,-0.31", "-1.38,-0.84", 20),
    ("1.1", "-1.903", "1.93,-1.25", "0,0.81", 30),
    ("-0.91,1.35", "2.293", "-0.68,0.36", "4.08,1.01", 60),
    ("0.719,-0.325,-0.238", "2.429", "-2.09,-0.27", "0.47,-0.07", 20),
    ("0.178", "2.114", "-1.01,5.24", "0.12,0.42", 50),
    ("-0.266,-0.753", "-2.72", "-3.05,-0.6", "0.53,0.35", 40),
    ("1.441,0.471,0.574", "0.507", "0.23,0.05", "1.6,-1.01", 25),
    ("-1.436", "0.817", "-0.25,-2.04", "0.93,0", 20),
    ("-0.397,-1.367", "2.617", "4.04,4.28", "-0.52,0.81", 60),
    ("1", "1", "0.6,0", "0,0", 60),
    ("0.8,-0.6,1.2", "1.3", "0.5,-0.3", "0.2,0.4", 40),
    # a quarter turn moves the held amplitude onto the ancilla: (0.6, 0) -> (0, -0.6)
    ("1", repr(math.pi / 2), "0.6,0", "0,0", 25),
    # two operations of the benchmark's oracle_check workload
    ("1.266227,1.267178", "0.43842996136897716", "0.466615,-1.779562", "0.801919,-1.07282", 60),
    ("1.130225,0.588157", "0.6164324745631548", "-0.290916,-0.114403", "-1.208544,-1.172402", 60),
]


class TestPrintedDefect:
    """When the transform is right, the report's evolved norm and fidelity
    sit at their exact values, to the rounding of the evolution, far inside
    the fidelity threshold's 1e-3."""

    def test_scalars_sit_at_their_exact_values(self, run_cli):
        # the worst defect of these inputs is 8.2e-15, 12 times inside the tolerance
        for couplings, time, alpha, beta, cutoff in DEFECT_INPUTS:
            code, out = run_cli(
                "oracle", f"--couplings={couplings}", f"--time={time}", f"--alpha={alpha}", f"--beta={beta}",
                "--cutoff", str(cutoff),
            )
            assert code == 0
            report = json.loads(out)
            assert_exact_oracle(report["evolved_norm"], report["fidelity"], report["truncation_tail"])
