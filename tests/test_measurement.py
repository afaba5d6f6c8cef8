import math

import numpy as np
import pytest

from infoclone.errors import InfoCloneError
from infoclone.measurement import (
    GROUP_MOMENTUM,
    GROUP_POSITION,
    QUADRATURE_STD,
    group_sizes,
    measure_clones,
    substream,
)

SQRT2 = math.sqrt(2.0)


def batched_position(gamma, seed, trial, size):
    rng = substream(seed, trial, GROUP_POSITION)
    return rng.normal(SQRT2 * gamma.real, QUADRATURE_STD, size=size)


class TestSamplers:
    def test_position_mean_centered(self):
        draws = batched_position(0j, 7, 0, 10**6)
        assert abs(draws.mean()) <= 4.0 * QUADRATURE_STD / 1e3

    def test_position_mean_attenuated_amplitude(self):
        alpha, n = 2.0, 4
        gamma = alpha / math.sqrt(n)
        draws = batched_position(complex(gamma), 8, 0, 10**6)
        assert draws.mean() == pytest.approx(SQRT2, abs=4.0 * QUADRATURE_STD / 1e3)

    def test_position_variance(self):
        draws = batched_position(1.1 + 0.3j, 9, 0, 10**6)
        assert draws.var(ddof=1) == pytest.approx(0.5, abs=0.005)

    def test_momentum_mean_and_variance(self):
        gamma = 1j * 3.0 / math.sqrt(9)
        rng = substream(10, 0, GROUP_MOMENTUM)
        draws = rng.normal(SQRT2 * gamma.imag, QUADRATURE_STD, size=10**6)
        assert draws.mean() == pytest.approx(SQRT2, abs=4.0 * QUADRATURE_STD / 1e3)
        assert draws.var(ddof=1) == pytest.approx(0.5, abs=0.005)

    def test_momentum_centered_for_zero_amplitude(self):
        draws = substream(11, 0, GROUP_MOMENTUM).normal(0.0, QUADRATURE_STD, size=20000)
        assert abs(draws.mean()) <= 5.0 * QUADRATURE_STD / math.sqrt(20000)


class TestGroupSizes:
    def test_even_split_counts(self):
        assert group_sizes(5) == (3, 2)
        for n in (2, 3, 4, 7, 100):
            n_position, n_momentum = group_sizes(n)
            assert n_position == (n + 1) // 2
            assert n_momentum == n // 2
            assert n_position + n_momentum == n


class TestMeasureClones:
    def test_two_clones_single_draw_per_group(self):
        y, z = measure_clones(0j, 2, seed=5)
        assert y == batched_position(0j, 5, 0, 1)[0]
        assert z == substream(5, 0, GROUP_MOMENTUM).normal(0.0, QUADRATURE_STD)

    def test_too_few_clones(self):
        with pytest.raises(InfoCloneError, match="need at least 2 clones to fill both groups, got 1"):
            measure_clones(0.1, 1, seed=5)

    def test_negative_trial_index(self):
        with pytest.raises(InfoCloneError, match="trial_index must be >= 0, got -1"):
            measure_clones(0.1, 4, seed=5, trial_index=-1)

    def test_deterministic(self):
        a = measure_clones(0.4 - 0.2j, 10, seed=123, trial_index=17)
        b = measure_clones(0.4 - 0.2j, 10, seed=123, trial_index=17)
        assert a == b

    def test_group_streams_are_decoupled(self):
        # the position average only depends on the position substream
        gamma = 0.7 + 0.2j
        y, z = measure_clones(gamma, 9, seed=31, trial_index=4)
        n_position, n_momentum = group_sizes(9)
        pos = batched_position(gamma, 31, 4, n_position)
        assert y == pos.mean()
        mom = substream(31, 4, GROUP_MOMENTUM).normal(
            SQRT2 * gamma.imag, QUADRATURE_STD, size=n_momentum
        )
        assert z == mom.mean()

    def test_trials_differ(self):
        a = measure_clones(0.1, 4, seed=9, trial_index=0)
        b = measure_clones(0.1, 4, seed=9, trial_index=1)
        assert a != b

    def test_seeds_differ(self):
        a = measure_clones(0.1, 4, seed=9)
        b = measure_clones(0.1, 4, seed=10)
        assert a != b

    def test_seed_validation(self):
        with pytest.raises(InfoCloneError):
            measure_clones(0.1, 4, seed=-1)
        with pytest.raises(InfoCloneError):
            measure_clones(0.1, 4, seed=1.5)
        measure_clones(0.1, 4, seed=2**64 - 1)

    def test_group_average_distribution(self):
        # averages over the position group concentrate like 1/sqrt(N)
        alpha, n, trials = 1.5 - 0.5j, 100, 20000
        gamma = alpha / math.sqrt(n)
        ys = np.array(
            [measure_clones(gamma, n, seed=2024, trial_index=i)[0] for i in range(trials)]
        )
        expected_mean = math.sqrt(2.0 / n) * alpha.real
        standard_error = (1.0 / math.sqrt(n)) / math.sqrt(trials)
        assert ys.mean() == pytest.approx(expected_mean, abs=4.0 * standard_error)
        assert ys.std(ddof=1) == pytest.approx(1.0 / math.sqrt(n), rel=0.03)
