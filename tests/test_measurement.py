import math

import numpy as np
import pytest

from infoclone.errors import InfoCloneError
from infoclone.estimation import group_sizes
from reference import QUADRATURE_STD, measure_clones

SQRT2 = math.sqrt(2.0)


class TestSamplers:
    # two clones put one in each group, so y and z are single samples
    def test_position_mean_centered(self):
        draws, _ = measure_clones(0j, 2, 10**6, seed=7)
        assert abs(draws.mean()) <= 4.0 * QUADRATURE_STD / 1e3

    def test_position_mean_attenuated_amplitude(self):
        alpha, n = 2.0, 4
        gamma = alpha / math.sqrt(n)
        draws, _ = measure_clones(complex(gamma), 2, 10**6, seed=8)
        assert draws.mean() == pytest.approx(SQRT2, abs=4.0 * QUADRATURE_STD / 1e3)

    def test_position_variance(self):
        draws, _ = measure_clones(1.1 + 0.3j, 2, 10**6, seed=9)
        assert draws.var(ddof=1) == pytest.approx(0.5, abs=0.005)

    def test_momentum_mean_and_variance(self):
        gamma = 1j * 3.0 / math.sqrt(9)
        _, draws = measure_clones(gamma, 2, 10**6, seed=10)
        assert draws.mean() == pytest.approx(SQRT2, abs=4.0 * QUADRATURE_STD / 1e3)
        assert draws.var(ddof=1) == pytest.approx(0.5, abs=0.005)

    def test_momentum_centered_for_zero_amplitude(self):
        _, draws = measure_clones(0j, 2, 20000, seed=11)
        assert abs(draws.mean()) <= 5.0 * QUADRATURE_STD / math.sqrt(20000)


class TestMeasureClones:
    def test_two_clones_single_draw_per_group(self):
        # one clone per group: y and z are the stream's first two samples
        y, z = measure_clones(0j, 2, 1, seed=5)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        assert y.shape == z.shape == (1,)
        assert y[0] == rng.normal(0.0, QUADRATURE_STD)
        assert z[0] == rng.normal(0.0, QUADRATURE_STD)

    def test_group_streams_are_decoupled(self):
        # position block first, then momentum block, each row averaged
        gamma, trials = 0.7 + 0.2j, 6
        y, z = measure_clones(gamma, 9, trials, seed=31)
        n_position, n_momentum = group_sizes(9)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
        pos = rng.normal(SQRT2 * gamma.real, QUADRATURE_STD, size=(trials, n_position))
        mom = rng.normal(SQRT2 * gamma.imag, QUADRATURE_STD, size=(trials, n_momentum))
        assert y.shape == z.shape == (trials,)
        assert np.all(y == pos.mean(axis=1))
        assert np.all(z == mom.mean(axis=1))
        # the position averages do not depend on the momentum group's size
        y_10, _ = measure_clones(gamma, 10, trials, seed=31)
        assert np.all(y_10 == y)

    def test_too_few_clones(self):
        with pytest.raises(InfoCloneError, match="need at least 2 clones to fill both groups, got 1"):
            measure_clones(0.1, 1, 1, seed=5)

    def test_rejects_degenerate_trial_counts(self):
        for m in (0, -1):
            with pytest.raises(InfoCloneError, match=f"n_trials must be >= 1, got {m}"):
                measure_clones(0.1, 4, m, seed=5)
        y, z = measure_clones(0.1, 4, 1, seed=5)
        assert y.shape == z.shape == (1,)

    def test_counts_must_be_integers(self):
        with pytest.raises(InfoCloneError, match="n_trials must be an integer, got 1.7"):
            measure_clones(0.1, 4, 1.7, seed=1)
        with pytest.raises(InfoCloneError, match="n_copies must be an integer, got 4.5"):
            measure_clones(0.1, 4.5, 2, seed=1)
        y, z = measure_clones(0.1, np.int64(4), np.int32(2), seed=1)
        y_ref, z_ref = measure_clones(0.1, 4, 2, seed=1)
        assert np.all(y == y_ref) and np.all(z == z_ref)

    def test_rejects_non_finite_gamma(self):
        with pytest.raises(InfoCloneError, match="gamma must have finite real and imaginary parts"):
            measure_clones(complex(math.inf, 0.0), 4, 1, seed=5)

    def test_deterministic(self):
        a = measure_clones(0.4 - 0.2j, 10, 17, seed=123)
        b = measure_clones(0.4 - 0.2j, 10, 17, seed=123)
        assert np.array_equal(a, b)

    def test_trials_differ(self):
        y, z = measure_clones(0.1, 4, 2, seed=9)
        assert y[0] != y[1] and z[0] != z[1]

    def test_seeds_differ(self):
        a = measure_clones(0.1, 4, 1, seed=9)
        b = measure_clones(0.1, 4, 1, seed=10)
        assert a[0] != b[0] and a[1] != b[1]

    def test_seed_validation(self):
        with pytest.raises(InfoCloneError):
            measure_clones(0.1, 4, 1, seed=-1)
        with pytest.raises(InfoCloneError):
            measure_clones(0.1, 4, 1, seed=1.5)
        measure_clones(0.1, 4, 1, seed=2**64 - 1)

