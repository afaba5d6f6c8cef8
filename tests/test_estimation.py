import math

import numpy as np
import pytest

from infoclone import InfoCloneError, StrategySpec, run_trials
from infoclone.estimation import clone_amplitude, estimate_alpha, theoretical_std
from infoclone.measurement import MeasurementRecord, measure_clones
from infoclone.transform import CouplingConfig, apply_transform, build_transform

SQRT2 = math.sqrt(2.0)


def noise_free_record(gamma):
    """Record whose group averages sit exactly at their expectations."""
    return MeasurementRecord(y=SQRT2 * gamma.real, z=SQRT2 * gamma.imag)


def raw_estimates(strategy, alpha, n_trials, seed):
    """Per-trial estimates recomputed outside run_trials from the same streams."""
    gamma = clone_amplitude(strategy, alpha)
    return np.array(
        [
            estimate_alpha(measure_clones(gamma, strategy.n_copies, seed, trial_index=i), strategy)
            for i in range(n_trials)
        ]
    )


class TestCloneLinearMap:
    def test_optimal(self):
        assert clone_amplitude(StrategySpec("optimal", 4), 2.0 - 4.0j) == 1.0 - 2.0j

    def test_offset(self):
        gamma = clone_amplitude(StrategySpec("offset", 2, beta=5.0), 1.0j)
        assert gamma.real == pytest.approx(5.0 * math.sqrt(0.5), rel=1e-15)
        assert gamma.imag == pytest.approx(-0.5, rel=1e-15)

    def test_near_optimal(self):
        gamma = clone_amplitude(StrategySpec("near-optimal", 100, epsilon=0.1, beta=3.0), 1.0j)
        assert gamma.real == pytest.approx(3.0 * math.sqrt(0.19), rel=1e-12)
        assert gamma.imag == pytest.approx(0.09, rel=1e-15)

    def test_matches_symmetric_clone_formula(self):
        rng = np.random.default_rng(3)
        strategies = [
            StrategySpec("optimal", 25),
            StrategySpec("offset", 8, beta=2.0 - 1.5j),
            StrategySpec("near-optimal", 50, epsilon=0.3, beta=-4.0 + 0.5j),
        ]
        for strategy in strategies:
            n, sin_rt = strategy.n_copies, strategy.sin_rt
            cos_rt = math.sqrt(1.0 - sin_rt * sin_rt)
            u = build_transform(CouplingConfig([1.0] * n, math.asin(sin_rt) / math.sqrt(n)))
            for _ in range(20):
                alpha = complex(rng.normal(), rng.normal())
                formula = -(alpha / math.sqrt(n)) * sin_rt + strategy.beta * cos_rt
                gamma = clone_amplitude(strategy, alpha)
                assert abs(gamma - formula) <= 1e-12
                out = apply_transform(u, [alpha] + [strategy.beta] * n)
                assert np.all(np.abs(out[1:] - gamma) <= 1e-12)


class TestEstimateAlpha:
    def test_optimal_noise_free(self):
        strategy = StrategySpec("optimal", 100)
        alpha = 1.5 - 0.5j
        record = noise_free_record(clone_amplitude(strategy, alpha))
        assert estimate_alpha(record, strategy) == pytest.approx(alpha, abs=1e-12)

    def test_offset_cancels_reference(self):
        strategy = StrategySpec("offset", 10, beta=5.0)
        record = noise_free_record(clone_amplitude(strategy, 0j))
        assert abs(estimate_alpha(record, strategy)) <= 1e-12

    def test_near_optimal_inversion(self):
        strategy = StrategySpec("near-optimal", 100, epsilon=0.1, beta=50.0)
        alpha = 1.0 + 1.0j
        record = noise_free_record(clone_amplitude(strategy, alpha))
        assert estimate_alpha(record, strategy) == pytest.approx(alpha, abs=1e-10)


class TestTheoreticalStd:
    def test_optimal_independent_of_copies(self):
        for n in (2, 10, 1000):
            assert theoretical_std(StrategySpec("optimal", n)) == (math.sqrt(0.5),) * 2

    def test_offset(self):
        assert theoretical_std(StrategySpec("offset", 8, beta=1.0)) == (1.0, 1.0)
        std_re, std_im = theoretical_std(StrategySpec("offset", 7, beta=1.0))
        assert std_re == pytest.approx(math.sqrt(7 / 8), rel=1e-15)
        assert std_im == pytest.approx(math.sqrt(7 / 6), rel=1e-15)

    def test_near_optimal(self):
        value = theoretical_std(StrategySpec("near-optimal", 8, epsilon=0.1, beta=1.0))
        assert value == (math.sqrt(0.5) / (1.0 - 0.1),) * 2
        assert value[0] == pytest.approx(0.7857, abs=5e-5)
        std_re, std_im = theoretical_std(StrategySpec("near-optimal", 7, epsilon=0.1, beta=1.0))
        assert std_re == pytest.approx(math.sqrt(7 / 16) / 0.9, rel=1e-15)
        assert std_im == pytest.approx(math.sqrt(7 / 12) / 0.9, rel=1e-15)

    def test_odd_copies(self):
        # ceil(N/2) = (N+1)/2 clones are measured in position, floor(N/2) = (N-1)/2 in momentum
        assert theoretical_std(StrategySpec("optimal", 3)) == (0.6123724356957945, 0.8660254037844386)
        for n in (3, 5, 101):
            for strategy in (
                StrategySpec("optimal", n),
                StrategySpec("offset", n, beta=1.0),
                StrategySpec("near-optimal", n, epsilon=0.2, beta=1.0),
            ):
                std_re, std_im = theoretical_std(strategy)
                scale = abs(strategy.sin_rt)
                assert std_re == pytest.approx(math.sqrt(n / (2 * (n + 1))) / scale, rel=1e-15)
                assert std_im == pytest.approx(math.sqrt(n / (2 * (n - 1))) / scale, rel=1e-15)


class TestRunTrials:
    def test_two_trials_give_finite_summary(self):
        summary = run_trials(StrategySpec("optimal", 4), 0.2 + 0.1j, 2, seed=3)
        assert summary.n_trials == 2
        assert math.isfinite(summary.std_re) and summary.std_re >= 0.0
        assert math.isfinite(summary.std_im) and summary.std_im >= 0.0

    def test_rejects_degenerate_trial_counts(self):
        strategy = StrategySpec("optimal", 4)
        for m in (0, 1):
            with pytest.raises(InfoCloneError, match=f"n_trials must be >= 2, got {m}"):
                run_trials(strategy, 0.1, m, seed=3)

    def test_deterministic(self):
        strategy = StrategySpec("near-optimal", 20, epsilon=0.2, beta=4.0)
        a = run_trials(strategy, 1.0 - 2.0j, 500, seed=99)
        b = run_trials(strategy, 1.0 - 2.0j, 500, seed=99)
        assert a == b

    def test_summary_matches_recomputed_estimates(self):
        strategy = StrategySpec("offset", 12, beta=10.0 + 1.0j)
        alpha = -0.7 + 0.3j
        summary = run_trials(strategy, alpha, 400, seed=17)
        estimates = raw_estimates(strategy, alpha, 400, seed=17)
        assert summary.mean_estimate == complex(estimates.mean())
        assert summary.std_re == float(estimates.real.std(ddof=1))
        assert summary.std_im == float(estimates.imag.std(ddof=1))

    @pytest.mark.parametrize(
        "strategy",
        [
            StrategySpec("optimal", 100),
            StrategySpec("offset", 100, beta=50.0),
            StrategySpec("near-optimal", 100, epsilon=0.1, beta=50.0),
        ],
        ids=["optimal", "offset", "near-optimal"],
    )
    def test_unbiased(self, strategy):
        alpha = 2.1 - 3.4j
        trials = 20000
        summary = run_trials(strategy, alpha, trials, seed=8)
        scale = 5.0 / math.sqrt(trials)
        assert abs(summary.mean_estimate.real - alpha.real) <= scale * summary.theory_std_re
        assert abs(summary.mean_estimate.imag - alpha.imag) <= scale * summary.theory_std_im

    def test_unbiased_at_random_alpha(self):
        rng = np.random.default_rng(44)
        strategies = [
            StrategySpec("optimal", 10),
            StrategySpec("offset", 10, beta=20.0 - 5.0j),
            StrategySpec("near-optimal", 10, epsilon=0.25, beta=-30.0),
        ]
        for strategy in strategies:
            for _ in range(2):
                alpha = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
                summary = run_trials(strategy, alpha, 5000, seed=int(rng.integers(2**32)))
                scale = 5.0 / math.sqrt(summary.n_trials)
                assert abs(summary.mean_estimate.real - alpha.real) <= scale * summary.theory_std_re
                assert abs(summary.mean_estimate.imag - alpha.imag) <= scale * summary.theory_std_im

    def test_estimates_are_gaussian(self):
        # group averages of Gaussians are Gaussian, so the standardized
        # estimates must show vanishing skew and excess kurtosis
        strategy = StrategySpec("optimal", 100)
        alpha = 1.5 - 0.5j
        trials = 100000
        estimates = raw_estimates(strategy, alpha, trials, seed=314)
        for values in (estimates.real, estimates.imag):
            centered = values - values.mean()
            std = values.std(ddof=1)
            skew = float(np.mean(centered**3) / std**3)
            kurtosis = float(np.mean(centered**4) / std**4 - 3.0)
            assert abs(skew) <= 0.05
            assert abs(kurtosis) <= 0.1
