import math
import random
import re
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from infoclone import InfoCloneError, StrategySpec, cli, run_trials
from infoclone.estimation import (
    _CHUNK,
    MAX_TRIALS,
    _NormalStream,
    clone_amplitude,
    estimate_alpha,
    group_sizes,
    theoretical_std,
)
from infoclone.transform import CouplingConfig, apply_transform, build_transform
from reference import box_muller, campaign_words, measure_clones

SQRT2 = math.sqrt(2.0)
# The traced peak of run_trials at any number of trials: the stream's
# counters and work arrays, which hold each chunk's normals, estimates and
# deviations too, 56 bytes a trial or 458,752 B, and numpy's own buffers. On
# a 2-CPU Linux VM (Python 3.11, numpy 2.4) tracemalloc read 466,656 to
# 467,416 B from 2^13 to 10^7 trials, half-filled last chunks included, so
# the bound leaves 20 %.
CAMPAIGN_TRACED_PEAK = 560_000


def noise_free_record(gamma):
    """Group averages (y, z) that sit exactly at their expectations."""
    return SQRT2 * gamma.real, SQRT2 * gamma.imag


def raw_estimates(strategy, alpha, n_trials, seed):
    """Per-trial estimates from the per-clone reference sampler."""
    gamma = clone_amplitude(strategy, alpha)
    return estimate_alpha(*measure_clones(gamma, strategy.n_copies, n_trials, seed), strategy)


def scheme_normals(n_trials, seed):
    """The (n_trials, 2) normal pairs of a campaign, from the reference's words."""
    return box_muller([campaign_words(seed, i) for i in range(n_trials)])


def scheme_estimates(strategy, alpha, n_trials, seed):
    """Per-trial estimates recomputed outside run_trials, one trial at a time.

    Trial i's pair of normals, from the reference Philox block of counter i
    under the seed, maps onto its group averages.
    """
    gamma = clone_amplitude(strategy, alpha)
    n_position, n_momentum = group_sizes(strategy.n_copies)
    estimates = []
    for xi in scheme_normals(n_trials, seed):
        y = SQRT2 * gamma.real + xi[0] / math.sqrt(2.0 * n_position)
        z = SQRT2 * gamma.imag + xi[1] / math.sqrt(2.0 * n_momentum)
        estimates.append(estimate_alpha(y, z, strategy))
    return np.array(estimates)


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
        assert estimate_alpha(*record, strategy) == pytest.approx(alpha, abs=1e-12)

    def test_offset_cancels_reference(self):
        strategy = StrategySpec("offset", 10, beta=5.0)
        record = noise_free_record(clone_amplitude(strategy, 0j))
        assert abs(estimate_alpha(*record, strategy)) <= 1e-12

    def test_near_optimal_inversion(self):
        strategy = StrategySpec("near-optimal", 100, epsilon=0.1, beta=50.0)
        alpha = 1.0 + 1.0j
        record = noise_free_record(clone_amplitude(strategy, alpha))
        assert estimate_alpha(*record, strategy) == pytest.approx(alpha, abs=1e-10)

    def test_leaves_its_inputs_as_they_are(self):
        strategy = StrategySpec("near-optimal", 9, epsilon=0.2, beta=3.0 - 1.0j)
        y, z = np.random.default_rng(5).normal(size=(2, 50))
        y_before, z_before = y.copy(), z.copy()
        estimates = estimate_alpha(y, z, strategy)
        assert np.array_equal(y, y_before) and np.array_equal(z, z_before)
        # the in-place steps give the bits of the one-expression inversion
        c_beta, s = strategy.offset_scale * strategy.beta, strategy.signal_scale
        assert np.array_equal(estimates, ((y + 1j * z) / SQRT2 - c_beta) / s)
        scalar = estimate_alpha(0.3, -1.2, strategy)
        assert type(scalar) is complex
        assert scalar == ((0.3 + 1j * -1.2) / SQRT2 - c_beta) / s


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
        row = run_trials(StrategySpec("optimal", 4), 0.2 + 0.1j, 2, seed=3)
        assert row["trials"] == 2
        assert math.isfinite(row["std_re"]) and row["std_re"] >= 0.0
        assert math.isfinite(row["std_im"]) and row["std_im"] >= 0.0

    def test_rejects_degenerate_trial_counts(self):
        strategy = StrategySpec("optimal", 4)
        for m in (0, 1):
            with pytest.raises(InfoCloneError, match=f"n_trials must be >= 2, got {m}"):
                run_trials(strategy, 0.1, m, seed=3)

    def test_rejects_campaigns_above_the_cap(self):
        strategy = StrategySpec("optimal", 4)
        with pytest.raises(InfoCloneError, match=f"n_trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"):
            run_trials(strategy, 0.1, MAX_TRIALS + 1, seed=3)

    def test_trial_count_must_be_an_integer(self):
        strategy = StrategySpec("optimal", 4)
        for m in (2.9, 3.0, "3"):
            with pytest.raises(InfoCloneError, match=f"n_trials must be an integer, got {m!r}"):
                run_trials(strategy, 0.1, m, seed=1)
        row = run_trials(strategy, 0.1, np.int64(3), seed=1)
        assert type(row["trials"]) is int
        assert row == run_trials(strategy, 0.1, 3, seed=1)

    def test_deterministic(self):
        strategy = StrategySpec("near-optimal", 20, epsilon=0.2, beta=4.0)
        a = run_trials(strategy, 1.0 - 2.0j, 500, seed=99)
        b = run_trials(strategy, 1.0 - 2.0j, 500, seed=99)
        assert a == b

    @pytest.mark.parametrize(
        "strategy",
        [
            StrategySpec("optimal", 3),
            StrategySpec("offset", 12, beta=10.0 + 1.0j),
            StrategySpec("near-optimal", 7, epsilon=0.3, beta=2.0 - 1.0j),
        ],
        ids=["optimal", "offset", "near-optimal"],
    )
    def test_summary_matches_recomputed_estimates(self, strategy):
        # the campaign inverts the clone map in place on its normals' block;
        # these cases have c = 0 (optimal, odd N), s < 0 (offset) and both
        # constants nonzero (near-optimal, odd N)
        alpha = -0.7 + 0.3j
        row = run_trials(strategy, alpha, 400, seed=17)
        estimates = scheme_estimates(strategy, alpha, 400, seed=17)
        assert complex(row["mean_re"], row["mean_im"]) == complex(estimates.mean())
        assert row["std_re"] == float(estimates.real.std(ddof=1))
        assert row["std_im"] == float(estimates.imag.std(ddof=1))

    def test_multi_chunk_campaign_matches_chunked_merge(self):
        # three chunks, the last of 5 trials
        strategy = StrategySpec("near-optimal", 7, epsilon=0.3, beta=2.0 - 1.0j)
        alpha = -0.4 + 1.1j
        m, seed = 2 * _CHUNK + 5, 29
        starts = range(0, m, _CHUNK)
        xi = scheme_normals(m, seed)

        gamma = clone_amplitude(strategy, alpha)
        n_position, n_momentum = group_sizes(strategy.n_copies)
        count = 0
        for start in starts:
            block = xi[start : start + _CHUNK]
            y = SQRT2 * gamma.real + block[:, 0] / math.sqrt(2.0 * n_position)
            z = SQRT2 * gamma.imag + block[:, 1] / math.sqrt(2.0 * n_momentum)
            estimates = estimate_alpha(y, z, strategy)
            k = len(estimates)
            chunk_mean = complex(estimates.mean())
            chunk_m2 = [float(((q - q.mean()) ** 2).sum()) for q in (estimates.real, estimates.imag)]
            if count == 0:
                mean_re, mean_im, (m2_re, m2_im) = chunk_mean.real, chunk_mean.imag, chunk_m2
            else:
                # Chan, Golub & LeVeque's pairwise update, one quadrature at a time
                total = count + k
                d_re, d_im = chunk_mean.real - mean_re, chunk_mean.imag - mean_im
                mean_re += d_re * (k / total)
                mean_im += d_im * (k / total)
                m2_re = m2_re + chunk_m2[0] + d_re**2 * (count * k / total)
                m2_im = m2_im + chunk_m2[1] + d_im**2 * (count * k / total)
            count += k

        row = run_trials(strategy, alpha, m, seed=seed)
        assert (row["mean_re"], row["mean_im"]) == (mean_re, mean_im)
        assert row["std_re"] == math.sqrt(m2_re / (m - 1))
        assert row["std_im"] == math.sqrt(m2_im / (m - 1))
        # the merge agrees with the one-pass statistics of all m estimates to rounding
        whole = estimate_alpha(
            SQRT2 * gamma.real + xi[:, 0] / math.sqrt(2.0 * n_position),
            SQRT2 * gamma.imag + xi[:, 1] / math.sqrt(2.0 * n_momentum),
            strategy,
        )
        assert row["mean_re"] == pytest.approx(whole.real.mean(), rel=1e-13)
        assert row["mean_im"] == pytest.approx(whole.imag.mean(), rel=1e-13)
        assert row["std_re"] == pytest.approx(whole.real.std(ddof=1), rel=1e-13)
        assert row["std_im"] == pytest.approx(whole.imag.std(ddof=1), rel=1e-13)

    def test_memory_does_not_grow_with_the_campaign(self):
        strategy = StrategySpec("offset", 12, beta=10.0 + 1.0j)
        run_trials(strategy, 0.5, 2, seed=1)
        peaks = []
        # the middle campaign's last chunk fills half the stream
        for m in (_CHUNK, _CHUNK + _CHUNK // 2, 10**6):
            tracemalloc.start()
            try:
                run_trials(strategy, 0.5, m, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.2 * peaks[0], peaks
        assert max(peaks) <= CAMPAIGN_TRACED_PEAK, peaks

    def test_sweep_memory_is_one_campaign(self):
        # the bench's sweep_grid shape, in process after a warm-up: a sweep
        # holds one campaign's arrays at a time. On the VM above tracemalloc
        # read 291,096 B.
        cfg = cli.resolve_config(
            ["sweep", "--strategy", "near-optimal", "--n-copies", "3", "--grid-axis", "epsilon",
             "--grid-values", "0.05,0.1,0.15,0.2,0.3,0.4,0.5,0.6", "--trials", "5000",
             "--alpha=0.3,-1.1", "--beta=1.2,0.4"]
        )
        cli.cmd_sweep(cfg)
        tracemalloc.start()
        try:
            code, report = cli.cmd_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(report["rows"]) == 8
        assert peak <= CAMPAIGN_TRACED_PEAK, peak

    @pytest.mark.parametrize(
        "n, trials",
        [(3, 4000), (9, 4000), (10, 4000), (10000, 1000)],
        ids=["3", "9", "10", "10000"],
    )
    def test_matches_per_clone_reference(self, n, trials):
        # the engine draws the group averages, the reference draws every
        # clone; both must give the same estimate distribution. At the
        # benchmark's N = 10^4, 1000 trials keep each reference block at 40 MB
        strategy = StrategySpec("near-optimal", n, epsilon=0.3, beta=2.0 - 1.0j)
        alpha = 0.8 + 1.7j
        engine = run_trials(strategy, alpha, trials, seed=101)
        reference = raw_estimates(strategy, alpha, trials, seed=202)
        for mean, std, values in [
            (engine["mean_re"], engine["std_re"], reference.real),
            (engine["mean_im"], engine["std_im"], reference.imag),
        ]:
            ref_std = values.std(ddof=1)
            assert abs(mean - values.mean()) <= 5.0 * math.sqrt((std**2 + ref_std**2) / trials)
            assert abs(std - ref_std) <= 5.0 * math.sqrt((std**2 + ref_std**2) / (2 * (trials - 1)))

    def test_text_alpha_is_refused(self):
        with pytest.raises(InfoCloneError, match=re.escape("true_alpha must be a number, got '1+2j'")):
            run_trials(StrategySpec("optimal", 4), "1+2j", 10, 1)

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
                row = run_trials(strategy, alpha, 5000, seed=int(rng.integers(2**32)))
                scale = 5.0 / math.sqrt(row["trials"])
                assert abs(row["mean_re"] - alpha.real) <= scale * row["theory_std_re"]
                assert abs(row["mean_im"] - alpha.imag) <= scale * row["theory_std_im"]

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


class TestNormalStream:
    def test_words_match_the_reference(self):
        # Random123's first known answer: counter 0 under key 0
        assert [int(word) for word in _NormalStream(0, 1).words(0, 1)[:, 0]] == [
            0x6627E8D5E169C58D,
            0xBC57AC4C9B00DBD8,
        ]
        rng = random.Random(8)
        seeds = [0, 2**64 - 1, 2**32 - 1, 2**32] + [rng.getrandbits(64) for _ in range(4)]
        for seed in seeds:
            stream = _NormalStream(seed, 8)
            # the counters' low word wraps and the high word fills in
            for first in (0, 2**32 - 3, 2**64 - 8, rng.randrange(2**64 - 8)):
                words = stream.words(first, 8)
                expected = [campaign_words(seed, first + j) for j in range(8)]
                assert [tuple(map(int, pair)) for pair in words.T] == expected, (seed, first)

    def test_pairs_match_the_reference_across_the_low_word_wrap(self):
        # the counters' low word wraps after the sixth pair; a campaign's last
        # chunk fills fewer rows than the stream was sized for
        seed, first = 2**63 + 7, 2**32 - 6
        stream = _NormalStream(seed, 12)
        for n in (12, 7):
            pairs = stream.fill(first, n)
            assert np.array_equal(pairs, box_muller([campaign_words(seed, first + j) for j in range(n)])), n

    def test_pairs_are_independent_standard_normals(self):
        # 2^20 pairs of one seed and of the next. Each of the 13 checks below
        # fails a right stream with probability about 1e-6, so the test does
        # with about 1.3e-5.
        n, seed = 2**20, 20261020
        pairs = _NormalStream(seed, n).fill(0, n)
        following = _NormalStream(seed + 1, n).fill(0, n)
        z = NormalDist().inv_cdf(1.0 - 0.5e-6)  # a two-sided 1e-6 bound, in SE
        # the chi-square quantile at 1 - 1e-6 for 63 degrees of freedom,
        # after Wilson and Hilferty (1931)
        dof = 63
        chi2_bound = dof * (1.0 - 2.0 / (9 * dof) + NormalDist().inv_cdf(1.0 - 1e-6) * math.sqrt(2.0 / (9 * dof))) ** 3
        edges = [NormalDist().inv_cdf(k / 64) for k in range(1, 64)]
        for x in pairs.T:
            mean = x.mean()
            centered = x - mean
            var = float(np.mean(centered**2))
            skew = float(np.mean(centered**3)) / var**1.5
            kurtosis = float(np.mean(centered**4)) / var**2 - 3.0
            # the standard errors of the four moments of n standard normals
            assert abs(mean) <= z / math.sqrt(n)
            assert abs(var - 1.0) <= z * math.sqrt(2.0 / n)
            assert abs(skew) <= z * math.sqrt(6.0 / n)
            assert abs(kurtosis) <= z * math.sqrt(24.0 / n)
            # 64 bins of equal probability under the normal law: Phi(x) is uniform
            counts = np.bincount(np.searchsorted(edges, x), minlength=64)
            chi2 = float(((counts - n / 64) ** 2).sum() / (n / 64))
            assert chi2 <= chi2_bound, chi2
        for a, b in [(pairs[:, 0], pairs[:, 1]), (pairs[:, 0], following[:, 0]), (pairs[:, 1], following[:, 1])]:
            assert abs(np.corrcoef(a, b)[0, 1]) <= z / math.sqrt(n)


class TestGroupSizes:
    def test_even_split_counts(self):
        assert group_sizes(5) == (3, 2)
        for n in (2, 3, 4, 7, 100):
            n_position, n_momentum = group_sizes(n)
            assert n_position == (n + 1) // 2
            assert n_momentum == n // 2
            assert n_position + n_momentum == n

    def test_count_must_be_an_integer(self):
        with pytest.raises(InfoCloneError, match="n_copies must be an integer, got 5.0"):
            group_sizes(5.0)
        assert group_sizes(np.int64(5)) == (3, 2)
