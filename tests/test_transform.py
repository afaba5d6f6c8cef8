import math
import re

import numpy as np
import pytest

from infoclone.errors import InfoCloneError
from infoclone.transform import (
    CouplingConfig,
    StrategyKind,
    StrategySpec,
    apply_transform,
    build_transform,
    orthogonality_residual,
)
from reference import generator_exponential


def random_config(rng, max_modes=8):
    n = int(rng.integers(1, max_modes + 1))
    while True:
        r = rng.uniform(-2.0, 2.0, size=n)
        if np.any(r != 0.0):
            break
    t = float(rng.uniform(-10.0, 10.0))
    return CouplingConfig(r, t)


class TestBuildCoupling:
    def test_single_coupling(self):
        cfg = CouplingConfig([1.0], math.pi / 2)
        assert cfg.norm == 1.0
        assert cfg.angle == math.pi / 2

    def test_three_four_five(self):
        assert CouplingConfig([3.0, 4.0], 1.0).norm == 5.0

    def test_four_unit_couplings(self):
        assert CouplingConfig([1, 1, 1, 1], 0.37).norm == 2.0

    def test_empty_couplings(self):
        with pytest.raises(InfoCloneError, match="at least one coupling is required"):
            CouplingConfig([], 1.0)

    def test_all_zero(self):
        with pytest.raises(InfoCloneError, match="all couplings are zero"):
            CouplingConfig([0.0, 0.0], 1.0)

    def test_non_finite(self):
        with pytest.raises(InfoCloneError, match="coupling must be finite, got nan"):
            CouplingConfig([1.0, math.nan], 1.0)
        with pytest.raises(InfoCloneError, match="time must be finite, got inf"):
            CouplingConfig([1.0], math.inf)

    def test_complex_coupling_rejected(self):
        with pytest.raises(InfoCloneError, match="coupling must be real"):
            CouplingConfig([1.0 + 2.0j], 1.0)


class TestBuildTransform:
    def test_zero_angle_is_identity(self):
        u = build_transform(CouplingConfig([1.0], 0.0))
        np.testing.assert_array_equal(u, np.eye(2))

    def test_quarter_turn(self):
        u = build_transform(CouplingConfig([1.0], math.pi / 2))
        np.testing.assert_allclose(u, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_half_turn_two_ancillas(self):
        # angle R*t = pi with R = sqrt(2); checked against the exponential oracle
        u = build_transform(CouplingConfig([1.0, 1.0], math.pi / math.sqrt(2.0)))
        expected = np.array([[-1, 0, 0], [0, 0, -1], [0, -1, 0]], dtype=float)
        np.testing.assert_allclose(u, expected, atol=1e-10)
        np.testing.assert_allclose(
            u, generator_exponential([1.0, 1.0], math.pi / math.sqrt(2.0)), atol=1e-10
        )

    def test_orthogonality_random(self):
        rng = np.random.default_rng(20250810)
        for _ in range(1000):
            u = build_transform(random_config(rng))
            assert orthogonality_residual(u) <= 1e-12

    def test_matches_generator_exponential_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            cfg = random_config(rng)
            u = build_transform(cfg)
            np.testing.assert_allclose(
                u, generator_exponential(cfg.couplings, cfg.time), atol=1e-10
            )

    def test_group_property_random(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            r = rng.uniform(-2.0, 2.0, size=n)
            if not np.any(r != 0.0):
                continue
            t1 = float(rng.uniform(-10.0, 10.0))
            t2 = float(rng.uniform(-10.0, 10.0))
            u1 = build_transform(CouplingConfig(r, t1))
            u2 = build_transform(CouplingConfig(r, t2))
            u12 = build_transform(CouplingConfig(r, t1 + t2))
            np.testing.assert_allclose(u1 @ u2, u12, atol=1e-10)


class TestApplyTransform:
    def test_identity(self):
        v = np.array([0.3 + 0.2j, -1.0 + 0.5j])
        np.testing.assert_array_equal(apply_transform(np.eye(2), v), v)

    def test_quarter_turn_moves_alpha_to_ancilla(self):
        u = build_transform(CouplingConfig([1.0], math.pi / 2))
        out = apply_transform(u, [0.6, 0.0])
        np.testing.assert_allclose(out, [0.0, -0.6], atol=1e-12)

    def test_symmetric_four_copies_full_swap(self):
        # equal couplings, angle -pi/2 so sin(R*t) = -1
        cfg = CouplingConfig([1.0, 1.0, 1.0, 1.0], -math.pi / 4)
        u = build_transform(cfg)
        alpha, beta = 0.8 - 0.3j, 0.25 + 0.1j
        out = apply_transform(u, [alpha, beta, beta, beta, beta])
        np.testing.assert_allclose(out[0], -2.0 * beta, atol=1e-12)
        np.testing.assert_allclose(out[1:], np.full(4, alpha / 2.0), atol=1e-12)

    def test_norm_conservation_random(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            cfg = random_config(rng)
            u = build_transform(cfg)
            dim = len(cfg.couplings) + 1
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            out = apply_transform(u, v)
            before = np.sum(np.abs(v) ** 2)
            after = np.sum(np.abs(out) ** 2)
            assert abs(after - before) <= 1e-12 * before

    def test_dimension_mismatch(self):
        u = build_transform(CouplingConfig([1.0], 0.3))
        with pytest.raises(InfoCloneError, match="amplitude vector of length 3 does not match matrix dim 2"):
            apply_transform(u, [1.0, 2.0, 3.0])

    def test_non_finite_vector(self):
        u = build_transform(CouplingConfig([1.0], 0.3))
        with pytest.raises(InfoCloneError, match="amplitude vector contains NaN or infinity"):
            apply_transform(u, [complex(math.nan, 0.0), 0.0])

    def test_overflowing_output(self):
        # finite inputs whose rotated sum exceeds the largest double
        u = build_transform(CouplingConfig([1.0], -math.pi / 4))
        with pytest.raises(InfoCloneError, match="overflows a double"):
            apply_transform(u, [1.7e308, 1.7e308])


def strategy_outputs(strategy, alpha, coupling=1.0):
    """Matrix action on (alpha, beta, ..., beta) for N equal couplings.

    The angle is asin(sin_rt), the cos >= 0 branch that realizes the strategy.
    """
    n = strategy.n_copies
    angle = math.asin(strategy.sin_rt)
    cfg = CouplingConfig([coupling] * n, angle / (coupling * math.sqrt(n)))
    return apply_transform(build_transform(cfg), [alpha] + [strategy.beta] * n)


class TestSymmetricCloneParams:
    """The equal-coupling clone map that StrategySpec holds, against the matrix."""

    def test_full_swap_attenuates_by_root_n(self):
        out = strategy_outputs(StrategySpec("optimal", 4), 2j)
        np.testing.assert_allclose(out, [0j, 1j, 1j, 1j, 1j], atol=1e-15)

    def test_zero_angle_is_identity(self):
        alpha, beta = 1.3 - 0.7j, -2.0 + 0.4j
        out = apply_transform(build_transform(CouplingConfig([1.0] * 3, 0.0)), [alpha] + [beta] * 3)
        assert out[0] == alpha
        assert np.all(out[1:] == beta)

    def test_near_full_swap_exact_offset_coefficient(self):
        eps = 0.02
        strategy = StrategySpec("near-optimal", 100, epsilon=eps, beta=10.0)
        expected = (1.0 - eps) / 10.0 + math.sqrt(2.0 * eps - eps * eps) * 10.0
        assert strategy.signal_scale + strategy.offset_scale * 10.0 == pytest.approx(
            expected, rel=1e-12
        )
        np.testing.assert_allclose(strategy_outputs(strategy, 1.0)[1:], expected, rtol=1e-12)

    def test_clone_matches_matrix_action_random(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            eps = float(rng.uniform(0.01, 0.99))
            coupling = float(rng.uniform(0.2, 2.0))
            for strategy in (
                StrategySpec("optimal", n),
                StrategySpec("offset", n, beta=beta),
                StrategySpec("near-optimal", n, epsilon=eps, beta=beta),
            ):
                out = strategy_outputs(strategy, alpha, coupling)
                clone = strategy.signal_scale * alpha + strategy.offset_scale * strategy.beta
                assert np.all(np.abs(out[1:] - clone) <= 1e-12)

    def test_full_swap_clone_independent_of_beta(self):
        alpha = 0.9 + 0.1j
        for n in (2, 5, 100):
            strategy = StrategySpec("optimal", n)
            assert strategy.signal_scale * alpha == pytest.approx(alpha / math.sqrt(n), rel=1e-15)
            u = build_transform(CouplingConfig([1.0] * n, -math.pi / (2.0 * math.sqrt(n))))
            for beta in (0j, 47.0 - 3.0j):
                out = apply_transform(u, [alpha] + [beta] * n)
                np.testing.assert_allclose(out[1:], alpha / math.sqrt(n), rtol=0, atol=1e-12)


class TestMakeStrategy:
    def test_optimal(self):
        s = StrategySpec("optimal", 4)
        assert s.kind is StrategyKind.OPTIMAL
        assert s.sin_rt == -1.0
        assert s.signal_scale == 0.5
        assert s.offset_scale == 0.0
        assert s.beta == 0j

    def test_optimal_ignores_beta(self):
        assert StrategySpec("optimal", 4, beta=9.0).beta == 0j

    def test_offset(self):
        s = StrategySpec("offset", 2, beta=5.0)
        assert s.sin_rt == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert abs(s.signal_scale) == pytest.approx(0.5, rel=1e-15)
        assert s.signal_scale < 0.0
        assert s.offset_scale == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert s.beta == 5.0 + 0j

    def test_near_optimal(self):
        s = StrategySpec("near-optimal", 100, epsilon=0.1, beta=3.0)
        assert s.sin_rt == pytest.approx(-0.9, rel=1e-15)
        assert s.signal_scale == pytest.approx(0.09, rel=1e-15)
        assert s.offset_scale == pytest.approx(math.sqrt(0.19), rel=1e-12)

    def test_derived_fields_consistent(self):
        for s in (
            StrategySpec("optimal", 7),
            StrategySpec("offset", 11, beta=2.0 - 1.0j),
            StrategySpec("near-optimal", 31, epsilon=0.4, beta=1j),
        ):
            assert s.offset_scale >= 0.0
            assert s.offset_scale**2 + s.sin_rt**2 == pytest.approx(1.0, abs=1e-15)
            assert s.signal_scale == pytest.approx(-s.sin_rt / math.sqrt(s.n_copies), rel=1e-15)

    def test_enum_kind_accepted(self):
        assert StrategySpec(StrategyKind.OPTIMAL, 2).kind is StrategyKind.OPTIMAL

    def test_missing_beta(self):
        with pytest.raises(InfoCloneError, match="offset requires a reference amplitude beta"):
            StrategySpec("offset", 2)
        with pytest.raises(InfoCloneError, match="near-optimal requires a reference amplitude beta"):
            StrategySpec("near-optimal", 2, epsilon=0.1)

    def test_epsilon_out_of_range(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InfoCloneError, match=re.escape(f"epsilon must lie in (0, 1), got {eps!r}")):
                StrategySpec("near-optimal", 2, epsilon=eps, beta=1.0)
        with pytest.raises(InfoCloneError, match=re.escape("near-optimal requires epsilon in (0, 1)")):
            StrategySpec("near-optimal", 2, beta=1.0)

    def test_epsilon_rejected_elsewhere(self):
        with pytest.raises(InfoCloneError, match="epsilon does not apply to optimal"):
            StrategySpec("optimal", 2, epsilon=0.1)

    def test_too_few_copies(self):
        with pytest.raises(InfoCloneError, match="n_copies must be >= 2, got 1"):
            StrategySpec("optimal", 1)

    def test_n_copies_must_be_an_integer(self):
        with pytest.raises(InfoCloneError, match="n_copies must be an integer, got 2.9"):
            StrategySpec("optimal", 2.9)
        spec = StrategySpec("offset", np.int64(4), beta=1.0)
        assert type(spec.n_copies) is int
        assert spec == StrategySpec("offset", 4, beta=1.0)

    def test_unknown_kind(self):
        expected = "unknown strategy 'pessimal', expected one of: optimal, offset, near-optimal"
        with pytest.raises(InfoCloneError, match=re.escape(expected)):
            StrategySpec("pessimal", 2)
