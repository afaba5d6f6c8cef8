import math
import re

import numpy as np
import pytest

from infoclone.errors import InfoCloneError
from infoclone.fock import (
    FockState,
    annihilation,
    coherent_vector,
    evolve,
    fidelity,
    product_state,
)
from infoclone.transform import CouplingConfig, apply_transform, build_transform


class TestCoherentVector:
    def test_vacuum(self):
        state = coherent_vector(0.0, 10)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_unit_amplitude_leading_terms(self):
        amps = coherent_vector(1.0, 30).amplitudes
        root = math.exp(-0.5)
        assert amps[0] == pytest.approx(root, rel=1e-15)
        assert amps[1] == pytest.approx(root, rel=1e-15)
        assert amps[2] == pytest.approx(root / math.sqrt(2.0), rel=1e-15)

    def test_norm_close_to_one(self):
        state = coherent_vector(0.5 + 0.5j, 30)
        assert abs(state.norm() ** 2 - 1.0) <= 1e-12

    def test_amplitude_guard(self):
        with pytest.raises(InfoCloneError, match=re.escape("|alpha|^2 = 9 exceeds cutoff/4 = 1")):
            coherent_vector(3.0, 4)

    def test_bad_cutoff(self):
        with pytest.raises(InfoCloneError, match="cutoff must be >= 1, got 0"):
            coherent_vector(0.1, 0)


class TestProductState:
    def test_all_vacuum(self):
        state = product_state([0.0, 0.0, 0.0], 5)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_tensor_with_vacuum(self):
        alpha = 0.4 - 0.2j
        state = product_state([alpha, 0.0], 15)
        single = coherent_vector(alpha, 15).amplitudes
        expected = np.kron(single, np.eye(16)[0].astype(complex))
        np.testing.assert_array_equal(state.amplitudes, expected)

    def test_two_mode_norm(self):
        state = product_state([1.0, 1j], 20)
        assert state.norm() >= 1.0 - 1e-10

    def test_size_guard(self):
        with pytest.raises(InfoCloneError, match=re.escape("(cutoff+1)^n_modes = 1212201 exceeds")):
            product_state([0.1, 0.1], 1100)

    def test_index_order_first_mode_slowest(self):
        # amplitude at (n_1, n_2) = (1, 0) must sit at index 1 * (cutoff+1)
        cutoff = 6
        state = product_state([0.5, 0.0], cutoff)
        single = coherent_vector(0.5, cutoff).amplitudes
        assert state.amplitudes[1 * (cutoff + 1)] == single[1]


class TestOperators:
    def test_commutator_boundary(self):
        cutoff = 9
        a = annihilation(cutoff).toarray()
        comm = a @ a.T - a.T @ a
        expected = np.eye(cutoff + 1)
        expected[-1, -1] = -cutoff
        np.testing.assert_allclose(comm, expected, atol=1e-12)


class TestEvolve:
    def test_vacuum_is_fixed(self):
        cfg = CouplingConfig([0.7, -1.1], 1.3)
        vac = product_state([0.0, 0.0, 0.0], 8)
        out = evolve(vac, cfg)
        assert fidelity(out, vac) == pytest.approx(1.0, abs=1e-12)

    def test_zero_time_is_identity(self):
        cfg = CouplingConfig([1.0], 0.0)
        state = product_state([0.5 + 0.2j, -0.3j], 20)
        out = evolve(state, cfg)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("couplings", [[1.3], [0.8, -0.6]])
    @pytest.mark.parametrize("turns", [1, 3, 10])
    def test_whole_turns_match_steps_below_pi(self, couplings, turns):
        # one evolve at |R*t| > pi (angle reduced) against the same angle
        # walked in steps of |R*t| <= pi (no reduction)
        cutoff, norm = 10, math.hypot(*couplings)
        angle = 0.7 + 2.0 * math.pi * turns
        n_steps = math.ceil(angle / math.pi)
        state = product_state([0.5 + 0.2j] + [-0.3j] * len(couplings), cutoff)
        whole = evolve(state, CouplingConfig(couplings, angle / norm))
        stepped = state
        for _ in range(n_steps):
            stepped = evolve(stepped, CouplingConfig(couplings, angle / norm / n_steps))
        # exact on the photon-number sectors the cutoff keeps whole; the rest
        # is the truncation tail
        n_total = np.indices((cutoff + 1,) * state.n_modes).reshape(state.n_modes, -1).sum(axis=0)
        whole_sectors = n_total <= cutoff
        np.testing.assert_allclose(
            whole.amplitudes[whole_sectors], stepped.amplitudes[whole_sectors], rtol=0, atol=1e-13
        )
        assert fidelity(whole, stepped) == pytest.approx(fidelity(stepped, stepped), abs=1e-12)

    def test_quarter_turn_single_ancilla(self):
        cfg = CouplingConfig([1.0], math.pi / 2)
        out = evolve(product_state([0.6, 0.0], 25), cfg)
        predicted = product_state([0.0, -0.6], 25)
        assert fidelity(out, predicted) >= 0.999
        assert fidelity(out, predicted) == pytest.approx(1.0, abs=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            cfg = CouplingConfig(rng.uniform(-2.0, 2.0, size=2), float(rng.uniform(-3, 3)))
            amps = [complex(*rng.uniform(-0.55, 0.55, 2)) for _ in range(3)]
            state = product_state(amps, 12)
            out = evolve(state, cfg)
            assert abs(out.norm() - state.norm()) <= 1e-8

    def test_mode_count_mismatch(self):
        cfg = CouplingConfig([1.0, 1.0], 0.5)
        with pytest.raises(InfoCloneError, match=re.escape("config has 2 couplings but the state has 2 modes")):
            evolve(product_state([0.1, 0.1], 10), cfg)

    def test_products_stay_products_single_ancilla(self):
        rng = np.random.default_rng(22)
        for _ in range(6):
            cfg = CouplingConfig([float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))],
                                 float(rng.uniform(-3.0, 3.0)))
            amps = [complex(*rng.uniform(-0.57, 0.57, 2)) for _ in range(2)]
            evolved = evolve(product_state(amps, 25), cfg)
            predicted = product_state(apply_transform(build_transform(cfg), amps), 25)
            assert fidelity(evolved, predicted) >= 0.999

    def test_products_stay_products_two_ancillas(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            cfg = CouplingConfig(rng.uniform(-1.5, 1.5, size=2), float(rng.uniform(-2.0, 2.0)))
            amps = [complex(*rng.uniform(-0.57, 0.57, 2)) for _ in range(3)]
            evolved = evolve(product_state(amps, 12), cfg)
            predicted = product_state(apply_transform(build_transform(cfg), amps), 12)
            assert fidelity(evolved, predicted) >= 0.999


class TestFidelity:
    def test_self_fidelity(self):
        state = product_state([0.3 + 0.4j, -0.2], 15)
        normed = FockState(state.n_modes, state.cutoff, state.amplitudes / state.norm())
        assert fidelity(normed, normed) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_against_unit_coherent(self):
        vac = coherent_vector(0.0, 30)
        one = coherent_vector(1.0, 30)
        assert fidelity(vac, one) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_orthogonal_basis_states(self):
        e0 = np.zeros(4, dtype=complex)
        e2 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        e2[2] = 1.0
        assert fidelity(FockState(1, 3, e0), FockState(1, 3, e2)) == 0.0

    def test_symmetry(self):
        a = coherent_vector(0.3 + 0.1j, 20)
        b = coherent_vector(-0.2 + 0.4j, 20)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), rel=1e-12)

    def test_space_mismatch(self):
        with pytest.raises(InfoCloneError, match="states live on different spaces"):
            fidelity(coherent_vector(0.1, 10), coherent_vector(0.1, 11))


class TestFockState:
    def test_size_guard(self):
        with pytest.raises(InfoCloneError, match=re.escape("(cutoff+1)^n_modes = 104060401 exceeds")):
            FockState(n_modes=4, cutoff=100, amplitudes=np.zeros(101**4, dtype=complex))

    def test_length_check(self):
        with pytest.raises(InfoCloneError, match=re.escape("expected 4 amplitudes for 1 modes at cutoff 3")):
            FockState(n_modes=1, cutoff=3, amplitudes=np.zeros(5, dtype=complex))
