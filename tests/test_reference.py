"""The numerical references, each checked without the package or the other
references."""

import math

import numpy as np
import pytest

from reference import bessel_j, bessel_j_exact, expm_antisymmetric, philox4x32


@pytest.mark.parametrize("theta", [0.3, 2.0, -3.1])
def test_expm_antisymmetric_is_a_rotation(theta):
    # exp of [[0, theta], [-theta, 0]] turns the plane by -theta
    c, s = math.cos(theta), math.sin(theta)
    rotation = expm_antisymmetric([[0.0, theta], [-theta, 0.0]])
    np.testing.assert_allclose(rotation, [[c, s], [-s, c]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("rho", [0.5, 47.0])
def test_bessel_fft_matches_power_series(rho):
    values = bessel_j(rho)
    for n in range(6):
        assert abs(values[n] - bessel_j_exact(n, rho)) <= 2e-16 * max(1.0, rho), n


@pytest.mark.parametrize(
    "counter, key, block",
    [
        ((0, 0, 0, 0), (0, 0), "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, "408f276d 41c83b0e a20bc7c6 6d5451fd"),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            "d16cfe09 94fdcceb 5001e420 24126ea1",
        ),
    ],
    ids=["zeros", "ones", "pi"],
)
def test_philox_known_answers(counter, key, block):
    # Random123's published known-answer vectors for Philox4x32-10
    assert " ".join(f"{word:08x}" for word in philox4x32(counter, key)) == block
