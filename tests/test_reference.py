"""The numerical references, each checked without the package or the other
references."""

import math

import numpy as np
import pytest

from reference import bessel_j, bessel_j_exact, expm_antisymmetric


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
