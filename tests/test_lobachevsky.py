import math

import mpmath
import pytest

import oracles
from apolylab import lobachevsky, vol_fig8


def test_matches_simpson_quadrature():
    for theta in (math.pi / 3, math.pi / 5, 1.0, 2.5):
        assert lobachevsky(theta) == pytest.approx(
            oracles.lobachevsky_quadrature(theta), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi / 3, -0.4, -2.9, 3.5, 6.9])
def test_matches_mpmath_clausen(theta):
    # Lambda(theta) = Cl_2(2 theta) / 2
    with mpmath.workdps(30):
        want = float(mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2)
    assert abs(lobachevsky(theta) - want) < 1e-14


def test_odd_and_periodic():
    theta = 0.83
    assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta), abs=1e-14)
    assert lobachevsky(theta + math.pi) == pytest.approx(
        lobachevsky(theta), abs=1e-10)
    assert lobachevsky(0.0) == 0.0


def test_maximum_at_pi_over_six():
    peak = lobachevsky(math.pi / 6)
    assert peak > lobachevsky(math.pi / 6 - 0.05)
    assert peak > lobachevsky(math.pi / 6 + 0.05)


def test_vol_fig8():
    assert vol_fig8() == pytest.approx(6 * oracles.lobachevsky_quadrature(math.pi / 3),
                                       abs=1e-11)
    assert 2.02 < vol_fig8() < 2.04
