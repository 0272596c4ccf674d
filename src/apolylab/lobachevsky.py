"""Lobachevsky function by Gauss-Legendre quadrature.

Lambda(theta) = -int_0^theta log|2 sin t| dt is odd and pi-periodic, so
theta is reduced to [0, pi/2].  There the log(2t) part integrates in
closed form,

    Lambda(theta) = theta (1 - log 2 theta) - int_0^theta log(sin t / t) dt,

and the remainder's integrand is analytic for |t| < pi, so a fixed
20-node Gauss-Legendre rule on [0, theta] is exact to rounding.  The
figure-eight volume is 6 Lambda(pi/3); it is computed here at load or
test time rather than stored as a decimal anywhere.
"""

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def lobachevsky(theta: float) -> float:
    sign = math.copysign(1.0, theta)
    r = abs(theta) % math.pi
    if r > 0.5 * math.pi:
        r, sign = math.pi - r, -sign
    if r == 0.0:
        return 0.0
    t = 0.5 * r * (_NODES + 1.0)
    remainder = 0.5 * r * float(np.dot(_WEIGHTS, np.log(np.sin(t) / t)))
    return sign * (r * (1.0 - math.log(2.0 * r)) - remainder)


def vol_fig8() -> float:
    """Hyperbolic volume of the figure-eight knot complement, 6 Lambda(pi/3)."""
    return 6.0 * lobachevsky(math.pi / 3.0)
