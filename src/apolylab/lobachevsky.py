"""Lobachevsky function by its Fourier series.

Lambda(theta) = (1/2) sum_{n>=1} sin(2 n theta) / n^2.  Summation by
parts bounds the tail after N terms by about 1/(|sin theta| N^2), so
three million terms put the error below 1e-12 away from multiples of pi.
The figure-eight volume is 6 Lambda(pi/3); it is computed here at load
or test time rather than stored as a decimal anywhere.  Values are
cached per (theta, terms), so loading the knot table again costs no
second series.
"""

import functools

import numpy as np

SERIES_TERMS = 3_000_000


@functools.lru_cache(maxsize=64)
def lobachevsky(theta: float, terms: int = SERIES_TERMS) -> float:
    n = np.arange(1, terms + 1, dtype=np.float64)
    return float(0.5 * np.sum(np.sin(2.0 * theta * n) / (n * n)))


def vol_fig8() -> float:
    """Hyperbolic volume of the figure-eight knot complement, 6 Lambda(pi/3)."""
    return 6.0 * lobachevsky(np.pi / 3.0)
