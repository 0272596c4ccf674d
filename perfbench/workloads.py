"""Seeded inputs for each workload.

The seed moves every input around a fixed make-up, so that different
seeds run different exact inputs while the work per round stays
comparable.  Inputs are plain JSON data; the worker turns them into
package objects, and the checks read the same data.  Nothing here imports
the package.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from reference import _PHI, fig8_root, probe_grid, probe_values

WORKLOADS = ("demo", "arcs", "jones", "probe")

ARC_TARGET = 1e-9          # quadrature target handed to track_refined
BRANCH_GAP = 1e-5          # closest approach of a near-branch route
KASHAEV_N = (250_000, 400_000, 600_000, 1_000_000)
# the demo's deformed points: N in its N_list, k = round(N / a), a != 1
DEFORMED = tuple((n, round(n / a)) for a in (0.9, 1.1) for n in (500, 1000, 2000, 4000))
PROBE_DENSITY = 100        # 10^4 grid points per probe
PROBE_HALF_WIDTH = 0.5
PROBE_HITS = 25            # threshold sits between the 25th and 26th smallest value


def _pair(z: complex):
    return [z.real, z.imag]


def _arc(radius: float, start: float, span: float, sheet: str) -> dict:
    m0 = radius * cmath.exp(1j * start)
    return {"segments": [{"kind": "arc", "center": [0.0, 0.0], "radius": radius,
                          "angle_start": start, "angle_end": start + span}],
            "l_seed": _pair(fig8_root(m0, sheet)), "closed": False}


def _near_branch_line(branch: float, gap: float, direction: float,
                      length: float) -> dict:
    u = cmath.exp(1j * direction)
    mid = branch + gap * 1j * u
    a, b = mid - 0.5 * length * u, mid + 0.5 * length * u
    return {"segments": [{"kind": "line", "m_start": _pair(a), "m_end": _pair(b)}],
            "l_seed": _pair(fig8_root(a, "small")), "closed": False}


def _arcs(rng: random.Random) -> dict:
    # three open routes per round: an arc on each sheet in the annulus
    # between m = 0 and the branch points at |m| = 1/phi, and a line that
    # passes a branch point at about BRANCH_GAP, where lift_path halves
    # steps.  Start points stay off the real axis, where l is real and the
    # principal arg of the start value sits on the 0 / 2 pi cut.
    return {"target": ARC_TARGET, "routes": [
        _arc(0.42 + rng.uniform(-0.01, 0.01), 0.6 + rng.uniform(-0.1, 0.1), 1.2, "small"),
        _arc(0.42 + rng.uniform(-0.01, 0.01), 2.0 + rng.uniform(-0.1, 0.1), 1.2, "big"),
        _near_branch_line(1.0 / _PHI, BRANCH_GAP * rng.uniform(0.8, 1.25),
                          1.0 + rng.uniform(-0.15, 0.15), 0.4),
    ]}


def _jones(rng: random.Random) -> dict:
    return {"kashaev": [n + rng.randrange(-2000, 2001) for n in KASHAEV_N],
            "deformed": [list(p) for p in DEFORMED]}


def _probe(rng: random.Random) -> dict:
    # a window around the branch point 1/phi that also holds the double
    # point m = 1; the threshold is placed between two grid values, far
    # from both, so that the expected hit set is unambiguous
    c = complex(1.0 / _PHI + rng.uniform(-0.1, 0.1), rng.uniform(-0.2, 0.2))
    re = [c.real - PROBE_HALF_WIDTH, c.real + PROBE_HALF_WIDTH]
    im = [c.imag - PROBE_HALF_WIDTH, c.imag + PROBE_HALF_WIDTH]
    values = np.sort(probe_values(probe_grid(re, im, PROBE_DENSITY)))
    threshold = math.sqrt(values[PROBE_HITS - 1] * values[PROBE_HITS])
    return {"re": re, "im": im, "density": PROBE_DENSITY, "threshold": threshold}


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "demo":
        return {}  # the demo takes no input but its output directory
    return {"arcs": _arcs, "jones": _jones, "probe": _probe}[workload](rng)
