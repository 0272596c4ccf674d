"""Valuations, tame symbols, rational recognition, symbol-order estimate.

A puncture is a point of the curve where l or m has a zero or pole.  Its
valuations are read off as winding numbers of small lifted loops; the
tame symbol

    T_x(l, m) = (-1)^{v_l v_m} (l^{v_m} / m^{v_l})(x)

is extracted by averaging the single-valued monomial l^{v_m} m^{-v_l}
over the witness loop and over an internally re-lifted loop at half the
radius, combined by one linear Richardson step toward radius zero.  The
monomial has zero winding at x, so the circle average converges to the
limit value as the radius shrinks.

Loop periods of xi are recognized as rationals: the quantization result
for the curve says (1/4 pi^2) times the closed xi-period is p/q, with q
the order of the symbol {l, m}; the lcm of recognized denominators is
reported as a lower bound for that order, never as a certified value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, List

import numpy as np

from .curve_tracker import (
    ArcSeg,
    LineSeg,
    PathSpec,
    StepControls,
    TrackedPath,
    lift_path,
)
from .errors import AmbiguousWinding, ExtrapolationUnstable, NoRational
from .one_forms import trapezoid
from .poly_core import LaurentBiPoly

WINDING_SLACK = 0.1
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Valuation:
    v: int
    witness_radius: float


@dataclass(frozen=True)
class RationalRecognition:
    p: int
    q: int
    residual: float
    stable: bool = False


def _loop_geometry(loop: TrackedPath):
    m = loop.m[:-1] if loop.closed else loop.m
    center = complex(np.mean(m))
    radius = float(np.mean(np.abs(m - center)))
    rel = loop.m - center
    dang = np.angle(rel[1:] / rel[:-1])
    turns = int(round(float(np.sum(dang)) / TWO_PI))
    return center, radius, turns


def valuation(A: LaurentBiPoly, x_loop: TrackedPath, f_role: str) -> Valuation:
    """Winding number of f in {l, m} over the witness loop."""
    logs = {"l": x_loop.log_l, "m": x_loop.log_m}
    if f_role not in logs:
        raise ValueError("f_role must be 'l' or 'm'")
    d = float((logs[f_role][-1] - logs[f_role][0]).imag) / TWO_PI
    v = round(d)
    if abs(d - v) > WINDING_SLACK:
        raise AmbiguousWinding("winding %.6f is not near an integer" % d)
    _, radius, _ = _loop_geometry(x_loop)
    return Valuation(v=v, witness_radius=radius)


def _monomial_mean(loop: TrackedPath, a: int, b: int) -> complex:
    """Average of l^a m^b over the loop, trapezoid-weighted by the angle of
    m around the recovered center (uniform-angle loops reduce to the
    plain mean)."""
    h = np.exp(a * loop.log_l + b * loop.log_m)
    center, _, _ = _loop_geometry(loop)
    rel = loop.m - center
    theta = np.concatenate(([0.0], np.cumsum(np.angle(rel[1:] / rel[:-1]))))
    span = theta[-1] - theta[0]
    if span == 0.0:
        return complex(np.mean(h))
    return complex(trapezoid(h, theta) / span)


def tame_symbol(A: LaurentBiPoly, x_loop: TrackedPath, v_l: Valuation,
                v_m: Valuation, ctrl: StepControls = StepControls()) -> complex:
    """Tame symbol at the puncture enclosed by x_loop.

    The limit of l^{v_m} m^{-v_l} toward the puncture is taken from the
    witness loop and a half-radius re-lift: est(0) ~ 2 est(r/2) - est(r).
    """
    est_r = _monomial_mean(x_loop, v_m.v, -v_l.v)
    center, radius, turns = _loop_geometry(x_loop)
    m0 = complex(x_loop.m[0])
    l0 = complex(x_loop.l[0])
    # walk radially onto the half-radius circle (the witness loop itself
    # need not be circular, so |m0 - center| can differ from radius)
    target = center + 0.5 * radius * (m0 - center) / abs(m0 - center)
    inward = PathSpec(segments=(LineSeg(m0, target),), l_seed=l0, closed=False)
    stub = lift_path(A, inward, ctrl)
    phi0 = float(np.angle(m0 - center))
    sgn = 1.0 if turns >= 0 else -1.0
    arcs = tuple(
        ArcSeg(center, radius / 2.0, phi0 + TWO_PI * sgn * k, phi0 + TWO_PI * sgn * (k + 1))
        for k in range(abs(turns))
    )
    half_spec = PathSpec(segments=arcs, l_seed=complex(stub.l[-1]), closed=True)
    half_loop = lift_path(A, half_spec, ctrl)
    est_r2 = _monomial_mean(half_loop, v_m.v, -v_l.v)
    extrap = 2.0 * est_r2 - est_r
    if abs(est_r - est_r2) > 1e-4 * max(1.0, abs(extrap)):
        raise ExtrapolationUnstable(
            "two-radius estimates differ: %s vs %s" % (est_r, est_r2)
        )
    sign = -1.0 if (v_l.v * v_m.v) % 2 else 1.0
    return sign * extrap


def recognize_rational(value: float, q_max: int = 48, tol: float = 1e-5
                       ) -> RationalRecognition:
    """Best continued-fraction convergent p/q with q <= q_max.

    The stable flag is left False; callers set it after re-running the
    quadrature on a halved mesh.  Raises NoRational (carrying the best
    candidate) when nothing lands within tol.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    frac = Fraction(value).limit_denominator(q_max)
    residual = abs(value - float(frac))
    rec = RationalRecognition(p=frac.numerator, q=frac.denominator,
                              residual=float(residual))
    if residual > tol:
        raise NoRational("no p/q with q <= %d within %g of %.12g"
                         % (q_max, tol, value), best=rec)
    return rec


def mark_stable(rec: RationalRecognition, other: RationalRecognition
                ) -> RationalRecognition:
    """Set the stable flag when a halved-mesh recognition agrees."""
    return replace(rec, stable=(rec.p == other.p and rec.q == other.q))


def estimate_symbol_order(recognitions: Iterable[RationalRecognition]) -> int:
    """lcm of the stable denominators: a numerical lower bound for the
    order of {l, m}, reported as such."""
    recs: List[RationalRecognition] = list(recognitions)
    if not recs:
        raise ValueError("no recognitions given")
    stable = [r.q for r in recs if r.stable]
    if not stable:
        raise ValueError("no stable recognitions given")
    return math.lcm(*stable)
