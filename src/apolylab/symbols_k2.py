"""Valuations, tame symbols, rational recognition, symbol-order estimate.

A puncture is a point of the curve where l or m has a zero or pole.  Its
valuations are read off as winding numbers of small lifted loops; the
tame symbol

    T_x(l, m) = (-1)^{v_l v_m} (l^{v_m} / m^{v_l})(x)

is read off the witness loop as a residue.  The monomial
h = l^{v_m} m^{-v_l} is holomorphic and nonzero at x, and a loop that
turns k times about x in the m-plane has t^k proportional to m - x in the
local parameter t, so Cauchy's formula gives

    h(x) = (1 / 2 pi i k) int h dlog(m - x)

on any loop that encloses no other puncture, whatever its shape.  The
integral runs through one_forms' table and Romberg step, the quadrature
of every other form, and lifts no further path.

The quantization condition says the regulator r(l, m) of every closed
loop on the curve is a root of unity.  -arg r / 2 pi, read off
one_forms.regulator_exponent, is recognized as p/q, with q dividing the
order of the symbol {l, m}; the lcm of recognized denominators is
reported as a lower bound for that order, never as a certified value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List

import numpy as np

from .curve_tracker import TrackedPath, _unwrapped_log
from .errors import AmbiguousWinding, ExtrapolationUnstable, NoRational
from .one_forms import _romberg, _table
from .poly_core import LaurentBiPoly

WINDING_SLACK = 0.1
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Valuation:
    v: int


@dataclass(frozen=True)
class RationalRecognition:
    p: int
    q: int
    residual: float
    stable: bool = False


def _loop_geometry(loop: TrackedPath):
    """Center of the loop's m samples, and log(m - center) along it, its
    arg unwrapped sample to sample."""
    center = complex(np.mean(loop.m[:-1] if loop.closed else loop.m))
    return center, _unwrapped_log(loop.m - center)


def valuation(A: LaurentBiPoly, x_loop: TrackedPath, f_role: str) -> Valuation:
    """Winding number of f in {l, m} over the witness loop."""
    logs = {"l": x_loop.log_l, "m": x_loop.log_m}
    if f_role not in logs:
        raise ValueError("f_role must be 'l' or 'm'")
    d = float((logs[f_role][-1] - logs[f_role][0]).imag) / TWO_PI
    v = round(d)
    if abs(d - v) > WINDING_SLACK:
        raise AmbiguousWinding("winding %.6f is not near an integer" % d)
    return Valuation(v=v)


def tame_symbol(A: LaurentBiPoly, x_loop: TrackedPath, v_l: Valuation,
                v_m: Valuation) -> complex:
    """Tame symbol at the puncture x enclosed by x_loop.

    h = l^{v_m} m^{-v_l} is holomorphic and nonzero at x, and the loop's
    local parameter t has t^k proportional to m - x, so Cauchy's formula
    gives h(x) = (1/2 pi i k) int h dlog(m - x), k the loop's turns about
    x, on any loop that encloses no other puncture.  The integral is
    one_forms' table and Romberg step; its est_error / 2 pi |k|, the
    spread of T between the full and the half mesh, must be within 1e-4
    of max(1, |T|), or ExtrapolationUnstable is raised.  A loop with no
    turn about x raises AmbiguousWinding.  A is not read.
    """
    center, log_rel = _loop_geometry(x_loop)
    winding = float((log_rel[-1] - log_rel[0]).imag) / TWO_PI
    turns = round(winding) if math.isfinite(winding) else 0
    if turns == 0:
        raise AmbiguousWinding("witness loop makes %.6f turns about its center %s"
                               % (winding, center))
    h = np.exp(v_m.v * x_loop.log_l - v_l.v * x_loop.log_m)
    value, _, est, _ = _romberg(x_loop, _table(x_loop, h, log_rel))
    sign = -1.0 if (v_l.v * v_m.v) % 2 else 1.0
    tame = sign * value / (2j * math.pi * turns)
    spread = est / (TWO_PI * abs(turns))
    if not spread <= 1e-4 * max(1.0, abs(tame)):
        raise ExtrapolationUnstable(
            "T on the full and the half mesh differs by %.3g at T = %s" % (spread, tame))
    return tame


def recognize_rational(value: float, q_max: int = 48, tol: float = 1e-5
                       ) -> RationalRecognition:
    """Best continued-fraction convergent p/q with q <= q_max.

    The stable flag is left False: only the caller knows the value's
    error estimate, and the recognition is stable when residual plus that
    estimate stays within tol.  Raises NoRational (carrying the best
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
