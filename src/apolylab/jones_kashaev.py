"""Colored Jones values at roots of unity and their growth rate.

The shipped evaluator is the figure-eight cyclotomic sum

    J_N(q) = sum_{j=0}^{N-1} prod_{k=1}^{j}
             (q^{(N-k)/2} - q^{-(N-k)/2}) (q^{(N+k)/2} - q^{-(N+k)/2})

with q^{1/2} = exp(i theta / 2) for the theta in [0, 2pi) representing
q.  Each paired factor is real on the unit circle, so values are signed
reals; they grow like exp(const N) and are accumulated in log scale.
The sum runs in numpy over fixed chunks of CHUNK terms: a cumulative sum
of log|factor| per chunk, and a cumulative product of signs only in a
chunk with a negative factor, each chunk folded into one max-shifted
signed sum, so memory stays flat in N.  A chunk whose terms all underflow
to 0.0 against the largest term so far takes no exponential, and only
the parity of its negative factors.

At a primitive N-th root of unity q = e^{2 pi i p/N}, gcd(p, N) = 1, the
Kashaev point p = 1 among them, every factor is |1 - q^j|^2 =
4 sin^2(pi r_j / N) with r_j = min(pj mod N, N - pj mod N), and the N - 1
factors multiply to N^2, so the terms reflect: t_{N-1-j} = N^2 / t_j.
There the sum is built from the terms j <= (N - 1)/2 alone, each term
folded with its reflection.  At p = 1 the chunks after the first take
their sines from two tables by the addition formula, so np.log is the
one transcendental pass per term; a chunk whose log-factors have one sign
and whose terms and reflections all underflow takes no prefix sums.

Each value carries its conditioning, log10(max |term| / |sum|), and its
smallest |factor|.  Other knots can plug in any evaluator with the same
(N, q) -> LogComplex signature.

The growth fit models log|J_N| = (slope / 2pi) k + c log N + b over a
sequence with k = round(N / a); slope is reported on the scale where the
volume conjecture reads lim 2pi log|J_N| / k = Vol, so the figure-eight
sequence at a = 1 recovers 6 Lambda(pi/3) directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InsufficientData

TWO_PI = 2.0 * math.pi
# Terms per numpy pass of the Jones sum: large enough that the per-chunk
# overhead is small, small enough that the work arrays stay near 0.5 MB.
CHUNK = 8192
# np.exp returns +0 below log(2^-1075) ~ -745.13, so a chunk whose largest
# log|term| lies more than this below the running top adds exactly 0.0
EXP_UNDERFLOW = 746.0


@dataclass(frozen=True)
class LogComplex:
    log_abs: float
    arg: float
    # conditioning of a summed value: log10(max |term| / |sum|) and the
    # smallest |factor| multiplied in; the defaults describe a single term
    cond: float = 0.0
    min_factor: float = math.inf

    def to_complex(self) -> complex:
        return complex(math.exp(self.log_abs) * math.cos(self.arg),
                       math.exp(self.log_abs) * math.sin(self.arg))


@dataclass(frozen=True)
class GrowthFit:
    slope: float           # limit estimate, volume scale (2pi x coefficient of k)
    log_correction: float  # fitted coefficient of log N
    intercept: float
    rms: float
    k_values: Tuple[int, ...]


def _theta_of(q: complex) -> float:
    if abs(abs(q) - 1.0) > 1e-9:
        raise ValueError("q must lie on the unit circle")
    theta = math.atan2(q.imag, q.real)
    if theta < 0:
        theta += TWO_PI
    return theta


def _root_of_unity(N, theta):
    """theta / 2pi as a Fraction p/k in lowest terms when q = e^{i theta}
    is a root of unity of order k <= 2N, else None."""
    r = theta / TWO_PI
    order = Fraction(r).limit_denominator(2 * N)
    if abs(r - order) > 8.0 * sys.float_info.epsilon:
        return None
    return order


def _first_zero_factor(N, order):
    """Index of the first exactly-zero factor of the sum at q = e^{i theta}
    with theta / 2pi = order (from _root_of_unity), capped at N; N when
    order is None.

    With order = p/k in lowest terms the j-th factor vanishes iff k
    divides N - j or N + j, first at j = N mod k or -N mod k (k for 0).
    In floats that factor is about 1e-16, not 0, so the sum has to stop
    there by this count rather than by a test on the factor.
    """
    if order is None:
        return N
    k = order.denominator
    return min(N, N % k or k, -N % k or k)


class _Fold:
    """A signed sum acc * e^top, fed a chunk of terms at a time as their
    logs, with top the largest log|term| so far, and the smallest |factor|
    of the product that made the terms."""

    def __init__(self, top=0.0, acc=1.0):
        # the defaults are the j = 0 term, 1
        self.top = top
        self.acc = acc
        self.min_factor = math.inf

    def add(self, logs, sign=1.0, factors=None):
        """Adds the terms sign * s_j * e^{logs_j} and returns the sign that
        the next chunk carries; logs is overwritten.

        s_j is the product of the signs of factors[:j + 1], all +1 when
        factors is None.  The signs' cumulative product is taken only in a
        chunk with a negative factor that adds; a chunk whose largest log
        lies more than EXP_UNDERFLOW below top would add exactly 0.0, so it
        takes no exponential, and only the parity of its negative factors.
        """
        chunk_top = float(logs.max())
        if chunk_top > self.top:
            self.acc *= math.exp(self.top - chunk_top)
            self.top = chunk_top
        if chunk_top < self.top - EXP_UNDERFLOW:
            if factors is not None and np.count_nonzero(factors < 0.0) % 2:
                sign = -sign
            return sign
        logs -= self.top
        terms = np.exp(logs, out=logs)
        if factors is None or factors.min() >= 0.0:
            self.acc += sign * float(np.sum(terms))
            return sign
        signs = np.cumprod(np.sign(factors))
        self.acc += sign * float(np.sum(signs * terms))
        return sign * float(signs[-1])

    def result(self):
        """(log_abs, arg, cond, min_factor) of the sum."""
        if self.acc == 0.0:
            return -math.inf, 0.0, math.inf, self.min_factor
        log_abs = self.top + math.log(abs(self.acc))
        return (log_abs, 0.0 if self.acc > 0.0 else math.pi,
                (self.top - log_abs) / math.log(10.0), self.min_factor)


def _jones_sum(N, theta):
    """Figure-eight colored Jones value at q = e^{i theta}, N colors.

    Each paired factor (q^{(N-j)/2} - q^{-(N-j)/2})(q^{(N+j)/2} - q^{-(N+j)/2})
    equals -4 sin((N-j)theta/2) sin((N+j)theta/2), a real number, so the
    sum is a signed real accumulated in log scale.  At a primitive N-th
    root of unity, theta / 2pi = p/N in lowest terms, the sum is taken
    from half its terms (_kashaev_sum); at every other q term by term
    (_product_sum), stopping before the first zero factor at a root of
    unity of order below 2N.

    Returns (log_abs, arg, cond, min_factor): arg in {0, pi}, cond =
    log10(max |term| / |sum|) and min_factor = min |factor| over the
    factors summed (inf when there is none).
    """
    order = _root_of_unity(N, theta)
    if order is not None and order.denominator == N:
        return _kashaev_sum(N, order.numerator)
    return _product_sum(N, theta, _first_zero_factor(N, order))


def _product_sum(N, theta, stop):
    """_jones_sum over the terms j < stop, CHUNK at a time; it also stops
    at a factor that is exactly 0.0 in floats.

    The chunk's log|factor| array, with the carried log|prod| added into
    its first entry, goes through np.cumsum (the partial sums are added
    in term order).  Each term's sign is the carried sign times the
    cumulative product of the factor signs.  The chunk then folds into the
    running signed sum (_Fold.add), which skips the exponentials of a
    chunk that would add exactly 0.0.
    """
    half = 0.5 * theta
    fold = _Fold()
    log_prod = 0.0  # log|prod| and its sign, carried into the next chunk
    sign = 1.0
    for first in range(1, stop, CHUNK):
        end = min(first + CHUNK, stop)
        # (N -/+ j) (theta / 2) for j = first .. end - 1: halving is exact,
        # so these are the doubles 0.5 (N -/+ j) theta
        pair = np.arange(N - first, N - end, -1.0)
        pair *= half
        np.sin(pair, out=pair)
        pair *= -4.0
        plus = np.arange(N + first, N + end, 1.0)
        plus *= half
        pair *= np.sin(plus, out=plus)
        zeros = np.flatnonzero(pair == 0.0)
        if zeros.size:
            pair = pair[:zeros[0]]
            if pair.size == 0:
                break
        magnitude = np.abs(pair)
        logs = np.log(magnitude)
        logs[0] += log_prod
        np.cumsum(logs, out=logs)
        log_prod = float(logs[-1])
        fold.min_factor = min(fold.min_factor, float(magnitude.min()))
        sign = fold.add(logs, sign, pair)
        if zeros.size:
            break
    return fold.result()


def _kashaev_sum(N, p):
    """_jones_sum at q = e^{2 pi i p/N}, gcd(p, N) = 1, from half its terms.

    The j-th factor is |1 - q^j|^2 = 4 sin^2(pi r_j / N) with
    r_j = min(pj mod N, N - pj mod N), an argument of at most pi/2, and
    f_{N-j} = f_j.  The product of all N - 1 factors is N^2, so
    t_{N-1-j} = N^2 / t_j: only the terms j <= (N - 1)/2 are built, from
    the factors j < N/2, and each is folded with its reflection,
    log t_{N-1-j} = 2 log N - log t_j.  For odd N the middle term
    j = (N - 1)/2 is its own reflection and is counted once.

    The first chunk and every chunk at p > 1, whose r_j do not run in
    steps of 1, take np.sin.  At p = 1 a later chunk's sines are
    sin(a + k delta) = sin a cos k delta + cos a sin k delta with
    delta = pi/N, a = (first - 1) delta and k = 1 .. CHUNK, read off the
    first chunk's sines and a table of np.cos taken once a call.  Both
    products are positive (0 < a + k delta <= pi/2), so nothing cancels,
    and np.log is the one transcendental pass per term.

    Each chunk's log-factors enter np.cumsum from 0 and the carry, log
    t_{first - 1}, is added after; the carry then advances by the
    chunk's pairwise np.sum, so rounding walks at most CHUNK steps.  A
    chunk whose log-factors have one sign has monotone prefix sums, with
    extremes at its two ends: when those ends, terms and reflections,
    lie more than EXP_UNDERFLOW below the fold's top, np.exp would give
    +0.0 for all of them and top would not move, so the chunk takes no
    prefix sums and only advances the carry.
    """
    last = (N - 1) // 2        # the terms t_0 .. t_last are built
    mirror_end = N - 1 - last  # and t_j for j < mirror_end reflected
    two_log_n = 2.0 * math.log(N)
    # t_0 = 1 and its reflection t_{N-1} = N^2, one term when N = 1
    fold = _Fold(two_log_n, 1.0 + 1.0 / (N * N)) if N > 1 else _Fold()
    if N % 2 == 0:
        # f_{N/2} = 4 sin^2(pi p/2) = 4 enters only the reflected terms
        fold.min_factor = 4.0
    scale = math.pi / N
    log_prod = 0.0  # log t_{first - 1}, carried into the next chunk
    for first in range(1, last + 1, CHUNK):
        end = min(first + CHUNK, last + 1)
        if first == 1 or p > 1:
            r = np.arange(first, end, dtype=np.int64)
            if p > 1:
                # at p = 1, j < N/2 is its own r_j
                r *= p
                r %= N
                np.minimum(r, N - r, out=r)
            # 2 sin(pi r_j / N), doubling exact
            doubled = r * scale
            np.sin(doubled, out=doubled)
            doubled *= 2.0
            if p == 1 and end <= last:
                # 2 sin k delta and 2 cos k delta for k = 1 .. CHUNK
                sin_table = doubled
                cos_table = r * scale
                np.cos(cos_table, out=cos_table)
                cos_table *= 2.0
        else:
            base = (first - 1) * scale
            doubled = sin_table[:end - first] * math.cos(base)
            doubled += cos_table[:end - first] * math.sin(base)
        fold.min_factor = min(fold.min_factor, float(doubled.min()) ** 2)
        # log(2 sin(pi r_j / N)), half of log f_j: the sums of these are
        # doubled, which is exact
        logs = np.log(doubled)
        total = 2.0 * float(np.sum(logs))
        # the ends of the chunk's prefix sums, its extremes when the logs
        # have one sign; the floor is lowered by a bound on the rounding
        # of the running sum
        ends = (log_prod + 2.0 * float(logs[0]), log_prod + total)
        floor = fold.top - EXP_UNDERFLOW - (
            CHUNK * sys.float_info.epsilon * (abs(log_prod) + abs(total)))
        if (max(ends) < floor and two_log_n - min(ends) < floor
                and (logs.min() >= 0.0 if logs[0] >= 0.0 else logs.max() <= 0.0)):
            log_prod += total
            continue
        np.cumsum(logs, out=logs)
        logs *= 2.0
        logs += log_prod
        log_prod += total
        mirrored = two_log_n - logs[:min(end, mirror_end) - first]
        fold.add(logs)
        if mirrored.size:
            fold.add(mirrored)
    return fold.result()


def colored_jones_fig8(N: int, q: complex) -> LogComplex:
    """Figure-eight colored Jones value with N colors at unit-modulus q."""
    if N < 1:
        raise ValueError("N must be >= 1")
    theta = _theta_of(q)
    log_abs, arg, cond, min_factor = _jones_sum(N, theta)
    return LogComplex(log_abs=log_abs, arg=arg, cond=cond, min_factor=min_factor)


def jones_sequence(n_list: Sequence[int], a: float) -> List[Tuple[int, LogComplex]]:
    """J_N at q = e^{2 pi i / k} with k = round(N / a)."""
    out = []
    for N in n_list:
        k = round(N / a)
        if k < 1:
            raise ValueError("N/a rounds below 1")
        q = complex(math.cos(TWO_PI / k), math.sin(TWO_PI / k))
        out.append((N, colored_jones_fig8(N, q)))
    return out


def kashaev_sequence(n_list: Sequence[int]) -> List[Tuple[int, LogComplex]]:
    """J_N at q = e^{2 pi i / N}; each value is checked to be a positive real
    (arg within 1e-6 of 0 mod 2pi)."""
    out = []
    for N, value in jones_sequence(n_list, 1.0):
        wrapped = abs(math.remainder(value.arg, TWO_PI))
        if wrapped > 1e-6:
            raise ArithmeticError("Kashaev value at N=%d is not positive real" % N)
        out.append((N, value))
    return out


def growth_rate(seq: Sequence[Tuple[int, LogComplex]], a: float = 1.0) -> GrowthFit:
    """Least squares fit of log|J_N| against k = round(N/a), log N and 1."""
    if len(seq) < 4:
        raise InsufficientData("need at least 4 points, got %d" % len(seq))
    n_vals = [n for n, _ in seq]
    if any(b <= c for b, c in zip(n_vals[1:], n_vals[:-1])):
        raise ValueError("N values must be increasing")
    k = np.array([round(n / a) for n in n_vals], dtype=float)
    logn = np.log(np.array(n_vals, dtype=float))
    y = np.array([v.log_abs for _, v in seq])
    design = np.column_stack([k, logn, np.ones_like(k)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return GrowthFit(
        slope=float(TWO_PI * coef[0]),
        log_correction=float(coef[1]),
        intercept=float(coef[2]),
        rms=float(np.sqrt(np.mean(resid ** 2))),
        k_values=tuple(int(x) for x in k),
    )


def conjecture_gap(fit: GrowthFit, vol_val: float, cs_val: float,
                   u_val: float = None) -> Tuple[float, str]:
    """Distance of the fitted growth rate from the volume prediction, plus a
    side-by-side report of both right-hand-side conventions.

    The gap is |slope - Vol| / 2pi, i.e. the comparison at the scale of
    lim log J / k.  No pass/fail: the statement under test is open.
    """
    gap = abs(fit.slope - vol_val) / TWO_PI
    lhs_re = fit.slope / TWO_PI
    rhs33_re = vol_val / TWO_PI
    rhs33_im = math.pi * cs_val
    lines = [
        "growth fit: slope %.12g (volume scale), log N coefficient %.3f, rms %.3g"
        % (fit.slope, fit.log_correction, fit.rms),
        "LHS  lim log|J|/k            : %.12g" % lhs_re,
        "RHS  (1/2pi) Vol             : %.12g   (re, both conventions)" % rhs33_re,
        "RHS  im, 2pi^2 CS convention : %.12g" % rhs33_im,
    ]
    if u_val is not None:
        lines.append("RHS  im, (1/2pi) U convention: %.12g" % (u_val / (2.0 * TWO_PI * math.pi)))
    lines.append("gap  |slope - Vol| / 2pi     : %.3g" % gap)
    return gap, "\n".join(lines)
