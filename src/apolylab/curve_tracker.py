"""Lift routes in the m-plane onto the curve A(l, m) = 0.

A PathSpec is a chain of line and arc segments in the m-plane plus a
branch seed for l at the first point.  The seed only picks the sheet:
it is checked on A's row at the first point, and the lift starts on the
root there that it matches, from the same root solve as every later
sample.  lift_path, the one builder of a TrackedPath, follows the route
one segment at a time on an equal-step grid, by one kernel
(_track_grid).  At each grid m, A and dA/dm are polynomials in l whose
coefficient rows are built in numpy (poly_core.laurent_rows); A, dA/dl
and the term scale at a point are read off them by
poly_core.horner_row_batch and row_max_term_batch alone, for the seed
as for every sample.  The kernel solves a segment's grid BATCH_CHUNK
intervals at a time: every root at every m from one companion_roots call
(poly_core: closed form when A has degree 1 or 2 in l, one stacked
eigvals call otherwise), a tangent prediction from each root, and
the seeded sheet followed through the nearest-root matches.  A step is
refused when its match is ambiguous (the nearest root not below
BATCH_RATIO of the second-nearest) or its point fails the residual
check; the kernel then splits that step into SPLIT equal sub-steps,
solves their points the same way and goes on from the last accepted l.
A matched root that fails the |dA/dl| guard is a branch point
(RamificationError).  Each lift reports what it did in a LiftDiagnostics
record.  The result carries one log state: the complex arrays log_l and
log_m, each log|z| + i arg z with arg continuously unwrapped (between
consecutive samples |delta arg| < pi), so winding numbers and
branch-sensitive integrals are well defined downstream.

A closed path closes on the curve: its lift must return to its first l
within MONODROMY_REL of |l|.

A segment is a LineSeg or an ArcSeg, each with its parameter inverse
param(m), or a GradedSeg: a segment traversed on a sinh substitution
crowded toward a nearby branch point.  grade_toward_branch_points finds
such points from a lift (locate_branch_point, Newton on A = dA/dl = 0)
and wraps the segments that pass one within a grid step; lift_path
treats a graded segment like any other.

Convention for the base sample: arg m(t0) = 0 whenever |m(t0) - 1| is
within the base-point offset, otherwise principal values in [0, 2pi).
The geometric base point of a knot curve may be a singular point of the
curve; routes nominally starting there must start at the offset point
instead (the knot records carry m0 = 1 + epsilon and an l seed picked on
one of the two lifts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import (
    DomainError,
    NonConvergence,
    NotClosed,
    RamificationError,
    SeedError,
)
from .poly_core import (
    NO_CONVERGENCE,
    ROW_ERRORS,
    LaurentBiPoly,
    companion_roots,
    horner_row_batch,
    l_range,
    laurent_rows,
    mark_unsolvable,
    partial,
    row_max_term_batch,
    term_maxima,
)

JOINT_TOL = 1e-12        # segment endpoints must chain within this
MONODROMY_REL = 1e-8     # l-sameness of a closed route's return, relative to |l|
DEFAULT_SEED_TOL = 1e-6  # seed residual, relative to the term scale
RESID_REL = 1e-12        # Newton tolerance, relative to the running term scale
RAM_REL = 1e-8           # |dA/dl| guard, relative to the running term scale
BASE_EPS = 1e-4          # |m - 1| radius in which arg m(t0) is zeroed
BRANCH_BUDGET = 30       # Newton steps of the branch-point locator
BRANCH_STEP_REL = 1e-13  # its last step, relative to |l| and |m|
SINGULAR_REL = 1e-6      # |m dA/dm| floor of a branch point, relative to the term scale
BATCH_CHUNK = 256        # grid intervals per root solve of a batched lift
BATCH_RATIO = 0.25       # a batched step's nearest root, below this share of the second-nearest
SPLIT = 8                # equal sub-steps a refused step is split into
MIN_STEP = 1e-12         # the smallest sub-step, in segment parameter


@dataclass(frozen=True)
class LineSeg:
    m_start: complex
    m_end: complex

    def points(self, s):
        return self.m_start + s * (self.m_end - self.m_start)

    def param(self, m: complex) -> complex:
        """The complex s with points(s) = m."""
        return (m - self.m_start) / (self.m_end - self.m_start)

    @property
    def first(self) -> complex:
        return self.m_start

    @property
    def last(self) -> complex:
        return self.m_end


@dataclass(frozen=True)
class ArcSeg:
    center: complex
    radius: float
    angle_start: float
    angle_end: float

    def points(self, s):
        a = self.angle_start + s * (self.angle_end - self.angle_start)
        return self.center + self.radius * (np.cos(a) + 1j * np.sin(a))

    def param(self, m: complex) -> complex:
        """The complex s with points(s) = m, its real part taken within half
        a turn of the arc's midpoint: arg and log of the radius ratio are
        the real and (negated) imaginary angle."""
        span = self.angle_end - self.angle_start
        mid = self.angle_start + 0.5 * span
        z = (m - self.center) / (self.radius * complex(math.cos(mid), math.sin(mid)))
        return 0.5 + complex(math.atan2(z.imag, z.real), -math.log(abs(z))) / span

    @property
    def first(self) -> complex:
        return complex(self.points(0.0))

    @property
    def last(self) -> complex:
        return complex(self.points(1.0))


@dataclass(frozen=True)
class GradedSeg:
    """seg traversed at s = s0 + w sinh(a + u (b - a)), u in [0, 1], with
    a and b the asinh of (0 - s0)/w and (1 - s0)/w: the same points in the
    same order, crowded toward s0 on the scale w.  A lift on an equal-step
    grid in u takes steps of about w near s0 and a fixed share of the
    distance to s0 away from it, which is what a route passing a branch
    point at complex parameter s0 + i w needs (the sinh substitution for
    nearly singular integrands, Johnston and Elliott 2005).  u = 0 and 1
    are seg's own endpoints, bit for bit."""

    seg: Segment
    s0: float
    w: float
    a: float = field(init=False, repr=False, compare=False)
    b: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.s0) and math.isfinite(self.w) and self.w > 0):
            raise ValueError("GradedSeg needs a finite s0 and a finite positive w")
        object.__setattr__(self, "a", math.asinh(-self.s0 / self.w))
        object.__setattr__(self, "b", math.asinh((1.0 - self.s0) / self.w))

    def points(self, u):
        u = np.asarray(u, dtype=float)
        x = (self.a + u * (self.b - self.a)).ravel().tolist()
        # math.sinh: np.sinh differs from it in the last bit
        s = self.s0 + self.w * np.array([math.sinh(v) for v in x]).reshape(u.shape)
        return self.seg.points(np.where((u == 0.0) | (u == 1.0), u, s))

    @property
    def first(self) -> complex:
        return self.seg.first

    @property
    def last(self) -> complex:
        return self.seg.last


Segment = Union[LineSeg, ArcSeg, GradedSeg]


@dataclass(frozen=True)
class PathSpec:
    segments: Tuple[Segment, ...]
    l_seed: complex
    closed: bool = False

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("empty path")
        for a, b in zip(segs, segs[1:]):
            if abs(a.last - b.first) > JOINT_TOL:
                raise ValueError("consecutive segments do not chain")
        if self.closed and abs(segs[-1].last - segs[0].first) > JOINT_TOL:
            raise ValueError("closed path does not return to its start")


@dataclass(frozen=True)
class StepControls:
    max_step: float = 1.0 / 128   # in segment parameter; 128 steps, a multiple of 16

    def __post_init__(self):
        if not (np.isfinite(self.max_step) and self.max_step > 0):
            raise ValueError("max_step must be finite and positive")


class LiftDiagnostics(NamedTuple):
    """What a lift did, deterministic: the samples inserted by splitting
    refused steps (halvings), the smallest accepted step (in segment
    parameter), the smallest |dA/dl| / scale at an accepted point, the
    margin that RAM_REL guards, and the worst nearest / second-nearest
    root distance of an accepted match, the ratio that BATCH_RATIO
    bounds."""

    halvings: int = 0
    min_step: float = math.inf
    min_margin: float = math.inf
    max_ratio: float = 0.0

    def join(self, other: "LiftDiagnostics") -> "LiftDiagnostics":
        return LiftDiagnostics(self.halvings + other.halvings,
                               min(self.min_step, other.min_step),
                               min(self.min_margin, other.min_margin),
                               max(self.max_ratio, other.max_ratio))


@dataclass(frozen=True)
class TrackedPath:
    """Dense samples of the lift.  Arrays share one index; log_l and log_m
    are log|z| + i arg z with arg continuously unwrapped, never reduced
    mod 2pi."""

    t: np.ndarray
    l: np.ndarray
    m: np.ndarray
    log_l: np.ndarray
    log_m: np.ndarray
    residual_max: float
    closed: bool
    # sample intervals of each segment, in route order (empty: not known),
    # and whether every segment kept its equal-step grid (no step split)
    segment_intervals: Tuple[int, ...] = ()
    uniform: bool = False
    # the branch points m_b the route's segments were graded toward
    # (grade_toward_branch_points), in route order
    graded_toward: Tuple[complex, ...] = ()
    diagnostics: LiftDiagnostics = LiftDiagnostics()

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @cached_property
    def log_table(self) -> np.ndarray:
        """one_forms' trapezoid table of int log l dlog m, built once, on
        first use; every form of one_forms reads it."""
        from .one_forms import _table   # one_forms imports this module
        table = _table(self, self.log_l, self.log_m)
        table.flags.writeable = False
        return table


def _track_grid(A: LaurentBiPoly, Am: LaurentBiPoly, seg: Segment, n: int,
                l: complex, scale: float):
    """Lift l along n equal steps of seg keeping A(l, m) = 0.

    l is first checked on row 0 of the first chunk, A's row at seg's
    first m: with scale raised to the term magnitude at l, l must satisfy
    A within DEFAULT_SEED_TOL of scale and |dA/dl| must pass the RAM_REL
    guard (SeedError otherwise: at a branch or singular point the sheets
    are not separated).  Then chunk by chunk, in order, BATCH_CHUNK grid
    intervals at a time from the last accepted l, the first sample being
    the root at seg's first m that l matches: the l-coefficient rows of
    A and dA/dm at the chunk's m (_rows) give every root at every m in
    one poly_core.companion_roots call (closed form at degree 1 or 2 in
    l, one stacked eigvals call otherwise), and _follow
    matches the seeded sheet along them.  At the first refused step the
    steps before it are kept.  The refused step is split into SPLIT
    equal sub-steps, whose SPLIT - 1 new points are solved in one
    companion_roots call and spliced into the chunk, and matching
    resumes from the last accepted l; a sub-step refused again is split
    again.  A root at a given m does not depend on the batch it was
    solved in, so a route no step of which is refused keeps its
    equal-step grid and its values.

    Raises RamificationError where the matched root fails the |dA/dl|
    guard (no split separates the sheets at a fixed m), NonConvergence
    when a sub-step would fall below MIN_STEP, and DomainError
    where, with a negative l-power, l or the matched root is 0.  Returns
    (s, m, l, resid_max, scale, diagnostics): the segment parameters with
    their m and l samples, the largest residual, the running term scale
    and the segment's LiftDiagnostics (halvings counts the inserted
    samples).
    """
    lo, hi = l_range(A)
    grid = np.linspace(0.0, 1.0, n + 1)
    grid_m = np.asarray(seg.points(grid), dtype=complex)
    s_parts, m_parts, l_parts = [grid[:1]], [grid_m[:1]], []
    resid_max, min_margin, max_ratio, halvings = 0.0, math.inf, 0.0, 0
    for first in range(0, n, BATCH_CHUNK):
        s = grid[first:first + BATCH_CHUNK + 1]
        m = grid_m[first:first + BATCH_CHUNK + 1]
        rows, drows, maxima = _rows(A, Am, m, lo, hi)
        if not first:
            # l on the row of seg's first m, where the lift starts
            if lo and l == 0:
                raise DomainError("negative exponent at zero argument")
            with np.errstate(all="ignore"):
                v, dv = horner_row_batch(rows[:1], lo, np.array([[l]]))
                scale = max(scale, float(row_max_term_batch(maxima[:1], lo, np.array([l]))[0]))
            if abs(v[0, 0]) > DEFAULT_SEED_TOL * scale:
                raise SeedError("seed does not satisfy A within tolerance at the start point")
            if not abs(dv[0, 0]) >= RAM_REL * scale:
                raise SeedError("seed is not separated from the other sheets; "
                                "start at an offset point instead")
        z = companion_roots(rows)
        k = 0  # the chunk's last accepted sample
        while k < len(m) - 1:
            lc, ok, ratio, r, dal, scales = _follow(
                rows[k:], drows[k:], maxima[k:], z[k:], m[k:], l, scale, lo)
            if not l_parts:
                # the first sample: the root at seg's first m that l matches
                l_parts.append(lc[:1])
                with np.errstate(all="ignore"):
                    resid_max = float(np.abs(horner_row_batch(rows[:1], lo, lc[:1, None])[0][0, 0]))
            j = len(ok) if ok.all() else int(np.argmin(ok))
            if j:
                resid_max = max(resid_max, float(r[:j].max()))
                min_margin = min(min_margin, float((dal[:j] / scales[1:j + 1]).min()))
                max_ratio = max(max_ratio, float(ratio[:j + 1].max()))
                scale = float(scales[j])
                l_parts.append(lc[1:j + 1])
                l = lc[j]
                k += j
            if j == len(ok):
                break
            # the step from sample k to k + 1 is refused
            if lo and lc[j + 1] == 0:
                raise DomainError("negative exponent at zero argument")
            if not dal[j] >= RAM_REL * scales[j + 1]:
                m1 = complex(m[k + 1])
                raise RamificationError("lift ran into a branch point near m = %s" % m1,
                                        m=m1, l=complex(lc[j + 1]))
            gap = (s[k + 1] - s[k]) / SPLIT
            if gap < MIN_STEP:
                raise NonConvergence("step underflow near m = %s" % complex(m[k]))
            new_s = s[k] + gap * np.arange(1, SPLIT)
            new_m = np.asarray(seg.points(new_s), dtype=complex)
            new_rows = _rows(A, Am, new_m, lo, hi)
            new = (new_s, new_m) + new_rows + (companion_roots(new_rows[0]),)
            # splice the new points in after sample k
            s, m, rows, drows, maxima, z = (np.concatenate((a[:k + 1], b, a[k + 1:]))
                                            for a, b in zip((s, m, rows, drows, maxima, z), new))
            halvings += SPLIT - 1
        s_parts.append(s[1:])
        m_parts.append(m[1:])
    s = np.concatenate(s_parts)
    return (s, np.concatenate(m_parts), np.concatenate(l_parts), resid_max, scale,
            LiftDiagnostics(halvings, float(np.diff(s).min()), min_margin, max_ratio))


def _rows(A: LaurentBiPoly, Am: LaurentBiPoly, m: np.ndarray, lo: int, hi: int):
    """The l-coefficient rows of A and dA/dm at each m (poly_core.laurent_rows)
    and A's term maxima.  Raises DomainError when m = 0 (the route meets
    it), and the row's poly_core.ROW_ERRORS error at the first m where a
    coefficient is not finite or A's leading coefficient cancels, where
    companion_roots cannot solve the row."""
    with np.errstate(all="ignore"):
        rows, drows = laurent_rows(A, m, lo, hi), laurent_rows(Am, m, lo, hi)
        maxima = term_maxima(A, m, lo, hi)
    if not m.all():
        raise DomainError("route meets m = 0 at m = %s" % complex(m[np.argmin(np.abs(m))]))
    status = mark_unsolvable(rows, maxima[:, -1], np.zeros(len(m), dtype=int))
    status[(status == 0) & ~(np.isfinite(drows).all(axis=1) & np.isfinite(maxima).all(axis=1))] \
        = NO_CONVERGENCE
    if status.any():
        b = int(np.argmax(status != 0))
        error, message = ROW_ERRORS[status[b]]
        raise error("%s: m = %s" % (message, complex(m[b])))
    return rows, drows, maxima


def _follow(rows: np.ndarray, drows: np.ndarray, maxima: np.ndarray, z: np.ndarray,
            m: np.ndarray, l: complex, scale: float, lo: int):
    """The seeded sheet from l at m[0] along m[1:], on the rows, term
    maxima and roots z of every m, with scale the running term scale.

    Each root at sample k predicts sample k + 1 by the tangent,
    l - (A_m / A_l) dm, and is matched to the nearest root there; the
    sheet is the chain of matches from the root nearest l at m[0].  Step
    k is accepted (ok[k]) when its match's nearest distance is below
    BATCH_RATIO of its second-nearest (for step 0 also the match of l
    itself), its point has |A| <= RESID_REL * scale and
    |dA/dl| >= RAM_REL * scale, with scale the running maximum term, and,
    with a negative l-power, l != 0.  Returns (l, ok, ratio, |A|, |dA/dl|,
    scales): l per sample, from the root l matches at m[0], ok, |A| and
    |dA/dl| per step, ratio per sample (from the match of l) and scales
    the running scale at each sample.
    """
    # row k of pred holds the predictions for sample k: l itself at the
    # first m, then the tangent step from every root at k - 1
    with np.errstate(all="ignore"):
        slope = (horner_row_batch(drows[:-1], lo, z[:-1])[0]
                 / horner_row_batch(rows[:-1], lo, z[:-1])[1])
        pred = np.concatenate((np.full((1, z.shape[1]), l),
                               z[:-1] - slope * np.diff(m)[:, None]))
        # nearest and second-nearest root to each prediction, by
        # elementwise passes over the roots (a NaN distance ends up in
        # the ratio and refuses)
        match = np.zeros(pred.shape, dtype=int)
        near, second = np.abs(pred - z[:, :1]), np.full(pred.shape, np.inf)
        for j in range(1, z.shape[1]):
            dist = np.abs(pred - z[:, j:j + 1])
            closer = dist < near
            second = np.where(closer, near, np.minimum(second, dist))
            match[closer] = j
            near = np.where(closer, dist, near)
        ratio = near / second
    # the seeded sheet's root index at each sample
    sheet = [0]
    for row in match.tolist():
        sheet.append(row[sheet[-1]])
    k = np.arange(len(m))
    ratio = ratio[k, sheet[:-1]]
    lc = z[k, sheet[1:]]
    with np.errstate(all="ignore"):
        v, dv = horner_row_batch(rows[1:], lo, lc[1:, None])
        r, dal = np.abs(v[:, 0]), np.abs(dv[:, 0])
        term = row_max_term_batch(maxima[1:], lo, lc[1:])
    scales = np.maximum.accumulate(np.append(scale, term))
    ok = (ratio[1:] < BATCH_RATIO) & (r <= RESID_REL * scales[:-1]) & (dal >= RAM_REL * scales[1:])
    ok[0] &= ratio[0] < BATCH_RATIO
    if lo:
        ok &= lc[1:] != 0
    return lc, ok, ratio, r, dal, scales


def lift_path(A: LaurentBiPoly, spec: PathSpec, ctrl: StepControls = StepControls()
              ) -> TrackedPath:
    """Track the route in spec on A = 0 starting from the seeded branch.

    The seed must be finite.  It is checked on row 0 of the first
    segment's root solve, A's coefficient row at the start point
    (SeedError when it is off the curve or where |dA/dl| fails the guard
    below), and the lift's first sample is the root there that the seed
    matches.  Each segment is lifted on ceil(1 / ctrl.max_step) equal
    steps by root solves (_track_grid), which split a step they refuse
    into SPLIT sub-steps, down to MIN_STEP.  Every accepted point
    has |A| <= RESID_REL * scale and |dA/dl| >= RAM_REL * scale, with
    scale the running maximum term magnitude along the path.  Raises
    RamificationError where a matched root fails that guard, and
    NonConvergence when the step size underflows.  The path's diagnostics
    record the inserted samples, the smallest accepted step, the smallest
    |dA/dl| / scale and the worst match ratio over every segment.  Raises
    DomainError at a sample with m = 0 or l = 0, and NotClosed when a
    closed spec's lift does not return to its first l.
    """
    if not np.isfinite(spec.l_seed):
        raise SeedError("seed %s is not a finite number" % spec.l_seed)
    Am = partial(A, "m")
    n = max(1, int(np.ceil(1.0 / ctrl.max_step)))
    n_segs = len(spec.segments)
    t_parts: List[np.ndarray] = []
    m_parts: List[np.ndarray] = []
    l_parts: List[np.ndarray] = []
    l_end = complex(spec.l_seed)
    intervals: List[int] = []
    resid_max, scale = 0.0, 0.0
    diagnostics = LiftDiagnostics()
    for seg_idx, seg in enumerate(spec.segments):
        s, m_seg, l_seg, resid, scale, diag = _track_grid(A, Am, seg, n, l_end, scale)
        resid_max = max(resid_max, resid)
        diagnostics = diagnostics.join(diag)
        intervals.append(len(s) - 1)
        # each later segment starts on the previous one's last sample
        first = 1 if seg_idx > 0 else 0
        t_parts.append((seg_idx + np.asarray(s[first:])) / n_segs)
        m_parts.append(np.asarray(m_seg[first:], dtype=complex))
        l_parts.append(np.asarray(l_seg[first:], dtype=complex))
        l_end = complex(l_seg[-1])

    t = np.concatenate(t_parts)
    l = np.concatenate(l_parts)
    m = np.concatenate(m_parts)
    if not l.all():
        raise DomainError("route meets l = 0 at m = %s" % m[np.argmin(np.abs(l))])
    if spec.closed and not abs(l[-1] - l[0]) <= MONODROMY_REL * abs(l[0]):
        raise NotClosed("closed route's lift does not return: l gap %.3g at |l| = %.3g"
                        % (abs(l[-1] - l[0]), abs(l[0])))
    return TrackedPath(
        t=t, l=l, m=m,
        log_l=_unwrapped_log(l), log_m=_unwrapped_log(m, abs(m[0] - 1.0) <= BASE_EPS),
        residual_max=resid_max,
        closed=spec.closed,
        segment_intervals=tuple(intervals),
        uniform=all(k == n for k in intervals),
        diagnostics=diagnostics,
    )


def _unwrapped_log(z: np.ndarray, zero_arg: bool = False) -> np.ndarray:
    """log|z| + i arg z, arg starting at 0 or at the principal value in
    [0, 2pi) and unwrapped sample to sample."""
    arg0 = 0.0 if zero_arg else float(np.angle(z[0])) % (2.0 * np.pi)
    arg = arg0 + np.concatenate(([0.0], np.cumsum(np.angle(z[1:] / z[:-1]))))
    return np.log(np.abs(z)) + 1j * arg


def locate_branch_point(A: LaurentBiPoly, l: complex, m: complex
                        ) -> Optional[Tuple[complex, complex]]:
    """Newton on (A, dA/dl) = 0 in (l, m) from a point near the curve.

    Returns the ramification point (l_b, m_b) of the projection to m that
    the iteration reaches, or None when it does not settle within
    BRANCH_BUDGET steps, meets a singular Jacobian, or ends where
    |m dA/dm| is below SINGULAR_REL of the term scale.  A singular point
    of the curve, such as a node, is not a branch point of its sheets:
    there dA/dm vanishes too, the Jacobian is singular, and from 1e-3 away
    on the figure-eight the iteration stalls at |m dA/dm| about 1e-8 of the
    scale (against 3 to 5 at its branch points).
    """
    polys = (A, partial(A, "l"), partial(A, "m"))
    ranges = [l_range(p) for p in polys]

    def row_values(l, m):
        # (A, A_l), (A_l, A_ll) and (A_m, A_lm) at (l, m), not finite at
        # l = 0 on a curve with a negative l-power
        with np.errstate(all="ignore"):
            return [[complex(v[0, 0]) for v in
                     horner_row_batch(laurent_rows(p, [m], lo, hi), lo, np.array([[l]]))]
                    for p, (lo, hi) in zip(polys, ranges)]

    try:
        for _ in range(BRANCH_BUDGET):
            (f, g), (_, gl), (fm, gm) = row_values(l, m)
            det = g * gm - fm * gl
            if det == 0 or not np.isfinite(det):
                return None
            dl, dm = (f * gm - fm * g) / det, (g * g - gl * f) / det
            l, m = l - dl, m - dm
            if abs(dl) <= BRANCH_STEP_REL * abs(l) and abs(dm) <= BRANCH_STEP_REL * abs(m):
                break
        else:
            return None
        lo, hi = ranges[0]
        scale = row_max_term_batch(term_maxima(A, [m], lo, hi), lo, np.array([l]))[0]
        if not abs(row_values(l, m)[2][0] * m) >= SINGULAR_REL * scale:
            return None
    except DomainError:
        return None
    return l, m


def grade_toward_branch_points(A: LaurentBiPoly, spec: PathSpec, path: TrackedPath,
                               step: float) -> Tuple[PathSpec, Tuple[complex, ...]]:
    """spec with each segment that passes a branch point closely wrapped in
    a GradedSeg toward it, and the branch points m_b graded toward.

    path is a lift of spec.  On each segment not graded yet, the sample
    with the smallest |dA/dl| relative to the term scale seeds
    locate_branch_point; the segment is graded when m_b's complex
    parameter s_b = seg.param(m_b) has 0 < Re s_b < 1 and |Im s_b| below
    step, the lift's grid step, where an equal-step grid cannot resolve
    the square-root behaviour of l.  The route's points, and so its
    integrals, are unchanged.
    """
    lo, hi = l_range(A)
    bounds = np.cumsum((0,) + path.segment_intervals)
    segs: List[Segment] = []
    toward: List[complex] = []
    for seg, first, last in zip(spec.segments, bounds[:-1], bounds[1:]):
        if isinstance(seg, GradedSeg):
            segs.append(seg)
            continue
        m, l = path.m[first:last + 1], path.l[first:last + 1]
        _, dal = horner_row_batch(laurent_rows(A, m, lo, hi), lo, l[:, None])
        scale = row_max_term_batch(term_maxima(A, m, lo, hi), lo, l)
        # argmin keeps the first of equal minima
        k = first + int(np.argmin(np.abs(dal[:, 0]) / scale))
        found = locate_branch_point(A, complex(path.l[k]), complex(path.m[k]))
        if found is not None:
            s_b = seg.param(found[1])
            if 0.0 < s_b.real < 1.0 and 0.0 < abs(s_b.imag) < step:
                seg = GradedSeg(seg, s_b.real, abs(s_b.imag))
                toward.append(found[1])
        segs.append(seg)
    return replace(spec, segments=tuple(segs)), tuple(toward)


def loop_around_m(A: LaurentBiPoly, m_center: complex, radius: float,
                  l_seed: complex, turns: int = 1) -> PathSpec:
    """Closed circle of |turns| full arcs around m_center, counterclockwise
    for turns > 0, starting at angle 0."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if turns == 0:
        raise ValueError("turns must be nonzero")
    sgn = 1.0 if turns > 0 else -1.0
    segs = tuple(
        ArcSeg(m_center, radius, 2.0 * np.pi * sgn * k, 2.0 * np.pi * sgn * (k + 1))
        for k in range(abs(turns))
    )
    return PathSpec(segments=segs, l_seed=l_seed, closed=True)


def refine(ctrl: StepControls) -> StepControls:
    """Controls with the step halved; used by quadrature refinement."""
    return replace(ctrl, max_step=ctrl.max_step * 0.5)
