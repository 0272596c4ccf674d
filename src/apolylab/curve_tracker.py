"""Lift routes in the m-plane onto the curve A(l, m) = 0.

A PathSpec is a chain of line and arc segments in the m-plane plus a
branch seed for l at the first point.  lift_path follows the route by
tangent prediction and Newton correction in l.  At each grid m, A and
dA/dm are polynomials in l: their coefficient rows are built for a
segment's whole grid at once (poly_core.laurent_rows, one numpy pass),
and Newton runs scalar Horner on the current row (poly_core.horner_row),
which gives A and dA/dl together.  One Newton loop (_newton) serves the
seed polish and every step and returns dA/dl at its last iterate, so the
ramification guard and the next predictor read dA/dl and dA/dm's row
once per accepted point.  Each lift reports what it did in a
LiftDiagnostics record.  The result carries one log state: the complex
arrays log_l and log_m, each log|z| + i arg z with arg continuously
unwrapped (between consecutive samples |delta arg| < pi), so winding
numbers and branch-sensitive integrals are well defined downstream.

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
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import (
    DegenerateError,
    DomainError,
    MismatchError,
    NonConvergence,
    RamificationError,
    SeedError,
)
from .poly_core import (
    LaurentBiPoly,
    eval_poly,
    horner_row,
    l_range,
    laurent_rows,
    max_term,
    partial,
    roots_in_l,
    row_max_term,
    term_maxima,
)

JOINT_TOL = 1e-12        # segment endpoints must chain within this
CONCAT_TOL = 1e-9        # concat endpoint agreement in (l, m)
MONODROMY_TOL = 1e-8     # closed-loop l return test
SEED_SEPARATION = 1e-8   # min distance of the seed root from other roots
DEFAULT_SEED_TOL = 1e-6  # seed residual, relative to the term scale
RESID_REL = 1e-12        # Newton tolerance, relative to the running term scale
RAM_REL = 1e-8           # |dA/dl| guard, relative to the running term scale
HALVE_AFTER = 5          # Newton iterations to tolerance before a step is halved
BASE_EPS = 1e-4          # |m - 1| radius in which arg m(t0) is zeroed
BRANCH_BUDGET = 30       # Newton steps of the branch-point locator
BRANCH_STEP_REL = 1e-13  # its last step, relative to |l| and |m|
SINGULAR_REL = 1e-6      # |m dA/dm| floor of a branch point, relative to the term scale


@dataclass(frozen=True)
class LineSeg:
    m_start: complex
    m_end: complex

    def point(self, s: float) -> complex:
        return self.m_start + s * (self.m_end - self.m_start)

    def param(self, m: complex) -> complex:
        """The complex s with point(s) = m."""
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

    def point(self, s: float) -> complex:
        a = self.angle_start + s * (self.angle_end - self.angle_start)
        return self.center + self.radius * complex(np.cos(a), np.sin(a))

    def param(self, m: complex) -> complex:
        """The complex s with point(s) = m, its real part taken within half
        a turn of the arc's midpoint: arg and log of the radius ratio are
        the real and (negated) imaginary angle."""
        span = self.angle_end - self.angle_start
        mid = self.angle_start + 0.5 * span
        z = (m - self.center) / (self.radius * complex(math.cos(mid), math.sin(mid)))
        return 0.5 + complex(math.atan2(z.imag, z.real), -math.log(abs(z))) / span

    @property
    def first(self) -> complex:
        return self.point(0.0)

    @property
    def last(self) -> complex:
        return self.point(1.0)


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

    def point(self, u: float) -> complex:
        if u == 0.0 or u == 1.0:
            return self.seg.point(u)
        return self.seg.point(self.s0 + self.w * math.sinh(self.a + u * (self.b - self.a)))

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
    max_step: float = 0.01   # in segment parameter
    min_step: float = 1e-12
    newton_budget: int = 20

    def __post_init__(self):
        for name in ("max_step", "min_step"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and positive" % name)
        if not self.newton_budget >= 1:
            raise ValueError("newton_budget must be at least 1")


class LiftDiagnostics(NamedTuple):
    """What a lift did, deterministic: the step halvings, the smallest
    accepted step (in segment parameter), the most Newton steps an
    accepted step took to the tolerance, and the smallest |dA/dl| / scale
    at an accepted point, the margin that RAM_REL guards."""

    halvings: int = 0
    min_step: float = math.inf
    max_newton: int = 0
    min_margin: float = math.inf

    def join(self, other: "LiftDiagnostics") -> "LiftDiagnostics":
        return LiftDiagnostics(self.halvings + other.halvings,
                               min(self.min_step, other.min_step),
                               max(self.max_newton, other.max_newton),
                               min(self.min_margin, other.min_margin))


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
    base_convention: dict = field(compare=False)
    l_return_gap: Optional[float] = None
    # sample intervals of each segment, in route order (empty: not known),
    # and whether every segment kept its equal-step grid (no step halved)
    segment_intervals: Tuple[int, ...] = ()
    uniform: bool = False
    # the branch points m_b the route's segments were graded toward
    # (grade_toward_branch_points), in route order
    graded_toward: Tuple[complex, ...] = ()
    diagnostics: LiftDiagnostics = LiftDiagnostics()

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def l_monodromy_trivial(self) -> Optional[bool]:
        if self.l_return_gap is None:
            return None
        return self.l_return_gap <= MONODROMY_TOL


def _check_seed(A: LaurentBiPoly, l_seed: complex, m0: complex) -> complex:
    """Validate the branch seed and snap it onto the curve."""
    if not np.isfinite(l_seed):
        raise SeedError("seed %s is not a finite number" % l_seed)
    scale = max_term(A, l_seed, m0)
    if abs(eval_poly(A, l_seed, m0)) > DEFAULT_SEED_TOL * scale:
        raise SeedError("seed does not satisfy A within tolerance at the start point")
    try:
        roots = roots_in_l(A, m0)
    except DegenerateError:
        return l_seed  # branch at infinity present; skip the separation check
    if not roots:
        raise SeedError("no roots in l at the start point")
    dist = [abs(r - l_seed) for r in roots]
    nearest = int(np.argmin(dist))
    others = [abs(roots[k] - roots[nearest]) for k in range(len(roots)) if k != nearest]
    if others and min(others) < SEED_SEPARATION:
        raise SeedError(
            "seed root is not separated from the other sheets; "
            "start at an offset point instead"
        )
    return roots[nearest]


def _newton(row: List[complex], lo: int, l: complex, tol: float, budget: int):
    """Newton in l on one coefficient row of A (poly_core.horner_row).

    Steps unconditionally until |A| <= tol, then only while the residual
    strictly drops, within budget steps in total.  Returns (l, A, dA/dl,
    hit) at the last iterate: hit is the step count at the first
    |A| <= tol, or None when the budget or a zero derivative comes first.
    A NaN residual never counts as a hit.
    """
    r, d = horner_row(row, lo, l)
    hit = 0 if abs(r) <= tol else None
    for k in range(budget):
        if d == 0:
            break
        l_try = l - r / d
        r_try, d_try = horner_row(row, lo, l_try)
        if hit is not None and not abs(r_try) < abs(r):
            break
        l, r, d = l_try, r_try, d_try
        if hit is None and abs(r) <= tol:
            hit = k + 1
    return l, r, d, hit


def _track_grid(A: LaurentBiPoly, Am: LaurentBiPoly, seg: Segment, n: int,
                l: complex, scale: float, ctrl: StepControls):
    """March l along n equal steps of seg keeping A(l, m) = 0.

    A is read as a polynomial in l whose coefficients are taken once per
    grid m: poly_core.laurent_rows gives, for every grid m, the
    l-coefficient rows of A and of dA/dm, and poly_core.term_maxima the
    per-power term maxima (so the running scale is max_term's value), in
    numpy arrays; a
    halving midpoint gets its rows when it is inserted.  Each step is a
    tangent prediction from the last accepted point and one _newton run
    on the new m's row.  dA/dl comes with each Newton iterate, and dA/dm's
    row is read once per accepted point and reused by every retry from
    it.  A step whose Newton run misses the tolerance or needs more than
    HALVE_AFTER steps to hit it is halved by inserting the parameter
    midpoint.  Returns (s, m, l, resid_max, scale, diagnostics): the
    accepted segment parameters with their m and l samples, the largest
    residual, the running term scale and the segment's LiftDiagnostics.
    """
    lo, hi = l_range(A)
    w = hi - lo + 1

    def rows_at(m):
        return (np.concatenate((laurent_rows(A, m, lo, hi), laurent_rows(Am, m, lo, hi)),
                               axis=1), term_maxima(A, m, lo, hi))

    s = np.linspace(0.0, 1.0, n + 1).tolist()
    ms = [complex(seg.point(x)) for x in s]
    rows, maxima = rows_at(ms)
    row = rows[0].tolist()
    r, dal = horner_row(row[:w], lo, l)
    resid_max = abs(r)
    dam = horner_row(row[w:], lo, l)[0]
    ls = [l]
    halvings, min_step, max_newton, min_margin = 0, math.inf, 0, math.inf
    k = 0
    while k < len(s) - 1:
        m1 = ms[k + 1]
        row = rows[k + 1].tolist()
        hit = None
        if dal != 0:
            l1 = l - dam / dal * (m1 - ms[k])
            l1, r, d, hit = _newton(row[:w], lo, l1, RESID_REL * scale, ctrl.newton_budget)
        if hit is None or hit > HALVE_AFTER:
            gap = s[k + 1] - s[k]
            if gap / 2.0 < ctrl.min_step:
                raise NonConvergence("step underflow near m = %s" % ms[k])
            s.insert(k + 1, s[k] + gap / 2.0)
            ms.insert(k + 1, complex(seg.point(s[k + 1])))
            mid, mid_maxima = rows_at(ms[k + 1:k + 2])
            rows = np.insert(rows, k + 1, mid[0], axis=0)
            maxima = np.insert(maxima, k + 1, mid_maxima[0], axis=0)
            halvings += 1
            continue
        l, dal = l1, d
        scale = max(scale, row_max_term(maxima[k + 1].tolist(), lo, l))
        if abs(dal) < RAM_REL * scale:
            raise RamificationError(
                "lift ran into a branch point near m = %s" % m1, m=m1, l=l)
        resid_max = max(resid_max, abs(r))
        ls.append(l)
        dam = horner_row(row[w:], lo, l)[0]
        min_step = min(min_step, s[k + 1] - s[k])
        max_newton = max(max_newton, hit)
        min_margin = min(min_margin, abs(dal) / scale)
        k += 1
    return (s, ms, ls, resid_max, scale,
            LiftDiagnostics(halvings, min_step, max_newton, min_margin))


def lift_path(A: LaurentBiPoly, spec: PathSpec, ctrl: StepControls = StepControls()
              ) -> TrackedPath:
    """Track the route in spec on A = 0 starting from the seeded branch.

    The seed is polished by _newton with the hit taken at once (steps
    only while the residual drops).  Each step then runs the same _newton
    to |A| <= RESID_REL * scale, with scale the running maximum term
    magnitude along the path, and polishes on within ctrl.newton_budget
    steps in total.  A step whose run needs more than HALVE_AFTER steps
    to the tolerance is halved by inserting the parameter midpoint, down
    to ctrl.min_step.  Raises RamificationError when |dA/dl| at an
    accepted point falls below RAM_REL * scale, and NonConvergence when
    the step size underflows.  The path's diagnostics record the halvings,
    the smallest accepted step, the most Newton steps to a hit and the
    smallest |dA/dl| / scale over every segment.
    """
    Am = partial(A, "m")

    m0 = spec.segments[0].first
    l0 = _check_seed(A, spec.l_seed, m0)
    lo, hi = l_range(A)
    row0 = laurent_rows(A, [m0], lo, hi)[0].tolist()
    l0 = _newton(row0, lo, l0, np.inf, ctrl.newton_budget)[0]
    scale = max_term(A, l0, m0)

    n = max(1, int(np.ceil(1.0 / ctrl.max_step)))
    n_segs = len(spec.segments)
    t_parts: List[np.ndarray] = []
    m_all: List[complex] = []
    l_all: List[complex] = [l0]
    intervals: List[int] = []
    resid_max = 0.0
    diagnostics = LiftDiagnostics()
    for seg_idx, seg in enumerate(spec.segments):
        s, m_seg, l_seg, resid, scale, diag = _track_grid(A, Am, seg, n, l_all[-1],
                                                           scale, ctrl)
        resid_max = max(resid_max, resid)
        diagnostics = diagnostics.join(diag)
        intervals.append(len(s) - 1)
        # each later segment starts on the previous one's last sample
        first = 1 if seg_idx > 0 else 0
        t_parts.append((seg_idx + np.asarray(s[first:])) / n_segs)
        m_all += m_seg[first:]
        l_all += l_seg[1:]

    t = np.concatenate(t_parts)
    l = np.array(l_all, dtype=complex)
    m = np.array(m_all, dtype=complex)
    arg_m_zeroed = bool(abs(m[0] - 1.0) <= BASE_EPS)
    gap = float(abs(l[-1] - l[0])) if spec.closed else None
    return TrackedPath(
        t=t, l=l, m=m,
        log_l=_unwrapped_log(l), log_m=_unwrapped_log(m, arg_m_zeroed),
        residual_max=resid_max,
        closed=spec.closed,
        base_convention={"arg_m_zeroed": arg_m_zeroed},
        l_return_gap=gap,
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
    Al, Am = partial(A, "l"), partial(A, "m")
    All, Alm = partial(Al, "l"), partial(Al, "m")
    try:
        for _ in range(BRANCH_BUDGET):
            f, g = eval_poly(A, l, m), eval_poly(Al, l, m)
            fm, gl, gm = eval_poly(Am, l, m), eval_poly(All, l, m), eval_poly(Alm, l, m)
            det = g * gm - fm * gl
            if det == 0 or not np.isfinite(det):
                return None
            dl, dm = (f * gm - fm * g) / det, (g * g - gl * f) / det
            l, m = l - dl, m - dm
            if abs(dl) <= BRANCH_STEP_REL * abs(l) and abs(dm) <= BRANCH_STEP_REL * abs(m):
                break
        else:
            return None
        if abs(eval_poly(Am, l, m) * m) < SINGULAR_REL * max_term(A, l, m):
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
    Al = partial(A, "l")
    bounds = np.cumsum((0,) + path.segment_intervals)
    segs: List[Segment] = []
    toward: List[complex] = []
    for seg, lo, hi in zip(spec.segments, bounds[:-1], bounds[1:]):
        if isinstance(seg, GradedSeg):
            segs.append(seg)
            continue
        k = min(range(lo, hi + 1), key=lambda k: abs(eval_poly(Al, path.l[k], path.m[k]))
                / max_term(A, path.l[k], path.m[k]))
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


def reverse(path: TrackedPath) -> TrackedPath:
    """Orientation flip.  The unwrap is preserved, so the new base sample
    keeps the old endpoint's arg values (not re-normalized)."""
    conv = dict(path.base_convention)
    conv["reversed"] = not conv.get("reversed", False)
    return replace(
        path,
        t=1.0 - path.t[::-1],
        l=path.l[::-1].copy(),
        m=path.m[::-1].copy(),
        log_l=path.log_l[::-1].copy(),
        log_m=path.log_m[::-1].copy(),
        base_convention=conv,
        segment_intervals=path.segment_intervals[::-1],
        graded_toward=path.graded_toward[::-1],
    )


def concat(a: TrackedPath, b: TrackedPath) -> TrackedPath:
    """Join two tracked paths; b's args are re-based to continue a's unwrap."""
    if abs(a.l[-1] - b.l[0]) > CONCAT_TOL or abs(a.m[-1] - b.m[0]) > CONCAT_TOL:
        raise MismatchError("paths do not share an endpoint")

    def joined(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.concatenate((x, y[1:] + 1j * (x[-1].imag - y[0].imag)))

    na, nb = len(a.t), len(b.t)
    w = (na - 1) / (na - 1 + nb - 1) if (na - 1 + nb - 1) > 0 else 0.5
    t = np.concatenate((a.t * w, w + (1 - w) * b.t[1:]))
    l = np.concatenate((a.l, b.l[1:]))
    m = np.concatenate((a.m, b.m[1:]))
    closed = bool(abs(l[-1] - l[0]) <= MONODROMY_TOL and abs(m[-1] - m[0]) <= JOINT_TOL * 1e3)
    return TrackedPath(
        t=t, l=l, m=m,
        log_l=joined(a.log_l, b.log_l), log_m=joined(a.log_m, b.log_m),
        residual_max=max(a.residual_max, b.residual_max),
        closed=closed,
        base_convention=dict(a.base_convention),
        l_return_gap=float(abs(l[-1] - l[0])) if closed else None,
        segment_intervals=(a.segment_intervals + b.segment_intervals
                           if a.segment_intervals and b.segment_intervals else ()),
        uniform=a.uniform and b.uniform,
        graded_toward=a.graded_toward + b.graded_toward,
        diagnostics=a.diagnostics.join(b.diagnostics),
    )


def refine(ctrl: StepControls) -> StepControls:
    """Controls with the step halved; used by quadrature refinement."""
    return replace(ctrl, max_step=ctrl.max_step * 0.5)
