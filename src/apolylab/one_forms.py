"""Line integrals of the curve's 1-forms over tracked paths.

A tracked path carries one log state: the complex arrays log_l and
log_m, each log|z| + i arg z with arg continuously unwrapped (arg l
starts in [0, 2pi), arg m at 0 at the geometric base point).  Write
log l = a + ib, log m = c + id and [x] for x at the end minus x at the
start.  The regulator's C*-valued 1-form is log l dlog m, and each form
is an affine map of its one integral t = int log l dlog m:

    xi  = -(int c da + int b dd)  = Re t - [c a]
    eta = int a dd - int c db     = Im t - [c b]     (exact on the curve)
    kk  = (1/2 pi i) int (log m dlog l - log l dlog m)
                                  = ([log l log m] - 2 t) / (2 pi i)
    regulator exponent of (f, g)  = (1/2 pi i)(int log f dlog g
                                    - log g(t0) 2 pi i w_f),
        w_f the winding of f on a closed loop, t taken of (log f, log g)

    Vol along a path = Vol_K - 2 int eta,   CS = CS_K + (1/pi^2) int xi,
    U = q int xi (q the order of {l, m}),   CS1 = (1/2 pi i)(int xi + i int eta)

The identities are summation by parts, which Stieltjes trapezoid sums
satisfy exactly on every mesh, T(u, v) + T(v, u) = [u v], as does every
Romberg combination of them.  kk is the Kirk-Klassen exponent
2 pi i int (alpha beta' - beta alpha') dt, alpha = log m / (2 pi i),
beta = log l / (2 pi i) (Kirk-Klassen, Math. Ann. 287, 1990);
kirk_klassen's second expression is the next-lower entry of the same
table, so expr_diff restates est_error rather than checking anything.

One quadrature serves every form.  _table gives the trapezoid sums
sum (u_k + u_{k+1})/2 (v_{k+1} - v_k) of int u dv on the full mesh and on
meshes keeping every 2nd, 4th and 8th sample of each segment (joints
kept, so no coarse interval spans one).  _romberg is cautious Romberg
(de Boor's CADRE) on a real or complex table: on a uniform lift with a
multiple of 8 intervals per segment whose trapezoid differences shrink
by 4 (the h^2 regime) it returns the Romberg diagonal; otherwise, as on
closed loops, where the trapezoid rule on a periodic integrand beats
every Romberg column, one Richardson step.  eta and xi are Im and Re of
one table but keep their own real ratio gates: a pre-asymptotic arc can
be in the h^2 regime for one and not the other.  track_refined builds
the table once per lift and halves the step until the forms meet a
target (quadrature_shortfall).  Near a branch point l behaves like
sqrt(m - m_b), which no equal-step grid in the route's own parameter
resolves; track_refined then grades the open route toward m_b
(curve_tracker.GradedSeg, a sinh substitution), on whose equal-step grid
the integrand is smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from .curve_tracker import (
    PathSpec,
    StepControls,
    TrackedPath,
    grade_toward_branch_points,
    lift_path,
    refine,
)
from .errors import NotClosed
from .poly_core import LaurentBiPoly

TWO_PI = 2.0 * np.pi
RHO_TOL = 0.05           # |rho - 4| gate on (T1 - T2) / (T0 - T1)
RHO_COARSE_TOL = 0.2     # |rho' - 4| gate on (T2 - T3) / (T1 - T2), one mesh coarser
ROUNDING = np.finfo(float).eps  # est_error floor per interval, relative to |T0|
MIN_INTERVALS = 16       # fewer intervals per segment never meet a target


@dataclass(frozen=True)
class IntegralResult:
    value: Union[float, complex]
    est_error: float
    n_samples: int
    certified: bool   # Romberg R3 (True) or one Richardson step (False)


@dataclass(frozen=True)
class RegulatorValue:
    value: complex
    modulus_defect: float


@dataclass(frozen=True)
class KirkKlassen:
    value: complex
    expr_diff: float     # |first expression - second expression|
    exponent: complex


@dataclass(frozen=True)
class SpecialCS:
    value: float
    torus_class: float   # value / (2 pi)^2 mod 1, the representative in [-1/2, 1/2]


def trapezoid(u: np.ndarray, v: np.ndarray):
    """Stieltjes trapezoid sum (u_k + u_{k+1})/2 (v_{k+1} - v_k) for int u dv."""
    return np.sum((u[1:] + u[:-1]) * 0.5 * np.diff(v))


def _coarse_indices(path: TrackedPath, stride: int) -> np.ndarray:
    """Every stride-th sample of each segment, counted from its start, plus
    every segment's last sample: the coarse mesh never spans a joint."""
    intervals = path.segment_intervals or (path.n_samples - 1,)
    bounds = np.cumsum((0,) + intervals)
    return np.concatenate([np.arange(a, b, stride) for a, b in zip(bounds[:-1], bounds[1:])]
                          + [bounds[-1:]])


def _table(path: TrackedPath, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Trapezoid sums of int u dv: T0 on all samples and T1, T2, T3 on the
    meshes _coarse_indices keeps at strides 2, 4, 8; T2 and T3 only on a
    uniform lift whose segments all have a multiple of 8 intervals, the
    one mesh where _romberg can use them."""
    romberg = path.uniform and all(k % 8 == 0 for k in path.segment_intervals)
    sums = [trapezoid(u, v)]
    for stride in (2, 4, 8) if romberg else (2,):
        idx = _coarse_indices(path, stride)
        sums.append(trapezoid(u[idx], v[idx]))
    return np.array(sums)


def _romberg(path: TrackedPath, t: np.ndarray):
    """The one quadrature, on a real or complex table t from _table (or an
    affine map of one).  Returns (value, lower, est_error, certified),
    where lower is the next-lower entry of the Romberg diagonal.

    Cautious Romberg (de Boor's CADRE): given T0..T3, the ratios
    rho = (T1 - T2)/(T0 - T1) and rho' = (T2 - T3)/(T1 - T2) test for the
    h^2 error regime.  When both are close to 4 the value is the Romberg
    diagonal R3 (lower R2) and est_error is |R1(h) - R1(2h)|, floored at
    the rounding level (n - 1) eps |T0|.  Otherwise the value is one
    Richardson step R1 = T0 + (T0 - T1)/3 (lower T0) and est_error is
    |T0 - T1|.
    """
    full, half = t[0], t[1]
    if len(t) == 4:
        d = (t[0] - t[1], t[1] - t[2], t[2] - t[3])
        if d[0] != 0 and d[1] != 0 and (abs(d[1] / d[0] - 4.0) < RHO_TOL
                                        and abs(d[2] / d[1] - 4.0) < RHO_COARSE_TOL):
            r1 = [ti + di / 3.0 for ti, di in zip(t, d)]
            r2 = [r1[k] + (r1[k] - r1[k + 1]) / 15.0 for k in (0, 1)]
            r3 = r2[0] + (r2[0] - r2[1]) / 63.0
            est = max(abs(r1[0] - r1[1]), (path.n_samples - 1) * ROUNDING * abs(full))
            return r3.item(), r2[0].item(), float(est), True
    value = full + (full - half) / 3.0
    return value.item(), full.item(), float(abs(full - half)), False


def _integrate(path: TrackedPath, t: np.ndarray) -> IntegralResult:
    value, _, est, certified = _romberg(path, t)
    return IntegralResult(value=value, est_error=est, n_samples=path.n_samples,
                          certified=certified)


def _jump(u: np.ndarray, v: np.ndarray):
    """[u v]: u v at the last sample minus u v at the first."""
    return u[-1] * v[-1] - u[0] * v[0]


# each form's table as an affine map of the table t of int log l dlog m
_FORMS: Dict[str, Callable[[TrackedPath, np.ndarray], np.ndarray]] = {
    "eta": lambda path, t: t.imag - _jump(path.log_m.real, path.log_l.imag),
    "xi": lambda path, t: t.real - _jump(path.log_m.real, path.log_l.real),
    "kk": lambda path, t: (_jump(path.log_l, path.log_m) - 2.0 * t) / (2j * np.pi),
}


def integrate_eta(path: TrackedPath) -> IntegralResult:
    """int (log|l| d arg m - log|m| d arg l); real."""
    return _integrate(path, _FORMS["eta"](path, _table(path, path.log_l, path.log_m)))


def integrate_xi(path: TrackedPath) -> IntegralResult:
    """int of -(log|m| d log|l| + arg l d arg m); real, branch-dependent."""
    return _integrate(path, _FORMS["xi"](path, _table(path, path.log_l, path.log_m)))


def vol_from(eta: float, vol_k: float) -> float:
    """Vol_K - 2 int eta, from the value of int eta."""
    return vol_k - 2.0 * eta


def cs_from(xi: float, cs_k: float) -> float:
    """CS_K + (1/pi^2) int xi, from the value of int xi."""
    return cs_k + xi / np.pi ** 2


def special_cs_from(xi: float, q_order: int) -> SpecialCS:
    """U = q int xi, from the value of int xi."""
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    value = q_order * xi
    # + 0.0: an exact integer class of negative U reads 0, not -0
    return SpecialCS(value=float(value),
                     torus_class=math.remainder(value / TWO_PI ** 2, 1.0) + 0.0)


def cs1_from(eta: float, xi: float) -> complex:
    """(1/2 pi i)(int xi + i int eta), from the values of both integrals."""
    return (xi + 1j * eta) / (2j * np.pi)


def vol_along(path: TrackedPath, vol_k: float) -> float:
    return vol_from(integrate_eta(path).value, vol_k)


def cs_along(path: TrackedPath, cs_k: float) -> float:
    return cs_from(integrate_xi(path).value, cs_k)


Role = Union[str, Tuple[int, int]]
_ROLES = {"l": (1, 0), "m": (0, 1)}


def regulator_exponent(loop: TrackedPath, f_role: Role = "l", g_role: Role = "m"
                       ) -> IntegralResult:
    """(1/2 pi i)(int log f dg/g - log g(t0) int df/f) on a closed loop.

    A role is 'l', 'm' or an (a, b) pair naming the monomial l^a m^b,
    whose log is a log_l + b log_m.  int df/f is 2 pi i times the integer
    winding of f, read off the unwrapped args; log g(t0) is the base
    sample's unwrapped value.  For (l, m), -Im / 2 pi of the exponent,
    -arg r / 2 pi, is (xi + 2 pi w_l arg m(t0)) / 4 pi^2.
    """
    if not loop.closed:
        raise NotClosed("regulator needs a closed loop")
    (fa, fb), (ga, gb) = (_ROLES.get(role, role) for role in (f_role, g_role))
    lam_f = fa * loop.log_l + fb * loop.log_m
    lam_g = ga * loop.log_l + gb * loop.log_m
    w_f = round(float((lam_f[-1] - lam_f[0]).imag) / TWO_PI)
    base = lam_g[0] * (2j * np.pi * w_f)
    return _integrate(loop, (_table(loop, lam_f, lam_g) - base) / (2j * np.pi))


def regulator(loop: TrackedPath, f_role: Role = "l", g_role: Role = "m"
              ) -> RegulatorValue:
    exponent = regulator_exponent(loop, f_role, g_role)
    value = complex(np.exp(exponent.value))
    return RegulatorValue(value=value, modulus_defect=abs(abs(value) - 1.0))


def kk_exponent(path: TrackedPath) -> IntegralResult:
    """2 pi i int (alpha beta' - beta alpha') dt from the log state."""
    return _integrate(path, _FORMS["kk"](path, _table(path, path.log_l, path.log_m)))


def kirk_klassen(path: TrackedPath) -> KirkKlassen:
    """Holonomy ratio z(1) z(0)^{-1} along the path, both expressions.

    The value uses kk_exponent; expr_diff is its distance to the
    next-lower entry of the same table (R2 under R3, T0 under one
    Richardson step), so it stays below |value| est_error (a third of it
    in the Richardson case, to first order).
    """
    e1, e2, _, _ = _romberg(path, _FORMS["kk"](path, _table(path, path.log_l, path.log_m)))
    v1 = complex(np.exp(e1))
    v2 = complex(np.exp(e2))
    return KirkKlassen(value=v1, expr_diff=abs(v1 - v2), exponent=complex(e1))


def quadrature_shortfall(path: TrackedPath, results: Dict[str, IntegralResult],
                         target: float) -> Optional[str]:
    """Why the forms' results on one lift miss target, or None when they
    meet it: every est_error below target, all forms on one rule (all
    certified or none) and at least MIN_INTERVALS intervals per segment.
    On fewer intervals the full and half meshes can agree exactly while
    both are wrong (est_error 0 on a 2-sample loop)."""
    missed = ["%s %.2g" % (name, r.est_error) for name, r in results.items()
              if not r.est_error < target]
    if missed:
        return "est_error %s misses target %.2g" % (", ".join(missed), target)
    fewest = min(path.segment_intervals, default=0)
    if fewest < MIN_INTERVALS:
        return ("est_error below target %.2g on %d intervals per segment, fewer than %d"
                % (target, fewest, MIN_INTERVALS))
    certified = [name for name, r in results.items() if r.certified]
    if certified and len(certified) < len(results):
        return ("est_error below target %.2g but Romberg certifies only %s"
                % (target, ", ".join(certified)))
    return None


def track_refined(A: LaurentBiPoly, spec: PathSpec, ctrl: StepControls = StepControls(),
                  forms: Iterable[str] = ("eta", "xi"), target: float = 1e-8,
                  max_halvings: int = 6):
    """Lift the route, halving max_step until the requested forms meet
    target (quadrature_shortfall is None) or the halving budget runs out.
    A mix of certified and uncertified forms keeps refining: it marks a
    mesh that is not yet in the h^2 regime everywhere, where the
    uncertified forms' Richardson values can still be off (a big-sheet
    arc at 401 samples reads eta 8e-13 off with est_error below 1e-9).

    An open route whose first lift halved a step is graded once
    (curve_tracker.grade_toward_branch_points): each segment passing a
    branch point within one grid step is traversed on a sinh mesh crowded
    toward it, lifted again at the same controls and refined as above.
    On the equal-step grid in the new parameter the square-root
    behaviour of l is smooth, so the lift keeps its grid and Romberg
    certifies it (a line 1e-5 from 1/phi: 1,601 or 3,201 samples, errors
    below 1e-13; on the line's own parameter six halvings, 6,401
    samples, leave it uncertified and 1e-7 off).  A route
    whose first lift is uniform, and every closed loop, keeps its own
    parameter.

    Returns (path, {form: IntegralResult}, controls_used), where
    controls_used are the controls the returned path was lifted with and
    path.graded_toward lists the branch points it was graded toward.
    """
    forms = tuple(forms)
    unknown = [name for name in forms if name not in _FORMS]
    if unknown:
        raise ValueError("unknown form(s): %s" % ", ".join(unknown))
    current = ctrl
    path = lift_path(A, spec, current)
    toward: Tuple[complex, ...] = ()
    if not spec.closed and not path.uniform:
        spec, toward = grade_toward_branch_points(A, spec, path, current.max_step)
        if toward:
            path = lift_path(A, spec, current)
    for halving in range(max_halvings + 1):
        if halving:
            path = lift_path(A, spec, current)
        t = _table(path, path.log_l, path.log_m)
        results = {name: _integrate(path, _FORMS[name](path, t)) for name in forms}
        if halving == max_halvings or quadrature_shortfall(path, results, target) is None:
            break
        current = refine(current)
    return replace(path, graded_toward=toward), results, current
