"""Line integrals of the curve's 1-forms over tracked paths.

A tracked path carries one log state: the complex arrays log_l and
log_m, each log|z| + i arg z with arg continuously unwrapped.  Every
integrand is assembled from that pair, so the integration-by-parts
identities relating the forms hold numerically instead of depending on
per-integral branch choices.

Forms and conventions (log branch 0 <= arg z < 2pi at the base point,
arg m(t0) = 0 at the geometric base point):

    eta = log|l| d(arg m) - log|m| d(arg l)          (exact on the curve)
    xi  = -(log|m| d log|l| + arg l d(arg m))
    Vol along a path = Vol_K - 2 int eta
    CS  along a path = CS_K + (1/pi^2) int xi
    U   = q int xi   for q the (estimated) order of the symbol {l, m}
    CS1 = (1/2 pi i)(int xi + i int eta)

    regulator r(f,g) = exp((1/2 pi i)(int log f dg/g - log g(t0) int df/f))
    with int df/f = 2 pi i (winding of f) on a closed loop.

    Kirk-Klassen ratio = exp(2 pi i int (alpha beta' - beta alpha') dt)
    with alpha = log m / (2 pi i), beta = log l / (2 pi i); the equal
    second expression exp((1/2 pi i) int (log m dlog l - log l dlog m))
    is the same trapezoid sum without the Richardson step, so their
    difference is |ratio| est_error / 3 to first order: a restatement of
    the quadrature estimate, not an independent check.

One quadrature rule serves every integral (_integrate): the composite
trapezoid over the tracker's samples in Stieltjes form
sum (u_k + u_{k+1})/2 (v_{k+1} - v_k), with one Richardson step against
the half-resolution mesh; est_error is the full/half difference.
track_refined re-lifts with a smaller step until the estimate meets a
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Tuple, Union

import numpy as np

from .curve_tracker import PathSpec, StepControls, TrackedPath, lift_path, refine
from .errors import NotClosed
from .poly_core import LaurentBiPoly

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class IntegralResult:
    value: Union[float, complex]
    est_error: float
    n_samples: int


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
    torus_class: float   # value / (2 pi)^2 mod 1


def trapezoid(u: np.ndarray, v: np.ndarray):
    """Stieltjes trapezoid sum (u_k + u_{k+1})/2 (v_{k+1} - v_k) for int u dv."""
    return np.sum((u[1:] + u[:-1]) * 0.5 * np.diff(v))


def _integrate(path: TrackedPath, rule: Callable) -> IntegralResult:
    """The one quadrature: rule(log_l, log_m) is a trapezoid sum over the
    samples it is given.  It runs on every sample and on every other one
    (the last sample always kept); the value takes one Richardson step
    from the pair and est_error is their difference."""
    n = path.n_samples
    half = np.unique(np.append(np.arange(0, n, 2), n - 1))
    full = rule(path.log_l, path.log_m)
    coarse = rule(path.log_l[half], path.log_m[half])
    value = (full + (full - coarse) / 3.0).item()
    return IntegralResult(value=value, est_error=float(abs(full - coarse)), n_samples=n)


def integrate_eta(path: TrackedPath) -> IntegralResult:
    """int (log|l| d arg m - log|m| d arg l); real."""
    return _integrate(path, lambda ll, lm: (trapezoid(ll.real, lm.imag)
                                            - trapezoid(lm.real, ll.imag)))


def integrate_xi(path: TrackedPath) -> IntegralResult:
    """int of -(log|m| d log|l| + arg l d arg m); real, branch-dependent."""
    return _integrate(path, lambda ll, lm: -(trapezoid(lm.real, ll.real)
                                             + trapezoid(ll.imag, lm.imag)))


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
    return SpecialCS(value=float(value), torus_class=float((value / TWO_PI ** 2) % 1.0))


def cs1_from(eta: float, xi: float) -> complex:
    """(1/2 pi i)(int xi + i int eta), from the values of both integrals."""
    return (xi + 1j * eta) / (2j * np.pi)


def vol_along(path: TrackedPath, vol_k: float) -> float:
    return vol_from(integrate_eta(path).value, vol_k)


def cs_along(path: TrackedPath, cs_k: float) -> float:
    return cs_from(integrate_xi(path).value, cs_k)


def special_cs_U(path: TrackedPath, q_order: int) -> SpecialCS:
    return special_cs_from(integrate_xi(path).value, q_order)


def cs1_along(path: TrackedPath) -> complex:
    return cs1_from(integrate_eta(path).value, integrate_xi(path).value)


Role = Union[str, Tuple[int, int]]
_ROLES = {"l": (1, 0), "m": (0, 1)}


def regulator_exponent(loop: TrackedPath, f_role: Role = "l", g_role: Role = "m"
                       ) -> IntegralResult:
    """(1/2 pi i)(int log f dg/g - log g(t0) int df/f) on a closed loop.

    A role is 'l', 'm' or an (a, b) pair naming the monomial l^a m^b,
    whose log is a log_l + b log_m.  int df/f is 2 pi i times the integer
    winding of f, read off the unwrapped args; log g(t0) is the base
    sample's unwrapped value.
    """
    if not loop.closed:
        raise NotClosed("regulator needs a closed loop")
    (fa, fb), (ga, gb) = (_ROLES.get(role, role) for role in (f_role, g_role))
    lam_f = fa * loop.log_l + fb * loop.log_m
    lam_g = ga * loop.log_l + gb * loop.log_m
    w_f = round(float((lam_f[-1] - lam_f[0]).imag) / TWO_PI)
    base = lam_g[0] * (2j * np.pi * w_f)
    return _integrate(loop, lambda ll, lm: (
        trapezoid(fa * ll + fb * lm, ga * ll + gb * lm) - base) / (2j * np.pi))


def regulator(loop: TrackedPath, f_role: Role = "l", g_role: Role = "m"
              ) -> RegulatorValue:
    exponent = regulator_exponent(loop, f_role, g_role)
    value = complex(np.exp(exponent.value))
    return RegulatorValue(value=value, modulus_defect=abs(abs(value) - 1.0))


def _kk_rule(ll: np.ndarray, lm: np.ndarray) -> complex:
    """(1/2 pi i) int (log m dlog l - log l dlog m), which is
    2 pi i int (alpha dbeta - beta dalpha) for alpha = log m / 2 pi i and
    beta = log l / 2 pi i."""
    return (trapezoid(lm, ll) - trapezoid(ll, lm)) / (2j * np.pi)


def kk_exponent(path: TrackedPath) -> IntegralResult:
    """2 pi i int (alpha beta' - beta alpha') dt from the log state."""
    return _integrate(path, _kk_rule)


def kirk_klassen(path: TrackedPath) -> KirkKlassen:
    """Holonomy ratio z(1) z(0)^{-1} along the path, both expressions.

    The returned value uses kk_exponent; expr_diff is the distance to the
    directly integrated (1/2 pi i) int (log m dlog l - log l dlog m) form.
    That form is kk_exponent's trapezoid sum without the Richardson step,
    so expr_diff = |value| est_error / 3 to first order.
    """
    e1 = kk_exponent(path).value
    e2 = _kk_rule(path.log_l, path.log_m)
    v1 = complex(np.exp(e1))
    v2 = complex(np.exp(e2))
    return KirkKlassen(value=v1, expr_diff=abs(v1 - v2), exponent=complex(e1))


_FORMS: Dict[str, Callable[[TrackedPath], IntegralResult]] = {
    "eta": integrate_eta,
    "xi": integrate_xi,
    "kk": kk_exponent,
}


def track_refined(A: LaurentBiPoly, spec: PathSpec, ctrl: StepControls = StepControls(),
                  forms: Iterable[str] = ("eta", "xi"), target: float = 1e-8,
                  max_halvings: int = 6):
    """Lift the route, halving max_step until every requested form's
    est_error is below target (or the halving budget runs out).

    Returns (path, {form: IntegralResult}, controls_used), where
    controls_used are the controls the returned path was lifted with.
    """
    forms = tuple(forms)
    unknown = [name for name in forms if name not in _FORMS]
    if unknown:
        raise ValueError("unknown form(s): %s" % ", ".join(unknown))
    current = ctrl
    for halving in range(max_halvings + 1):
        path = lift_path(A, spec, current)
        results = {name: _FORMS[name](path) for name in forms}
        if halving == max_halvings or all(r.est_error < target for r in results.values()):
            break
        current = refine(current)
    return path, results, current
