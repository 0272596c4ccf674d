"""Line integrals of the curve's 1-forms over tracked paths.

All integrands are assembled from the single unwrapped LogState of the
path, so the integration-by-parts identities relating the forms hold
numerically instead of depending on per-integral branch choices.

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

Quadrature is the composite trapezoid over the tracker's samples in
Stieltjes form sum (u_k + u_{k+1})/2 (v_{k+1} - v_k), with one Richardson
step against the half-resolution mesh; est_error is the full/half
difference.  track_refined re-lifts with a smaller step until the
estimate meets a target.
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


def _stieltjes(u: np.ndarray, v: np.ndarray):
    return np.sum((u[1:] + u[:-1]) * 0.5 * np.diff(v))


def _half_indices(n: int) -> np.ndarray:
    idx = np.arange(0, n, 2)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def _with_richardson(full, half, n) -> IntegralResult:
    est = abs(full - half)
    value = full + (full - half) / 3.0
    if isinstance(full, complex) and not isinstance(value, complex):
        value = complex(value)
    return IntegralResult(value=value, est_error=float(est), n_samples=n)


def _form_integral(path: TrackedPath, pairs) -> IntegralResult:
    """pairs: iterable of (coeff, u array, v array) meaning coeff * int u dv."""
    n = path.n_samples
    h = _half_indices(n)
    full = 0.0
    half = 0.0
    for coeff, u, v in pairs:
        full = full + coeff * _stieltjes(u, v)
        half = half + coeff * _stieltjes(u[h], v[h])
    return _with_richardson(full, half, n)


def integrate_eta(path: TrackedPath) -> IntegralResult:
    """int (log|l| d arg m - log|m| d arg l); real."""
    return _form_integral(path, [
        (1.0, path.log_abs_l, path.arg_m),
        (-1.0, path.log_abs_m, path.arg_l),
    ])


def integrate_xi(path: TrackedPath) -> IntegralResult:
    """int of -(log|m| d log|l| + arg l d arg m); real, branch-dependent."""
    return _form_integral(path, [
        (-1.0, path.log_abs_m, path.log_abs_l),
        (-1.0, path.arg_l, path.arg_m),
    ])


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


def _lambda_of(path: TrackedPath, role: Role) -> np.ndarray:
    """Unwrapped complex logarithm of l^a m^b along the path.

    role 'l' and 'm' name the coordinates; an (a, b) pair names the
    monomial, which is what the bilinearity checks feed in.
    """
    if role == "l":
        a, b = 1, 0
    elif role == "m":
        a, b = 0, 1
    else:
        a, b = role
    return (a * (path.log_abs_l + 1j * path.arg_l)
            + b * (path.log_abs_m + 1j * path.arg_m))


def regulator_exponent(loop: TrackedPath, f_role: Role = "l", g_role: Role = "m"
                       ) -> IntegralResult:
    """(1/2 pi i)(int log f dg/g - log g(t0) int df/f) on a closed loop.

    int df/f is 2 pi i times the integer winding of f, read off the
    unwrapped args; log g(t0) is the base sample's unwrapped value.
    """
    if not loop.closed:
        raise NotClosed("regulator needs a closed loop")
    lam_f = _lambda_of(loop, f_role)
    lam_g = _lambda_of(loop, g_role)
    w_f = round(float((lam_f[-1] - lam_f[0]).imag) / TWO_PI)
    n = loop.n_samples
    h = _half_indices(n)
    full = (_stieltjes(lam_f, lam_g) - lam_g[0] * (2j * np.pi * w_f)) / (2j * np.pi)
    half = (_stieltjes(lam_f[h], lam_g[h]) - lam_g[0] * (2j * np.pi * w_f)) / (2j * np.pi)
    return _with_richardson(complex(full), complex(half), n)


def regulator(loop: TrackedPath, f_role: Role = "l", g_role: Role = "m"
              ) -> RegulatorValue:
    exponent = regulator_exponent(loop, f_role, g_role)
    value = complex(np.exp(exponent.value))
    return RegulatorValue(value=value, modulus_defect=abs(abs(value) - 1.0))


def kk_exponent(path: TrackedPath) -> IntegralResult:
    """2 pi i int (alpha beta' - beta alpha') dt from the log state."""
    alpha = (path.log_abs_m + 1j * path.arg_m) / (2j * np.pi)
    beta = (path.log_abs_l + 1j * path.arg_l) / (2j * np.pi)
    n = path.n_samples
    h = _half_indices(n)
    full = 2j * np.pi * (_stieltjes(alpha, beta) - _stieltjes(beta, alpha))
    half = 2j * np.pi * (_stieltjes(alpha[h], beta[h]) - _stieltjes(beta[h], alpha[h]))
    return _with_richardson(complex(full), complex(half), n)


def kirk_klassen(path: TrackedPath) -> KirkKlassen:
    """Holonomy ratio z(1) z(0)^{-1} along the path, both expressions.

    The returned value uses the alpha/beta form; expr_diff is the
    distance to the directly integrated (1/2 pi i) int (log m dlog l -
    log l dlog m) form.  That form is the alpha/beta trapezoid sum without
    the Richardson step, so expr_diff = |value| est_error / 3 to first
    order, where est_error is kk_exponent's.
    """
    e1 = kk_exponent(path).value
    lam_l = path.log_abs_l + 1j * path.arg_l
    lam_m = path.log_abs_m + 1j * path.arg_m
    e2 = (_stieltjes(lam_m, lam_l) - _stieltjes(lam_l, lam_m)) / (2j * np.pi)
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
