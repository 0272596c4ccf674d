"""References the benchmark checks the program's outputs against.

Nothing here imports the package or its tests.  Each reference uses a
different method from the program:

* the figure-eight curve A(l, m) = m^4 l^2 - B(m) l + m^4 is quadratic in
  l, so its sheets come in closed form; line integrals along a route use
  that closed-form lift, the analytic derivative dl/dm = -A_m / A_l and
  composite Gauss-Legendre panels graded toward the curve's singular
  points (the program uses Newton tracking and a trapezoid rule);
* tame symbols on m + l - c and on the figure-eight curve at m = 0 are
  known in closed form;
* the Kashaev invariant is the positive product sum
  sum_j prod_{i<=j} |1 - q^i|^2, taken as one log-sum-exp in doubles;
* the Jones sum at a root of unity is evaluated in mpmath, cut off where
  a factor is exactly zero, decided in integers;
* 6 Lambda(pi/3) comes from mpmath's Clausen function;
* for probe, |dA/dl| equals |sqrt(disc(m))| on both sheets.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI2 = 4.0 * math.pi ** 2
BASE_EPS = 1e-4  # |m - 1| radius inside which arg m at the start is taken as 0

# disc(m) = B^2 - 4 m^8 = (m^8 - m^6 - 4 m^4 - m^2 + 1)(m^2 - 1)(m^6 - 1).
# Its zeros are the sixth roots of unity, +-i and +-phi^{+-1} (phi the
# golden ratio); l has a zero or pole only at m = 0.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
SINGULAR = np.array(
    [0j]
    + [complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    + [1j, -1j, _PHI, -_PHI, 1.0 / _PHI, -1.0 / _PHI]
)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
PANEL_FRACTION = 0.3   # panel length as a share of the distance to SINGULAR
PANEL_MAX = 0.02       # longest panel, in segment parameter


def fig8_b(m):
    x = m * m
    return (((x - 1.0) * x - 2.0) * x - 1.0) * x + 1.0


def fig8_db(m):
    x = m * m
    return m * (((8.0 * x - 6.0) * x - 8.0) * x - 2.0)


def fig8_disc(m):
    b = fig8_b(m)
    m4 = (m * m) ** 2
    return b * b - 4.0 * m4 * m4


def fig8_sheets(m):
    """(big, small) roots in l at m; big * small = 1, |big| >= 1."""
    m = np.asarray(m, dtype=complex)
    b = fig8_b(m)
    s = np.sqrt(fig8_disc(m))
    s = np.where((np.conj(b) * s).real < 0.0, -s, s)
    big = (b + s) / (2.0 * (m * m) ** 2)
    return big, 1.0 / big


def fig8_root(m: complex, sheet: str) -> complex:
    big, small = fig8_sheets(m)
    return complex(big if sheet == "big" else small)


def _principal(z: complex) -> float:
    a = math.atan2(z.imag, z.real)
    return a + TWO_PI if a < 0 else a


def _segment(seg: dict):
    """(point(s), derivative(s)) of a segment record in the CLI config form."""
    if seg["kind"] == "line":
        a = complex(*seg["m_start"])
        b = complex(*seg["m_end"])
        return (lambda s: a + s * (b - a)), (lambda s: (b - a) + 0.0 * s)
    c = complex(*seg["center"])
    r = float(seg["radius"])
    t0 = float(seg["angle_start"])
    dt = float(seg["angle_end"]) - t0
    return ((lambda s: c + r * np.exp(1j * (t0 + s * dt))),
            (lambda s: 1j * dt * r * np.exp(1j * (t0 + s * dt))))


def _panel_edges(point, speed: float) -> np.ndarray:
    # march in s so that each panel is a fixed share of the distance to the
    # nearest singular point; Gauss-Legendre on such panels converges
    # geometrically even where a route passes a branch point closely
    if speed == 0.0:
        return np.array([0.0, 1.0])
    edges = [0.0]
    s = 0.0
    while s < 1.0:
        dist = float(np.min(np.abs(point(s) - SINGULAR)))
        s = min(1.0, s + min(PANEL_MAX, PANEL_FRACTION * dist / speed))
        edges.append(s)
    return np.array(edges)


def route_nodes(segments):
    """Ordered nodes along the route: (m, dm/ds, weight) with the two end
    points included at weight 0, so the lift can be continued node by node."""
    ms, dms, ws = [], [], []
    for seg in segments:
        point, deriv = _segment(seg)
        speed = float(abs(deriv(0.0)))
        edges = _panel_edges(point, speed)
        lo, hi = edges[:-1, None], edges[1:, None]
        s = (0.5 * (hi - lo) * _GL_X[None, :] + 0.5 * (hi + lo)).ravel()
        w = (0.5 * (hi - lo) * _GL_W[None, :]).ravel()
        s = np.concatenate(([0.0], s, [1.0]))
        w = np.concatenate(([0.0], w, [0.0]))
        ms.append(point(s))
        dms.append(deriv(s))
        ws.append(w)
    return np.concatenate(ms), np.concatenate(dms), np.concatenate(ws)


def lift_closed_form(m: np.ndarray, l_seed: complex) -> np.ndarray:
    """Continue the sheet through l_seed along the ordered points m by
    picking, at each point, the closed-form root nearest the previous one."""
    big, small = fig8_sheets(m)
    out = np.empty(len(m), dtype=complex)
    prev = l_seed
    for k in range(len(m)):
        b, s = big[k], small[k]
        prev = b if abs(b - prev) <= abs(s - prev) else s
        out[k] = prev
    return out


def route_integrals(route: dict) -> dict:
    """eta, xi and the Kirk-Klassen exponent along a route on the
    figure-eight curve.

    route is a path record in the CLI config form: segments, l_seed
    ([re, im]) and closed.  Base conventions follow the package's
    documentation: arg l starts at its principal value in [0, 2pi); arg m
    starts at 0 within BASE_EPS of m = 1 and at its principal value
    otherwise.
    """
    m, dm, w = route_nodes(route["segments"])
    l = lift_closed_form(m, complex(*route["l_seed"]))
    m4 = (m * m) ** 2
    a_l = 2.0 * m4 * l - fig8_b(m)
    a_m = 4.0 * m * m * m * l * l - fig8_db(m) * l + 4.0 * m * m * m
    dl = -a_m / a_l * dm
    dlog_l = dl / l
    dlog_m = dm / m
    arg_l0 = _principal(complex(l[0]))
    arg_m0 = 0.0 if abs(m[0] - 1.0) <= BASE_EPS else _principal(complex(m[0]))
    arg_l = arg_l0 + np.concatenate(([0.0], np.cumsum(np.angle(l[1:] / l[:-1]))))
    arg_m = arg_m0 + np.concatenate(([0.0], np.cumsum(np.angle(m[1:] / m[:-1]))))
    log_abs_l = np.log(np.abs(l))
    log_abs_m = np.log(np.abs(m))
    eta = np.sum(w * (log_abs_l * dlog_m.imag - log_abs_m * dlog_l.imag))
    xi = -np.sum(w * (log_abs_m * dlog_l.real + arg_l * dlog_m.imag))
    lam_l = log_abs_l + 1j * arg_l
    lam_m = log_abs_m + 1j * arg_m
    kk = np.sum(w * (lam_m * dlog_l - lam_l * dlog_m)) / (2j * math.pi)
    ends = [(log_abs_l[k], arg_l[k], log_abs_m[k], arg_m[k]) for k in (0, -1)]
    return {"eta": float(eta), "xi": float(xi), "kk_exponent": complex(kk),
            "nodes": len(m), "ends": ends}


def tame_linear(c: float, at: str) -> complex:
    """Tame symbol {l, m} on m + l - c: 1/c at the zero of l (m = c) and c
    at m = 0."""
    return 1.0 / c if at == "l0" else complex(c)


FIG8_TAME_AT_M0 = 1.0  # lim l / m^4 on the small sheet is 1 / B(0) = 1


def vol_fig8() -> float:
    """6 Lambda(pi/3), with Lambda(theta) = Cl_2(2 theta) / 2."""
    import mpmath

    with mpmath.workdps(30):
        return float(3 * mpmath.clsin(2, 2 * mpmath.pi / 3))


def kashaev_log_abs(N: int) -> float:
    """log of sum_{j=0}^{N-1} prod_{i=1}^{j} |1 - e^{2 pi i i/N}|^2; every
    term is positive, so one max-shifted sum of exponentials is well
    conditioned."""
    i = np.arange(1, N, dtype=np.float64)
    logs = np.concatenate(([0.0], np.cumsum(np.log(4.0 * np.sin(np.pi * i / N) ** 2))))
    top = float(np.max(logs))
    return top + math.log(float(np.sum(np.exp(logs - top))))


def growth_fit(n_values, log_abs) -> float:
    """Slope on the volume scale of the least squares fit of log|J_N|
    against N, log N and 1, solved by the normal equations."""
    n = np.asarray(n_values, dtype=float)
    y = np.asarray(log_abs, dtype=float)
    design = np.column_stack([n, np.log(n), np.ones_like(n)])
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    return float(TWO_PI * coef[0])


def jones_root_of_unity(N: int, k: int):
    """Figure-eight J_N at q = e^{2 pi i / k} in mpmath: (log|J|, arg).

    The j-th factor -4 sin(pi (N - j)/k) sin(pi (N + j)/k) is exactly zero
    when k divides N - j or N + j; the sum stops before the first such j.
    """
    import mpmath

    stop = next((j for j in range(1, N) if (N - j) % k == 0 or (N + j) % k == 0), N)
    # working precision: enough digits for the largest partial product
    log10_top = 0.0
    acc = 0.0
    for j in range(1, stop):
        acc += math.log10(abs(4.0 * math.sin(math.pi * (N - j) / k)
                              * math.sin(math.pi * (N + j) / k)))
        log10_top = max(log10_top, acc)
    with mpmath.workdps(int(log10_top) + 40):
        pi = mpmath.pi
        total = mpmath.mpf(1)
        prod = mpmath.mpf(1)
        for j in range(1, stop):
            prod *= -4 * mpmath.sin(pi * (N - j) / k) * mpmath.sin(pi * (N + j) / k)
            total += prod
        return float(mpmath.log(abs(total))), (0.0 if total > 0 else math.pi)


def probe_grid(re_range, im_range, density: int):
    """The probe grid in the CLI's order (real part outer), without m = 0."""
    pts = [complex(re, im)
           for re in np.linspace(re_range[0], re_range[1], density)
           for im in np.linspace(im_range[0], im_range[1], density)]
    return np.array([m for m in pts if m != 0], dtype=complex)


def probe_values(m: np.ndarray) -> np.ndarray:
    """min over sheets of |dA/dl| = |2 m^4 l - B| = |sqrt(disc(m))|."""
    return np.sqrt(np.abs(fig8_disc(m)))
