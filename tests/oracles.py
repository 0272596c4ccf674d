"""Independent reference implementations used by the test suite.

Everything here is deliberately written against different algorithms
than the package: the Jones polynomial comes from the Kauffman bracket
state sum over a planar diagram, the Lobachevsky value from composite
Simpson rather than the package's Gauss-Legendre rule, the colored Jones
from direct complex product accumulation (or mpmath at roots of unity)
rather than the signed log-sum evaluator, |dA/dl| of the figure-eight
from its discriminant rather than from root solves, the figure-eight
lift in closed form with Gauss-Legendre line integrals rather than
Newton tracking with the trapezoid rule, and A itself term by term from
its term map (eval_poly, max_term) rather than by Horner's rule on
coefficient rows.  Tests compare package output to these.  The scalar
root loop, the per-term Jones loop, the Newton march the lift used
before its root solves (run on the grid of the lift under test), the
four quadrature integrands (one trapezoid rule per form, before every
form was read off the one table of int log l dlog m), the probe's
row-by-row root solve and the cluster test on the full matrix of root
distances are the package's own earlier code, kept so that the faster
or smaller replacements can be checked against them.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from apolylab import curve_tracker, one_forms, poly_core
from apolylab.errors import (
    DegenerateError,
    DomainError,
    NonConvergence,
    RamificationError,
    SeedError,
)
from apolylab.poly_core import (
    LaurentBiPoly,
    horner_row_batch,
    l_range,
    laurent_rows,
    partial,
    roots_in_l,
    roots_in_l_batch,
)

# Planar diagram of the figure-eight knot, 4 crossings, writhe 0.
# Each crossing lists its four edge labels counterclockwise starting
# from the incoming under-strand.
FIG8_PD: Tuple[Tuple[int, int, int, int], ...] = (
    (4, 2, 5, 1),
    (8, 6, 1, 5),
    (6, 3, 7, 4),
    (2, 7, 3, 8),
)
FIG8_WRITHE = 0


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def n_classes(self):
        return len({self.find(x) for x in self.parent})


def kauffman_bracket(pd: Sequence[Tuple[int, int, int, int]], A: complex) -> complex:
    """Bracket polynomial evaluated at A by the 2^n state sum."""
    edges = sorted({e for x in pd for e in x})
    n = len(pd)
    delta = -(A * A) - 1.0 / (A * A)
    total = 0j
    for state in range(1 << n):
        uf = _UnionFind(edges)
        exponent = 0
        for c, (i, j, k, l) in enumerate(pd):
            if state & (1 << c):
                # B-smoothing
                uf.union(i, l)
                uf.union(j, k)
                exponent -= 1
            else:
                # A-smoothing
                uf.union(i, j)
                uf.union(k, l)
                exponent += 1
        loops = uf.n_classes()
        total += A ** exponent * delta ** (loops - 1)
    return total


def jones_poly_fig8(q: complex) -> complex:
    """V(4_1; q) from the Kauffman bracket, normalized to V(unknot)=1."""
    A = q ** (-0.25)
    bracket = kauffman_bracket(FIG8_PD, A)
    return (-(A ** 3)) ** (-FIG8_WRITHE) * bracket


def lobachevsky_quadrature(theta: float, n: int = 20001) -> float:
    """Lambda(theta) = -int_0^theta log|2 sin t| dt for 0 < theta < pi.

    The log(2t) part integrates in closed form; the smooth remainder
    log(sin t / t) goes through composite Simpson, not the package's
    Gauss-Legendre rule.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta out of range")
    if n % 2 == 0:
        n += 1
    t = np.linspace(0.0, theta, n)
    f = np.zeros(n)
    f[1:] = np.log(np.sin(t[1:]) / t[1:])
    h = theta / (n - 1)
    simpson = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    closed_form = theta * (math.log(2.0 * theta) - 1.0)
    return -(closed_form + simpson)


def colored_jones_fig8_direct(N: int, q: complex) -> complex:
    """Habiro sum with direct complex products; q^{1/2} = e^{i theta/2}
    for the theta in [0, 2pi) representative.  Usable up to N ~ 10^3
    before overflow."""
    theta = cmath.phase(q) % (2.0 * math.pi)
    sq = cmath.exp(0.5j * theta)

    def half_power(k: int) -> complex:
        # q^{k/2} for integer k
        return sq ** k

    total = 0j
    prod = 1.0 + 0j
    for j in range(N):
        total += prod
        k = j + 1
        prod *= (half_power(N - k) - half_power(-(N - k))) * (
            half_power(N + k) - half_power(-(N + k)))
    return total


def kashaev_fig8_brute(N: int) -> float:
    """<4_1>_N = sum_j prod_{k<=j} |1 - q^k|^2 at q = e^{2 pi i/N}."""
    q = cmath.exp(2j * math.pi / N)
    total = 0.0
    prod = 1.0
    for j in range(N):
        total += prod
        prod *= abs(1.0 - q ** (j + 1)) ** 2
    return total


def fd_partial(poly_eval, var: str, l: complex, m: complex,
               h: float = 1e-6) -> complex:
    """Central-difference partial of a callable p(l, m)."""
    if var == "l":
        step = h * max(1.0, abs(l))
        return (poly_eval(l + step, m) - poly_eval(l - step, m)) / (2 * step)
    step = h * max(1.0, abs(m))
    return (poly_eval(l, m + step) - poly_eval(l, m - step)) / (2 * step)


def poly_from_roots(lead: complex, roots: Sequence[complex]) -> np.ndarray:
    """Coefficient vector (ascending powers) of lead * prod (x - r)."""
    coeffs = np.array([lead], dtype=complex)
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0], dtype=complex))
    return coeffs


def colored_jones_fig8_mp(N: int, p: int, k: int) -> Tuple[float, float]:
    """J_N at q = e^{2 pi i p/k} in mpmath: (log|J|, arg), arg in {0, pi}.

    The j-th factor is -4 sinpi((N - j) p/k) sinpi((N + j) p/k); mpmath's
    sinpi is exactly 0 at integers, so the factor that vanishes in exact
    arithmetic vanishes here too and ends the sum.  The sum is taken at
    40 digits first.  Where it cancels more than 10 digits, max |term| /
    |sum| > 10^10, it is taken again at a working precision that covers
    the largest partial product, bounded in floats first.
    """
    import mpmath

    def summed(dps):
        with mpmath.workdps(dps):
            total = top = prod = mpmath.mpf(1)
            for j in range(1, N):
                prod *= -4 * mpmath.sinpi(mpmath.mpf((N - j) * p) / k) \
                    * mpmath.sinpi(mpmath.mpf((N + j) * p) / k)
                if prod == 0:
                    break
                total += prod
                top = max(top, abs(prod))
            return total, top

    total, top = summed(40)
    if total == 0 or top > 1e10 * abs(total):
        log10_top, acc = 0.0, 0.0
        for j in range(1, N):
            f = abs(4.0 * math.sin(math.pi * (N - j) * p / k)
                    * math.sin(math.pi * (N + j) * p / k))
            acc += math.log10(max(f, 1e-300))
            log10_top = max(log10_top, acc)
        total, _ = summed(int(log10_top) + 40)
    return float(mpmath.log(abs(total))), (0.0 if total > 0 else math.pi)


def colored_jones_fig8_mp_theta(N: int, theta: float, dps: int = 40) -> float:
    """log|J_N| at q = e^{i theta} for a theta that is not a rational
    multiple of pi, summed in mpmath at dps digits from the float theta
    taken as exact; dps has to exceed the digits the sum cancels."""
    import mpmath

    with mpmath.workdps(dps):
        t = mpmath.mpf(theta)
        total = mpmath.mpf(1)
        prod = mpmath.mpf(1)
        for j in range(1, N):
            prod *= -4 * mpmath.sin((N - j) * t / 2) * mpmath.sin((N + j) * t / 2)
            total += prod
        return float(mpmath.log(abs(total)))


def fig8_min_abs_dadl(m: complex) -> float:
    """min over sheets of |dA/dl| for A = m^4 l^2 - B(m) l + m^4: at a
    root l, dA/dl = 2 m^4 l - B = +-sqrt(B^2 - 4 m^8), the same modulus on
    both sheets."""
    b = m ** 8 - m ** 6 - 2 * m ** 4 - m ** 2 + 1
    return math.sqrt(abs(b * b - 4 * m ** 8))


def eval_poly(p: LaurentBiPoly, l: complex, m: complex) -> complex:
    """Value of p at (l, m) term by term from the term map, exact
    coefficients converted last: the reference for the package's row
    evaluators."""
    value = 0j
    for (i, j), c in p.terms.items():
        if (i < 0 and l == 0) or (j < 0 and m == 0):
            raise DomainError("negative exponent at zero argument")
        value += float(c) * l ** i * m ** j
    return value


def max_term(p: LaurentBiPoly, l: complex, m: complex) -> float:
    """Largest term magnitude |c| |l|^i |m|^j at the point, term by term:
    the reference for poly_core.row_max_term_batch."""
    best = 0.0
    al, am = abs(l), abs(m)
    for (i, j), c in p.terms.items():
        if (i < 0 and al == 0) or (j < 0 and am == 0):
            raise DomainError("negative exponent at zero argument")
        best = max(best, abs(float(c)) * al ** i * am ** j)
    return best


def probe_by_rows(knot, re_range, im_range, density: int, threshold: float):
    """cli_app.probe_branch_points as it was before it solved blocks of
    rows: one roots_in_l_batch call per grid row (fixed Re m), |dA/dl|
    read off A's coefficient rows built afresh (poly_core.laurent_rows),
    not off the rows the solve returns."""
    lo, hi = l_range(knot.a_poly)
    hits: List[Tuple[complex, float]] = []
    closest = None
    m = np.empty(density, dtype=complex)
    m.imag = np.linspace(im_range[0], im_range[1], density)
    for re in np.linspace(re_range[0], re_range[1], density):
        m.real = re
        roots, status, _ = roots_in_l_batch(knot.a_poly, m)
        solved = status == 0
        if roots.shape[1] == 0 or not solved.any():
            continue
        ms, roots = m[solved], roots[solved]
        with np.errstate(divide="ignore", invalid="ignore"):
            dadl = np.abs(horner_row_batch(laurent_rows(knot.a_poly, ms, lo, hi), lo, roots)[1])
        # l = 0 is off the curve when A has negative powers of l: never a hit
        vals = np.where(np.isnan(dadl), np.inf, dadl).min(axis=1)
        below = vals < threshold
        hits.extend(zip(ms[below].tolist(), vals[below].tolist()))
        k = int(np.argmin(vals))
        if closest is None or vals[k] < closest[1]:
            closest = (complex(ms[k]), float(vals[k]))
    return hits, closest


def roots_scalar_loop(coeffs: np.ndarray, max_iter: int = 512) -> List[complex]:
    """Roots of one coefficient vector (ascending powers) by the scalar
    loop the package used before its companion-matrix solver:
    Fujiwara-scaled start, simultaneous iteration to a 1e-10 relative
    residual, Newton polish, real snap, centroid clustering within 1e-7.
    Raises ArithmeticError where that loop failed; [] when there is no
    root."""
    d = len(coeffs) - 1
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0 or abs(coeffs[d]) <= 1e-12 * scale:
        raise ArithmeticError("degenerate coefficient vector")
    if d == 0:
        return []
    lead = abs(coeffs[d])
    radius = 2.0 * max(((abs(coeffs[d - k]) / (2.0 if k == d else 1.0)) / lead)
                       ** (1.0 / k) for k in range(1, d + 1))
    z = radius * np.exp(1j * (2 * np.pi * np.arange(d) / d + 0.4))
    powers = np.arange(d + 1)

    def val(zz):
        return np.polyval(coeffs[::-1], zz)

    def small(zz):
        scale_z = np.max(np.abs(coeffs)[None, :] * np.abs(zz)[:, None] ** powers, axis=1)
        return np.all(np.abs(val(zz)) <= 1e-10 * scale_z)

    for _ in range(max_iter):
        if small(z):
            break
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        z = z - val(z) / (coeffs[d] * np.prod(diff, axis=1))
    else:
        if not small(z):
            raise ArithmeticError("no convergence")
    dcoeffs = coeffs[1:] * np.arange(1, d + 1)
    for _ in range(8):
        pv = val(z)
        dv = np.polyval(dcoeffs[::-1], z)
        z_new = z - np.where(dv != 0, pv / np.where(dv != 0, dv, 1), 0)
        better = np.abs(val(z_new)) < np.abs(pv)
        z = np.where(better, z_new, z)
        if not np.any(better):
            break
    if np.all(coeffs.imag == 0.0):
        z = np.where(np.abs(z.imag) <= 1e-12 * (1.0 + np.abs(z)), z.real + 0j, z)
    clusters: List[List[complex]] = []
    for root in sorted(z, key=lambda r: (r.real, r.imag)):
        for cl in clusters:
            if abs(root - np.mean(cl)) < 1e-7:
                cl.append(root)
                break
        else:
            clusters.append([root])
    out = [complex(np.mean(cl)) for cl in clusters for _ in cl]
    return sorted(out, key=lambda r: (r.real, r.imag))


def sort_and_cluster_full_matrix(z: np.ndarray) -> np.ndarray:
    """poly_core._sort_and_cluster as it was before it took only the root
    pairs i < j: the cluster test reads the n x d x d matrix of distances
    |z_i - z_j| with its diagonal set to inf."""
    n, d = z.shape
    z = z[np.arange(n)[:, None], np.lexsort((z.imag, z.real))]
    gap = np.abs(z[:, :, None] - z[:, None, :]).reshape(n, d * d)
    gap[:, ::d + 1] = np.inf
    for b in np.flatnonzero(gap.min(axis=1) < poly_core.CLUSTER_RADIUS):
        z[b] = poly_core._cluster(z[b])
    return z


def jones_sum_scalar_loop(N: int, theta: float, stop: int) -> Tuple[float, float]:
    """Figure-eight colored Jones sum at q = e^{i theta} over the terms
    j < stop, by the per-term loop the package's chunked numpy kernel
    replaced: one log-scale signed log-sum-exp step per term, the same
    factor -4 sin((N-j)theta/2) sin((N+j)theta/2), a stop at a factor that
    is exactly 0.0.  Returns (log|J|, arg), arg in {0, pi}."""
    lp = 0.0
    sp = 1.0
    ls = 0.0
    ss = 1.0
    for j in range(1, stop):
        x = 0.5 * (N - j) * theta
        y = 0.5 * (N + j) * theta
        pair = -4.0 * math.sin(x) * math.sin(y)
        if pair == 0.0:
            break
        lp = lp + math.log(abs(pair))
        if pair < 0.0:
            sp = -sp
        hi = ls if ls > lp else lp
        v = ss * math.exp(ls - hi) + sp * math.exp(lp - hi)
        if v == 0.0:
            ls = -math.inf
            ss = 1.0
        else:
            ls = hi + math.log(abs(v))
            ss = 1.0 if v > 0.0 else -1.0
    if ss > 0.0:
        return ls, 0.0
    return ls, math.pi


def kashaev_log_sum_exp(N: int) -> float:
    """log <4_1>_N = log sum_j prod_{i<=j} |1 - e^{2 pi i i/N}|^2.  Every
    term is positive, so the log of each partial product, from
    |1 - e^{i t}| = 2 sin(t/2), and one correctly rounded sum of the
    max-shifted exponentials (math.fsum) give the value without
    cancellation at any N.  Each log of a partial product is the
    correctly rounded sum of the logs of its factors: the running total
    is kept exact as a pair of doubles, hi + lo, each new total rounded
    by math.fsum, so no rounding accumulates along the N - 1 steps."""
    i = np.arange(1, N, dtype=np.float64)
    steps = 2.0 * np.log(2.0 * np.sin(np.pi * i / N))
    logs = np.empty(N)
    logs[0] = hi = lo = 0.0
    fsum = math.fsum
    for j, step in enumerate(steps.tolist(), 1):
        total = fsum((hi, lo, step))
        hi, lo = total, fsum((hi, lo, step, -total))
        logs[j] = total
    top = float(np.max(logs))
    return top + math.log(math.fsum(np.exp(logs - top)))


def _fig8_b(m: np.ndarray) -> np.ndarray:
    """B(m) = m^8 - m^6 - 2 m^4 - m^2 + 1."""
    m2 = m * m
    return (((m2 - 1.0) * m2 - 2.0) * m2 - 1.0) * m2 + 1.0


def fig8_sheets(m: np.ndarray):
    """Both roots l of the figure-eight A-polynomial
    m^4 l^2 - B(m) l + m^4 at each m, in closed form.

    The root product is 1, so the small root is taken as the reciprocal
    of the big one instead of from the cancelling difference.
    """
    m4 = (m * m) ** 2
    b = _fig8_b(m)
    root = np.sqrt(b * b - 4.0 * m4 * m4)
    big = np.where(np.abs(b + root) >= np.abs(b - root), b + root, b - root) / (2.0 * m4)
    return big, 1.0 / big


def _unwrapped_log(z: np.ndarray, arg0: float) -> np.ndarray:
    arg = arg0 + np.concatenate(([0.0], np.cumsum(np.angle(z[1:] / z[:-1]))))
    return np.log(np.abs(z)) + 1j * arg


# branch points of the figure-eight's projection to m: the simple zeros
# +-phi^{+-1}, e^{+-i pi/3}, e^{+-2 i pi/3} of its discriminant
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
FIG8_BRANCH_POINTS = np.array([_PHI, -_PHI, 1.0 / _PHI, -1.0 / _PHI]
                              + [cmath.exp(1j * math.pi * k / 3.0) for k in (1, 2, 4, 5)])
PANEL_FRACTION = 0.3     # panel length as a share of the distance to a branch point
PANEL_MAX = 1.0 / 64.0   # longest panel, in segment parameter


def _segment_nodes(seg, x: np.ndarray, w: np.ndarray):
    """(m, dm/ds, weight) at the Gauss-Legendre nodes of geometrically
    graded panels along one segment, with its two ends at weight 0.

    Each panel is PANEL_FRACTION of the distance from its start to the
    nearest branch point (at most PANEL_MAX), so the panels shrink
    geometrically toward a branch point the route passes closely."""
    if isinstance(seg, curve_tracker.ArcSeg):
        span = seg.angle_end - seg.angle_start
        point = lambda s: seg.center + seg.radius * np.exp(1j * (seg.angle_start + s * span))
        deriv = lambda s: 1j * span * (point(s) - seg.center)
        speed = abs(span) * seg.radius
    else:
        point = lambda s: seg.m_start + s * (seg.m_end - seg.m_start)
        deriv = lambda s: np.full(np.shape(s), seg.m_end - seg.m_start)
        speed = abs(seg.m_end - seg.m_start)
    edges = [0.0]
    while edges[-1] < 1.0:
        dist = float(np.min(np.abs(point(edges[-1]) - FIG8_BRANCH_POINTS)))
        edges.append(min(1.0, edges[-1] + min(PANEL_MAX, PANEL_FRACTION * dist / speed)))
    edges = np.array(edges)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    s = np.concatenate(([0.0], (mid + half * x).ravel(), [1.0]))
    wts = np.concatenate(([0.0], (half * w).ravel(), [0.0]))
    return point(s), deriv(s), wts


def fig8_route_integrals(segments: Sequence, l_seed: complex,
                         order: int = 16) -> Dict[str, complex]:
    """eta, xi and the Kirk-Klassen exponent along a chain of
    curve_tracker.ArcSeg / LineSeg segments on the figure-eight curve,
    from the closed-form lift.

    The sheet through l_seed is followed node by node (the closed-form
    root nearest the previous one), dl/dm = -A_m / A_l is evaluated
    exactly, and each segment's parameter is integrated with composite
    Gauss-Legendre (order nodes a panel) on panels graded geometrically
    toward the nearest branch point, so a route may pass one closely
    (1e-5 away) but not through it.  The grading is a fixed share of the
    distance, unlike the package's sinh mesh.  Base conventions are the
    package's: args start at their principal value in [0, 2pi), arg m at 0
    within 1e-4 of m = 1.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    ms, dms, wts = zip(*(_segment_nodes(seg, x, w) for seg in segments))
    m = np.concatenate(ms)
    dm = np.concatenate(dms)
    wts = np.concatenate(wts)

    big, small = fig8_sheets(m)
    l = np.empty_like(m)
    prev = l_seed
    for k in range(len(m)):
        prev = big[k] if abs(big[k] - prev) <= abs(small[k] - prev) else small[k]
        l[k] = prev

    m3 = m * m * m
    db = ((8.0 * m * m - 6.0) * m * m - 8.0) * m3 - 2.0 * m  # B'(m)
    a_l = 2.0 * m3 * m * l - _fig8_b(m)
    a_m = 4.0 * m3 * l * l - db * l + 4.0 * m3
    dlog_l = -a_m / a_l * dm / l
    dlog_m = dm / m

    two_pi = 2.0 * math.pi
    log_l = _unwrapped_log(l, cmath.phase(l[0]) % two_pi)
    log_m = _unwrapped_log(m, 0.0 if abs(m[0] - 1.0) <= 1e-4 else cmath.phase(m[0]) % two_pi)
    eta = np.sum(wts * (log_l.real * dlog_m.imag - log_m.real * dlog_l.imag))
    xi = -np.sum(wts * (log_m.real * dlog_l.real + log_l.imag * dlog_m.imag))
    kk = np.sum(wts * (log_m * dlog_l - log_l * dlog_m)) / (2j * math.pi)
    return {"eta": float(eta), "xi": float(xi), "kk": complex(kk)}


def fig8_arc_integrals(center: complex, radius: float, angle_start: float,
                       angle_end: float, l_seed: complex,
                       order: int = 16) -> Dict[str, complex]:
    """fig8_route_integrals along the one arc of the given circle."""
    arc = curve_tracker.ArcSeg(center, radius, angle_start, angle_end)
    return fig8_route_integrals((arc,), l_seed, order)


SEED_SEPARATION = 1e-8   # min distance of the seed root from the other roots


def _check_seed_reference(A, l_seed, m0):
    """The reference seed step: validate the branch seed and snap it to the
    nearest root that roots_in_l gives at m0."""
    if not np.isfinite(l_seed):
        raise SeedError("seed %s is not a finite number" % l_seed)
    scale = max_term(A, l_seed, m0)
    if abs(eval_poly(A, l_seed, m0)) > curve_tracker.DEFAULT_SEED_TOL * scale:
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
        raise SeedError("seed root is not separated from the other sheets")
    return roots[nearest]


NEWTON_BUDGET = 20  # Newton steps of one reference step, polish included


def _newton_polish_reference(A, Al, l, m, r, budget):
    """Newton in l at fixed m while the residual strictly drops."""
    for _ in range(budget):
        d = eval_poly(Al, l, m)
        if d == 0:
            break
        l_try = l - r / d
        r_try = eval_poly(A, l_try, m)
        if abs(r_try) < abs(r):
            l, r = l_try, r_try
        else:
            break
    return l, r


def _correct_reference(A, Al, Am, l, m0, m1, tol):
    """Tangent predictor from (l, m0) to m1, Newton to the tolerance hit
    (None when NEWTON_BUDGET steps miss it), then the polish with the
    rest of the budget."""
    dal = eval_poly(Al, l, m0)
    if dal == 0:
        return None
    l1 = l - eval_poly(Am, l, m0) / dal * (m1 - m0)
    r = eval_poly(A, l1, m1)
    iters = 0
    while not abs(r) <= tol:
        if iters == NEWTON_BUDGET:
            return None
        d = eval_poly(Al, l1, m1)
        if d == 0:
            return None
        l1 = l1 - r / d
        r = eval_poly(A, l1, m1)
        iters += 1
    return _newton_polish_reference(A, Al, l1, m1, r, NEWTON_BUDGET - iters)


def lift_reference(A, l_seed, m):
    """The lift of l_seed along the samples m (the grid of the lift under
    test) by the package's earlier Newton march: the seed snapped to the
    nearest root and polished, then a tangent prediction and Newton to
    RESID_REL of the running term scale at each sample, on the term map.
    Returns (l, residual_max); raises NonConvergence where Newton misses
    the tolerance and RamificationError where |dA/dl| fails RAM_REL."""
    Al, Am = partial(A, "l"), partial(A, "m")
    m = [complex(x) for x in m]
    l = _check_seed_reference(A, l_seed, m[0])
    l, r = _newton_polish_reference(A, Al, l, m[0], eval_poly(A, l, m[0]), NEWTON_BUDGET)
    scale, resid_max, ls = max_term(A, l, m[0]), abs(r), [l]
    for m0, m1 in zip(m, m[1:]):
        step = _correct_reference(A, Al, Am, l, m0, m1, curve_tracker.RESID_REL * scale)
        if step is None:
            raise NonConvergence("reference Newton missed the tolerance at m = %s" % m1)
        l, r = step
        scale = max(scale, max_term(A, l, m1))
        if abs(eval_poly(Al, l, m1)) < curve_tracker.RAM_REL * scale:
            raise RamificationError(
                "lift ran into a branch point near m = %s" % m1, m=m1, l=l)
        resid_max = max(resid_max, abs(r))
        ls.append(l)
    return np.array(ls, dtype=complex), resid_max


# ---------------------------------------------------------------- quadrature
# One trapezoid rule per form, each called on (log_l, log_m) of the full
# mesh and of every coarse mesh, and the Romberg driver and refinement
# loop that took them.

def _trapezoid(u: np.ndarray, v: np.ndarray):
    return np.sum((u[1:] + u[:-1]) * 0.5 * np.diff(v))


def eta_rule(ll: np.ndarray, lm: np.ndarray) -> float:
    """int (log|l| d arg m - log|m| d arg l)."""
    return _trapezoid(ll.real, lm.imag) - _trapezoid(lm.real, ll.imag)


def xi_rule(ll: np.ndarray, lm: np.ndarray) -> float:
    """-int (log|m| d log|l| + arg l d arg m)."""
    return -(_trapezoid(lm.real, ll.real) + _trapezoid(ll.imag, lm.imag))


def kk_rule(ll: np.ndarray, lm: np.ndarray) -> complex:
    """(1/2 pi i) int (log m dlog l - log l dlog m)."""
    return (_trapezoid(lm, ll) - _trapezoid(ll, lm)) / (2j * math.pi)


def regulator_rule(loop, f=(1, 0), g=(0, 1)):
    """The rule of (1/2 pi i)(int log f dlog g - log g(t0) 2 pi i w_f) on a
    closed loop, for the monomials f = l^f[0] m^f[1] and g likewise."""
    (fa, fb), (ga, gb) = f, g
    lam_f = fa * loop.log_l + fb * loop.log_m
    w_f = round(float((lam_f[-1] - lam_f[0]).imag) / (2.0 * math.pi))
    base = (ga * loop.log_l[0] + gb * loop.log_m[0]) * (2j * math.pi * w_f)
    return lambda ll, lm: (_trapezoid(fa * ll + fb * lm, ga * ll + gb * lm)
                           - base) / (2j * math.pi)


FORM_RULES = {"eta": eta_rule, "xi": xi_rule, "kk": kk_rule}


def rounding_floor_reference(path, rule) -> float:
    """(n - 1) eps |T0|, the floor of every est_error of rule on path."""
    return float((path.n_samples - 1) * one_forms.ROUNDING * abs(rule(path.log_l, path.log_m)))


def romberg_reference(path, rule):
    """(value, lower, est_error, certified) of rule by the cautious Romberg
    driver that called it on each mesh; same gates and constants as
    one_forms._romberg.  The stride-16 sum, there only when 16 divides
    every segment's intervals, gates the sharp estimate |R2(h) - R2(2h)|;
    without it, or when its ratio misses 4, the estimate is
    |R1(h) - R1(2h)|.  The one-step estimate |T0 - T1| is floored at the
    same rounding level (n - 1) eps |T0| as both of those."""
    full = rule(path.log_l, path.log_m)
    floor = rounding_floor_reference(path, rule)

    def coarse(stride):
        idx = one_forms._coarse_indices(path, stride)
        return rule(path.log_l[idx], path.log_m[idx])

    half = coarse(2)
    if path.uniform and all(k % 8 == 0 for k in path.segment_intervals):
        t = (full, half, coarse(4), coarse(8))
        d = (t[0] - t[1], t[1] - t[2], t[2] - t[3])
        if d[0] != 0 and d[1] != 0 and (abs(d[1] / d[0] - 4.0) < one_forms.RHO_TOL
                                        and abs(d[2] / d[1] - 4.0) < one_forms.RHO_COARSE_TOL):
            r1 = [ti + di / 3.0 for ti, di in zip(t, d)]
            r2 = [r1[k] + (r1[k] - r1[k + 1]) / 15.0 for k in (0, 1)]
            r3 = r2[0] + (r2[0] - r2[1]) / 63.0
            spread = abs(r1[0] - r1[1])
            if all(k % 16 == 0 for k in path.segment_intervals):
                d4 = t[3] - coarse(16)
                if abs(d4 / d[2] - 4.0) < one_forms.RHO_COARSE_TOL:
                    spread = abs(r2[0] - r2[1])
            return r3.item(), r2[0].item(), max(float(spread), floor), True
    value = full + (full - half) / 3.0
    return value.item(), full.item(), max(float(abs(full - half)), floor), False


def integrate_reference(path, rule) -> one_forms.IntegralResult:
    value, _, est, certified = romberg_reference(path, rule)
    return one_forms.IntegralResult(value=value, est_error=est, n_samples=path.n_samples,
                                    certified=certified)


def track_refined_reference(A, spec, ctrl, forms=("eta", "xi"), target=1e-8,
                            max_halvings=6):
    """one_forms.track_refined's refinement loop on FORM_RULES: returns
    (path, {form: IntegralResult}).  It also stops where every form that
    misses target reads est_error at its rounding floor (n - 1) eps |T0|,
    on at least MIN_INTERVALS intervals per segment."""
    path = curve_tracker.lift_path(A, spec, ctrl)
    if not spec.closed and not path.uniform:
        spec, toward = curve_tracker.grade_toward_branch_points(A, spec, path, ctrl.max_step)
        if toward:
            path = curve_tracker.lift_path(A, spec, ctrl)
    for halving in range(max_halvings + 1):
        if halving:
            path = curve_tracker.lift_path(A, spec, ctrl)
        results = {name: integrate_reference(path, FORM_RULES[name]) for name in forms}
        missed = [name for name, r in results.items() if not r.est_error < target]
        floored = missed and min(path.segment_intervals) >= one_forms.MIN_INTERVALS and all(
            results[name].est_error == rounding_floor_reference(path, FORM_RULES[name])
            for name in missed)
        if (halving == max_halvings or floored
                or one_forms.quadrature_shortfall(path, results, target) is None):
            break
        ctrl = curve_tracker.refine(ctrl)
    return path, results
