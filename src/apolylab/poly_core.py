"""Bivariate Laurent polynomials with exact coefficients.

A polynomial in the variables l and m is stored as a map from exponent
pairs ``(i, j)`` to nonzero coefficients, where ``i`` is the l-exponent
and ``j`` the m-exponent.  Exponents may be negative.  Coefficients are
exact integers (or :class:`fractions.Fraction`); nothing is rounded
until :func:`laurent_rows` converts to floating point.  The zero polynomial
is the empty map.

Text input follows the grammar

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | VAR | VAR '^' SINT | '(' expr ')'
    VAR    := 'l' | 'm'
    SINT   := '-'? INT

with whitespace ignored and no implicit multiplication.  There is no
unary minus, so the canonical printer emits a leading negative term as
``0 - ...``.

A is turned into numbers through one layout only.  :func:`laurent_rows`
takes a 1-D array of m to one coefficient row per m, index k holding the
coefficient of l^(lo + k), denominators kept, with (lo, hi) =
:func:`l_range`; :func:`term_maxima` holds each l-power's largest term
magnitude in the same layout.  :func:`horner_row_batch` and
:func:`row_max_term_batch` read such rows at arrays of l (the value,
dA/dl and the term scale at which tolerances are set); they are the only
readers of A at a point, and the l^lo shift is applied by them alone.
:func:`roots_in_l_batch` solves every solvable row at once: rows of
degree 1 and 2 in l in closed form, rows of degree 3 and more by the
eigenvalues of their companion matrices in one stacked LAPACK call
(``np.linalg.eigvals``, backward stable).  It polishes the roots by
Newton's method and returns them with a per-row status code
(:data:`ROW_ERRORS`) in place of an exception.  :func:`roots_in_l`
is its one-row case and raises the row's error.  :func:`companion_roots`
is that solve, unsorted, on rows a caller built itself (the batched
lift), and :func:`mark_unsolvable` the row check that comes before it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import DegenerateError, DomainError, NonConvergence, PolySyntaxError

Exponents = Tuple[int, int]
TermMap = Dict[Exponents, object]

CLUSTER_RADIUS = 1e-7     # roots closer than this are reported as one multiple root
REAL_SNAP_REL = 1e-12     # imaginary parts below this (relative) snap to 0


@dataclass(frozen=True)
class LaurentBiPoly:
    """Immutable term map; zero-coefficient entries are dropped on construction."""

    terms: TermMap

    def __post_init__(self):
        object.__setattr__(
            self, "terms", {e: c for e, c in self.terms.items() if c != 0}
        )

    def __bool__(self) -> bool:
        return bool(self.terms)


ZERO = LaurentBiPoly({})


def _add(a: TermMap, b: TermMap) -> TermMap:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _neg(a: TermMap) -> TermMap:
    return {e: -c for e, c in a.items()}


def _mul(a: TermMap, b: TermMap) -> TermMap:
    out: TermMap = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


_TOKEN = re.compile(r"(?P<int>\d+)|(?P<var>[lm])|(?P<op>[-+*^()])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        offset = match.start() + 1
        if match.lastgroup == "bad":
            raise PolySyntaxError(
                "unexpected character %r" % match.group(), text, offset
            )
        tokens.append((match.lastgroup, match.group(), offset))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        kind, value, offset = self.peek()
        raise PolySyntaxError(message, self.text, offset)

    def expr(self) -> TermMap:
        acc = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            rhs = self.term()
            acc = _add(acc, rhs if op == "+" else _neg(rhs))
        return acc

    def term(self) -> TermMap:
        acc = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            self.take()
            acc = _mul(acc, self.factor())
        return acc

    def factor(self) -> TermMap:
        kind, value, offset = self.peek()
        if kind == "int":
            self.take()
            return {(0, 0): int(value)}
        if kind == "var":
            self.take()
            exp = 1
            if self.peek()[0] == "op" and self.peek()[1] == "^":
                self.take()
                exp = self._signed_int()
            key = (exp, 0) if value == "l" else (0, exp)
            return {key: 1}
        if kind == "op" and value == "(":
            self.take()
            inner = self.expr()
            if not (self.peek()[0] == "op" and self.peek()[1] == ")"):
                self.fail("expected ')'")
            self.take()
            return inner
        self.fail("expected integer, variable or '('")

    def _signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "op" and self.peek()[1] == "-":
            self.take()
            sign = -1
        kind, value, offset = self.peek()
        if kind != "int":
            self.fail("expected integer exponent")
        self.take()
        return sign * int(value)


def parse_poly(text: str) -> LaurentBiPoly:
    """Parse text in the grammar above into a canonical term map."""
    parser = _Parser(text)
    terms = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail("trailing input")
    return LaurentBiPoly(terms)


def print_poly(p: LaurentBiPoly) -> str:
    """Canonical text form; ``parse_poly(print_poly(p))`` reproduces ``p``.

    Only integer coefficients are printable (the grammar has no '/').
    """
    if not p:
        return "0"
    pieces = []
    for (i, j) in sorted(p.terms, key=lambda e: (-e[0], -e[1])):
        c = p.terms[(i, j)]
        if c != int(c):
            raise ValueError("coefficient %s is not printable in the integer grammar" % c)
        c = int(c)
        parts = []
        if abs(c) != 1 or (i == 0 and j == 0):
            parts.append(str(abs(c)))
        if i != 0:
            parts.append("l" if i == 1 else "l^%d" % i)
        if j != 0:
            parts.append("m" if j == 1 else "m^%d" % j)
        body = "*".join(parts)
        if not pieces:
            pieces.append(body if c > 0 else "0 - " + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def partial(p: LaurentBiPoly, var: str) -> LaurentBiPoly:
    """Formal partial derivative with respect to 'l' or 'm'."""
    if var not in ("l", "m"):
        raise ValueError("var must be 'l' or 'm'")
    out: TermMap = {}
    for (i, j), c in p.terms.items():
        if var == "l":
            if i != 0:
                out[(i - 1, j)] = c * i
        else:
            if j != 0:
                out[(i, j - 1)] = c * j
    return LaurentBiPoly(out)


def l_range(p: LaurentBiPoly) -> Tuple[int, int]:
    """(lo, hi): the lowest l-power of p, widened to hold 0 (so lo <= 0),
    and the highest; the span of p's rows in laurent_rows' layout."""
    powers = [i for i, _ in p.terms] or [0]
    return min(min(powers), 0), max(powers)


def laurent_rows(p: LaurentBiPoly, m, lo: int, hi: int) -> np.ndarray:
    """p as a Laurent polynomial in l at each entry of a 1-D array of m,
    denominators kept: coeffs[b, k] = sum_j c_ij m_b^j for the l-power
    i = lo + k.  p's l-powers must lie in lo..hi.  horner_row_batch gives
    p and dp/dl at any l on these rows.  Raises DomainError when p has a
    negative m-power and an m is 0."""
    ms = _checked_m(p, m)
    coeffs = np.zeros((len(ms), hi - lo + 1), dtype=complex)
    for (i, j), c in p.terms.items():
        coeffs[:, i - lo] += float(c) * ms ** j
    return coeffs


def term_maxima(p: LaurentBiPoly, m, lo: int, hi: int) -> np.ndarray:
    """max_j |c_ij| |m_b|^j in laurent_rows' layout: row_max_term_batch
    gives the largest term magnitude |c_ij| |l|^i |m_b|^j of p at any l on
    these rows, the scale of residual tolerances.  Only the l-powers
    lo..hi are taken, so term_maxima(p, m, hi, hi) is the leading power's
    column alone."""
    am = np.abs(_checked_m(p, m))
    maxima = np.zeros((len(am), hi - lo + 1))
    for (i, j), c in p.terms.items():
        if lo <= i <= hi:
            np.maximum(maxima[:, i - lo], abs(float(c)) * am ** j, out=maxima[:, i - lo])
    return maxima


def _checked_m(p: LaurentBiPoly, m) -> np.ndarray:
    """m as a complex array; DomainError when p has a negative m-power
    and an m is 0."""
    ms = np.asarray(m, dtype=complex)
    if any(j < 0 for _, j in p.terms) and (ms == 0).any():
        raise DomainError("negative exponent at zero argument")
    return ms


def horner_row_batch(rows: np.ndarray, lo: int, z: np.ndarray):
    """(value, l-derivative) of sum_k rows[b, k] l^(lo + k), lo <= 0, on
    row b of laurent_rows' coefficients at every l = z[b, k], each shaped
    like z.  The derivative is Horner's rule on the derivative rows
    rows[:, 1:] * (1, 2, ...), and the l^lo shift is applied only when
    lo != 0.  Raises nothing: a negative lo at z = 0 gives values that
    are not finite."""
    d = rows.shape[1] - 1
    v = horner_rows(rows, z)
    dv = horner_rows(rows[:, 1:] * np.arange(1, d + 1), z) if d else np.zeros(z.shape, complex)
    if lo:
        w = z ** lo
        return w * v, w * (dv + lo * v / z)
    return v, dv


def row_max_term_batch(maxima: np.ndarray, lo: int, l: np.ndarray) -> np.ndarray:
    """The largest term magnitude max_k maxima[b, k] |l[b]|^(lo + k) on row
    b of term_maxima at l[b], for a 1-D array l."""
    return (maxima * np.abs(l)[:, None] ** np.arange(lo, lo + maxima.shape[1])).max(axis=1)


def horner_rows(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values at z[b, k] of the polynomials with coefficient rows
    coeffs[b, i] (ascending powers), by Horner's rule in np.polyval's order."""
    d = coeffs.shape[1] - 1
    y = coeffs[:, d:]
    for i in range(d - 1, -1, -1):
        y = y * z + coeffs[:, i:i + 1]
    return y if d else np.broadcast_to(y, z.shape)


# per-row outcome codes of roots_in_l_batch (0 = solved), with the error
# roots_in_l raises for each
M_ZERO, VANISHES, LEAD_VANISHES, NO_CONVERGENCE = 1, 2, 3, 4
ROW_ERRORS = {
    M_ZERO: (DomainError, "m must be nonzero"),
    VANISHES: (DegenerateError, "polynomial vanishes identically at this m"),
    LEAD_VANISHES: (DegenerateError, "leading l-coefficient vanishes at this m"),
    NO_CONVERGENCE: (NonConvergence, "coefficients are not finite at this m"),
}


def roots_in_l(p: LaurentBiPoly, m: complex) -> List[complex]:
    """All roots in l of l^-lo p(l, m) at fixed m, lo = l_range(p)[0],
    with multiplicity.

    Closed-form roots when A has degree 1 or 2 in l, otherwise the
    eigenvalues of the companion matrix (LAPACK); Newton-polished, then
    clustered: roots closer than CLUSTER_RADIUS are replaced by their
    centroid, repeated per cluster size.  Sorted by (re, im).  This is
    the one-row case of roots_in_l_batch.
    """
    roots, status, _ = roots_in_l_batch(p, np.array([m], dtype=complex))
    if status[0]:
        error, message = ROW_ERRORS[status[0]]
        raise error(message)
    return roots[0].tolist()


def roots_in_l_batch(p: LaurentBiPoly, m):
    """roots_in_l at every entry of a 1-D array of m, solved together.

    Returns (roots, status, rows): roots[b] holds the roots at m[b] as
    roots_in_l returns them and status[b] is 0, or status[b] is the
    ROW_ERRORS code of the error roots_in_l raises at m[b] and roots[b]
    is nan.  rows are the laurent_rows solved (at m = 0, the row at
    m = 1), so a caller reads A and dA/dl at the roots off them
    (horner_row_batch).  All solvable rows are solved together by
    companion_roots: in closed form when A has degree 1 or 2 in l, by one
    stacked np.linalg.eigvals call on their companion matrices otherwise.
    """
    if not p:
        raise DegenerateError("zero polynomial")
    m = np.asarray(m, dtype=complex)
    status = np.where(m == 0, M_ZERO, 0)
    # coefficients that overflow are reported as NO_CONVERGENCE rows; an
    # m = 0 row is M_ZERO whatever it holds, and 1 in its place keeps a
    # negative m-power from raising
    lo, hi = l_range(p)
    m = np.where(m == 0, 1, m)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = laurent_rows(p, m, lo, hi)
        lead_maxima = term_maxima(p, m, hi, hi)[:, 0]
    return _solve_rows(coeffs, lead_maxima, status) + (coeffs,)


def _solve_rows(coeffs: np.ndarray, lead_maxima: np.ndarray, status: np.ndarray):
    """Roots of the coefficient rows whose status is 0, and the status:
    rows that turn out degenerate or not finite get their error code
    (status is updated in place)."""
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    mark_unsolvable(coeffs, lead_maxima, status)
    roots = np.full((n, d), np.nan, dtype=complex)
    rows = np.flatnonzero(status == 0)
    if d == 0 or not rows.size:
        return roots, status
    roots[rows] = _sort_and_cluster(companion_roots(coeffs[rows]))
    return roots, status


def mark_unsolvable(coeffs: np.ndarray, lead_maxima: np.ndarray,
                    status: np.ndarray) -> np.ndarray:
    """status, updated in place: each row whose status is 0 gets the error
    code of what stops companion_roots on it (a coefficient that is not
    finite, a leading coefficient that cancels, a zero row).  The leading
    coefficient cancels when it is below 1e-12 of lead_maxima, the largest
    of its own terms (term_maxima's last column): a test of cancellation,
    not of scale, so a monomial leading coefficient never vanishes at
    m != 0, however small it is beside the other coefficients."""
    d = coeffs.shape[1] - 1
    # LAPACK rejects the whole stack if one matrix is not finite
    status[(status == 0) & ~np.isfinite(coeffs).all(axis=1)] = NO_CONVERGENCE
    status[(status == 0) & (np.abs(coeffs[:, d]) <= 1e-12 * lead_maxima)] = LEAD_VANISHES
    status[(status == LEAD_VANISHES) & ~coeffs.any(axis=1)] = VANISHES
    return status


def companion_roots(c: np.ndarray) -> np.ndarray:
    """The d roots of each coefficient row c[b] (ascending powers, degree
    d >= 1, finite, leading coefficient not negligible), unsorted.  Rows
    of degree 1 and 2 are solved in closed form (_closed_form_roots); rows
    of degree 3 and more take the eigenvalues of their stacked companion
    matrices in one np.linalg.eigvals call.  Either estimate is then
    Newton-polished and, on a real row, snapped onto the axis within
    REAL_SNAP_REL."""
    d = c.shape[1] - 1
    if d <= 2:
        z = _closed_form_roots(c)
    else:
        # companion matrix of the monic row: ones on the subdiagonal, the
        # negated coefficients in descending powers along the first row
        companion = np.zeros((len(c), d, d), dtype=complex)
        companion[:, 1:, :-1] = np.eye(d - 1)
        companion[:, 0, :] = -c[:, d - 1::-1] / c[:, d:]
        z = np.linalg.eigvals(companion)
    # where a root's terms overflow its residual is not finite, and the
    # root keeps its estimate
    with np.errstate(over="ignore", invalid="ignore"):
        z = _polish(c, z)

    # real coefficient vectors have conjugate-symmetric roots; snap the
    # stragglers onto the axis so downstream [0, 2pi) arg conventions do
    # not flip on sub-epsilon imaginary noise
    real_rows = (c.imag == 0.0).all(axis=1)[:, None]
    near_real = real_rows & (np.abs(z.imag) <= REAL_SNAP_REL * (1.0 + np.abs(z)))
    return np.where(near_real, z.real + 0j, z)


def _closed_form_roots(c: np.ndarray) -> np.ndarray:
    """The roots of rows of degree 1 (-c0/c1) or 2.  A quadratic row is
    first scaled by the power of two that brings its largest coefficient
    part into [0.5, 1), which is exact and keeps b^2 and 4ac finite; then
    q = -(b + s)/2 with s = sqrt(b^2 - 4ac) signed so that Re(conj(b) s)
    >= 0, so b + s does not cancel, and the roots are q/a and c/q (both 0
    when q = 0, which takes b = c = 0).  On a real row with b^2 < 4ac the
    second root is taken as the conjugate of the first, which c/q equals
    up to rounding, so the pair is conjugate to the bit."""
    with np.errstate(all="ignore"):
        if c.shape[1] == 2:
            return -c[:, :1] / c[:, 1:]
        _, e = np.frexp(np.maximum(np.abs(c.real), np.abs(c.imag)).max(axis=1))
        # ldexp takes real arrays: scale the real and imaginary parts alike
        c0, b, a = np.ldexp(np.ascontiguousarray(c).view(float), -e[:, None]).view(complex).T
        disc = b * b - 4.0 * a * c0
        s = np.sqrt(disc)
        s = np.where(b.real * s.real + b.imag * s.imag >= 0.0, s, -s)
        q = -0.5 * (b + s)
        first = q / a
        conjugate = (c.imag == 0.0).all(axis=1) & (disc.real < 0.0)
        second = np.where(conjugate, first.conj(), np.where(q == 0, 0, c0 / q))
        return np.stack([first, second], axis=1)


def _polish(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton polish; a root keeps its estimate once a step no longer
    lowers its residual, and the polish stops when no root improves."""
    d = c.shape[1] - 1
    dc = c[:, 1:] * np.arange(1, d + 1)
    pv = horner_rows(c, z)
    for _ in range(8):
        dv = horner_rows(dc, z)
        nonzero = dv != 0
        step = np.where(nonzero, pv / np.where(nonzero, dv, 1), 0)
        z_new = z - step
        pv_new = horner_rows(c, z_new)
        better = np.abs(pv_new) < np.abs(pv)
        if not better.any():
            break
        z = np.where(better, z_new, z)
        pv = np.where(better, pv_new, pv)
    return z


def _sort_and_cluster(z: np.ndarray) -> np.ndarray:
    """Each row sorted by (re, im); in a row with two roots closer than
    CLUSTER_RADIUS, each cluster becomes its centroid, repeated per
    cluster size."""
    n, d = z.shape
    z = z[np.arange(n)[:, None], np.lexsort((z.imag, z.real))]
    gap = np.abs(z[:, :, None] - z[:, None, :]).reshape(n, d * d)
    gap[:, ::d + 1] = np.inf
    for b in np.flatnonzero(gap.min(axis=1) < CLUSTER_RADIUS):
        z[b] = _cluster(z[b])
    return z


def _cluster(row: np.ndarray) -> List[complex]:
    clusters: List[List[complex]] = []
    for root in row:
        for cl in clusters:
            if abs(root - np.mean(cl)) < CLUSTER_RADIUS:
                cl.append(root)
                break
        else:
            clusters.append([root])
    out: List[complex] = []
    for cl in clusters:
        centroid = complex(np.mean(cl))
        out.extend([centroid] * len(cl))
    out.sort(key=lambda r: (r.real, r.imag))
    return out
