"""Bivariate Laurent polynomials with exact coefficients.

A polynomial in the variables l and m is stored as a map from exponent
pairs ``(i, j)`` to nonzero coefficients, where ``i`` is the l-exponent
and ``j`` the m-exponent.  Exponents may be negative.  Coefficients are
exact integers (or :class:`fractions.Fraction`); nothing is rounded
until :func:`eval_poly` converts to floating point.  The zero polynomial
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

Roots in l at fixed m come from one solver that works on a batch of m
at once.  :func:`l_coefficients` takes a scalar m (one coefficient
vector) or a 1-D array of m (one row per m); :func:`horner_rows`
evaluates such rows at per-row points.  :func:`laurent_rows` builds the
same rows with the denominators kept and :func:`term_maxima` each
l-power's largest term magnitude; :func:`horner_row` and
:func:`row_max_term` read one such row at a scalar l, which is how the
lift runs Newton in l at a fixed m.  :func:`roots_in_l_batch` takes
the eigenvalues of the companion matrices of every solvable row in one
stacked LAPACK call (``np.linalg.eigvals``, backward stable), polishes
them by Newton's method and returns them with a per-row status code
(:data:`ROW_ERRORS`) in place of an exception.  :func:`roots_in_l` is
its one-row case and raises the row's error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
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


def eval_poly(p: LaurentBiPoly, l: complex, m: complex) -> complex:
    """Value of p at (l, m); exact coefficients are converted last."""
    value = 0j
    for (i, j), c in p.terms.items():
        if (i < 0 and l == 0) or (j < 0 and m == 0):
            raise DomainError("negative exponent at zero argument")
        value += float(c) * l ** i * m ** j
    return value


def max_term(p: LaurentBiPoly, l: complex, m: complex) -> float:
    """Largest term magnitude |c| |l|^i |m|^j at the point; the natural scale
    for residual tolerances."""
    best = 0.0
    al, am = abs(l), abs(m)
    for (i, j), c in p.terms.items():
        if (i < 0 and al == 0) or (j < 0 and am == 0):
            raise DomainError("negative exponent at zero argument")
        best = max(best, abs(float(c)) * al ** i * am ** j)
    return best


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


def clear_denominators(p: LaurentBiPoly) -> Tuple[LaurentBiPoly, Tuple[int, int]]:
    """Multiply by l^a m^b with minimal a, b >= 0 so all exponents are >= 0.

    Returns the shifted polynomial and (a, b) so valuations can be adjusted.
    """
    if not p:
        return p, (0, 0)
    a = max(0, -min(i for i, _ in p.terms))
    b = max(0, -min(j for _, j in p.terms))
    if a == 0 and b == 0:
        return p, (0, 0)
    return LaurentBiPoly({(i + a, j + b): c for (i, j), c in p.terms.items()}), (a, b)


def l_coefficients(p: LaurentBiPoly, m) -> np.ndarray:
    """Coefficients of the denominator-cleared polynomial in l at fixed m,
    index = l-power: a vector c[i] for a scalar m, one row c[b, i] per
    entry of a 1-D array of m."""
    q, _ = clear_denominators(p)
    coeffs = laurent_rows(q, np.atleast_1d(m), *l_range(q))
    return coeffs if np.ndim(m) else coeffs[0]


def l_range(p: LaurentBiPoly) -> Tuple[int, int]:
    """(lo, hi): the lowest and highest l-power of p, widened to hold 0."""
    powers = [i for i, _ in p.terms] + [0]
    return min(powers), max(powers)


def laurent_rows(p: LaurentBiPoly, m, lo: int, hi: int) -> np.ndarray:
    """p as a Laurent polynomial in l at each entry of a 1-D array of m,
    denominators kept: coeffs[b, k] = sum_j c_ij m_b^j for the l-power
    i = lo + k.  p's l-powers must lie in lo..hi.  On one row, horner_row
    gives p and dp/dl at any l.  Raises DomainError, as eval_poly does,
    when p has a negative m-power and an m is 0."""
    ms = _checked_m(p, m)
    coeffs = np.zeros((len(ms), hi - lo + 1), dtype=complex)
    for (i, j), c in p.terms.items():
        coeffs[:, i - lo] += float(c) * ms ** j
    return coeffs


def term_maxima(p: LaurentBiPoly, m, lo: int, hi: int) -> np.ndarray:
    """max_j |c_ij| |m_b|^j in laurent_rows' layout: on one row,
    row_max_term gives max_term at any l."""
    am = np.abs(_checked_m(p, m))
    maxima = np.zeros((len(am), hi - lo + 1))
    for (i, j), c in p.terms.items():
        np.maximum(maxima[:, i - lo], abs(float(c)) * am ** j, out=maxima[:, i - lo])
    return maxima


def _checked_m(p: LaurentBiPoly, m) -> np.ndarray:
    """m as a complex array; DomainError, as eval_poly raises it, when p
    has a negative m-power and an m is 0."""
    ms = np.asarray(m, dtype=complex)
    if any(j < 0 for _, j in p.terms) and (ms == 0).any():
        raise DomainError("negative exponent at zero argument")
    return ms


def horner_row(row: List[complex], lo: int, l: complex) -> Tuple[complex, complex]:
    """Value and l-derivative at l of sum_k row[k] l^(lo + k), lo <= 0, by
    Horner's rule on one row of laurent_rows' coefficients (as a list).
    A negative lo at l = 0 raises DomainError, as eval_poly does."""
    v, dv = row[-1], 0j
    for c in row[-2::-1]:
        dv = dv * l + v
        v = v * l + c
    if lo:
        if l == 0:
            raise DomainError("negative exponent at zero argument")
        w = l ** lo
        return w * v, w * (dv + lo * v / l)
    return v, dv


def row_max_term(maxima: List[float], lo: int, l: complex) -> float:
    """max_term at l on one row of term_maxima (as a list):
    max_k maxima[k] |l|^(lo + k)."""
    al = abs(l)
    if lo and al == 0:
        raise DomainError("negative exponent at zero argument")
    return max([x * al ** i for i, x in enumerate(maxima, lo)])


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
    """All roots in l of the cleared polynomial at fixed m, with multiplicity.

    Eigenvalues of the companion matrix (LAPACK), Newton-polished, then
    clustered: roots closer than CLUSTER_RADIUS are replaced by their
    centroid, repeated per cluster size.  Sorted by (re, im).  This is
    the one-row case of roots_in_l_batch.
    """
    roots, status = roots_in_l_batch(p, np.array([m], dtype=complex))
    if status[0]:
        error, message = ROW_ERRORS[status[0]]
        raise error(message)
    return roots[0].tolist()


def roots_in_l_batch(p: LaurentBiPoly, m):
    """roots_in_l at every entry of a 1-D array of m, solved together.

    Returns (roots, status): roots[b] holds the roots at m[b] as
    roots_in_l returns them and status[b] is 0, or status[b] is the
    ROW_ERRORS code of the error roots_in_l raises at m[b] and roots[b]
    is nan.  The companion matrices of all solvable rows go to one
    stacked np.linalg.eigvals call.
    """
    if not p:
        raise DegenerateError("zero polynomial")
    m = np.asarray(m, dtype=complex)
    status = np.where(m == 0, M_ZERO, 0)
    # coefficients that overflow are reported as NO_CONVERGENCE rows
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = l_coefficients(p, m)
    return _solve_rows(coeffs, status)


def _solve_rows(coeffs: np.ndarray, status: np.ndarray):
    """Roots of the coefficient rows whose status is 0, and the status:
    rows that turn out degenerate or not finite get their error code
    (status is updated in place)."""
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    # LAPACK rejects the whole stack if one matrix is not finite
    status[(status == 0) & ~np.isfinite(coeffs).all(axis=1)] = NO_CONVERGENCE
    abs_coeffs = np.abs(coeffs)
    scale = abs_coeffs.max(axis=1)
    status[(status == 0) & (abs_coeffs[:, d] <= 1e-12 * scale)] = LEAD_VANISHES
    status[(status == LEAD_VANISHES) & (scale == 0.0)] = VANISHES
    roots = np.full((n, d), np.nan, dtype=complex)
    rows = np.flatnonzero(status == 0)
    if d == 0 or not rows.size:
        return roots, status

    # companion matrix of the monic row: ones on the subdiagonal, the
    # negated coefficients in descending powers along the first row
    c = coeffs[rows]
    companion = np.zeros((rows.size, d, d), dtype=complex)
    companion[:, 1:, :-1] = np.eye(d - 1)
    companion[:, 0, :] = -c[:, d - 1::-1] / c[:, d:]
    z = _polish(c, np.linalg.eigvals(companion))

    # real coefficient vectors have conjugate-symmetric roots; snap the
    # stragglers onto the axis so downstream [0, 2pi) arg conventions do
    # not flip on sub-epsilon imaginary noise
    real_rows = (c.imag == 0.0).all(axis=1)[:, None]
    near_real = real_rows & (np.abs(z.imag) <= REAL_SNAP_REL * (1.0 + np.abs(z)))
    roots[rows] = _sort_and_cluster(np.where(near_real, z.real + 0j, z))
    return roots, status


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
