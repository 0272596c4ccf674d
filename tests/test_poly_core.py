import itertools
import math

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apolylab import (
    DegenerateError,
    DomainError,
    LaurentBiPoly,
    NonConvergence,
    PolySyntaxError,
    parse_poly,
    partial,
    print_poly,
    roots_in_l,
)
from apolylab.poly_core import (
    CLUSTER_RADIUS,
    LEAD_VANISHES,
    M_ZERO,
    NO_CONVERGENCE,
    ROW_ERRORS,
    _solve_rows,
    companion_roots,
    horner_row_batch,
    horner_rows,
    l_range,
    laurent_rows,
    roots_in_l_batch,
    row_max_term_batch,
    term_maxima,
)
from oracles import eval_poly, max_term

ROUND_TRIP_CASES = [
    "0",
    "1",
    "l",
    "m",
    "l*m",
    "l + m",
    "l - m",
    "2*l^3",
    "l^-1",
    "m^-4",
    "l^-2*m^-3",
    "l^2*m^3 + 1",
    "3*l*m - 2",
    "l^2 - 2*l + 1",
    "(l + m)*(l - m)",
    "l*(m + 1)",
    "7",
    "l^10*m^-10",
    "2*(l + 3*m)",
    "m^8 - m^6 - 2*m^4 - m^2 + 1",
    "m^4*l^2 - (m^8 - m^6 - 2*m^4 - m^2 + 1)*l + m^4",
    "0 - l",
    "0 - 2*l^2 + m",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(text):
    p = parse_poly(text)
    assert parse_poly(print_poly(p)).terms == p.terms


def test_fig8_term_map(fig8):
    assert fig8.terms == {
        (2, 4): 1,
        (1, 8): -1,
        (1, 6): 1,
        (1, 4): 2,
        (1, 2): 1,
        (1, 0): -1,
        (0, 4): 1,
    }


def test_whitespace_is_insignificant(fig8_text):
    squeezed = fig8_text.replace(" ", "")
    assert parse_poly(squeezed).terms == parse_poly(fig8_text).terms


def test_zero_coefficients_are_dropped():
    assert parse_poly("l - l").terms == {}
    assert not parse_poly("l - l")
    assert print_poly(parse_poly("m - m")) == "0"
    assert not LaurentBiPoly({(1, 0): 0})


def test_leading_negative_prints_without_unary_minus():
    text = print_poly(parse_poly("0 - l^2 + m"))
    assert text.startswith("0 - ")
    assert parse_poly(text).terms == {(2, 0): -1, (0, 1): 1}


def test_print_rejects_non_integer_coefficients():
    half = LaurentBiPoly({(1, 0): 0.5})
    with pytest.raises(ValueError):
        print_poly(half)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("@", 1),          # character outside the alphabet
        ("-l", 1),         # no unary minus
        ("l +", 4),
        ("l m", 3),        # no implicit multiplication
        ("2l", 2),
        ("l^", 3),
        ("l^m", 3),
        ("(l", 3),
        ("l^2^3", 4),      # exponent binds once, to a variable
        ("(l + m)^2", 8),  # and not to groups
        ("()", 2),
        ("l*", 3),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text)
    assert err.value.offset == offset
    assert err.value.lineno == 1


def test_signed_exponents_parse():
    assert parse_poly("l^-3").terms == {(-3, 0): 1}
    assert parse_poly("m^-12*l").terms == {(1, -12): 1}


def test_eval_fig8_at_one_one(fig8):
    assert eval_poly(fig8, 1.0, 1.0) == pytest.approx(4.0)


def test_eval_fig8_at_m_one_is_square(fig8):
    # A(l, 1) = (l + 1)^2
    for l in (2.0, -3.0, 0.5 + 0.25j):
        assert eval_poly(fig8, l, 1.0) == pytest.approx((l + 1) ** 2)


def test_eval_negative_exponent_at_zero_raises():
    p = parse_poly("l^-1 + m")
    with pytest.raises(DomainError):
        eval_poly(p, 0.0, 1.0)
    q = parse_poly("m^-2")
    with pytest.raises(DomainError):
        eval_poly(q, 1.0, 0.0)
    with pytest.raises(DomainError):
        max_term(q, 1.0, 0.0)


def test_max_term_dominates_value(fig8):
    rng = np.random.default_rng(7)
    for _ in range(25):
        l = complex(*rng.uniform(-2, 2, 2))
        m = complex(*rng.uniform(-2, 2, 2))
        if abs(l) < 1e-3 or abs(m) < 1e-3:
            continue
        terms = len(fig8.terms)
        assert abs(eval_poly(fig8, l, m)) <= terms * max_term(fig8, l, m) + 1e-12


def test_partial_formal(fig8):
    a_l = partial(fig8, "l")
    assert eval_poly(a_l, 1.0, 1.0) == pytest.approx(4.0)
    assert partial(parse_poly("l^-2"), "l").terms == {(-3, 0): -2}
    assert partial(parse_poly("7"), "m").terms == {}
    with pytest.raises(ValueError):
        partial(fig8, "x")


def test_partial_matches_finite_differences(fig8):
    rng = np.random.default_rng(11)
    a_l = partial(fig8, "l")
    a_m = partial(fig8, "m")
    for _ in range(10):
        l = complex(*rng.uniform(0.5, 1.5, 2))
        m = complex(*rng.uniform(0.5, 1.5, 2))
        fd_l = oracles.fd_partial(lambda ll, mm: eval_poly(fig8, ll, mm), "l", l, m)
        fd_m = oracles.fd_partial(lambda ll, mm: eval_poly(fig8, ll, mm), "m", l, m)
        assert abs(eval_poly(a_l, l, m) - fd_l) < 1e-5 * max(1.0, abs(fd_l))
        assert abs(eval_poly(a_m, l, m) - fd_m) < 1e-5 * max(1.0, abs(fd_m))


def test_roots_double_at_m_one(fig8):
    roots = roots_in_l(fig8, 1.0)
    assert len(roots) == 2
    assert roots[0] == roots[1]  # centroid repeated for the double root
    assert roots[0] == pytest.approx(-1.0, abs=1e-6)


def test_roots_real_at_real_m(fig8):
    for m in (0.3, 0.35, 2.0):
        for r in roots_in_l(fig8, m):
            assert r.imag == 0.0


def test_roots_product_is_one_near_zero(fig8):
    # a = c = m^4 in a l^2 + b l + c, so the two sheets multiply to 1
    for m in (0.3, 0.2 + 0.1j, -0.4):
        r1, r2 = roots_in_l(fig8, m)
        assert r1 * r2 == pytest.approx(1.0, abs=1e-9)


def test_roots_laurent_input():
    p = parse_poly("l^-1*m + l")
    roots = roots_in_l(p, -4.0)
    assert roots == pytest.approx([-2.0, 2.0])


def test_roots_degenerate_and_domain():
    with pytest.raises(DegenerateError):
        roots_in_l(parse_poly("0"), 1.0)
    with pytest.raises(DegenerateError):
        roots_in_l(parse_poly("l*m - l"), 1.0)  # vanishes identically at m=1
    with pytest.raises(DegenerateError):
        roots_in_l(parse_poly("l^2*m - l^2 + l"), 1.0)  # leading coeff dies
    with pytest.raises(DomainError):
        roots_in_l(parse_poly("l + m"), 0.0)
    assert roots_in_l(parse_poly("m + 2"), 5.0) == []


def test_roots_beside_a_small_monomial_leading_coefficient(fig8):
    # at m = 5e-4 fig8's leading coefficient m^4 is 6.25e-14 of the
    # constant term, a small scale but no cancellation: both roots, each
    # on the curve term by term and equal to the closed form
    m = 5e-4
    roots = sorted(roots_in_l(fig8, m), key=abs)
    big, small = oracles.fig8_sheets(np.array([m]))
    assert roots == pytest.approx([small[0], big[0]], rel=1e-12)
    for r in roots:
        assert abs(eval_poly(fig8, r, m)) <= 1e-12 * max_term(fig8, r, m)


@pytest.mark.parametrize("text", [
    "m^4*l^2 - (m^8 - m^6 - 2*m^4 - m^2 + 1)*l + m^4",
    "m^26*l^2 + l - 1",
    "m^-3*l^2 + l - m",
])
def test_monomial_leading_coefficient_never_vanishes(text):
    # however small or large it is beside the other coefficients, a
    # leading coefficient c m^j is no cancellation at m != 0
    m = np.geomspace(1e-8, 1e2, 41) * np.exp(1j * np.linspace(0.0, 6.0, 41))
    roots, status, _ = roots_in_l_batch(parse_poly(text), m)
    assert not status.any() and np.isfinite(roots).all()
    # a leading coefficient that does cancel still vanishes
    _, status, _ = roots_in_l_batch(parse_poly("(m - 1)*l^2 + l - 1"), np.array([1.0 + 1e-15]))
    assert list(status) == [LEAD_VANISHES]


def test_roots_re_expansion(fig8):
    rng = np.random.default_rng(3)
    for _ in range(8):
        m = complex(*rng.uniform(-1.5, 1.5, 2))
        if abs(m) < 0.05:
            continue
        coeffs = laurent_rows(fig8, [m], *l_range(fig8))[0]
        roots = roots_in_l(fig8, m)
        rebuilt = oracles.poly_from_roots(coeffs[-1], roots)
        scale = np.max(np.abs(coeffs))
        assert np.allclose(rebuilt, coeffs, atol=1e-7 * scale)


PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _probe_points():
    # the figure-eight branch points +-phi^{+-1}, the double point m = 1,
    # m = 0 and points close to all of them, plus a random spread
    special = [PHI, -PHI, 1.0 / PHI, -1.0 / PHI, 1.0, -1.0, 0.0, 1j]
    near = [c + d for c in special for d in (1e-3, -1e-3j, 0.05 + 0.05j, 1e-9)]
    rng = np.random.default_rng(17)
    spread = list(rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40))
    return np.array(special + near + spread, dtype=complex)


def _one_row(p, m):
    try:
        return roots_in_l(p, m), None
    except (DegenerateError, DomainError, NonConvergence) as exc:
        return None, exc


SOLVER_POLYS = [
    "m^4*l^2 - (m^8 - m^6 - 2*m^4 - m^2 + 1)*l + m^4",
    "l^2*m - l^2 + l",          # leading coefficient dies at m = 1
    "l*m - l + m - 1",          # vanishes identically at m = 1
    "l^-1*m + l*m^-2 - 3",      # Laurent in both variables
    "(l - m)*(l - m)*(l + 1)",  # a double root on every row
    "l^-1*m + l - 3",           # a negative l-power only
    "l^-2 - l^-1*m",            # negative l-powers only: l^-2 (1 - m l)
]


def _mp_roots(row):
    # the float coefficients taken as exact, rooted at 60 digits
    with mpmath.workdps(60):
        coeffs = [mpmath.mpc(c.real, c.imag) for c in row[::-1]]
        return [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=500,
                                                      extraprec=500)]


def _rel_error(got, exact):
    # worst |got - exact| / |exact| under the best pairing of the roots
    def err(g, e):
        return abs(g - e) / abs(e) if e != 0 else abs(g)
    return min(max(err(g, exact[k]) for g, k in zip(got, perm))
               for perm in itertools.permutations(range(len(exact))))


class TestBatchRoots:

    # the double root of the last polynomial moves by the square root of a
    # change in the coefficients
    @pytest.mark.parametrize("text, tol", zip(SOLVER_POLYS, [1e-12] * 4 + [1e-7] + [1e-12] * 2))
    def test_matches_one_row_calls(self, text, tol):
        p = parse_poly(text)
        ms = _probe_points()
        roots, status, _ = roots_in_l_batch(p, ms)
        assert roots.shape[0] == len(ms) and status.shape == (len(ms),)
        for b, m in enumerate(ms):
            want, exc = _one_row(p, complex(m))
            if exc is not None:
                error, message = ROW_ERRORS[status[b]]
                assert type(exc) is error and str(exc) == message
                assert np.all(np.isnan(roots[b]))
            else:
                assert status[b] == 0
                assert np.max(np.abs(roots[b] - np.array(want)), initial=0.0) <= tol

    @pytest.mark.parametrize("text", SOLVER_POLYS)
    def test_against_mpmath(self, text):
        # worst relative error against the 60-digit roots, for rows whose
        # exact roots are all more than CLUSTER_RADIUS apart (True) and
        # for the others (False), next to the replaced iteration's
        p = parse_poly(text)
        ms = _probe_points()
        # the rows roots_in_l_batch solves, laurent_rows' bit for bit (at
        # m = 0, the row at m = 1); m = 0 is skipped below
        roots, status, rows = roots_in_l_batch(p, ms)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(rows, laurent_rows(p, np.where(ms == 0, 1, ms), *l_range(p)),
                                  equal_nan=True)
        worst = {True: [0.0, 0.0], False: [0.0, 0.0]}
        for b, m in enumerate(ms):
            if m == 0:
                continue
            try:
                old = oracles.roots_scalar_loop(rows[b])
            except ArithmeticError:
                # the scalar loop also refuses a leading coefficient that
                # is small beside the others without cancelling (m^4 at
                # m = 1e-9); the batch solves it, checked on mpmath alone
                old = None
            if status[b]:
                assert old is None
                continue
            exact = _mp_roots(rows[b])
            if old is None:
                assert _rel_error(roots[b], exact) <= 1e-14
                continue
            simple = all(abs(x - y) > CLUSTER_RADIUS
                         for x, y in itertools.combinations(exact, 2))
            for k, got in enumerate((roots[b], old)):
                worst[simple][k] = max(worst[simple][k], _rel_error(got, exact))
        for new_err, old_err in worst.values():
            assert new_err <= 1.5 * old_err + 1e-15

    def test_non_finite_rows(self, fig8):
        ms = np.array([0.5, np.nan, 1.5 + 0.5j, np.inf, 2.0])
        with np.errstate(invalid="ignore", over="ignore"):  # nan and inf powers
            roots, status, _ = roots_in_l_batch(fig8, ms)
            with pytest.raises(NonConvergence):
                roots_in_l(fig8, complex(np.inf))
        assert list(status) == [0, NO_CONVERGENCE, 0, NO_CONVERGENCE, 0]
        assert np.all(np.isnan(roots[[1, 3]]))
        for b in (0, 2, 4):
            assert np.array_equal(roots[b], roots_in_l(fig8, ms[b]))

    def test_skips_zero_and_degenerate_rows(self):
        p = parse_poly("l^2*m - l^2 + l")
        roots, status, _ = roots_in_l_batch(p, np.array([2.0, 1.0, 0.0, -1.0]))
        assert list(status[[1, 2]]) == [3, 1]
        assert status[0] == 0 and status[3] == 0
        assert np.allclose(sorted(roots[0], key=abs), [0.0, -1.0])
        assert np.allclose(sorted(roots[3], key=abs), [0.0, 0.5])

    def test_negative_powers_keep_their_rows(self):
        # a negative m-power with m = 0 in the batch: that row is M_ZERO, the
        # others are solved; (l - 2)(l - 1/m) has the roots 2 and 1/m
        p = parse_poly("l^2 - 2*l - m^-1*l + 2*m^-1")
        roots, status, _ = roots_in_l_batch(p, np.array([0.25, 0.0, -2.0 + 1.0j]))
        assert list(status) == [0, M_ZERO, 0]
        assert np.all(np.isnan(roots[1]))
        assert np.allclose(roots[[0, 2]], [[2.0, 4.0], [-0.4 - 0.2j, 2.0]], rtol=1e-14, atol=0)
        # only negative l-powers: l^-2 (1 - m l) has the one root 1/m
        assert roots_in_l(parse_poly("l^-2 - l^-1*m"), 4.0) == pytest.approx([0.25], rel=1e-15)

    def test_against_companion_eigenvalues(self, fig8):
        # np.roots solves one companion matrix per call, with no stacking,
        # Newton polish, real snap or clustering
        rng = np.random.default_rng(5)
        ms = rng.uniform(-1.8, 1.8, 50) + 1j * rng.uniform(-1.8, 1.8, 50)
        roots, status, _ = roots_in_l_batch(fig8, ms)
        assert np.all(status == 0)
        for b, m in enumerate(ms):
            want = np.sort_complex(np.roots(laurent_rows(fig8, [m], *l_range(fig8))[0][::-1]))
            got = np.sort_complex(roots[b])
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_coefficient_rows_and_horner(self, fig8):
        ms = _probe_points()
        lo, hi = l_range(fig8)
        rows = laurent_rows(fig8, ms, lo, hi)
        assert (lo, hi) == (0, 2) and rows.shape == (len(ms), 3)
        for b, m in enumerate(ms):
            assert np.allclose(rows[b], laurent_rows(fig8, [complex(m)], lo, hi)[0],
                               rtol=1e-15, atol=0.0)
        z = np.stack([ms, 1.0 / (ms + 2.0)], axis=1)
        got = horner_rows(rows, z)
        for b, m in enumerate(ms):
            for k in range(2):
                want = eval_poly(fig8, complex(z[b, k]), complex(m))
                assert abs(got[b, k] - want) <= 1e-12 * max(1.0, max_term(fig8, z[b, k], m))

    def test_no_l_roots(self):
        roots, status, _ = roots_in_l_batch(parse_poly("m + 2"), np.array([1.0, -2.0]))
        assert roots.shape == (2, 0)
        assert list(status) == [0, 2]
        with pytest.raises(DegenerateError):
            roots_in_l_batch(parse_poly("0"), np.array([1.0]))


# ---------------------------------------------------------------- closed form
# Rows of degree 1 and 2 are solved in closed form.  Each root g is
# checked against the exact root z of its float row (60 digits) by its
# condition: with S = sum_k |c_k| |z|^k, the term sum, both
#     |g - z| |p'(z)| <= ROOT_TOL eps S   (first order, a simple root) and
#     |g - z|^2 |c_2| <= ROOT_TOL eps S   (second order, beside a double root),
# for the move of z under a change of eps S in p is within the smaller
# of the two.  The estimate and the polished root each leave a residual
# within a few roundings of S (Horner's rule on a degree-2 row rounds
# within about 4 sqrt(2) eps of it), and ROOT_TOL = 16 leaves room for
# the constant.  pyproject turns every RuntimeWarning into an error, so
# no case below may emit one.

EPS = np.finfo(float).eps
ROOT_TOL = 16.0


def _exact_roots(c, got):
    """The roots of the row c (mpc coefficients, ascending, degree 1 or 2)
    at 60 digits: the one nearest the largest estimate g in got from
    mpmath.polyroots, and on a quadratic row the other as c0 / (c2 z).
    polyroots stops on an absolute step, so the row is rescaled by
    sigma = 2^k ~ |g| (l = sigma x), which puts that root near 1 and the
    other inside the unit disc."""
    g = max((mpmath.mpc(z.real, z.imag) for z in got), key=abs)
    sigma = mpmath.ldexp(1, math.frexp(abs(g))[1])
    x = mpmath.polyroots([ck * sigma ** k for k, ck in enumerate(c)][::-1],
                         maxsteps=200, cleanup=False, extraprec=200)
    z = sigma * min(x, key=lambda x: abs(x - g / sigma))
    return [z] if len(c) == 2 else [z, c[0] / (c[2] * z)]


def _conditioned_error(row, got):
    """The largest error of the estimates g in got against the exact roots
    z of the float row, paired in the best order, in units of the bound
    ROOT_TOL stands for: the larger of |g - z| |p'(z)| / (eps S) and, on a
    quadratic row, |g - z|^2 |c_2| / (eps S)."""
    with mpmath.workdps(60):
        c = [mpmath.mpc(x.real, x.imag) for x in row]
        exact = _exact_roots(c, got)

        def ratio(g, z):
            error = abs(mpmath.mpc(g.real, g.imag) - z)
            scale = EPS * sum(abs(ck) * abs(z) ** k for k, ck in enumerate(c))
            slope = sum(k * ck * z ** (k - 1) for k, ck in enumerate(c) if k)
            first = error * abs(slope) / scale
            return max(first, error ** 2 * abs(c[2]) / scale) if len(c) == 3 else first

        return float(min(max(ratio(g, exact[k]) for g, k in zip(got, perm))
                         for perm in itertools.permutations(range(len(exact)))))


def _solved(rows):
    """The roots of coefficient rows, sorted and clustered as
    roots_in_l_batch returns them; every row must be solvable."""
    roots, status = _solve_rows(rows, np.abs(rows[:, -1]), np.zeros(len(rows), dtype=int))
    assert not status.any()
    return roots


def _random_rows(rng, n, d, low=0.0, high=0.0):
    # complex rows whose coefficients have random phases and magnitudes
    # 10^u, u uniform in [low, high]
    phase = np.exp(2j * np.pi * rng.uniform(size=(n, d + 1)))
    return 10.0 ** rng.uniform(low, high, (n, d + 1)) * phase


class TestClosedForm:

    @pytest.mark.parametrize("d, low, high", [(2, -1.0, 1.0), (2, -150.0, 150.0),
                                              (1, -1.0, 1.0), (1, -150.0, 150.0)],
                             ids=["quadratic", "quadratic_span", "linear", "linear_span"])
    def test_random_rows_against_mpmath(self, d, low, high):
        rows = _random_rows(np.random.default_rng(23), 200, d, low, high)
        roots = companion_roots(rows)
        assert max(_conditioned_error(row, got) for row, got in zip(rows, roots)) <= ROOT_TOL

    def test_power_of_two_scaling_changes_no_bit(self):
        # the row is scaled exactly before b^2 - 4ac is formed: at 2^900,
        # where b^2 alone overflows, and at 2^-900 the roots are the
        # unscaled row's to the bit
        rows = _random_rows(np.random.default_rng(29), 200, 2)
        roots = companion_roots(rows)
        for k in (900, -900):
            assert np.array_equal(companion_roots(np.ldexp(rows.real, k) + 1j * np.ldexp(rows.imag, k)),
                                  roots)

    @pytest.mark.parametrize("m", [1.0 + 1e-9, 1.0 - 1e-9, 1.0 / PHI + 1e-10j],
                             ids=["double_point_above", "double_point_below", "branch_point"])
    def test_fig8_near_a_double_root(self, fig8, m):
        # kappa grows like 1 / |z1 - z2|: the sheets cross at the double
        # point m = 1, and meet like a square root at the branch point 1/phi
        roots, status, rows = roots_in_l_batch(fig8, np.array([m]))
        assert status[0] == 0
        assert _conditioned_error(rows[0], roots[0]) <= ROOT_TOL

    def test_real_rows_with_complex_roots_are_conjugate(self, fig8):
        # fig8 on the real axis between its branch points 1/phi and phi
        # (m = 1 aside, the double point) and random real rows with
        # b^2 < 4ac: each pair is conjugate to the bit, sorted (re, im)
        m = np.linspace(0.62, 1.61, 100)
        roots, status, rows = roots_in_l_batch(fig8, m[m != 1.0])
        # a (l - x - iy)(l - x + iy), y at least 0.1
        a, x, y = np.random.default_rng(31).uniform([-2.0, -1.0, 0.1], [2.0, 1.0, 1.0], (100, 3)).T
        real = np.stack([a * (x * x + y * y), -2.0 * a * x, a], axis=1) + 0j
        rows = np.concatenate([rows, real])
        roots = np.concatenate([roots, _solved(real)])
        assert not status.any() and np.all(roots[:, 1].imag > 0.0)
        assert np.array_equal(roots[:, 0], roots[:, 1].conj())
        assert max(_conditioned_error(row, got) for row, got in zip(rows, roots)) <= ROOT_TOL

    def test_real_rows_snap_as_before(self):
        # real roots are real to the bit; a conjugate pair within
        # REAL_SNAP_REL of the axis, -1e-13 +- 1e-13 i, is snapped onto it
        # and clustered into one double root
        assert roots_in_l(parse_poly("l^2 - 3*l + 2"), 1.0) == [1.0, 2.0]
        row = np.array([[2e-26, 2e-13, 1.0]], dtype=complex)
        assert _solved(row).tolist() == [[-1e-13 + 0j, -1e-13 + 0j]]

    def test_b_and_c_zero_is_a_double_root_at_zero(self):
        assert roots_in_l(parse_poly("m*l^2"), 3.0 - 1.0j) == [0j, 0j]
        a = _random_rows(np.random.default_rng(37), 20, 0)
        rows = np.concatenate([np.zeros((20, 2)), a], axis=1)
        assert np.array_equal(companion_roots(rows), np.zeros((20, 2), dtype=complex))

    def test_linear_rows(self):
        assert roots_in_l(parse_poly("m*l - 3"), 2.0) == [1.5]
        assert roots_in_l(parse_poly("l^-1 + m"), 4.0) == [-0.25]


_coeffs = st.integers(min_value=-9, max_value=9)
_exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(st.dictionaries(_exps, _coeffs, max_size=6))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(terms):
    p = LaurentBiPoly(dict(terms))
    assert parse_poly(print_poly(p)).terms == p.terms


@given(st.lists(_coeffs.filter(bool), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_roots_re_expansion_property(coeff_list):
    # univariate in l with nonzero leading coefficient
    terms = {(i, 0): c for i, c in enumerate(coeff_list)}
    p = LaurentBiPoly(terms)
    roots = roots_in_l(p, 1.0)
    coeffs = np.array([float(c) for c in coeff_list], dtype=complex)
    rebuilt = oracles.poly_from_roots(coeffs[-1], roots)
    assert np.allclose(rebuilt, coeffs, atol=1e-6 * np.max(np.abs(coeffs)))


_points = st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0)


@given(st.dictionaries(_exps, _coeffs.filter(bool), min_size=1, max_size=6), _points, _points)
@settings(max_examples=80, deadline=None)
def test_laurent_rows_match_the_term_map(terms, l, m):
    # Horner on one row against eval_poly term by term: equal to rounding,
    # and the row maxima give max_term
    p = LaurentBiPoly(dict(terms))
    lo, hi = l_range(p)
    v, d = horner_row_batch(laurent_rows(p, [m], lo, hi), lo, np.array([[l]]))
    value, deriv = v[0, 0], d[0, 0]
    scale = max_term(p, l, m)
    assert abs(value - eval_poly(p, l, m)) <= 1e-13 * scale
    dl = partial(p, "l")
    # the l^lo factor's product rule cancels terms of size (hi - lo) scale / |l|
    assert abs(deriv - eval_poly(dl, l, m)) <= 1e-13 * (max_term(dl, l, m)
                                                       + (hi - lo) * scale / abs(l))
    batch_scale = row_max_term_batch(term_maxima(p, [m], lo, hi), lo, np.array([l]))[0]
    assert batch_scale == pytest.approx(scale, rel=1e-14)


def test_laurent_rows_raise_at_zero_like_eval_poly():
    p = parse_poly("l + l^-1*m - m^-1")
    lo, hi = l_range(p)
    assert (lo, hi) == (-1, 1)
    for build in (laurent_rows, term_maxima):
        with pytest.raises(DomainError, match="negative exponent at zero argument"):
            build(p, [0.5, 0.0], lo, hi)
    # the readers raise nothing at l = 0 with a negative l-power: their
    # values there are not finite
    with np.errstate(divide="ignore", invalid="ignore"):
        v, d = horner_row_batch(laurent_rows(p, [0.5], lo, hi), lo, np.array([[0j]]))
        scale = row_max_term_batch(term_maxima(p, [0.5], lo, hi), lo, np.array([0j]))
    assert not (np.isfinite(v).any() or np.isfinite(d).any() or np.isfinite(scale).any())
    # without a negative m-power, m = 0 is a row like any other
    q = parse_poly("l^2 - m + 1")
    rows = laurent_rows(q, [0.0], *l_range(q))
    assert rows.tolist() == [[1, 0, 1]]
    v, d = horner_row_batch(rows, 0, np.array([[0j]]))
    assert (v.tolist(), d.tolist()) == ([[1]], [[0]])
