import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apolylab import (
    InsufficientData,
    colored_jones_fig8,
    conjecture_gap,
    growth_rate,
    jones_sequence,
    kashaev_sequence,
    vol_fig8,
)
from apolylab import jones_kashaev
from apolylab.jones_kashaev import (
    CHUNK, LogComplex, _first_zero_factor, _jones_sum, _product_sum, _root_of_unity)

TWO_PI = 2.0 * math.pi

# log <4_1>_N to 30 digits, written by summing all N terms in mpmath at 40
# digits: total += prod; prod *= (2 sinpi(k/N))^2 for k = 1 .. N - 1
# (mpmath 1.3; about 18 s at N = 10^6)
KASHAEV_LOG_30 = {
    8192: "2659.79802423476729600539299088",
    8193: "2660.1212732680204130923356915",
    16385: "5307.71710828757727995102204439",
    10 ** 5: "32323.5894626125775594553430081",
    248550: "80316.4016295193530351120674305",
    1001286: "323501.860568653727599348755328",
    10 ** 6: "323086.395832769510680859185763",
}


def unit(theta):
    return cmath.exp(1j * theta)


def as_complex(lc):
    return lc.to_complex()


class TestSmallN:

    def test_n1_is_one(self):
        for theta in (0.3, 2.0, 5.9):
            val = as_complex(colored_jones_fig8(1, unit(theta)))
            assert val == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_n2_matches_jones_polynomial(self):
        # J_2 is the Jones polynomial of the knot; the oracle builds it
        # from the Kauffman bracket state sum over the planar diagram
        thetas = [0.1 + 0.6 * k for k in range(10)]
        for theta in thetas:
            q = unit(theta)
            got = as_complex(colored_jones_fig8(2, q))
            want = oracles.jones_poly_fig8(q)
            assert got == pytest.approx(want, abs=1e-10)

    def test_n2_at_minus_one(self):
        # |V(-1)| is the determinant, 5 for this knot
        val = as_complex(colored_jones_fig8(2, -1.0 + 0j))
        assert val == pytest.approx(5.0 + 0j, abs=1e-12)

    def test_n3_at_third_root(self):
        val = as_complex(colored_jones_fig8(3, unit(TWO_PI / 3)))
        assert val == pytest.approx(13.0 + 0j, abs=1e-11)


def test_arg_is_a_half_turn():
    # values are signed reals: arg is 0 or pi, never anything between
    for N, theta in [(7, 0.9), (11, 2.2), (40, 5.5)]:
        assert colored_jones_fig8(N, unit(theta)).arg in (0.0, math.pi)


class TestAgainstDirectSum:

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 13, 21, 34, 50])
    def test_generic_unit_q(self, N):
        q = unit(1.2345)
        want = oracles.colored_jones_fig8_direct(N, q)
        got = colored_jones_fig8(N, q)
        assert got.log_abs == pytest.approx(math.log(abs(want)), rel=1e-9)
        # compare angles on the circle, not raw floats
        assert cmath.exp(1j * got.arg) == pytest.approx(
            want / abs(want), abs=1e-9)

    @pytest.mark.parametrize("N", [5, 17, 60, 131, 200])
    def test_kashaev_point(self, N):
        want = oracles.kashaev_fig8_brute(N)
        got = colored_jones_fig8(N, unit(TWO_PI / N))
        assert got.log_abs == pytest.approx(math.log(want), rel=1e-12)
        assert abs(math.remainder(got.arg, TWO_PI)) < 1e-9

    def test_sqrt_representative_irrelevant(self):
        # flipping the choice of q^{1/2} multiplies the two factors of
        # each Habiro pair by (-1)^{N-k} and (-1)^{N+k}, net (+1); the
        # sum cannot depend on the representative
        q = unit(2.71)
        N = 12
        theta = cmath.phase(q) % TWO_PI
        flipped_sq = -cmath.exp(0.5j * theta)

        total = 0j
        prod = 1.0 + 0j
        for j in range(N):
            total += prod
            k = j + 1
            prod *= (flipped_sq ** (N - k) - flipped_sq ** (-(N - k))) * (
                flipped_sq ** (N + k) - flipped_sq ** (-(N + k)))
        assert total == pytest.approx(
            oracles.colored_jones_fig8_direct(N, q), rel=1e-12)


# (N, p, k): q = e^{2 pi i p/k} with k < 2N, where a factor of the sum is
# exactly zero
CUTOFF_POINTS = [
    (200, 1, 222), (500, 1, 556), (1000, 1, 909), (300, 1, 350),
    (40, 3, 7), (25, 2, 9), (7, 1, 5), (500, 555, 556),
]


class TestRootOfUnityCutoff:
    # at q = e^{2 pi i p/k} with k < 2N a factor of the sum is exactly
    # zero; in floats it is about 1e-16 and the tail after it used to
    # grow into the result

    @pytest.mark.parametrize("N, p, k", CUTOFF_POINTS)
    def test_matches_mpmath(self, N, p, k):
        want_log, want_arg = oracles.colored_jones_fig8_mp(N, p, k)
        got = colored_jones_fig8(N, unit(TWO_PI * p / k))
        assert got.log_abs == pytest.approx(want_log, rel=1e-9, abs=1e-9)
        assert abs(math.remainder(got.arg - want_arg, TWO_PI)) < 1e-9

    def test_deformed_sequence_is_bounded(self):
        # k = round(N / 0.9) > N: the sum stops at j = k - N, far short of N
        for N, value in jones_sequence([500, 1000, 2000], a=0.9):
            assert abs(value.log_abs) < 1.0


class TestChunkedKernel:
    # the numpy kernel against the per-term loop it replaced; the logs are
    # summed in the same order, the terms are not, so the two agree to a
    # few ulps wherever the sum is well conditioned (cond < 2)

    POINTS = (
        [(N, theta) for N in (CHUNK, CHUNK + 1, 2 * CHUNK + 1)
         for theta in (1.2345, TWO_PI / N)]
        + [(N, TWO_PI * p / k) for N, p, k in CUTOFF_POINTS]
        + [(1, 1.2345), (2, 1.2345)]
    )

    @pytest.mark.parametrize("N, theta", POINTS)
    def test_matches_scalar_loop(self, N, theta):
        log_abs, arg, cond, _ = _jones_sum(N, theta)
        want_log, want_arg = oracles.jones_sum_scalar_loop(
            N, theta, _first_zero_factor(N, _root_of_unity(N, theta)))
        assert cond < 2.0
        assert arg == want_arg
        assert log_abs == pytest.approx(want_log, rel=1e-12, abs=1e-300)

    # (log_abs, arg, cond, min_factor) as float.hex.  The generic-q rows
    # were written by the kernel as it was before it skipped underflowed
    # chunks' exponentials and positive chunks' sign pass (run on a git
    # archive of commit 493a509): the skips must leave every bit of every
    # output in place.  The Kashaev rows are written by the half-sum; the
    # comment gives log_abs minus its 30-digit value (KASHAEV_LOG_30), and
    # in brackets that of the full term-order sum that they replace.  The
    # rows at N = 10^5 and 10^6 span several chunks and were written again
    # when the carry began to advance by chunk sums; their brackets also
    # give the distance of the one running sum that they replace
    PINNED = [
        # +4.1e-12 (full sum -3.2e-12)
        (8192, TWO_PI / 8192, ("0x1.4c79896a1eb84p+11", "0x0.0p+0",
                               "-0x1.d661aecc013dcp+0", "0x1.3bd3cb98226dbp-21")),
        # -4.5e-13 (-3.2e-12)
        (8193, TWO_PI / 8193, ("0x1.4c83e1787a00dp+11", "0x0.0p+0",
                               "-0x1.d662e4fc40f0ap+0", "0x1.3bc00f484e206p-21")),
        # +1.5e-11 (-4.8e-11)
        (16385, TWO_PI / 16385, ("0x1.4bbb79468a2e6p+12", "0x0.0p+0",
                                 "-0x1.fceb0d4186788p+0", "0x1.3bc9edf7c98c1p-23")),
        # +7.3e-12 (running sum +1.6e-10, full sum -7.6e-11)
        (10 ** 5, TWO_PI / 10 ** 5, ("0x1.f90e5b9c164d1p+14", "0x0.0p+0",
                                     "-0x1.30bb756257547p+1", "0x1.0f4b2aace4d7ep-28")),
        # -5.8e-11 (running sum -5.8e-11, full sum +1.0e-8); only cond moved
        (10 ** 6, TWO_PI / 10 ** 6, ("0x1.3b83995552f7ep+18", "0x0.0p+0",
                                     "-0x1.70bb6d1fc98e3p+1", "0x1.5b417e4fd77b4p-35")),
        (500, TWO_PI / 556, ("-0x1.4f2ef321ba50fp-2", "0x0.0p+0",
                             "0x1.2322f834d7ea6p-3", "0x1.b2a2a82157a0ep-7")),
        (20000, 0.7, ("0x1.2f6ec8a69b9d8p+2", "0x0.0p+0",
                      "0x1.79cad4c7ffb7cp+2", "0x1.f53835ec4d6ddp-13")),
        (16385, 1.2345, ("0x1.ccf734908541dp+2", "0x1.921fb54442d18p+1",
                         "-0x1.a9dfd2b28ac1fp-2", "0x1.724834688adddp-16")),
        # chunks that add nothing hold negative factors here and carry
        # the sign into a later chunk that does add
        (60000, TWO_PI * (1.5 + math.sqrt(5) * 1e-6) / 60000,
         ("0x1.92f9687d356d5p+13", "0x0.0p+0",
          "0x1.73bfa5454147dp+3", "0x1.81d6fe1e8b7a6p-33")),
    ]

    @pytest.mark.parametrize("N, theta, want", PINNED)
    def test_outputs_are_pinned_to_the_bit(self, N, theta, want):
        assert _jones_sum(N, theta) == tuple(float.fromhex(x) for x in want)

    @pytest.mark.parametrize("N, p", [(N, 1) for N in (8192, 8193, 16385, 10 ** 5, 10 ** 6)]
                             + [(24577, 3)])
    def test_skipped_chunks_change_no_bit(self, monkeypatch, N, p):
        # with EXP_UNDERFLOW at inf no chunk is skipped, neither its prefix
        # sums in the half-sum nor its exponentials in the fold
        want = _jones_sum(N, TWO_PI * p / N)
        monkeypatch.setattr(jones_kashaev, "EXP_UNDERFLOW", math.inf)
        assert _jones_sum(N, TWO_PI * p / N) == want

    def test_underflowed_chunks_take_no_exponential(self, monkeypatch):
        # at the Kashaev point N = 10^6 the half-sum builds the terms
        # j <= (N - 1)/2 in 62 chunks and folds each chunk twice, its terms
        # and their reflections; 101 of the 124 folds lie more than
        # EXP_UNDERFLOW below the largest term before them, where np.exp
        # gives exactly 0.  40 chunks have log-factors of one sign and both
        # folds there, so they take no np.cumsum either; the other 22 fold
        # 23 times.  np.sin runs on the first chunk only and np.cos once,
        # for the table of the chunks after it; no factor is negative, so
        # no chunk takes the cumulative product of signs
        calls = {"sin": 0, "cos": 0, "cumsum": 0, "exp": 0, "cumprod": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        N = 10 ** 6
        _jones_sum(N, TWO_PI / N)
        assert -(-((N - 1) // 2) // CHUNK) == 62
        assert calls == {"sin": 1, "cos": 1, "cumsum": 22, "exp": 23, "cumprod": 0}

    def test_skipped_chunks_take_only_the_sign_parity(self, monkeypatch):
        # here 8 chunks hold negative factors and 5 of them add nothing:
        # those carry only the parity of their negative factors, and the
        # cumulative product of signs is taken in the 3 chunks that add
        calls = {"exp": 0, "cumprod": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        _jones_sum(60000, TWO_PI * (1.5 + math.sqrt(5) * 1e-6) / 60000)
        assert calls == {"exp": 3, "cumprod": 3}

    def test_stops_at_an_exact_zero_factor(self):
        # at theta = 2e-166 the factors underflow to exactly 0.0 from
        # j = 14378 on, inside the second chunk; with the root-of-unity
        # cut-off lifted (q reads as 1 there) only the float test can end
        # the sum there
        N, theta = 2 * CHUNK + 1, 2e-166
        with np.errstate(divide="raise"):
            got = _product_sum(N, theta, N)
        assert got[:2] == oracles.jones_sum_scalar_loop(N, theta, N)
        assert got[3] > 0.0
        # pinned like PINNED: the factors that are not 0.0 reach down to
        # the smallest subnormal
        assert got == (0.0, 0.0, 0.0, float.fromhex("0x0.0000000000001p-1022"))

    def test_single_term(self):
        assert colored_jones_fig8(1, unit(1.2345)) == LogComplex(
            log_abs=0.0, arg=0.0, cond=0.0, min_factor=math.inf)

    def test_ill_conditioned_value_is_flagged(self):
        # the terms reach 10^5.9 times the sum: the factors' rounding at
        # arguments near 7000 leaves both kernels about 7e-6 off in log|J|
        N, theta = 20000, 0.7
        got = colored_jones_fig8(N, unit(theta))
        assert got.cond == pytest.approx(5.9, abs=0.05)
        want = oracles.colored_jones_fig8_mp_theta(N, theta)
        loop_log, _ = oracles.jones_sum_scalar_loop(N, theta, N)
        assert abs(got.log_abs - want) < 1e-5
        assert abs(loop_log - want) < 1e-5

    def test_kashaev_conditioning(self):
        # positive terms: the sum exceeds its largest term by about 10^2.9;
        # the smallest factor is 4 sin^2(pi/N), the first (and the last),
        # read off sin(pi/N) rather than off a sine near pi
        N = 10 ** 6
        got = colored_jones_fig8(N, unit(TWO_PI / N))
        assert got.cond == pytest.approx(-2.9, abs=0.05)
        assert got.min_factor == pytest.approx(4.0 * math.sin(math.pi / N) ** 2,
                                               rel=1e-14)

    def test_deformed_conditioning(self):
        # the sum stops before j = 556 - 500, its first zero factor
        got = colored_jones_fig8(500, unit(TWO_PI / 556))
        assert got.cond == pytest.approx(0.14, abs=0.01)
        want = min(abs(4.0 * math.sin(math.pi * (500 - j) / 556)
                       * math.sin(math.pi * (500 + j) / 556)) for j in range(1, 56))
        assert got.min_factor == pytest.approx(want, rel=1e-12)

    def test_large_kashaev_value(self):
        N = 10 ** 5
        got = colored_jones_fig8(N, unit(TWO_PI / N))
        assert got.log_abs == pytest.approx(oracles.kashaev_log_sum_exp(N), rel=1e-12)
        assert got.arg == 0.0

    def test_logs_accumulate_by_chunk_sums(self):
        # each chunk's prefix sums start from 0 and the carried log|prod|
        # advances by the chunk's pairwise sum, so no rounding walks more
        # than CHUNK steps: 5.8e-11 (one ulp) off the correctly rounded
        # oracle at N = 10^6, where one running sum over all N terms was
        # 1.0e-8 off
        N = 10 ** 6
        got = colored_jones_fig8(N, unit(TWO_PI / N))
        assert abs(got.log_abs - oracles.kashaev_log_sum_exp(N)) < 2e-10

    def test_oracle_matches_30_digit_values(self):
        # the oracle's logs are correctly rounded prefix sums, so it shares
        # no accumulated rounding with the kernel's running sum
        for N in (10 ** 5, 248550, 1001286, 10 ** 6):
            want = float(KASHAEV_LOG_30[N])
            assert abs(oracles.kashaev_log_sum_exp(N) - want) < 1e-10

    @pytest.mark.parametrize("N", sorted(KASHAEV_LOG_30))
    def test_kashaev_value_to_3e_14(self, N):
        # held to 1e-14, under the 3e-14 of the name: the worst of these is
        # 2.7e-15 relative, at N = 16385 (one chunk)
        got = colored_jones_fig8(N, unit(TWO_PI / N))
        assert got.log_abs == pytest.approx(float(KASHAEV_LOG_30[N]), rel=1e-14)

    def test_memory_stays_flat_in_n(self):
        # chunked work arrays: whole-length arrays at N = 10^6 peak at 53 MB
        N = 10 ** 6
        q = unit(TWO_PI / N)
        tracemalloc.start()
        try:
            colored_jones_fig8(N, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


# (N, p): q = e^{2 pi i p/N} of order N, for p in {1, N - 1, 3} prime to N
PRIMITIVE_POINTS = sorted({(N, p % N) for N in (1, 2, 3, 4, 5, 500, 4000, 8192, 8193)
                           for p in (1, N - 1, 3) if math.gcd(p, N) == 1})
# the same past one chunk: the first chunk of N = 16387 and 16388 ends at
# j = 8192 and the next holds the one term j = 8193; that of N = 24577
# holds the 4096 terms j = 8193 .. 12288
TABLE_N = (16387, 16388, 24577)
MULTI_CHUNK_POINTS = [(N, p) for N in (16387, 24577) for p in (3, N - 1)]


class TestHalfSum:
    # at q of order N the terms reflect, t_{N-1-j} = N^2 / t_j, and the
    # sum is built from the terms j <= (N - 1)/2

    @pytest.mark.parametrize("N, p", PRIMITIVE_POINTS + MULTI_CHUNK_POINTS)
    def test_matches_mpmath(self, N, p):
        want_log, want_arg = oracles.colored_jones_fig8_mp(N, p, N)
        got = _jones_sum(N, TWO_PI * p / N)
        assert got[0] == pytest.approx(want_log, rel=3e-14, abs=1e-15)
        assert got[1] == want_arg == 0.0

    @pytest.mark.parametrize("N", TABLE_N)
    def test_table_chunks_match_the_oracle(self, N):
        # at p = 1 the chunks after the first take their sines from tables
        got = _jones_sum(N, TWO_PI / N)
        assert got[0] == pytest.approx(oracles.kashaev_log_sum_exp(N), rel=1e-14)
        assert got[1] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(half=st.integers(1, 1500), odd=st.booleans())
    def test_matches_the_term_by_term_sum(self, half, odd):
        # odd N has a middle term, its own reflection; even N has none
        N = 2 * half - odd
        got = _jones_sum(N, TWO_PI / N)
        want = _product_sum(N, TWO_PI / N, N)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
        assert got[1] == want[1] == 0.0
        assert got[3] == pytest.approx(want[3], rel=1e-12)

    def test_middle_term_counted_once(self):
        # N = 3: t_0 = 1, t_1 = 4 sin^2(pi/3) = 3 (the middle), t_2 = 9
        assert math.exp(_jones_sum(3, TWO_PI / 3)[0]) == pytest.approx(13.0, rel=1e-15)
        # N = 4: 1 + 2 + 8 + 16, no middle term
        assert math.exp(_jones_sum(4, TWO_PI / 4)[0]) == pytest.approx(27.0, rel=1e-15)


class TestSequences:

    def test_kashaev_sequence_positive_and_growing(self):
        seq = kashaev_sequence(list(range(10, 41, 5)))
        logs = [v.log_abs for _, v in seq]
        for _, v in seq:
            assert abs(math.remainder(v.arg, TWO_PI)) < 1e-6
        assert all(b > a for a, b in zip(logs, logs[1:]))

    def test_jones_sequence_k_rounding(self):
        seq = jones_sequence([10, 20], a=3.0)
        assert [n for n, _ in seq] == [10, 20]
        fit_input = growth_rate(jones_sequence([12, 24, 36, 48], a=3.0), a=3.0)
        assert fit_input.k_values == (4, 8, 12, 16)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            colored_jones_fig8(0, 1j)
        with pytest.raises(ValueError):
            colored_jones_fig8(2, 1.01 + 0j)
        with pytest.raises(ValueError):
            jones_sequence([1], a=3.0)  # round(1/3) < 1


class TestGrowthFit:

    def _synthetic(self, slope, n_list, corr=1.5, intercept=-0.7):
        out = []
        for n in n_list:
            log_abs = (slope / TWO_PI) * n + corr * math.log(n) + intercept
            out.append((n, LogComplex(log_abs=log_abs, arg=0.0)))
        return out

    def test_recovers_exact_model(self):
        seq = self._synthetic(2.03, [100, 200, 400, 800, 1600])
        fit = growth_rate(seq)
        assert fit.slope == pytest.approx(2.03, abs=1e-10)
        assert fit.log_correction == pytest.approx(1.5, abs=1e-9)
        assert fit.intercept == pytest.approx(-0.7, abs=1e-8)
        assert fit.rms < 1e-10
        assert fit.k_values == (100, 200, 400, 800, 1600)

    def test_too_few_points(self):
        seq = self._synthetic(2.0, [100, 200, 400])
        with pytest.raises(InsufficientData):
            growth_rate(seq)

    def test_requires_increasing_n(self):
        seq = self._synthetic(2.0, [100, 200, 400, 800])
        seq[2], seq[3] = seq[3], seq[2]
        with pytest.raises(ValueError):
            growth_rate(seq)

    def test_kashaev_slope_near_volume(self):
        fit = growth_rate(kashaev_sequence([200, 400, 800, 1600]))
        assert abs(fit.slope - vol_fig8()) < 1e-3
        # hyperbolic growth carries the standard N^{3/2} amplitude
        assert fit.log_correction == pytest.approx(1.5, abs=0.05)


class TestConjectureGap:

    def test_gap_value_and_report(self):
        seq = kashaev_sequence([200, 400, 800, 1600])
        fit = growth_rate(seq)
        gap, report = conjecture_gap(fit, vol_fig8(), 0.0)
        assert gap == pytest.approx(abs(fit.slope - vol_fig8()) / TWO_PI,
                                    abs=1e-15)
        assert gap < 1e-3
        assert "LHS" in report and "RHS" in report and "gap" in report
        assert "U convention" not in report

    def test_report_with_u_value(self):
        fit = growth_rate(self_seq())
        _, report = conjecture_gap(fit, 2.0, 0.1, u_val=4.0)
        assert "U convention" in report
        assert "2pi^2 CS convention" in report


def self_seq():
    out = []
    for n in (100, 200, 400, 800):
        log_abs = (2.0 / TWO_PI) * n + 1.5 * math.log(n)
        out.append((n, LogComplex(log_abs=log_abs, arg=0.0)))
    return out
