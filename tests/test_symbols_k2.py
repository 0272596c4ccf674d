import math
from dataclasses import replace

import pytest

from apolylab import (
    AmbiguousWinding,
    ExtrapolationUnstable,
    LineSeg,
    NoRational,
    NotClosed,
    PathSpec,
    StepControls,
    estimate_symbol_order,
    lift_path,
    loop_around_m,
    parse_poly,
    recognize_rational,
    tame_symbol,
    valuation,
)
from apolylab import curve_tracker
from apolylab.symbols_k2 import RationalRecognition
from conftest import big_root, small_root


def _square_loop(poly, r, ctrl):
    segs = (LineSeg(r, r * 1j), LineSeg(r * 1j, -r),
            LineSeg(-r, -r * 1j), LineSeg(-r * 1j, r))
    seed = small_root(poly, r)
    return lift_path(poly, PathSpec(segments=segs, l_seed=seed, closed=True), ctrl)


def test_valuation_fig8_small_sheet(fig8, ctrl):
    loop = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    v_l = valuation(loop, "l")
    v_m = valuation(loop, "m")
    assert (v_l, v_m) == (4, 1)


def test_valuation_fig8_big_sheet(fig8, ctrl):
    loop = lift_path(fig8, loop_around_m(fig8, 0j, 0.35, big_root(fig8, 0.35)), ctrl)
    assert valuation(loop, "l") == -4
    assert valuation(loop, "m") == 1


def test_valuation_counts_total_winding(fig8, ctrl):
    # two turns double the reading; the symbol of the squared cycle
    loop2 = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3),
                                          turns=2), ctrl)
    assert valuation(loop2, "l") == 8
    assert valuation(loop2, "m") == 2


def test_valuation_additive_under_concat(fig8, ctrl):
    # the two-turn loop is the single turn traversed twice
    a = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    twice = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3), turns=2),
                      ctrl)
    assert valuation(twice, "l") == 2 * valuation(a, "l")


def test_valuation_role_validation(fig8, ctrl):
    loop = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    with pytest.raises(ValueError):
        valuation(loop, "x")


def test_valuation_ambiguous_on_ramified_witness(ctrl):
    # around the branch point of l^2 = m the lift winds half a turn: it
    # does not close, so it is lifted as an open route
    p = parse_poly("l^2 - m")
    spec = loop_around_m(p, 0j, 1.0, 1.0)
    with pytest.raises(NotClosed):
        lift_path(p, spec, ctrl)
    loop = lift_path(p, replace(spec, closed=False), ctrl)
    with pytest.raises(AmbiguousWinding):
        valuation(loop, "l")


def test_tame_symbol_fig8_puncture(fig8, ctrl):
    loop = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    t = tame_symbol(loop, valuation(loop, "l"), valuation(loop, "m"))
    assert t == pytest.approx(1.0, abs=1e-9)


def test_tame_symbol_linear_curves(ctrl):
    # l = 1 - m: the symbol is Steinberg-trivial at both punctures
    lin1 = parse_poly("m + l - 1")
    for center, seed in ((1.0 + 0j, -0.1), (0j, 0.9)):
        loop = lift_path(lin1, loop_around_m(lin1, center, 0.1, seed), ctrl)
        t = tame_symbol(loop, valuation(loop, "l"), valuation(loop, "m"))
        assert t == pytest.approx(1.0, abs=1e-9)
    # l = 2 - m: value 1/2 at m=2 (around l=0) and 2 at m=0 (around l=2)
    lin2 = parse_poly("m + l - 2")
    loop_l0 = lift_path(lin2, loop_around_m(lin2, 2.0 + 0j, 0.1, -0.1), ctrl)
    t_l0 = tame_symbol(loop_l0, valuation(loop_l0, "l"), valuation(loop_l0, "m"))
    assert t_l0 == pytest.approx(0.5, abs=1e-9)
    loop_m0 = lift_path(lin2, loop_around_m(lin2, 0j, 0.1, 1.9), ctrl)
    t_m0 = tame_symbol(loop_m0, valuation(loop_m0, "l"), valuation(loop_m0, "m"))
    assert t_m0 == pytest.approx(2.0, abs=1e-9)


def test_tame_symbol_odd_odd_sign(ctrl):
    # on l m = 2 both valuations at m=0 are odd, so the sign flips
    p = parse_poly("l*m - 2")
    loop = lift_path(p, loop_around_m(p, 0j, 0.1, 20.0), ctrl)
    v_l = valuation(loop, "l")
    v_m = valuation(loop, "m")
    assert (v_l, v_m) == (-1, 1)
    assert tame_symbol(loop, v_l, v_m) == pytest.approx(-2.0, abs=1e-12)


def test_tame_symbol_inverse_cycle(fig8, ctrl):
    loop = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3),
                                         turns=-1), ctrl)
    v_l = valuation(loop, "l")
    v_m = valuation(loop, "m")
    assert (v_l, v_m) == (-4, -1)
    assert tame_symbol(loop, v_l, v_m) == pytest.approx(1.0, abs=1e-9)


def test_tame_symbol_square_witness(fig8, ctrl):
    # Cauchy's formula holds on any witness shape, not only on circles
    for half_width, tol in ((0.1, 1e-10), (0.3, 1e-9)):
        loop = _square_loop(fig8, half_width, ctrl)
        v_l = valuation(loop, "l")
        v_m = valuation(loop, "m")
        assert (v_l, v_m) == (4, 1)
        assert tame_symbol(loop, v_l, v_m) == pytest.approx(1.0, abs=tol)


def test_tame_symbol_two_turns_of_a_ramified_sheet(ctrl):
    # l^2 = m: two turns of m close the loop once around l = 0
    p = parse_poly("l^2 - m")
    loop = lift_path(p, loop_around_m(p, 0j, 0.5, math.sqrt(0.5), turns=2), ctrl)
    v_l = valuation(loop, "l")
    v_m = valuation(loop, "m")
    assert (v_l, v_m) == (1, 2)
    assert tame_symbol(loop, v_l, v_m) == pytest.approx(1.0, abs=1e-12)


def test_tame_symbol_rejects_eccentric_witness(fig8, ctrl):
    # the circle passes 8e-3 from the branch point 1/phi and the wide
    # square's corner at 0.5 is 0.12 from it: the residues on the two
    # meshes differ by more than 1e-4 of |T|, the square's on 100
    # intervals per side.  On the default 128, a multiple of 16, Romberg
    # certifies the square's sides and T reads 1 within 1e-11 (1.6e-12)
    circle = lift_path(fig8, loop_around_m(fig8, 0j, 0.61, small_root(fig8, 0.61)), ctrl)
    for loop in (circle, _square_loop(fig8, 0.5, StepControls(max_step=0.01))):
        v_l = valuation(loop, "l")
        v_m = valuation(loop, "m")
        with pytest.raises(ExtrapolationUnstable):
            tame_symbol(loop, v_l, v_m)
    square = _square_loop(fig8, 0.5, ctrl)
    assert abs(tame_symbol(square, valuation(square, "l"), valuation(square, "m")) - 1.0) < 1e-11


def test_tame_symbol_lifts_nothing(fig8, ctrl, monkeypatch):
    loop = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    calls = []
    track_grid = curve_tracker._track_grid

    def counted(*args, **kwargs):
        calls.append(args[2])
        return track_grid(*args, **kwargs)

    monkeypatch.setattr(curve_tracker, "_track_grid", counted)
    tame_symbol(loop, valuation(loop, "l"), valuation(loop, "m"))
    assert calls == []


def test_recognize_rational_exact_cases():
    assert recognize_rational(0.5) == RationalRecognition(1, 2, 0.0)
    assert recognize_rational(-2.0).p == -2
    assert recognize_rational(-2.0).q == 1
    assert recognize_rational(0.0) == RationalRecognition(0, 1, 0.0)
    rec = recognize_rational(1.0 / 3.0)
    assert (rec.p, rec.q) == (1, 3) and rec.residual < 1e-15
    assert recognize_rational(47.0 / 48.0, q_max=48).q == 48


def test_recognize_rational_near_miss():
    rec = recognize_rational(0.3333333, tol=1e-5)
    assert (rec.p, rec.q) == (1, 3)
    assert 0 < rec.residual < 1e-6
    assert rec.stable is False


def test_recognize_rational_failure_carries_best():
    with pytest.raises(NoRational) as err:
        recognize_rational(1.0 / 97.0, q_max=48, tol=1e-5)
    best = err.value.best
    assert best.q <= 48
    assert best.residual > 1e-5
    with pytest.raises(ValueError):
        recognize_rational(0.5, q_max=0)


def test_estimate_symbol_order():
    recs = [
        RationalRecognition(1, 2, 0.0, stable=True),
        RationalRecognition(1, 3, 0.0, stable=True),
        RationalRecognition(5, 7, 0.0, stable=False),  # unstable: ignored
    ]
    assert estimate_symbol_order(recs) == 6
    assert estimate_symbol_order([RationalRecognition(-2, 1, 0.0, stable=True)]) == 1
    with pytest.raises(ValueError):
        estimate_symbol_order([])
    with pytest.raises(ValueError):
        estimate_symbol_order([RationalRecognition(1, 2, 0.0, stable=False)])

