import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from apolylab import (
    ArcSeg,
    LineSeg,
    NotClosed,
    PathSpec,
    StepControls,
    cli_app,
    cs_along,
    integrate_eta,
    integrate_xi,
    lift_path,
    loop_around_m,
    one_forms,
    parse_poly,
    refine,
    track_refined,
    vol_along,
    vol_fig8,
)
from apolylab import curve_tracker
from apolylab.curve_tracker import TrackedPath
from apolylab.one_forms import (
    cs1_from,
    kirk_klassen,
    kk_exponent,
    regulator,
    regulator_exponent,
    special_cs_from,
    trapezoid,
    vol_from,
)
from conftest import big_root, small_root, unit

TWO_PI = 2.0 * math.pi
FOUR_PI2 = 4.0 * math.pi ** 2


def _arc_path(poly, theta0, theta1, radius=0.3, which="small", ctrl=StepControls()):
    m0 = radius * unit(theta0)
    seed = small_root(poly, m0) if which == "small" else big_root(poly, m0)
    spec = PathSpec(segments=(ArcSeg(0j, radius, theta0, theta1),), l_seed=seed)
    return lift_path(poly, spec, ctrl)


def _reversed_arc_path(poly, path, theta0, theta1, radius=0.3, ctrl=StepControls()):
    """The arc of _arc_path from theta1 back to theta0, lifted on its own
    from path's last l."""
    spec = PathSpec(segments=(ArcSeg(0j, radius, theta1, theta0),), l_seed=complex(path.l[-1]))
    return lift_path(poly, spec, ctrl)


def _stationary_path(fig8):
    spec = PathSpec(segments=(LineSeg(0.3, 0.3),), l_seed=small_root(fig8, 0.3))
    return lift_path(fig8, spec, StepControls())


def test_zero_length_path_integrals(fig8):
    path = _stationary_path(fig8)
    assert integrate_eta(path).value == 0.0
    assert integrate_xi(path).value == 0.0
    assert cs1_from(integrate_eta(path).value, integrate_xi(path).value) == 0j
    assert vol_along(path, 2.5) == 2.5
    assert cs_along(path, 0.125) == 0.125


def test_eta_vanishes_on_closed_loops(fig8, ctrl):
    # eta is exact, so every closed-loop period is zero
    for center, radius, which in [
        (0j, 0.3, "small"),
        (0j, 0.35, "big"),
        (2.0 + 0j, 0.25, "small"),
    ]:
        m0 = center + radius
        seed = small_root(fig8, m0) if which == "small" else big_root(fig8, m0)
        path = lift_path(fig8, loop_around_m(fig8, center, radius, seed), ctrl)
        res = integrate_eta(path)
        assert abs(res.value) < 1e-6
        assert res.n_samples == path.n_samples


def test_xi_periods_are_lattice_points(fig8, ctrl):
    small = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    big = lift_path(fig8, loop_around_m(fig8, 0j, 0.35, big_root(fig8, 0.35)), ctrl)
    assert integrate_xi(small).value / FOUR_PI2 == pytest.approx(-2.0, abs=1e-9)
    assert integrate_xi(big).value / FOUR_PI2 == pytest.approx(2.0, abs=1e-9)
    contract = lift_path(
        fig8, loop_around_m(fig8, 2.0 + 0j, 0.25, small_root(fig8, 2.25)), ctrl)
    assert integrate_xi(contract).value / FOUR_PI2 == pytest.approx(0.0, abs=1e-9)


def test_vol_constant_on_closed_loops(fig8, ctrl):
    path = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    assert vol_along(path, vol_fig8()) == pytest.approx(vol_fig8(), abs=1e-8)


def test_reversal_negates_form_integrals(fig8, ctrl):
    path = _arc_path(fig8, 0.4, 1.0, ctrl=ctrl)
    rev = _reversed_arc_path(fig8, path, 0.4, 1.0, ctrl=ctrl)
    assert integrate_eta(rev).value == pytest.approx(-integrate_eta(path).value, abs=1e-12)
    assert integrate_xi(rev).value == pytest.approx(-integrate_xi(path).value, abs=1e-12)


def test_concat_adds_form_integrals(fig8, ctrl):
    # no-wrap region: principal bases of the two halves line up with the
    # continued unwrap, so the split is exactly additive
    a = _arc_path(fig8, 0.4, 0.7, ctrl=ctrl)
    b = _arc_path(fig8, 0.7, 1.0, ctrl=ctrl)
    whole = lift_path(fig8, PathSpec(segments=(ArcSeg(0j, 0.3, 0.4, 0.7),
                                               ArcSeg(0j, 0.3, 0.7, 1.0)),
                                     l_seed=small_root(fig8, 0.3 * unit(0.4))), ctrl)
    for form in (integrate_eta, integrate_xi):
        assert form(whole).value == pytest.approx(
            form(a).value + form(b).value, abs=1e-10)


def test_quadrature_convergence_order(fig8):
    # on the 0.01 ladder the first mesh (100 intervals, not a multiple of
    # 8) takes one Richardson step; from 200 intervals on the ratio test
    # certifies the Romberg diagonal, which is at rounding level already.
    # On 200 intervals (8 divides them, 16 does not) est_error is R1's
    # spread |R1(h) - R1(2h)|; from 400 on the stride-16 sum passes the
    # third ratio gate and est_error is R2's spread |R2(h) - R2(2h)|, which
    # bounds R3's error, floored at the rounding level.  The default
    # ladder's 128 intervals, a multiple of 16, give R2's spread on the
    # first lift
    seed = small_root(fig8, 0.3 * unit(0.3))
    want = oracles.fig8_arc_integrals(0j, 0.3, 0.3, 1.4, seed)["eta"]

    def ladder(ctrl):
        results = []
        for _ in range(4):
            path = _arc_path(fig8, 0.3, 1.4, ctrl=ctrl)
            res = integrate_eta(path)
            assert abs(res.value - want) <= res.est_error
            results.append((path, res))
            ctrl = refine(ctrl)
        return results

    def assert_r2_spread(path, res):
        t = _form_sums(path, "eta", (1, 2, 4, 8))
        _, r2 = _romberg_columns(t)
        floor = (path.n_samples - 1) * one_forms.ROUNDING * abs(t[0])
        assert res.est_error == pytest.approx(max(abs(r2[0] - r2[1]), floor), rel=1e-12)

    results = ladder(StepControls(max_step=0.01))
    assert [r.certified for _, r in results] == [False, True, True, True]
    assert 1e-11 < abs(results[0][1].value - want) < 1e-9
    for _, res in results[1:]:
        assert abs(res.value - want) < 1e-13
    path, res = results[1]
    r1, _ = _romberg_columns(_form_sums(path, "eta", (1, 2, 4, 8)))
    assert res.est_error == pytest.approx(abs(r1[0] - r1[1]), rel=1e-12)
    for path, res in results[2:]:
        assert_r2_spread(path, res)
        assert res.est_error < abs(r1[0] - r1[1]) / 50.0
    default = ladder(StepControls())
    assert [path.n_samples for path, _ in default] == [129, 257, 513, 1025]
    for path, res in default:
        assert res.certified and abs(res.value - want) < 1e-13
        assert_r2_spread(path, res)


def _eta_table(path):
    return one_forms._FORMS["eta"](path, one_forms._table(path, path.log_l, path.log_m))


def _two_gate_romberg(n_samples, t):
    """_romberg's certified branch without the third gate: R3, R2 and R1's
    spread floored at the rounding level, from T0..T3."""
    r1, r2 = _romberg_columns(list(t[:4]))
    r3 = r2[0] + (r2[0] - r2[1]) / 63.0
    est = max(abs(r1[0] - r1[1]), (n_samples - 1) * one_forms.ROUNDING * abs(t[0]))
    return r3.item(), r2[0].item(), float(est), True


def test_eight_but_not_sixteen_intervals_keeps_r1_spread(fig8):
    # 200 intervals: the table stops at T3 and the result is the
    # two-gate rule's, bit for bit; 400 intervals add T4
    path = _arc_path(fig8, 0.3, 1.4, ctrl=StepControls(max_step=1.0 / 200))
    t = _eta_table(path)
    assert len(t) == 4
    assert one_forms._romberg(path, t) == _two_gate_romberg(path.n_samples, t)
    finer = _arc_path(fig8, 0.3, 1.4, ctrl=StepControls(max_step=1.0 / 400))
    assert len(_eta_table(finer)) == 5


@pytest.mark.parametrize("miss, sharp", [(1.5, False), (-1.5, False), (0.5, True)])
def test_third_ratio_gate_on_a_perturbed_t4(fig8, miss, sharp):
    # move T4 so that (T3 - T4)/(T2 - T3) reads 4 + miss RHO_COARSE_TOL:
    # past the gate the estimate falls back to R1's spread, the value and
    # lower entry never move
    path = _arc_path(fig8, 0.3, 1.4, ctrl=StepControls(max_step=1.0 / 400))
    t = _eta_table(path)
    t[4] = t[3] - (4.0 + miss * one_forms.RHO_COARSE_TOL) * (t[2] - t[3])
    value, lower, est, certified = one_forms._romberg(path, t)
    fallback = _two_gate_romberg(path.n_samples, t)
    assert (value, lower, certified) == fallback[:2] + (True,)
    _, r2 = _romberg_columns(list(t))
    floor = (path.n_samples - 1) * one_forms.ROUNDING * abs(t[0])
    assert est == (max(abs(r2[0] - r2[1]), floor) if sharp else fallback[2])
    assert sharp == (est < fallback[2])


def test_sharp_estimate_never_drops_below_rounding():
    # T_k = 1 + c 4^k + e 16^k: R2 removes both terms, so its spread is
    # rounding noise, while R1's spread is 60 e; the estimate is the
    # floor (n - 1) eps |T0| on the five-entry table and R1's spread on
    # the four-entry one
    n_samples, c, e = 401, 1e-9, 1e-14
    t = np.array([1.0 + c * 4.0 ** k + e * 16.0 ** k for k in range(5)])
    floor = (n_samples - 1) * one_forms.ROUNDING * abs(t[0])
    path = curve_tracker.TrackedPath(
        t=np.zeros(n_samples), l=np.ones(n_samples, complex), m=np.ones(n_samples, complex),
        log_l=np.zeros(n_samples, complex), log_m=np.zeros(n_samples, complex),
        residual_max=0.0, closed=False)
    _, r2 = _romberg_columns(list(t))
    assert abs(r2[0] - r2[1]) < floor
    assert one_forms._romberg(path, t)[2:] == (floor, True)
    est = one_forms._romberg(path, t[:4])[2]
    assert est == pytest.approx(60.0 * e, rel=1e-2) and est > floor


def test_est_error_contracts(fig8):
    coarse = integrate_xi(_arc_path(fig8, 0.3, 1.4))
    fine = integrate_xi(_arc_path(fig8, 0.3, 1.4, ctrl=refine(StepControls())))
    assert fine.est_error < coarse.est_error / 2.5


def test_track_refined_meets_target(fig8, ctrl):
    spec = PathSpec(segments=(ArcSeg(0j, 0.3, 0.3, 1.0),),
                    l_seed=small_root(fig8, 0.3 * unit(0.3)))
    path, results, used = track_refined(fig8, spec, ctrl, target=1e-9)
    assert set(results) == {"eta", "xi"}
    for res in results.values():
        assert res.est_error <= 1e-9
        assert res.n_samples == path.n_samples
    # the default mesh certifies the arc on its first lift; from 0.01 it
    # halves once
    assert used == ctrl and path.n_samples == 129
    _, _, used = track_refined(fig8, spec, StepControls(max_step=0.01), target=1e-9)
    assert used.max_step == 0.005
    # the halving budget bounds the work even for unreachable targets
    path, capped, used = track_refined(fig8, spec, ctrl, target=0.0, max_halvings=1)
    assert all(r.est_error > 0.0 for r in capped.values())
    # ... and returns the controls its path was lifted with
    assert used.max_step == ctrl.max_step / 2
    assert path.n_samples == math.ceil(1.0 / used.max_step) + 1


def test_track_refined_stops_at_the_rounding_floor(fig8, ctrl, monkeypatch):
    # the same arc at target 1e-13: eta meets it at 257 samples, xi's
    # est_error there is its rounding floor (n - 1) eps |T0|, 1.16e-13, and
    # each halving only doubles that floor; refinement stops after lifting
    # 129 + 257 samples instead of spending six halvings (16,263 samples)
    # and ending uncertified at 8,193, and the shortfall is still reported
    lifted = []
    lift = one_forms.lift_path

    def counted_lift(*args):
        path = lift(*args)
        lifted.append(path.n_samples)
        return path

    monkeypatch.setattr(one_forms, "lift_path", counted_lift)
    spec = PathSpec(segments=(ArcSeg(0j, 0.3, 0.3, 1.0),),
                    l_seed=small_root(fig8, 0.3 * unit(0.3)))
    path, res, used = track_refined(fig8, spec, ctrl, target=1e-13)
    assert lifted == [129, 257] and path.n_samples == 257 and used == refine(ctrl)
    xi_table = one_forms._FORMS["xi"](path, path.log_table)
    assert res["xi"].est_error == one_forms._rounding_floor(path, xi_table)
    assert res["xi"].est_error == pytest.approx(1.16e-13, rel=0.01)
    assert res["eta"].est_error < 1e-13
    assert one_forms.quadrature_shortfall(path, res, 1e-13) == (
        "est_error xi 1.2e-13 misses target 1e-13")


def test_default_mesh_has_t4_on_a_first_lift(fig8):
    # 128 intervals per segment, a multiple of 16: the first lift of the
    # demo's two-segment a = 0.9 route has the whole table, T0 to T4
    spec, _ = cli_app._conjecture_path(cli_app.load_knots()["fig8"], 0.9)
    path = lift_path(fig8, spec, StepControls())
    assert path.uniform and path.segment_intervals == (128, 128)
    assert len(path.log_table) == 5
    assert integrate_eta(path).certified


@pytest.mark.parametrize("graded", [False, True])
def test_one_table_per_lift(fig8, monkeypatch, graded):
    # track_refined builds the table of int log l dlog m once for each lift
    # it judges (a graded route's first lift only decides the grading),
    # and the path it returns carries it: its six public integrals build
    # none, and equal those of a freshly built table bit for bit
    built, lifts = [], []
    table, lift = one_forms._table, one_forms.lift_path

    def counted_table(*args):
        built.append(args[0])
        return table(*args)

    def counted_lift(*args):
        lifts.append(args[1])
        return lift(*args)

    monkeypatch.setattr(one_forms, "_table", counted_table)
    monkeypatch.setattr(one_forms, "lift_path", counted_lift)
    spec = (_near_branch_line(fig8, 1.0) if graded
            else _annulus_arc(fig8, 0.42, 0.6, "small")[0])
    path, res, _ = track_refined(fig8, spec, forms=("eta", "xi", "kk"), target=1e-9)
    assert len(lifts) == (4 if graded else 2)
    assert len(built) == len(lifts) - graded and built[-1] is path
    assert bool(path.graded_toward) == graded

    def integrals(p):
        return (integrate_eta(p), integrate_xi(p), kk_exponent(p), kirk_klassen(p),
                vol_along(p, vol_fig8()), cs_along(p, 0.125))

    del built[:]
    got = integrals(path)
    assert built == []
    assert got[:3] == (res["eta"], res["xi"], res["kk"])
    fresh = replace(path)
    assert integrals(fresh) == got and built == [fresh]


def test_track_refined_rejects_unknown_form(fig8, ctrl):
    spec = PathSpec(segments=(ArcSeg(0j, 0.3, 0.3, 1.0),),
                    l_seed=small_root(fig8, 0.3 * unit(0.3)))
    with pytest.raises(ValueError):
        track_refined(fig8, spec, ctrl, forms=("eta", "zeta"))


def test_special_cs_torus_class(fig8, ctrl):
    path = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    xi = integrate_xi(path).value
    u = special_cs_from(xi, 1)
    assert u.value / (TWO_PI ** 2) == pytest.approx(-2.0, abs=1e-5)
    assert u.torus_class == pytest.approx(0.0, abs=1e-5)
    assert special_cs_from(xi, 3).value == pytest.approx(3 * u.value)
    with pytest.raises(ValueError):
        special_cs_from(xi, 0)


@pytest.mark.parametrize("u", [
    1e-17, -1e-17,
    2.0 * TWO_PI ** 2, math.nextafter(2.0 * TWO_PI ** 2, math.inf),
    math.nextafter(2.0 * TWO_PI ** 2, 0.0),
], ids=["plus_noise", "minus_noise", "two", "two_plus_ulp", "two_minus_ulp"])
def test_torus_class_of_an_integer_is_near_zero(u):
    # the symmetric representative: rounding on either side of an integer
    # class reads as a tiny class, never as one that is almost 1
    torus_class = special_cs_from(u, 1).torus_class
    assert abs(torus_class) <= 1e-15
    assert special_cs_from(-u, 1).torus_class == -torus_class


def test_cs1_closed_loop_matches_xi(fig8, ctrl):
    path = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    xi = integrate_xi(path).value
    cs1 = cs1_from(integrate_eta(path).value, xi)
    # eta's contribution is the exact form's zero period
    assert cs1 == pytest.approx(xi / (2j * math.pi), abs=1e-7)


def test_regulator_requires_closed_loop(fig8, ctrl):
    path = _arc_path(fig8, 0.4, 1.0, ctrl=ctrl)
    with pytest.raises(NotClosed):
        regulator_exponent(path)


def test_regulator_base_point_independence(fig8):
    ctrl = StepControls(max_step=0.002)
    vals = []
    for ang in (0.0, 0.9, 2.5):
        m0 = 0.3 * unit(ang)
        segs = (ArcSeg(0j, 0.3, ang, ang + TWO_PI),)
        spec = PathSpec(segments=segs, l_seed=small_root(fig8, m0), closed=True)
        vals.append(regulator(lift_path(fig8, spec, ctrl)).value)
    assert abs(vals[1] - vals[0]) < 1e-8
    assert abs(vals[2] - vals[0]) < 1e-8


def test_regulator_loop_radius_independence(fig8, ctrl):
    r1 = regulator(lift_path(
        fig8, loop_around_m(fig8, 0j, 0.28, small_root(fig8, 0.28)), ctrl)).value
    r2 = regulator(lift_path(
        fig8, loop_around_m(fig8, 0j, 0.34, small_root(fig8, 0.34)), ctrl)).value
    assert abs(r1 - r2) < 1e-8


def test_regulator_steinberg_on_linear_curve(ctrl):
    # on m = 1 - l the symbol {l, m} = {f, 1-f} is trivial
    p = parse_poly("m + l - 1")
    around_l0 = loop_around_m(p, 1.0 + 0j, 0.1, -0.1)  # l = 1 - m small
    around_l1 = loop_around_m(p, 0j, 0.1, 0.9)
    for spec in (around_l0, around_l1):
        val = regulator(lift_path(p, spec, ctrl)).value
        assert abs(val - 1.0) < 1e-8


def test_regulator_bilinear_in_monomial_roles(fig8, ctrl):
    loop = loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3))
    path = lift_path(fig8, loop, ctrl)
    r_l = regulator(path, f_role="l", g_role="m").value
    r_l2 = regulator(path, f_role=(2, 0), g_role="m").value
    assert r_l2 == pytest.approx(r_l ** 2, abs=1e-9)
    # and {f,g}{g,f} is trivial
    r_fg = regulator(path, "l", "m").value
    r_gf = regulator(path, "m", "l").value
    assert r_fg * r_gf == pytest.approx(1.0, abs=1e-9)


def test_regulator_reversal_on_contractible_loop(fig8, ctrl):
    path = lift_path(fig8, loop_around_m(fig8, 2.0 + 0j, 0.25, small_root(fig8, 2.25)), ctrl)
    clockwise = lift_path(
        fig8, loop_around_m(fig8, 2.0 + 0j, 0.25, small_root(fig8, 2.25), turns=-1), ctrl)
    fwd = regulator_exponent(path)
    bwd = regulator_exponent(clockwise)
    tol = 10 * max(fwd.est_error, bwd.est_error) + 1e-12
    assert abs(bwd.value + fwd.value) < tol


def test_regulator_modulus_defect_small(fig8, ctrl):
    loop = loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3))
    reg = regulator(lift_path(fig8, loop, ctrl))
    assert reg.modulus_defect < 1e-9


def _fabricated_constant_m_path(n=41):
    t = np.linspace(0.0, 1.0, n)
    l = np.exp(t * (0.4 + 0.9j))
    m = np.ones(n, dtype=complex)
    return TrackedPath(
        t=t, l=l, m=m,
        log_l=np.log(np.abs(l)) + 0.9j * t, log_m=np.zeros(n, dtype=complex),
        residual_max=0.0, closed=False,
    )


def test_kirk_klassen_constant_m_is_trivial():
    path = _fabricated_constant_m_path()
    kk = kirk_klassen(path)
    assert kk.value == pytest.approx(1.0, abs=1e-12)
    assert kk.expr_diff < 1e-12


def test_kirk_klassen_expressions_agree(fig8):
    path = _arc_path(fig8, 0.3, 1.0, ctrl=StepControls(max_step=5e-4))
    kk = kirk_klassen(path)
    assert kk.expr_diff < 1e-8
    assert kk.value == pytest.approx(cmath.exp(kk.exponent))


def test_kk_exponent_reversal(fig8, ctrl):
    path = _arc_path(fig8, 0.4, 1.0, ctrl=ctrl)
    fwd = kk_exponent(path)
    bwd = kk_exponent(_reversed_arc_path(fig8, path, 0.4, 1.0, ctrl=ctrl))
    tol = 10 * max(fwd.est_error, bwd.est_error) + 1e-12
    assert abs(bwd.value + fwd.value) < tol


def test_vol_cs_move_along_open_paths(fig8, ctrl):
    # the integrals respond to genuine deformation, not just noise
    path = _arc_path(fig8, 0.3, 1.4, ctrl=ctrl)
    assert abs(integrate_eta(path).value) > 1e-4
    vol = vol_along(path, vol_fig8())
    assert vol != pytest.approx(vol_fig8(), abs=1e-6)
    assert math.isfinite(cs_along(path, 0.0))


def test_kk_expr_diff_restates_est_error(fig8):
    # the second expression is the next-lower entry of the first's
    # quadrature table: the trapezoid sum under one Richardson step
    # (expr_diff = |kk| est_error / 3), the Romberg R2 under R3 (expr_diff
    # below |kk| est_error, and below 1/63 of it under R2's spread).
    # Either way it measures the quadrature, not an independent
    # evaluation, and the value is within est_error of the closed-form
    # lift (the demo's route arc_a at halvings 0-4 of the 0.01 ladder and
    # of the default one, where every level has R2's spread)
    seed = small_root(fig8, 0.3 * unit(0.3))
    want = cmath.exp(oracles.fig8_arc_integrals(0j, 0.3, 0.3, 1.0, seed)["kk"])
    ctrl = StepControls()
    for level in range(5):
        path = _arc_path(fig8, 0.3, 1.0, ctrl=ctrl)
        kk = kirk_klassen(path)
        exponent = kk_exponent(path)
        bound = abs(kk.value) * exponent.est_error
        assert exponent.certified
        assert kk.expr_diff <= 1.01 * bound / 63.0
        assert abs(kk.value - want) <= bound
        ctrl = refine(ctrl)
    ctrl = StepControls(max_step=0.01)
    for level in range(5):
        path = _arc_path(fig8, 0.3, 1.0, ctrl=ctrl)
        kk = kirk_klassen(path)
        exponent = kk_exponent(path)
        assert exponent.certified == (level > 0)
        bound = abs(kk.value) * exponent.est_error
        if level == 0:
            assert abs(kk.expr_diff / bound - 1.0 / 3.0) < 1e-5
        elif level == 1:
            assert kk.expr_diff <= bound
        else:  # 16 divides the intervals: est_error is R2's spread
            assert kk.expr_diff <= 1.01 * bound / 63.0
        assert abs(kk.value - want) <= bound
        ctrl = refine(ctrl)


def _form_sums(path, form, strides=(1, 2)):
    """Trapezoid sums of eta = Im t - [log|m| arg l] or xi = Re t -
    [log|m| log|l|], t = int log l dlog m, on every stride-th sample of a
    one-segment path, the last one kept."""
    n = path.n_samples
    ll, lm = path.log_l, path.log_m
    part = ll.imag if form == "eta" else ll.real
    jump = lm[-1].real * part[-1] - lm[0].real * part[0]
    sums = []
    for stride in strides:
        idx = np.unique(np.append(np.arange(0, n, stride), n - 1))
        t = trapezoid(ll[idx], lm[idx])
        sums.append((t.imag if form == "eta" else t.real) - jump)
    return sums


def _richardson(path, form):
    """The one-step rule on its own: T0 on every sample and T1 on every
    other one; returns T0 + (T0 - T1)/3 and |T0 - T1|, floored at the
    rounding level (n - 1) eps |T0|."""
    full, coarse = _form_sums(path, form)
    floor = (path.n_samples - 1) * np.finfo(float).eps * abs(full)
    return (full + (full - coarse) / 3.0).item(), float(max(abs(full - coarse), floor))


def _romberg_columns(t):
    """The R1 and R2 columns of a table of trapezoid sums at doubling
    strides: R1 = T + (T - T')/3, R2 = R1 + (R1 - R1')/15."""
    r1 = [a + (a - b) / 3.0 for a, b in zip(t, t[1:])]
    return r1, [a + (a - b) / 15.0 for a, b in zip(r1, r1[1:])]


def _annulus_arc(fig8, radius, start, which, span=1.2):
    m0 = radius * unit(start)
    seed = small_root(fig8, m0) if which == "small" else big_root(fig8, m0)
    spec = PathSpec(segments=(ArcSeg(0j, radius, start, start + span),), l_seed=seed)
    return spec, oracles.fig8_arc_integrals(0j, radius, start, start + span, seed)


def _stop_level(used):
    """Halvings from the default controls to the ones a path was lifted with."""
    return round(math.log2(StepControls().max_step / used.max_step))


def test_romberg_arcs_in_the_annulus(fig8):
    # open arcs on both sheets between m = 0 and the branch points at
    # |m| = 1/phi, as in the benchmark's arcs routes: at a 1e-9 target the
    # certified Romberg value is within 1e-13 of the closed-form lift after
    # at most three halvings (at most 1,025 samples instead of 8,193; these
    # arcs stop at 129 or 257)
    rng = np.random.default_rng(9)
    for _ in range(6):
        for which, centre in (("small", 0.6), ("big", 2.0)):
            spec, want = _annulus_arc(fig8, rng.uniform(0.41, 0.43),
                                      centre + rng.uniform(-0.1, 0.1), which)
            path, res, used = track_refined(fig8, spec, forms=("eta", "xi", "kk"),
                                            target=1e-9)
            assert _stop_level(used) <= 3
            for name in ("eta", "xi", "kk"):
                err = abs(res[name].value - want[name])
                assert res[name].certified, name
                assert err < 1e-13, name
                assert err <= res[name].est_error, name


def test_mixed_certification_keeps_refining(fig8):
    # pre-asymptotic big-sheet arc: at 401 samples xi is certified but eta
    # is not (rho = 4.06, rho' = 4.24), and eta's one-step value, though
    # its est_error is below the target, is 8e-13 off; track_refined from
    # 0.01 halves once more, where both forms are certified.  The default
    # ladder stops at 513 samples: at 129 and 257 eta is not certified
    # either, but its est_error misses the target
    spec, want = _annulus_arc(fig8, 0.41669119406335, 1.939587920832504, "big")
    path = lift_path(fig8, spec, StepControls(max_step=0.0025))
    eta, xi = integrate_eta(path), integrate_xi(path)
    assert (eta.certified, xi.certified) == (False, True)
    assert eta.est_error < 1e-9 and xi.est_error < 1e-9
    assert abs(eta.value - want["eta"]) > 5e-13
    assert one_forms.quadrature_shortfall(path, {"eta": eta, "xi": xi}, 1e-9) \
        == "est_error below target 1e-09 but Romberg certifies only xi"
    for ctrl, halvings, n_samples in ((StepControls(max_step=0.01), 3, 801),
                                      (StepControls(), 2, 513)):
        path, res, used = track_refined(fig8, spec, ctrl, target=1e-9)
        assert used.max_step == ctrl.max_step / 2 ** halvings and path.n_samples == n_samples
        for name in ("eta", "xi"):
            assert res[name].certified
            err = abs(res[name].value - want[name])
            assert err < 1e-13 and err <= res[name].est_error


@pytest.mark.parametrize("max_step", [0.01, 1.0 / 64, 1.0 / 800])
def test_closed_loop_keeps_one_richardson_step(fig8, max_step):
    # on a closed loop the integrand is periodic and the trapezoid rule
    # beats every Romberg column (at 64 intervals eta's R3 is 7e-7 off, the
    # one-step value 3e-12), so the ratio test never certifies and value
    # and estimate are the one-step rule's on the one table, bit for bit
    spec = loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3))
    path = lift_path(fig8, spec, StepControls(max_step=max_step))
    for name, integrate in (("eta", integrate_eta), ("xi", integrate_xi)):
        res = integrate(path)
        assert not res.certified
        assert (res.value, res.est_error) == _richardson(path, name)
    assert abs(integrate_eta(path).value) < 5e-12
    assert integrate_xi(path).value / FOUR_PI2 == pytest.approx(-2.0, abs=1e-12)


def test_richardson_never_spans_a_segment_joint(fig8):
    # the demo's two-segment conjecture route for a = 0.9: an arc from the
    # offset base point, then a radial drop onto |m| = 1.  Every coarse
    # mesh keeps the joint, and the Romberg rule runs only when each
    # segment (not just the whole route) has a multiple of 8 intervals;
    # coarsening the 2 x 100 interval lift by 8 across its joint puts Vol
    # 2e-9 off
    knot = cli_app.load_knots()["fig8"]
    spec, _ = cli_app._conjecture_path(knot, 0.9)
    want = oracles.fig8_route_integrals(spec.segments, spec.l_seed)
    for intervals, certified in ((96, True), (100, False), (101, False)):
        path = lift_path(fig8, spec, StepControls(max_step=1.0 / intervals))
        assert path.segment_intervals == (intervals, intervals) and path.uniform
        for stride in (2, 4, 8):
            assert intervals in one_forms._coarse_indices(path, stride)
        eta = integrate_eta(path)
        vol = vol_along(path, knot.vol_k)
        assert eta.certified == certified
        assert abs(vol - vol_from(want["eta"], knot.vol_k)) <= 2.0 * eta.est_error
        if certified:
            assert abs(vol - vol_from(want["eta"], knot.vol_k)) < 1e-13


def test_track_refined_needs_sixteen_intervals_per_segment(fig8):
    # on 2 samples the half mesh is the full mesh, |T0 - T1| reads 0
    # whatever the value and est_error is the rounding floor eps |T0|;
    # such a lift never meets a target
    spec = loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3))
    path, res, used = track_refined(fig8, spec, StepControls(max_step=1.0), target=1e-8,
                                    max_halvings=0)
    assert path.segment_intervals == (1,)
    for name in ("eta", "xi"):
        full, half = _form_sums(path, name)
        assert full == half
        assert res[name].est_error == np.finfo(float).eps * abs(full) < 1e-30
    assert abs(res["xi"].value) < 1e-12  # the period is -2 (4 pi^2)
    assert one_forms.quadrature_shortfall(path, res, 1e-8) == (
        "est_error below target 1e-08 on 1 intervals per segment, fewer than 16")
    path, res, used = track_refined(fig8, spec, StepControls(max_step=1.0), target=1e-8)
    assert min(path.segment_intervals) >= 16
    assert one_forms.quadrature_shortfall(path, res, 1e-8) is None
    assert res["xi"].value / FOUR_PI2 == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("radius, theta0, theta1, which", [
    (0.3, 0.3, 1.0, "small"),   # the demo's arc_a
    (0.42, 2.0, 3.2, "big"),    # big sheet, across the negative real axis
], ids=["arc_a", "big_sheet_arc"])
def test_open_arc_integrals_match_closed_form_lift(fig8, ctrl, radius, theta0, theta1,
                                                   which):
    m0 = radius * unit(theta0)
    seed = small_root(fig8, m0) if which == "small" else big_root(fig8, m0)
    spec = PathSpec(segments=(ArcSeg(0j, radius, theta0, theta1),), l_seed=seed)
    _, res, _ = track_refined(fig8, spec, ctrl, forms=("eta", "xi", "kk"), target=1e-8)
    want = oracles.fig8_arc_integrals(0j, radius, theta0, theta1, seed)
    for name in ("eta", "xi", "kk"):
        err = abs(res[name].value - want[name])
        assert err < 1e-12, name
        assert err <= res[name].est_error, name


# ---------------------------------------------------------------- grading
# a route passing a branch point closely: track_refined lifts it once,
# sees halved steps, and grades the segment toward the branch point

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _near_branch_line(fig8, direction, gap=1e-5, length=0.4):
    # the benchmark's arcs line: it passes 1/phi at gap, on the small sheet
    u = unit(direction)
    mid = INV_PHI + gap * 1j * u
    a, b = mid - 0.5 * length * u, mid + 0.5 * length * u
    return PathSpec(segments=(LineSeg(a, b),), l_seed=small_root(fig8, a))


def _assert_graded_and_accurate(fig8, spec, want):
    path, res, used = track_refined(fig8, spec, forms=("eta", "xi", "kk"), target=1e-9)
    assert len(path.graded_toward) == 1 and abs(path.graded_toward[0] - INV_PHI) < 1e-12
    assert path.uniform and path.n_samples <= 1025
    for name in ("eta", "xi", "kk"):
        err = abs(res[name].value - want[name])
        assert res[name].certified, name
        assert err < 1e-12, name
        assert err <= res[name].est_error, name
    return path


def test_near_branch_line_certifies_on_a_graded_mesh(fig8):
    # on an equal-step grid this line never certifies: six halvings of the
    # default mesh, 8,207 samples, leave it 2e-8 off
    rng = np.random.default_rng(10)
    for direction in 1.0 + rng.uniform(-0.15, 0.15, 8):
        spec = _near_branch_line(fig8, direction, gap=1e-5 * rng.uniform(0.8, 1.25))
        assert not lift_path(fig8, spec, StepControls()).uniform  # steps halve
        _assert_graded_and_accurate(
            fig8, spec, oracles.fig8_route_integrals(spec.segments, spec.l_seed))


def test_near_branch_line_stops_at_513_samples(fig8):
    # the benchmark's line: R2's spread certifies it at 513 samples, errors
    # 5.7e-13 and 2.3e-13, the graded routes' 1e-12.  On the 0.01 ladder
    # it stops at 801 samples within 1e-13, where R1's spread (1.6e-8
    # against an error of 1.5e-14) kept it lifting to 1,601 or 3,201
    spec = _near_branch_line(fig8, 1.0)
    want = oracles.fig8_route_integrals(spec.segments, spec.l_seed)
    for ctrl, n_samples, tol in ((StepControls(), 513, 1e-12),
                                 (StepControls(max_step=0.01), 801, 1e-13)):
        path, res, _ = track_refined(fig8, spec, ctrl, target=1e-9)
        assert path.n_samples == n_samples
        for name in ("eta", "xi"):
            err = abs(res[name].value - want[name])
            assert res[name].certified, name
            assert err < tol, name
            assert err <= res[name].est_error, name


@pytest.mark.parametrize("start, which, n_samples, eta, xi", [
    (0.6, "small", 257, -0.3227729357354015, -5.936266119658794),
    (2.0, "big", 129, -0.1656457816472267, -3.106538441692789),
], ids=["small-257", "big-129"])
def test_annulus_arcs_keep_their_stop(fig8, start, which, n_samples, eta, xi):
    # the big-sheet arc stops on the default mesh's first lift; the
    # small-sheet one halves once, because at 129 samples xi's R2 spread
    # (3.6e-9) misses the target
    spec, want = _annulus_arc(fig8, 0.42, start, which)
    path, res, _ = track_refined(fig8, spec, target=1e-9)
    assert path.n_samples == n_samples
    assert res["eta"].value == pytest.approx(eta, abs=1e-14)
    assert res["xi"].value == pytest.approx(xi, abs=1e-14)
    for name in ("eta", "xi"):
        assert abs(res[name].value - want[name]) <= res[name].est_error, name


@pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
def test_benchmark_routes_stay_within_est_error(fig8, seed):
    # the benchmark's arcs round at a 1e-9 target: an arc on each sheet in
    # the annulus |m| ~ 0.42 and a line passing 1/phi at about 1e-5; every
    # value is within its est_error plus 1e-10 of the closed-form lift
    rng = np.random.default_rng(seed)
    routes = [_annulus_arc(fig8, 0.42 + rng.uniform(-0.01, 0.01),
                           centre + rng.uniform(-0.1, 0.1), which)
              for which, centre in (("small", 0.6), ("big", 2.0))]
    line = _near_branch_line(fig8, 1.0 + rng.uniform(-0.15, 0.15),
                             gap=1e-5 * rng.uniform(0.8, 1.25))
    routes.append((line, oracles.fig8_route_integrals(line.segments, line.l_seed)))
    for spec, want in routes:
        path, res, _ = track_refined(fig8, spec, target=1e-9)
        kk = kk_exponent(path)
        for name, got in (("eta", res["eta"]), ("xi", res["xi"]), ("kk", kk)):
            err = abs(got.value - want[name])
            assert err <= got.est_error + 1e-10, (name, path.n_samples)
            assert err < 1e-12, (name, path.n_samples)


@pytest.mark.parametrize("which", ["small", "big"])
def test_arc_past_a_branch_point_is_graded(fig8, which):
    radius, theta0, theta1 = INV_PHI - 1e-5, -0.2, 0.35
    m0 = radius * unit(theta0)
    seed = small_root(fig8, m0) if which == "small" else big_root(fig8, m0)
    spec = PathSpec(segments=(ArcSeg(0j, radius, theta0, theta1),), l_seed=seed)
    _assert_graded_and_accurate(
        fig8, spec, oracles.fig8_arc_integrals(0j, radius, theta0, theta1, seed))


@pytest.mark.parametrize("route", ["arc_a", "m0_small", "line_1e-3"])
def test_uniform_first_lift_is_not_graded(fig8, route):
    # every demo route lifts on its equal-step grid: track_refined's path is
    # the plain lift at the controls it stopped at, array for array.  So
    # does a line 1e-3 from 1/phi, though the branch point lies within one
    # grid step of it
    if route == "line_1e-3":
        spec = _near_branch_line(fig8, 1.0, gap=1e-3)
        _, toward = curve_tracker.grade_toward_branch_points(
            fig8, spec, lift_path(fig8, spec, StepControls()), StepControls().max_step)
        assert len(toward) == 1
    else:
        demo = cli_app.build_demo_config()
        spec = cli_app._pathspec_from_json(dict(demo["paths"], **demo["loops"])[route])
    assert lift_path(fig8, spec, StepControls()).uniform
    path, res, used = track_refined(fig8, spec, forms=("eta", "xi", "kk"), target=1e-9)
    plain = lift_path(fig8, spec, used)
    assert path.graded_toward == ()
    for name in ("t", "l", "m", "log_l", "log_m"):
        assert np.array_equal(getattr(path, name), getattr(plain, name)), name
    assert res["eta"] == integrate_eta(plain) and res["kk"] == kk_exponent(plain)


def test_closed_loop_is_never_graded(fig8):
    # a circle passing 1/phi at 1e-5 halves steps like the open line; open,
    # the same route is graded, closed it keeps its own parameter (the
    # trapezoid rule on a periodic integrand wants the equal-step grid)
    radius = 0.05
    centre = INV_PHI + radius + 1e-5
    spec = loop_around_m(fig8, centre, radius, small_root(fig8, centre + radius))
    assert not lift_path(fig8, spec, StepControls()).uniform
    path, _, used = track_refined(fig8, spec, target=1e-9, max_halvings=1)
    assert path.graded_toward == ()
    assert np.array_equal(path.l, lift_path(fig8, spec, used).l)
    opened = PathSpec(segments=spec.segments, l_seed=spec.l_seed)
    path, _, _ = track_refined(fig8, opened, target=1e-9, max_halvings=1)
    assert len(path.graded_toward) == 1


# ---------------------------------------------------------------- one table
# every form is an affine map of the table of int log l dlog m; the
# package's earlier integrands, one per form (tests/oracles.py), must give
# the same values, the same Romberg verdicts and the same refinement

def _table_routes(fig8):
    demo = cli_app.build_demo_config()
    routes = {name: cli_app._pathspec_from_json(spec) for name, spec in demo["loops"].items()}
    routes["arc_a"] = cli_app._pathspec_from_json(demo["paths"]["arc_a"])
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for which, centre in (("small", 0.6), ("big", 2.0)):
            routes["arcs%d_%s" % (seed, which)], _ = _annulus_arc(
                fig8, rng.uniform(0.41, 0.43), centre + rng.uniform(-0.1, 0.1), which)
    routes["near_branch_line"] = _near_branch_line(fig8, 1.0)
    return routes


def _assert_same_result(new, old, scale, what):
    assert new.certified == old.certified, what
    assert new.n_samples == old.n_samples, what
    assert abs(new.value - old.value) <= 1e-14 * scale, what
    assert abs(new.est_error - old.est_error) <= 1e-14 * scale, what


def test_one_table_matches_the_four_integrands(fig8):
    forms = {"eta": integrate_eta, "xi": integrate_xi, "kk": kk_exponent}
    roles = (("l", "m"), ("m", "l"), ((2, 0), "m"))
    for name, spec in _table_routes(fig8).items():
        ctrl = StepControls()
        for level in range(4):
            path = lift_path(fig8, spec, ctrl)
            # the size of the integrand's terms
            scale = max(1.0, np.max(np.abs(path.log_l)) * np.max(np.abs(path.log_m)))
            for form, integrate in forms.items():
                _assert_same_result(integrate(path), oracles.integrate_reference(
                    path, oracles.FORM_RULES[form]), scale, (name, level, form))
            if spec.closed:
                for f, g in roles:
                    rule = oracles.regulator_rule(path, *(one_forms._ROLES.get(r, r)
                                                          for r in (f, g)))
                    _assert_same_result(regulator_exponent(path, f, g),
                                        oracles.integrate_reference(path, rule), scale,
                                        (name, level, f, g))
            ctrl = refine(ctrl)
        path, res, _ = track_refined(fig8, spec, forms=tuple(forms), target=1e-9)
        ref_path, ref = oracles.track_refined_reference(fig8, spec, StepControls(),
                                                        forms=tuple(forms), target=1e-9)
        assert path.n_samples == ref_path.n_samples, name
        scale = max(1.0, np.max(np.abs(path.log_l)) * np.max(np.abs(path.log_m)))
        for form in forms:
            _assert_same_result(res[form], ref[form], scale, (name, form))
