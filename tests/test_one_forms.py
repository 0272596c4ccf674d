import cmath
import math

import numpy as np
import pytest

import oracles
from apolylab import (
    ArcSeg,
    LineSeg,
    NotClosed,
    PathSpec,
    StepControls,
    concat,
    cs1_along,
    cs_along,
    integrate_eta,
    integrate_xi,
    lift_path,
    loop_around_m,
    parse_poly,
    refine,
    reverse,
    roots_in_l,
    special_cs_U,
    track_refined,
    vol_along,
    vol_fig8,
)
from apolylab.curve_tracker import TrackedPath
from apolylab.one_forms import kirk_klassen, kk_exponent, regulator, regulator_exponent
from conftest import big_root, small_root, unit

TWO_PI = 2.0 * math.pi
FOUR_PI2 = 4.0 * math.pi ** 2


def _arc_path(poly, theta0, theta1, radius=0.3, which="small", ctrl=StepControls()):
    m0 = radius * unit(theta0)
    seed = small_root(poly, m0) if which == "small" else big_root(poly, m0)
    spec = PathSpec(segments=(ArcSeg(0j, radius, theta0, theta1),), l_seed=seed)
    return lift_path(poly, spec, ctrl)


def _stationary_path(fig8):
    spec = PathSpec(segments=(LineSeg(0.3, 0.3),), l_seed=small_root(fig8, 0.3))
    return lift_path(fig8, spec, StepControls())


def test_zero_length_path_integrals(fig8):
    path = _stationary_path(fig8)
    assert integrate_eta(path).value == 0.0
    assert integrate_xi(path).value == 0.0
    assert cs1_along(path) == 0j
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
    rev = reverse(path)
    assert integrate_eta(rev).value == pytest.approx(-integrate_eta(path).value, abs=1e-12)
    assert integrate_xi(rev).value == pytest.approx(-integrate_xi(path).value, abs=1e-12)


def test_concat_adds_form_integrals(fig8, ctrl):
    # no-wrap region: principal bases of the two halves line up with the
    # continued unwrap, so the split is exactly additive
    a = _arc_path(fig8, 0.4, 0.7, ctrl=ctrl)
    b = _arc_path(fig8, 0.7, 1.0, ctrl=ctrl)
    whole = concat(a, b)
    for form in (integrate_eta, integrate_xi):
        assert form(whole).value == pytest.approx(
            form(a).value + form(b).value, abs=1e-10)


def test_quadrature_convergence_order(fig8):
    spec_args = (0.3, 1.4)
    truth = integrate_eta(_arc_path(fig8, *spec_args,
                                    ctrl=StepControls(max_step=0.01 / 64))).value
    errs = []
    ctrl = StepControls()
    for _ in range(3):
        got = integrate_eta(_arc_path(fig8, *spec_args, ctrl=ctrl)).value
        errs.append(abs(got - truth))
        ctrl = refine(ctrl)
    # one Richardson step: better than h^3 contraction per halving
    assert errs[0] > 0
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0


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
    assert used.max_step < ctrl.max_step
    # the halving budget bounds the work even for unreachable targets
    path, capped, used = track_refined(fig8, spec, ctrl, target=0.0, max_halvings=1)
    assert all(r.est_error > 0.0 for r in capped.values())
    # ... and returns the controls its path was lifted with
    assert used.max_step == ctrl.max_step / 2
    assert path.n_samples == math.ceil(1.0 / used.max_step) + 1


def test_track_refined_rejects_unknown_form(fig8, ctrl):
    spec = PathSpec(segments=(ArcSeg(0j, 0.3, 0.3, 1.0),),
                    l_seed=small_root(fig8, 0.3 * unit(0.3)))
    with pytest.raises(ValueError):
        track_refined(fig8, spec, ctrl, forms=("eta", "zeta"))


def test_special_cs_torus_class(fig8, ctrl):
    path = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    u = special_cs_U(path, 1)
    assert u.value / (TWO_PI ** 2) == pytest.approx(-2.0, abs=1e-5)
    assert u.torus_class == pytest.approx(0.0, abs=1e-5)
    assert special_cs_U(path, 3).value == pytest.approx(3 * u.value)
    with pytest.raises(ValueError):
        special_cs_U(path, 0)


def test_cs1_closed_loop_matches_xi(fig8, ctrl):
    path = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    cs1 = cs1_along(path)
    xi = integrate_xi(path).value
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
    loop = loop_around_m(fig8, 2.0 + 0j, 0.25, small_root(fig8, 2.25))
    path = lift_path(fig8, loop, ctrl)
    fwd = regulator_exponent(path)
    bwd = regulator_exponent(reverse(path))
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
        base_convention={"arg_m_zeroed": True},
        l_return_gap=None,
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
    bwd = kk_exponent(reverse(path))
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
    # the second expression is the trapezoid sum of the first without its
    # Richardson step, so expr_diff = |kk| est_error / 3 at every mesh:
    # it measures the quadrature, not an independent evaluation (the
    # demo's route arc_a at halvings 0-4)
    ctrl = StepControls()
    for _ in range(5):
        path = _arc_path(fig8, 0.3, 1.0, ctrl=ctrl)
        kk = kirk_klassen(path)
        ratio = kk.expr_diff / (abs(kk.value) * kk_exponent(path).est_error)
        assert abs(ratio - 1.0 / 3.0) < 1e-5
        ctrl = refine(ctrl)


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
