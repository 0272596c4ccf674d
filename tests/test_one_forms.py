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
    cli_app,
    concat,
    cs_along,
    integrate_eta,
    integrate_xi,
    lift_path,
    loop_around_m,
    one_forms,
    parse_poly,
    refine,
    reverse,
    roots_in_l,
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
    # the default mesh (100 intervals, not a multiple of 8) takes one
    # Richardson step; from 200 intervals on the ratio test certifies the
    # Romberg diagonal, which is at rounding level already, while its
    # est_error keeps contracting like R1's h^4 error
    seed = small_root(fig8, 0.3 * unit(0.3))
    want = oracles.fig8_arc_integrals(0j, 0.3, 0.3, 1.4, seed)["eta"]
    ctrl = StepControls()
    results = []
    for _ in range(4):
        res = integrate_eta(_arc_path(fig8, 0.3, 1.4, ctrl=ctrl))
        assert abs(res.value - want) <= res.est_error
        results.append(res)
        ctrl = refine(ctrl)
    assert [r.certified for r in results] == [False, True, True, True]
    assert 1e-11 < abs(results[0].value - want) < 1e-9
    for res in results[1:]:
        assert abs(res.value - want) < 1e-13
    for fine, coarse in zip(results[2:], results[1:]):
        assert fine.est_error < coarse.est_error / 12.0


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
    # the second expression is the next-lower entry of the first's
    # quadrature table: the trapezoid sum under one Richardson step
    # (expr_diff = |kk| est_error / 3), the Romberg R2 under R3 (expr_diff
    # below |kk| est_error).  Either way it measures the quadrature, not an
    # independent evaluation, and the value is within est_error of the
    # closed-form lift (the demo's route arc_a at halvings 0-4)
    seed = small_root(fig8, 0.3 * unit(0.3))
    want = cmath.exp(oracles.fig8_arc_integrals(0j, 0.3, 0.3, 1.0, seed)["kk"])
    ctrl = StepControls()
    for level in range(5):
        path = _arc_path(fig8, 0.3, 1.0, ctrl=ctrl)
        kk = kirk_klassen(path)
        exponent = kk_exponent(path)
        assert exponent.certified == (level > 0)
        bound = abs(kk.value) * exponent.est_error
        if level == 0:
            assert abs(kk.expr_diff / bound - 1.0 / 3.0) < 1e-5
        else:
            assert kk.expr_diff <= bound
        assert abs(kk.value - want) <= bound
        ctrl = refine(ctrl)


def _richardson(path, form):
    """The one-step rule on its own, on the table of t = int log l dlog m:
    T0 on every sample and T1 on every other one, the last one kept, mapped
    to eta = Im t - [log|m| arg l] or xi = Re t - [log|m| log|l|]; returns
    T0 + (T0 - T1)/3 and |T0 - T1|."""
    n = path.n_samples
    half = np.unique(np.append(np.arange(0, n, 2), n - 1))
    ll, lm = path.log_l, path.log_m
    t = np.array([trapezoid(ll, lm), trapezoid(ll[half], lm[half])])
    part = ll.imag if form == "eta" else ll.real
    full, coarse = (t.imag if form == "eta" else t.real) - (lm[-1].real * part[-1]
                                                            - lm[0].real * part[0])
    return (full + (full - coarse) / 3.0).item(), float(abs(full - coarse))


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
    # at most three halvings (at most 801 samples instead of 6401)
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
    # its est_error is below the target, is 8e-13 off; track_refined
    # halves once more, where both forms are certified
    spec, want = _annulus_arc(fig8, 0.41669119406335, 1.939587920832504, "big")
    path = lift_path(fig8, spec, StepControls(max_step=0.0025))
    eta, xi = integrate_eta(path), integrate_xi(path)
    assert (eta.certified, xi.certified) == (False, True)
    assert eta.est_error < 1e-9 and xi.est_error < 1e-9
    assert abs(eta.value - want["eta"]) > 5e-13
    assert one_forms.quadrature_shortfall(path, {"eta": eta, "xi": xi}, 1e-9) \
        == "est_error below target 1e-09 but Romberg certifies only xi"
    path, res, used = track_refined(fig8, spec, target=1e-9)
    assert _stop_level(used) == 3 and path.n_samples == 801
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
    # on 2 samples the half mesh is the full mesh and est_error reads 0
    # whatever the value; such a lift never meets a target
    spec = loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3))
    path, res, used = track_refined(fig8, spec, StepControls(max_step=1.0), target=1e-8,
                                    max_halvings=0)
    assert path.segment_intervals == (1,)
    assert res["eta"].est_error == res["xi"].est_error == 0.0
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
    assert path.uniform and path.n_samples <= 3201
    for name in ("eta", "xi", "kk"):
        err = abs(res[name].value - want[name])
        assert res[name].certified, name
        assert err < 1e-12, name
        assert err <= res[name].est_error, name
    return path


def test_near_branch_line_certifies_on_a_graded_mesh(fig8):
    # on an equal-step grid this line never certifies: it runs out at 6401
    # samples, 1e-7 off, and its est_error can sit below its error
    rng = np.random.default_rng(10)
    for direction in 1.0 + rng.uniform(-0.15, 0.15, 8):
        spec = _near_branch_line(fig8, direction, gap=1e-5 * rng.uniform(0.8, 1.25))
        assert not lift_path(fig8, spec, StepControls()).uniform  # steps halve
        _assert_graded_and_accurate(
            fig8, spec, oracles.fig8_route_integrals(spec.segments, spec.l_seed))


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
