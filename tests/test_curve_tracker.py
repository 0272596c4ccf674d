import cmath
import math
import random

from dataclasses import replace

import numpy as np
import pytest

import oracles
from apolylab import (
    ArcSeg,
    DegenerateError,
    DomainError,
    LineSeg,
    NonConvergence,
    NotClosed,
    PathSpec,
    RamificationError,
    SeedError,
    StepControls,
    integrate_eta,
    integrate_xi,
    lift_path,
    loop_around_m,
    parse_poly,
    refine,
    roots_in_l,
)
from apolylab import cli_app, curve_tracker, one_forms, poly_core
from apolylab.curve_tracker import _track_grid
from apolylab.poly_core import companion_roots, l_range, laurent_rows, partial, roots_in_l_batch
from conftest import big_root, small_root, unit
from oracles import eval_poly, max_term

TWO_PI = 2.0 * math.pi


def _reconstructs(path):
    l_back = np.exp(path.log_l)
    m_back = np.exp(path.log_m)
    return (np.allclose(l_back, path.l, rtol=1e-9, atol=1e-12)
            and np.allclose(m_back, path.m, rtol=1e-9, atol=1e-12))


def test_pathspec_validation():
    with pytest.raises(ValueError):
        PathSpec(segments=(), l_seed=1.0)
    with pytest.raises(ValueError):
        PathSpec(segments=(LineSeg(0, 1), LineSeg(2, 3)), l_seed=1.0)
    with pytest.raises(ValueError):
        PathSpec(segments=(LineSeg(0, 1),), l_seed=1.0, closed=True)


def test_segment_endpoints():
    seg = ArcSeg(1.0 + 0j, 2.0, 0.0, math.pi)
    assert seg.first == pytest.approx(3.0 + 0j)
    assert seg.last == pytest.approx(-1.0 + 0j)
    line = LineSeg(0j, 1.0 + 1j)
    assert line.points(0.5) == pytest.approx(0.5 + 0.5j)


def test_loop_around_m_arguments():
    with pytest.raises(ValueError):
        loop_around_m(parse_poly("l - m"), 0j, -1.0, 1.0)
    with pytest.raises(ValueError):
        loop_around_m(parse_poly("l - m"), 0j, 1.0, 1.0, turns=0)


def test_identity_curve_lift(ctrl):
    p = parse_poly("l - m")
    spec = PathSpec(segments=(LineSeg(1.0, 2.0 + 1j),), l_seed=1.0)
    path = lift_path(p, spec, ctrl)
    assert np.allclose(path.l, path.m, atol=1e-12)
    assert path.n_samples == 129
    assert path.t[0] == 0.0 and path.t[-1] == 1.0
    assert np.all(np.diff(path.t) > 0)
    assert not path.closed
    assert _reconstructs(path)


def test_sqrt_curve_monodromy(ctrl):
    # l^2 = m: one turn around the origin swaps the sheets, so the circle
    # lifts as an open route and its closed spec is refused
    p = parse_poly("l^2 - m")
    spec = loop_around_m(p, 0j, 1.0, 1.0, turns=1)
    with pytest.raises(NotClosed, match=r"l gap 2 at \|l\| = 1"):
        lift_path(p, spec, ctrl)
    path = lift_path(p, replace(spec, closed=False), ctrl)
    assert not path.closed
    assert path.l[-1] == pytest.approx(-1.0, abs=1e-9)
    assert path.log_l.imag[-1] - path.log_l.imag[0] == pytest.approx(math.pi, abs=1e-9)
    assert path.log_m.imag[-1] - path.log_m.imag[0] == pytest.approx(TWO_PI, abs=1e-12)


def test_sqrt_curve_two_turns_restore(ctrl):
    p = parse_poly("l^2 - m")
    path = lift_path(p, loop_around_m(p, 0j, 1.0, 1.0, turns=2), ctrl)
    assert path.closed
    assert path.l[-1] == pytest.approx(1.0, abs=1e-9)
    assert path.log_l.imag[-1] == pytest.approx(TWO_PI, abs=1e-9)


def test_sqrt_curve_clockwise(ctrl):
    p = parse_poly("l^2 - m")
    spec = loop_around_m(p, 0j, 1.0, 1.0, turns=-1)
    with pytest.raises(NotClosed):
        lift_path(p, spec, ctrl)
    path = lift_path(p, replace(spec, closed=False), ctrl)
    assert path.log_m.imag[-1] == pytest.approx(-TWO_PI, abs=1e-12)
    assert path.log_l.imag[-1] == pytest.approx(-math.pi, abs=1e-9)
    assert path.l[-1] == pytest.approx(-1.0, abs=1e-9)


def test_two_single_turns_equal_one_double(fig8, ctrl):
    # the single turn closes, so each turn of the double retraces it and
    # adds its winding
    single = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3)), ctrl)
    double = lift_path(fig8, loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3),
                                           turns=2), ctrl)
    n = single.n_samples
    assert double.n_samples == 2 * n - 1
    winding = single.log_l.imag[-1] - single.log_l.imag[0]
    for turn in range(2):
        part = slice(turn * (n - 1), turn * (n - 1) + n)
        assert np.allclose(double.l[part], single.l, atol=1e-9)
        assert np.allclose(double.log_l.imag[part], single.log_l.imag + turn * winding,
                           atol=1e-8)


def test_fig8_lift_stays_on_curve(fig8, ctrl):
    m0 = 1.01
    seed = [r for r in roots_in_l(fig8, m0) if r.imag > 0][0]
    spec = PathSpec(segments=(LineSeg(m0, 1.10),), l_seed=seed)
    path = lift_path(fig8, spec, ctrl)
    scale = max(max_term(fig8, l, m) for l, m in zip(path.l, path.m))
    for l, m in zip(path.l, path.m):
        assert abs(eval_poly(fig8, l, m)) <= 2e-12 * scale
    assert path.residual_max <= 2e-12 * scale


def test_unwrap_matches_principal_at_end(fig8, ctrl):
    spec = PathSpec(
        segments=(ArcSeg(0j, 0.3, 0.3, 2.2),),
        l_seed=small_root(fig8, 0.3 * unit(0.3)),
    )
    path = lift_path(fig8, spec, ctrl)
    for arr, pts in ((path.log_l.imag, path.l), (path.log_m.imag, path.m)):
        principal = cmath.phase(pts[-1]) % TWO_PI
        assert (arr[-1] - principal) % TWO_PI == pytest.approx(0.0, abs=1e-9) \
            or (arr[-1] - principal) % TWO_PI == pytest.approx(TWO_PI, abs=1e-9)
    steps_l = np.diff(path.log_l.imag)
    steps_m = np.diff(path.log_m.imag)
    assert np.max(np.abs(steps_l)) < math.pi
    assert np.max(np.abs(steps_m)) < math.pi


def test_base_convention_near_geometric_point(fig8, ctrl):
    m0 = 1.0 + 1e-5
    seed = [r for r in roots_in_l(fig8, m0) if r.imag > 0][0]
    path = lift_path(fig8, PathSpec(segments=(LineSeg(m0, 1.01),), l_seed=seed), ctrl)
    # within BASE_EPS of m = 1, arg m starts at 0
    assert path.log_m.imag[0] == 0.0


def test_base_convention_away_from_geometric_point(fig8, ctrl):
    m0 = 0.3j
    seed = small_root(fig8, m0)
    path = lift_path(fig8, PathSpec(segments=(LineSeg(m0, 0.4j),), l_seed=seed), ctrl)
    # away from m = 1, arg m starts at its principal value
    assert path.log_m.imag[0] == pytest.approx(math.pi / 2)
    # l base arg is the principal value in [0, 2pi)
    assert 0.0 <= path.log_l.imag[0] < TWO_PI


@pytest.mark.parametrize("m0", [0.42 * unit(0.6), 0.41 * unit(2.1), 0.3 + 0.2j, 1.3 - 0.4j],
                         ids=["annulus_a", "annulus_b", "inner", "outer"])
@pytest.mark.parametrize("sheet", [0, 1], ids=["big", "small"])
def test_lift_starts_on_a_root_of_its_solve(fig8, ctrl, m0, sheet):
    # the closed-form seed only picks the sheet: the first sample is the
    # root at m0 of the solve that gives every later sample, bit for bit
    seed = complex(oracles.fig8_sheets(np.array([m0]))[sheet][0])
    path = lift_path(fig8, PathSpec(segments=(LineSeg(m0, 1.1 * m0),), l_seed=seed), ctrl)
    lo, hi = l_range(fig8)
    roots = companion_roots(laurent_rows(fig8, [m0], lo, hi))[0]
    assert path.l[0] == roots[np.argmin(np.abs(roots - seed))]
    assert abs(path.l[0] - seed) <= 1e-12 * abs(seed)


def test_refinement_stability(fig8, ctrl):
    spec = PathSpec(
        segments=(ArcSeg(0j, 0.3, 0.3, 1.0),),
        l_seed=small_root(fig8, 0.3 * unit(0.3)),
    )
    coarse = lift_path(fig8, spec, ctrl)
    fine = lift_path(fig8, spec, refine(ctrl))
    assert fine.n_samples == 2 * coarse.n_samples - 1
    assert np.allclose(coarse.l, fine.l[::2], atol=1e-9)
    assert np.allclose(coarse.log_l.imag, fine.log_l.imag[::2], atol=1e-9)


def test_multi_segment_joint_dedup(fig8, ctrl):
    a = ArcSeg(0j, 0.3, 0.3, 0.65)
    b = ArcSeg(0j, 0.3, 0.65, 1.0)
    spec = PathSpec(segments=(a, b), l_seed=small_root(fig8, a.first))
    path = lift_path(fig8, spec, ctrl)
    assert path.n_samples == 257
    assert np.all(np.diff(path.t) > 0)


def test_big_sheet_circle_closes_and_concats(fig8, ctrl):
    # on the big sheet at |m| = 0.015, |l| is about 2e7: the lift returns
    # within 1e-15 of |l| (an l gap near 2e-8), so the circle is closed,
    # and so is the double turn, whose regulator is 1
    loop = lift_path(fig8, loop_around_m(fig8, 0j, 0.015, big_root(fig8, 0.015)), ctrl)
    assert abs(loop.l[0]) > 1e7 and loop.closed
    twice = lift_path(fig8, loop_around_m(fig8, 0j, 0.015, big_root(fig8, 0.015), turns=2),
                      ctrl)
    assert twice.closed
    assert abs(one_forms.regulator(twice).value - 1.0) < 1e-12


def test_closed_loop_around_a_branch_point_is_refused(fig8, ctrl):
    # once around 1/phi the two sheets of the figure-eight swap
    center = (math.sqrt(5.0) - 1.0) / 2.0
    spec = loop_around_m(fig8, center, 0.1, small_root(fig8, center + 0.1))
    with pytest.raises(NotClosed, match="lift does not return"):
        lift_path(fig8, spec, ctrl)


def test_route_through_m_zero_is_refused(ctrl):
    # a bowtie on l = 2 - m whose first line meets m = 0 at its grid
    # midpoint: refused before any log is taken (RuntimeWarnings are
    # errors under the test configuration)
    lin2 = parse_poly("m + l - 2")
    corners = [0.5 + 0.5j, -0.5 - 0.5j, -0.5 + 0.5j, 0.5 - 0.5j, 0.5 + 0.5j]
    spec = PathSpec(segments=tuple(LineSeg(a, b) for a, b in zip(corners, corners[1:])),
                    l_seed=2.0 - corners[0], closed=True)
    with pytest.raises(DomainError, match="route meets m = 0"):
        lift_path(lin2, spec, ctrl)


def test_ramification_detected():
    # l^2 = m - 1 has a branch point at m = 1
    p = parse_poly("l^2 - m + 1")
    spec = PathSpec(segments=(LineSeg(2.0, 1.0),), l_seed=1.0)
    with pytest.raises(RamificationError) as err:
        lift_path(p, spec, StepControls())
    assert abs(err.value.m - 1.0) < 1e-3
    assert abs(err.value.l) < 1e-4


def test_ramification_deterministic():
    p = parse_poly("l^2 - m + 1")
    spec = PathSpec(segments=(LineSeg(2.0, 1.0),), l_seed=1.0)
    hits = []
    for _ in range(2):
        with pytest.raises(RamificationError) as err:
            lift_path(p, spec, StepControls())
        hits.append((err.value.m, err.value.l))
    assert hits[0] == hits[1]


def test_nonconvergence_on_step_underflow(monkeypatch):
    # a half-circle step predicts l = 0, halfway between the sheets; with
    # the sub-step floor forced coarse there is no room to split it
    monkeypatch.setattr(curve_tracker, "MIN_STEP", 0.3)
    p = parse_poly("l^2 - m")
    spec = loop_around_m(p, 0j, 1.0, 1.0, turns=1)
    with pytest.raises(NonConvergence):
        lift_path(p, spec, StepControls(max_step=0.5))


def test_seed_rejected_off_curve():
    p = parse_poly("l - m")
    spec = PathSpec(segments=(LineSeg(1.0, 2.0),), l_seed=5.0)
    with pytest.raises(SeedError):
        lift_path(p, spec, StepControls())


def test_seed_rejected_at_singular_point(fig8):
    # m = 1 is the double root (l+1)^2; sheets are not separated there
    spec = PathSpec(segments=(LineSeg(1.0, 1.05),), l_seed=-1.0)
    with pytest.raises(SeedError):
        lift_path(fig8, spec, StepControls())


def test_seed_rejected_slightly_off_curve():
    # 1e-4 off is far outside the relative seed tolerance
    p = parse_poly("l - m")
    spec = PathSpec(segments=(LineSeg(1.0, 2.0),), l_seed=1.0 + 1e-4)
    with pytest.raises(SeedError):
        lift_path(p, spec, StepControls())


@pytest.mark.parametrize("l_seed", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                    complex(math.inf, 0.0), complex(-1.0, -math.inf)],
                         ids=["nan", "nan_imag", "inf", "inf_imag"])
def test_seed_rejected_when_not_finite(fig8, l_seed):
    # a NaN residual compares below every tolerance and NaN distances let
    # argmin pick the first sheet; an infinite one overflows eval_poly
    spec = loop_around_m(fig8, 0j, 0.3, l_seed)
    with pytest.raises(SeedError, match="not a finite number"):
        lift_path(fig8, spec, StepControls())


def test_segment_intervals_record_the_grid(fig8, ctrl):
    a = ArcSeg(0j, 0.3, 0.3, 0.65)
    b = ArcSeg(0j, 0.3, 0.65, 1.0)
    path = lift_path(fig8, PathSpec(segments=(a, b), l_seed=small_root(fig8, a.first)), ctrl)
    assert path.segment_intervals == (128, 128) and path.uniform
    # the line past the branch point 1/phi splits steps: not uniform
    branch = 2.0 / (1.0 + math.sqrt(5.0))
    line = LineSeg(branch - 0.2 + 1e-5j, branch + 0.2 + 1e-5j)
    near = lift_path(fig8, PathSpec(segments=(line,), l_seed=small_root(fig8, line.first)),
                     ctrl)
    assert near.segment_intervals == (near.n_samples - 1,)
    assert near.segment_intervals[0] > 128 and not near.uniform


def test_track_grid_stays_on_curve(fig8):
    # one full circle of 64 steps on the small sheet refuses no step
    n = 64
    seg = ArcSeg(0j, 0.3, 0.0, TWO_PI)
    s, m, l, resid_max, scale, diag = _track_grid(
        fig8, partial(fig8, "m"), seg, n, small_root(fig8, 0.3), 1.0)
    assert len(s) == len(m) == len(l) == n + 1
    assert diag.halvings == 0 and diag.min_step == pytest.approx(1.0 / n)
    for k in (0, n // 2, n):
        assert abs(eval_poly(fig8, l[k], m[k])) <= 1e-11 * scale
    assert resid_max <= 1e-11 * scale


def test_seed_snaps_to_exact_root(fig8, ctrl):
    m0 = 0.3
    seed = small_root(fig8, m0) + 1e-8
    path = lift_path(fig8, PathSpec(segments=(LineSeg(m0, 0.4),), l_seed=seed), ctrl)
    assert abs(eval_poly(fig8, path.l[0], m0)) <= 1e-12 * max_term(fig8, path.l[0], m0)


@pytest.mark.parametrize("m0", [0.3, -0.3, 1.7, -1.7, 2.0, -2.0, 3.0])
def test_noisy_real_seed_starts_on_the_axis(fig8, ctrl, m0):
    # on a real row the root the seed picks lies on the axis, so the lift
    # starts at arg l = 0, not 2 pi, whatever the sign of the noise
    for root in roots_in_l(fig8, m0):
        assert root.imag == 0.0 and root.real > 0.0
        for noise in (1e-17, -1e-17, 1e-12, -1e-12, 3e-8, -3e-8):
            seed = root + 1j * noise * abs(root)
            path = lift_path(fig8, PathSpec(segments=(LineSeg(m0, 1.05 * m0),),
                                            l_seed=seed), ctrl)
            assert path.l[0].imag == 0.0 and path.log_l[0].imag == 0.0


def test_closed_loop_gap_small_on_unbranched_sheet(fig8, ctrl):
    spec = loop_around_m(fig8, 0j, 0.3, small_root(fig8, 0.3), turns=1)
    path = lift_path(fig8, spec, ctrl)
    assert path.closed
    assert path.l[-1] == pytest.approx(path.l[0], rel=curve_tracker.MONODROMY_REL)
    assert path.log_m.imag[-1] == pytest.approx(TWO_PI, abs=1e-12)
    # winding of l on this sheet is 4 (l ~ m^4 near the puncture)
    assert path.log_l.imag[-1] - path.log_l.imag[0] == pytest.approx(4 * TWO_PI, abs=1e-8)


def test_big_sheet_winding(fig8, ctrl):
    spec = loop_around_m(fig8, 0j, 0.35, big_root(fig8, 0.35), turns=1)
    path = lift_path(fig8, spec, ctrl)
    assert path.log_l.imag[-1] - path.log_l.imag[0] == pytest.approx(-4 * TWO_PI, abs=1e-8)


@pytest.mark.parametrize("kwargs", [
    {"max_step": 0.0}, {"max_step": -0.5}, {"max_step": math.nan},
    {"max_step": math.inf},
], ids=["max_step_zero", "max_step_negative", "max_step_nan", "max_step_inf"])
def test_step_controls_reject_values_they_cannot_run(kwargs):
    with pytest.raises(ValueError):
        StepControls(**kwargs)


# ---------------------------------------------------------------- kernel
# lift_path against the reference kernel of tests/oracles.py (the Newton
# march on the term map, run on the lift's own samples): l agrees within
# L_REL.  The grid is checked on its own: each segment's grid is
# linspace(0, 1, n + 1) with every refused step (a, b) replaced by its
# SPLIT sub-steps a + j (b - a) / SPLIT, and halvings counts the inserted
# samples.

L_REL = 1e-12  # relative; the worst seen is 3.7e-14 (arcs seeds 1-10, 0-5 halvings)
FORM_TOL = 1e-13


def _near_branch_line(fig8, gap=1e-5, direction=1.0, length=0.4):
    # passes the branch point 1/phi at gap, so steps are refused and split there
    u = cmath.exp(1.0j * direction)
    mid = (math.sqrt(5.0) - 1.0) / 2.0 + gap * 1j * u
    a, b = mid - 0.5 * length * u, mid + 0.5 * length * u
    return PathSpec(segments=(LineSeg(a, b),), l_seed=small_root(fig8, a))


def _kernel_routes(fig8):
    demo = cli_app.build_demo_config()
    routes = {name: (fig8, cli_app._pathspec_from_json(spec))
              for name, spec in list(demo["loops"].items()) + list(demo["paths"].items())}
    a, b = ArcSeg(0j, 0.3, 0.3, 0.65), ArcSeg(0j, 0.3, 0.65, 1.0)
    routes["two_segments"] = (fig8, PathSpec(segments=(a, b), l_seed=small_root(fig8, a.first)))
    routes["near_branch"] = (fig8, _near_branch_line(fig8))
    line = _near_branch_line(fig8)
    s_b = line.segments[0].param((math.sqrt(5.0) - 1.0) / 2.0)
    routes["graded"] = (fig8, PathSpec(segments=(curve_tracker.GradedSeg(
        line.segments[0], s_b.real, abs(s_b.imag)),), l_seed=line.l_seed))
    laurent = parse_poly("l + l^-1*m - l^-1")
    routes["laurent"] = (laurent, loop_around_m(laurent, 0j, 0.5, small_root(laurent, 0.5)))
    return routes


KERNEL_ROUTES = ["m0_small", "m0_big", "contract_a", "contract_b", "arc_a",
                 "two_segments", "near_branch", "graded", "laurent"]


def _halved(halvings):
    ctrl = StepControls()
    for _ in range(halvings):
        ctrl = refine(ctrl)
    return ctrl


def _split_grid(path, spec, ctrl):
    """The t and m samples a lift of spec under ctrl takes when it refuses
    the steps path refused: each segment's linspace(0, 1, n + 1), where a
    step (a, b) whose end path does not take next is replaced by the
    SPLIT sub-steps a + j (b - a) / SPLIT (no sub-step below
    MIN_STEP)."""
    n, n_segs, split = int(np.ceil(1.0 / ctrl.max_step)), len(spec.segments), curve_tracker.SPLIT
    t, m = [], []
    for idx, seg in enumerate(spec.segments):
        first = 1 if idx else 0
        s, todo = [0.0], np.linspace(0.0, 1.0, n + 1)[:0:-1].tolist()
        while todo:
            b = todo.pop()
            at = len(t) + len(s) - first
            if at < path.n_samples and path.t[at] == (idx + b) / n_segs:
                s.append(b)
                continue
            gap = (b - s[-1]) / split
            assert gap >= curve_tracker.MIN_STEP, "path's grid is no split of the equal-step grid"
            todo += [b] + [s[-1] + gap * j for j in range(split - 1, 0, -1)]
        s = np.array(s)
        t += ((idx + s[first:]) / n_segs).tolist()
        m += seg.points(s)[first:].tolist()
    return np.array(t), np.array(m, dtype=complex)


def _matches_reference(curve, spec, ctrl):
    """lift_path's grid against _split_grid and its l against the
    reference kernel on the same samples; returns the lift and a copy
    carrying the reference l."""
    path = lift_path(curve, spec, ctrl)
    t, m = _split_grid(path, spec, ctrl)
    assert np.array_equal(path.t, t)
    assert np.array_equal(path.m, m)
    grid = len(spec.segments) * int(np.ceil(1.0 / ctrl.max_step)) + 1
    assert path.diagnostics.halvings == path.n_samples - grid
    l, _ = oracles.lift_reference(curve, spec.l_seed, path.m)
    assert np.max(np.abs(path.l - l) / np.abs(l)) <= L_REL
    return path, replace(path, l=l, log_l=curve_tracker._unwrapped_log(l))


@pytest.mark.parametrize("name", KERNEL_ROUTES)
@pytest.mark.parametrize("halvings", [0, 2])
def test_lift_matches_reference_kernel(fig8, name, halvings):
    curve, spec = _kernel_routes(fig8)[name]
    ctrl = _halved(halvings)
    path, _ = _matches_reference(curve, spec, ctrl)
    if name == "near_branch":
        # the route does split: SPLIT - 1 new samples a refused step
        assert path.diagnostics.halvings > 0
        assert path.diagnostics.halvings % (curve_tracker.SPLIT - 1) == 0
    else:
        n = int(np.ceil(1.0 / ctrl.max_step))
        assert path.diagnostics.halvings == 0
        assert path.segment_intervals == (n,) * len(spec.segments)


def _arcs_routes(fig8, rng):
    # the benchmark's arcs round: an arc on each sheet between m = 0 and
    # the branch points at |m| = 1/phi, and a line past 1/phi
    routes = []
    for start, root in ((0.6, small_root), (2.0, big_root)):
        radius, angle = 0.42 + rng.uniform(-0.01, 0.01), start + rng.uniform(-0.1, 0.1)
        arc = ArcSeg(0j, radius, angle, angle + 1.2)
        routes.append(PathSpec(segments=(arc,), l_seed=root(fig8, arc.first)))
    routes.append(_near_branch_line(fig8, 1e-5 * rng.uniform(0.8, 1.25),
                                    1.0 + rng.uniform(-0.15, 0.15)))
    return routes


@pytest.mark.parametrize("draw", range(18))
def test_kernel_sweep_matches_reference(fig8, draw):
    # seeded benchmark-shaped routes plus one named route per draw, at
    # draw % 6 halvings: grids, halvings and l as above, and the integrals
    # eta, xi and the Kirk-Klassen exponent within FORM_TOL of the
    # reference kernel's
    name = KERNEL_ROUTES[draw % len(KERNEL_ROUTES)]
    ctrl = _halved(draw % 6)
    routes = [(fig8, spec) for spec in _arcs_routes(fig8, random.Random(draw))]
    routes.append(_kernel_routes(fig8)[name])
    for curve, spec in routes:
        path, ref = _matches_reference(curve, spec, ctrl)
        for form in (integrate_eta, integrate_xi, one_forms.kk_exponent):
            assert abs(form(path).value - form(ref).value) <= FORM_TOL


@pytest.mark.parametrize("curve, spec, ctrl, min_step, error, message", [
    ("l^2 - m + 1", PathSpec(segments=(LineSeg(2.0, 1.0),), l_seed=1.0),
     StepControls(), curve_tracker.MIN_STEP, RamificationError,
     "lift ran into a branch point near m = (1+0j)"),
    ("l^2 - m", PathSpec(segments=(ArcSeg(0j, 1.0, 0.0, TWO_PI),), l_seed=1.0,
                         closed=True),
     StepControls(max_step=0.5), 0.3, NonConvergence,
     "step underflow near m = (1+0j)"),
], ids=["ramification", "step_underflow"])
def test_failures_match_reference_kernel(monkeypatch, curve, spec, ctrl, min_step, error,
                                         message):
    # the errors the Newton march of the reference kernel raises on these
    # routes: the lift meets the double root l = 0 at m = 1, and the
    # half-circle step from m = 1 predicts l = 0, halfway between the
    # sheets, with no room to split it under a sub-step floor of 0.3.
    # l at a branch point is ill-conditioned, so only m is pinned
    monkeypatch.setattr(curve_tracker, "MIN_STEP", min_step)
    with pytest.raises(error) as got:
        lift_path(parse_poly(curve), spec, ctrl)
    assert type(got.value) is error and str(got.value) == message
    if error is RamificationError:
        assert got.value.m == 1.0


@pytest.mark.parametrize("curve, spec", [
    ("l - m^-1", PathSpec(segments=(LineSeg(1.0, 0.0),), l_seed=1.0)),
    ("l^2 - m^-2", PathSpec(segments=(LineSeg(1.0, 0.0),), l_seed=1.0)),
    ("l + l^-1*m - l^-1", PathSpec(segments=(LineSeg(0.5, 0.7),), l_seed=0.0)),
    ("l + l^-1*m - l^-1", PathSpec(segments=(LineSeg(0.5, 1.0),), l_seed=math.sqrt(0.5))),
], ids=["m_inverse", "m_inverse_squared", "l_seed_zero", "l_route_to_zero"])
def test_negative_exponent_at_zero_is_a_domain_error(curve, spec):
    # a route that reaches m = 0 on a curve with a negative m-power, and
    # a seed at l = 0 or a route whose sheet l^2 = 1 - m reaches l = 0 on
    # one with a negative l-power
    with pytest.raises(DomainError, match="negative exponent at zero argument"):
        lift_path(parse_poly(curve), spec, StepControls())


def test_diagnostics_report_the_lift(fig8):
    # the near-branch line splits refused steps three levels deep, the
    # arc refuses none
    near = lift_path(fig8, _near_branch_line(fig8), StepControls())
    diag = near.diagnostics
    assert diag.halvings == near.n_samples - 129 > 0
    assert diag.halvings % (curve_tracker.SPLIT - 1) == 0
    assert diag.min_step == pytest.approx(1.0 / 128 / curve_tracker.SPLIT ** 3)
    assert diag.min_step == np.diff(near.t).min()
    # the worst accepted match, not the refused ones
    assert 0.0 < diag.max_ratio < curve_tracker.BATCH_RATIO
    # the margin shrinks like the square root of the closest approach:
    # 5.7e-3 at 1e-5 from 1/phi, below 1e-3 at 1e-7
    assert curve_tracker.RAM_REL < diag.min_margin < 1e-2
    closer = lift_path(fig8, _near_branch_line(fig8, gap=1e-7), StepControls())
    assert curve_tracker.RAM_REL < closer.diagnostics.min_margin < 1e-3
    arc = ArcSeg(0j, 0.42, 0.6, 1.8)
    smooth = lift_path(fig8, PathSpec(segments=(arc,), l_seed=small_root(fig8, arc.first)),
                       StepControls())
    assert smooth.diagnostics.halvings == 0
    assert smooth.diagnostics.min_step == pytest.approx(1.0 / 128)
    assert smooth.diagnostics.min_margin > 1.0
    assert 0.0 < smooth.diagnostics.max_ratio < 1e-3


# ---------------------------------------------------------------- batch
# routes lifted with no refused step, against the reference kernel: the
# equal-step grid, l within L_REL

K52_A = ("1 + l*(2*m^2 + 2*m^4 - m^8 + m^10 - 1)"
         " + l^2*(m^4 - m^6 + 2*m^10 + 2*m^12 - m^14) + l^3*m^14")


def _batched_routes(fig8):
    arc = ArcSeg(0j, 0.42, 0.6, 1.8)
    line = _near_branch_line(fig8)
    s_b = line.segments[0].param((math.sqrt(5.0) - 1.0) / 2.0)
    degree_one = parse_poly("m + l - 2")
    k52 = parse_poly(K52_A)
    routes = {
        "arc_small": (fig8, PathSpec(segments=(arc,), l_seed=small_root(fig8, arc.first)),
                      StepControls()),
        "arc_big": (fig8, PathSpec(segments=(arc,), l_seed=big_root(fig8, arc.first)),
                    StepControls()),
        "circle": (fig8, loop_around_m(fig8, 0j, 0.35, big_root(fig8, 0.35)), StepControls()),
        "graded": (fig8, PathSpec(segments=(curve_tracker.GradedSeg(
            line.segments[0], s_b.real, abs(s_b.imag)),), l_seed=line.l_seed), StepControls()),
        "chunks": (fig8, PathSpec(segments=(arc,), l_seed=small_root(fig8, arc.first)),
                   StepControls(max_step=1e-3)),
        "degree_one": (degree_one, PathSpec(segments=(LineSeg(0.5 + 0.5j, 1.5 - 0.2j),),
                                            l_seed=1.5 - 0.5j), StepControls()),
    }
    for k, root in enumerate(roots_in_l(k52, 0.2)):
        routes["k52_sheet%d" % k] = (k52, loop_around_m(k52, 0j, 0.2, root), StepControls())
    return routes


BATCHED_ROUTES = ["arc_small", "arc_big", "circle", "graded", "chunks", "degree_one",
                  "k52_sheet0", "k52_sheet1", "k52_sheet2"]


@pytest.mark.parametrize("name", BATCHED_ROUTES)
def test_batched_lift_matches_reference_kernel(fig8, name):
    curve, spec, ctrl = _batched_routes(fig8)[name]
    path, _ = _matches_reference(curve, spec, ctrl)
    assert path.diagnostics.halvings == 0
    n = int(np.ceil(1.0 / ctrl.max_step))
    assert np.array_equal(path.t, np.linspace(0.0, 1.0, n + 1))
    assert path.diagnostics.max_ratio < curve_tracker.BATCH_RATIO
    if name == "chunks":
        assert path.n_samples > 2 * curve_tracker.BATCH_CHUNK


def test_batched_lift_on_a_real_row_stays_real(fig8):
    # l is real along these stretches of the real axis: fig8's two sheets
    # below 1/phi, and 5_2's one real sheet beside a conjugate pair, where
    # the eigenvalues carry imaginary noise that the root solve snaps off
    k52 = parse_poly(K52_A)
    routes = [(fig8, 0.3, 0.5, root(fig8, 0.3)) for root in (small_root, big_root)]
    routes.append((k52, 0.75, 0.95, next(x for x in roots_in_l(k52, 0.75) if x.imag == 0.0)))
    for curve, a, b, seed in routes:
        path = lift_path(curve, PathSpec(segments=(LineSeg(a, b),), l_seed=seed),
                         StepControls())
        assert path.diagnostics.halvings == 0
        assert np.all(path.l.imag == 0.0)
        assert np.all(path.log_l.imag == path.log_l.imag[0])


def test_route_to_coefficients_that_are_not_finite_is_refused(fig8):
    # m^8 overflows on the way to m = 1e80: the row cannot be solved
    spec = PathSpec(segments=(LineSeg(2.0, 1e80),), l_seed=big_root(fig8, 2.0))
    with pytest.raises(NonConvergence, match="coefficients are not finite at this m: m = "):
        lift_path(fig8, spec, StepControls())


def test_route_through_a_cancelling_leading_coefficient_is_refused():
    # at m = 2 the leading coefficient m - 2 of (m - 2) l^2 + l - 1
    # cancels: one sheet goes to infinity and the row keeps one root,
    # which the stacked root solve cannot take
    p = parse_poly("m*l^2 - 2*l^2 + l - 1")
    spec = PathSpec(segments=(LineSeg(1.5, 2.0),), l_seed=1.0 + 1.0j)
    with pytest.raises(DegenerateError, match=r"leading l-coefficient vanishes at this m: "
                                              r"m = \(2\+0j\)"):
        lift_path(p, spec, StepControls())


@pytest.mark.parametrize("radius", [1e-3, 5e-4, 1e-4])
def test_small_sheet_circle_near_zero_is_solved(fig8, radius):
    # the leading l-coefficient m^4 is 1e-12 to 1e-16 of the constant term
    # here, but a monomial never cancels: every row is solved, l winds 4
    # times, and eta agrees with the reference kernel's
    spec = loop_around_m(fig8, 0j, radius, small_root(fig8, radius))
    path, ref = _matches_reference(fig8, spec, StepControls())
    assert path.closed and path.diagnostics.halvings == 0
    assert 0.0 < path.diagnostics.max_ratio < curve_tracker.BATCH_RATIO
    assert path.log_l.imag[-1] - path.log_l.imag[0] == pytest.approx(4 * TWO_PI, abs=1e-8)
    assert abs(integrate_eta(path).value - integrate_eta(ref).value) <= FORM_TOL


def test_route_that_does_not_move_keeps_l(fig8):
    # the demo's a = 1 conjecture route stays at its start m, near the
    # node m = 1: every sample keeps the seed's closed-form root bit for
    # bit, so the integrals along it are exactly 0
    spec, _ = cli_app._conjecture_path(cli_app.load_knots()["fig8"], 1.0)
    path = lift_path(fig8, spec, StepControls())
    assert path.l[0].imag != 0.0 and np.all(path.l == path.l[0])
    assert integrate_eta(path).value == 0.0 and integrate_xi(path).value == 0.0


def test_batch_refuses_at_the_first_ambiguous_chunk(fig8, monkeypatch):
    # the near-branch line on 1000 intervals: its steps become ambiguous
    # in the second chunk, where each refused step's SPLIT - 1 new points
    # are solved on their own; the later chunks are solved whole
    solved = []

    def recording(c):
        solved.append(len(c))
        return companion_roots(c)

    monkeypatch.setattr(curve_tracker, "companion_roots", recording)
    path = lift_path(fig8, _near_branch_line(fig8), StepControls(max_step=1e-3))
    chunk, new = curve_tracker.BATCH_CHUNK + 1, curve_tracker.SPLIT - 1
    splits = path.diagnostics.halvings // new
    assert splits > 0 and path.diagnostics.halvings == splits * new
    assert solved == [chunk] * 2 + [new] * splits + [chunk, 1000 - 3 * 256 + 1]
    assert 0.0 < path.diagnostics.max_ratio < curve_tracker.BATCH_RATIO


def test_quadratic_rows_take_no_eigenvalue_call(fig8, monkeypatch):
    # fig8 is quadratic in l: a probe block and a lift whose refused steps
    # are split solve every row in closed form; 5_2, cubic in l, still
    # takes the stacked eigenvalue call
    def refused(a):
        raise AssertionError("np.linalg.eigvals was called")

    monkeypatch.setattr(poly_core.np.linalg, "eigvals", refused)
    # a 1,000-point block of 10 grid rows around 1/phi and the double point 1
    re, im = np.meshgrid(np.linspace(0.12, 1.12, 10), np.linspace(-0.5, 0.5, 100), indexing="ij")
    roots, status, _ = roots_in_l_batch(fig8, (re + 1j * im).ravel())
    assert not status.any() and np.isfinite(roots).all()
    path = lift_path(fig8, _near_branch_line(fig8), StepControls())
    assert path.diagnostics.halvings > 0
    with pytest.raises(AssertionError, match="eigvals was called"):
        roots_in_l(parse_poly(K52_A), 0.2)


def test_quadratic_rows_take_no_newton_polish(fig8, monkeypatch):
    # only eigenvalue estimates are polished: a probe block, a one-row
    # solve, the knot table's seed checks and a lift whose refused steps
    # are split take fig8's closed-form roots as they are; 5_2, cubic in
    # l, still reaches the polish
    def refused(c, z):
        raise AssertionError("_polish was called")

    monkeypatch.setattr(poly_core, "_polish", refused)
    re, im = np.meshgrid(np.linspace(0.12, 1.12, 10), np.linspace(-0.5, 0.5, 100), indexing="ij")
    roots, status, _ = roots_in_l_batch(fig8, (re + 1j * im).ravel())
    assert not status.any() and np.isfinite(roots).all()
    assert len(roots_in_l(fig8, 0.3 + 0.2j)) == 2
    # load_knots is cached per process: the function it wraps checks
    # every record's seed under the patch
    assert "fig8" in cli_app.load_knots.__wrapped__()
    path = lift_path(fig8, _near_branch_line(fig8), StepControls())
    assert path.diagnostics.halvings > 0
    with pytest.raises(AssertionError, match="_polish was called"):
        roots_in_l(parse_poly(K52_A), 0.2)


@pytest.mark.parametrize("name", ["fig8", "k52"])
def test_roots_do_not_depend_on_the_batch(fig8, name):
    # _track_grid relies on it: each row's roots are the same to the bit
    # alone and inside a 1,000-row batch, in closed form (fig8, degree 2)
    # and from the stacked eigenvalue call (5_2, degree 3)
    curve = fig8 if name == "fig8" else parse_poly(K52_A)
    rng = np.random.default_rng(41)
    m = rng.uniform(0.2, 1.8, 1000) * np.exp(1j * rng.uniform(0.0, TWO_PI, 1000))
    rows = laurent_rows(curve, m, *l_range(curve))
    alone = np.concatenate([companion_roots(rows[b:b + 1]) for b in range(len(rows))])
    assert np.array_equal(companion_roots(rows), alone)


@pytest.mark.parametrize("seg", [
    LineSeg(0.5 - 0.1j, 0.7 + 0.3j),
    ArcSeg(0.1 + 0.2j, 0.4, 0.3, 1.5),
    curve_tracker.GradedSeg(ArcSeg(0j, 0.6, 0.3, 1.5), 0.4, 1e-5),
], ids=["line", "arc", "graded"])
def test_segment_points_are_its_point_values(seg):
    # an array of parameters gives the values of each parameter alone
    s = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(seg.points(s), [complex(seg.points(x)) for x in s.tolist()])


# ---------------------------------------------------------------- grading
# the pieces track_refined grades a route with: the inverse segment
# parameter, the sinh-graded segment and the branch-point locator

PHI = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.mark.parametrize("seg", [
    LineSeg(0.5 - 0.1j, 0.7 + 0.3j),
    ArcSeg(0.1 + 0.2j, 0.4, 0.3, 1.5),
    ArcSeg(0j, 1.0 / PHI, 2.0, -1.5),
    ArcSeg(0j, 0.42, 0.0, TWO_PI),
], ids=["line", "arc", "clockwise_arc", "full_turn"])
def test_param_inverts_point(seg):
    for s in np.linspace(0.0, 1.0, 41)[1:-1]:
        assert abs(seg.param(seg.points(s)) - s) <= 1e-14
    # off the route: a step i h along the normal moves s by i h to first order
    for s in (0.25, 0.6):
        m = seg.points(s)
        normal = 1j * (seg.points(s + 1e-9) - m) / 1e-9
        assert seg.param(m + 1e-6 * normal) == pytest.approx(s + 1e-6j, abs=1e-10)


@pytest.mark.parametrize("seg", [LineSeg(0.5 - 0.1j, 0.7 + 0.3j), ArcSeg(0j, 0.6, 0.3, 1.5)],
                         ids=["line", "arc"])
@pytest.mark.parametrize("s0, w", [(0.4, 1e-5), (1e-3, 1e-9), (0.999, 0.2)])
def test_graded_segment_keeps_the_route(seg, s0, w):
    graded = curve_tracker.GradedSeg(seg, s0, w)
    assert graded.first == seg.first and graded.last == seg.last
    # the lift's end samples are the wrapped segment's own
    assert graded.points(0.0) == seg.points(0.0) and graded.points(1.0) == seg.points(1.0)
    u = np.linspace(0.0, 1.0, 101)
    s = np.array([seg.param(graded.points(x)) for x in u])
    assert np.all(np.abs(s.imag) < 1e-12) and np.all(np.diff(s.real) > 0)
    # crowded toward s0: ds/du = w (b - a) cosh(a + u (b - a)) is smallest
    # there, one u-step of it at most cosh((b - a) du) times that
    span = math.asinh((1.0 - s0) / w) - math.asinh(-s0 / w)
    smallest = w * span * u[1]
    assert smallest * (1 - 1e-5) <= np.min(np.diff(s.real)) \
        <= smallest * math.cosh(span * u[1]) * (1 + 1e-5)


@pytest.mark.parametrize("w", [0.0, -1e-3, math.nan])
def test_graded_segment_needs_positive_width(w):
    with pytest.raises(ValueError):
        curve_tracker.GradedSeg(LineSeg(0j, 1.0), 0.5, w)


@pytest.mark.parametrize("m_b", [1.0 / PHI, cmath.exp(1j * math.pi / 3.0),
                                 -PHI, cmath.exp(2j * math.pi / 3.0)],
                         ids=["inv_phi", "e^(i pi/3)", "-phi", "e^(2i pi/3)"])
def test_branch_point_locator_converges(fig8, m_b):
    # from samples on either sheet 1e-3 away, on four sides
    l_b = complex(oracles.fig8_sheets(np.array([m_b]))[0][0])
    for theta in (0.0, 1.0, 2.5, 4.0):
        m = m_b + 1e-3 * unit(theta)
        for l in (small_root(fig8, m), big_root(fig8, m)):
            found = curve_tracker.locate_branch_point(fig8, l, m)
            assert found is not None
            assert abs(found[1] - m_b) < 1e-12
            assert abs(found[0] - l_b) < 1e-6  # l_b is a double root in l


def test_branch_point_locator_rejects_the_node(fig8):
    # at m = 1, l = -1 the curve has a node: A, dA/dl and dA/dm all vanish
    assert eval_poly(fig8, -1.0, 1.0) == 0
    assert eval_poly(partial(fig8, "l"), -1.0, 1.0) == 0
    assert eval_poly(partial(fig8, "m"), -1.0, 1.0) == 0
    assert curve_tracker.locate_branch_point(fig8, -1.0 + 0j, 1.0 + 0j) is None
    # 1e-3 away Newton creeps toward it and stalls; no branch point either
    for theta in (0.0, 1.0, 2.5, 4.0):
        m = 1.0 + 1e-3 * unit(theta)
        for l in (small_root(fig8, m), big_root(fig8, m)):
            assert curve_tracker.locate_branch_point(fig8, l, m) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("curve, l, m", [
    ("l + l^-1*m - l^-1", 0j, 1.0 + 0j),
    ("l - m^-1", 1.0 + 0j, 0j),
], ids=["l_zero", "m_zero"])
def test_branch_point_locator_gives_up_at_a_zero_argument(curve, l, m):
    # A and its derivatives are not finite at l = 0 on a curve with a
    # negative l-power (the branch point of l^2 = 1 - m at m = 1), and
    # have no row at m = 0 on one with a negative m-power: no branch
    # point, and no numpy warning
    assert curve_tracker.locate_branch_point(parse_poly(curve), l, m) is None


def test_grading_wraps_only_the_segment_that_passes_the_branch_point(fig8):
    line = _near_branch_line(fig8).segments[0]
    arc = ArcSeg(0j, abs(line.last), np.angle(line.last), np.angle(line.last) + 0.5)
    spec = PathSpec(segments=(line, arc), l_seed=_near_branch_line(fig8).l_seed)
    ctrl = StepControls()
    path = lift_path(fig8, spec, ctrl)
    assert not path.uniform
    graded, toward = curve_tracker.grade_toward_branch_points(fig8, spec, path, ctrl.max_step)
    assert len(toward) == 1 and abs(toward[0] - 1.0 / PHI) < 1e-12
    assert isinstance(graded.segments[0], curve_tracker.GradedSeg)
    assert graded.segments[0].seg == line and graded.segments[1] == arc
    s_b = line.param(toward[0])
    assert (graded.segments[0].s0, graded.segments[0].w) == (s_b.real, abs(s_b.imag))
    # a graded segment is kept as it is
    assert curve_tracker.grade_toward_branch_points(
        fig8, graded, lift_path(fig8, graded, ctrl), ctrl.max_step) == (graded, ())
    # a branch point further than one grid step off the route is left alone
    far = PathSpec(segments=(LineSeg(line.first + 0.02j, line.last + 0.02j),),
                   l_seed=small_root(fig8, line.first + 0.02j))
    path = lift_path(fig8, far, ctrl)
    assert curve_tracker.grade_toward_branch_points(fig8, far, path, ctrl.max_step) \
        == (far, ())


def test_grading_reads_the_sample_nearest_the_branch_point(fig8):
    # the line starts 0.03 from e^{i pi/3}, where Newton from its first
    # sample would go, and passes 1/phi at 1e-5, where its lift halves
    start = cmath.exp(1j * math.pi / 3.0) + 0.03 * unit(-0.5)
    u = (1.0 / PHI - start) / abs(1.0 / PHI - start)
    mid = 1.0 / PHI + 1e-5j * u
    line = LineSeg(mid - abs(1.0 / PHI - start) * u, mid + 0.1 * u)
    spec = PathSpec(segments=(line,), l_seed=small_root(fig8, line.first))
    first = curve_tracker.locate_branch_point(fig8, spec.l_seed, line.first)
    assert abs(first[1] - cmath.exp(1j * math.pi / 3.0)) < 1e-12
    path = lift_path(fig8, spec, StepControls())
    _, toward = curve_tracker.grade_toward_branch_points(fig8, spec, path, 0.01)
    assert len(toward) == 1 and abs(toward[0] - 1.0 / PHI) < 1e-12


def test_no_grading_toward_a_branch_point_past_the_end(fig8):
    # the line stops 1e-5 short of 1/phi: its lift halves near the end,
    # but Re s_b > 1, so the branch point is not on the segment
    u = unit(1.0)
    end = 1.0 / PHI - 1e-5 * u
    spec = PathSpec(segments=(LineSeg(end - 0.3 * u, end),), l_seed=small_root(fig8, end - 0.3 * u))
    path = lift_path(fig8, spec, StepControls())
    assert not path.uniform
    assert spec.segments[0].param(1.0 / PHI).real > 1.0
    assert curve_tracker.grade_toward_branch_points(fig8, spec, path, 0.01) == (spec, ())
