"""The benchmark's references checked against each other, and its checks
checked against outputs made from the references.  The package is not
imported.

    python3 -m pytest -q perfbench/test_reference.py
"""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

import checks
import hostspeed
import reference as ref
import tracer
from workloads import WORKLOADS, make_inputs


def _arc(center, radius, a0, a1, sheet):
    start = center + radius * cmath.exp(1j * a0)
    seed = ref.fig8_root(start, sheet)
    return {"segments": [{"kind": "arc", "center": [center.real, center.imag], "radius": radius,
                          "angle_start": a0, "angle_end": a1}],
            "l_seed": [seed.real, seed.imag], "closed": False}


def _routes():
    inputs = make_inputs("arcs", 7)
    return inputs["routes"]


def test_sheets_solve_the_curve():
    rng = np.random.default_rng(1)
    m = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    big, small = ref.fig8_sheets(m)
    np.testing.assert_allclose(big * small, 1.0, rtol=1e-13)
    for k in range(len(m)):
        roots = np.roots([m[k] ** 4, -ref.fig8_b(m[k]), m[k] ** 4])
        for l in (big[k], small[k]):
            assert np.min(np.abs(roots - l)) <= 1e-11 * abs(l)


def test_probe_value_is_dA_dl_on_both_sheets():
    rng = np.random.default_rng(2)
    m = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    big, small = ref.fig8_sheets(m)
    for l in (big, small):
        np.testing.assert_allclose(np.abs(2 * m ** 4 * l - ref.fig8_b(m)), ref.probe_values(m),
                                   rtol=1e-9)


def test_fig8_tame_symbol_is_the_limit_of_l_over_m4():
    for theta in (0.3, 2.0, 4.0):
        m = 1e-3 * cmath.exp(1j * theta)
        assert abs(ref.fig8_root(m, "small") / m ** 4 - ref.FIG8_TAME_AT_M0) < 1e-5


def test_tame_symbols_on_lines_satisfy_steinberg_at_c_one():
    assert ref.tame_linear(1, "l0") == 1 and ref.tame_linear(1, "m0") == 1
    assert ref.tame_linear(2, "l0") == 0.5 and ref.tame_linear(2, "m0") == 2


@pytest.mark.parametrize("route", _routes(), ids=["small_arc", "big_arc", "near_branch"])
def test_route_integrals_do_not_depend_on_the_mesh(route, monkeypatch):
    coarse = ref.route_integrals(route)
    x, w = np.polynomial.legendre.leggauss(20)
    monkeypatch.setattr(ref, "_GL_X", x)
    monkeypatch.setattr(ref, "_GL_W", w)
    monkeypatch.setattr(ref, "PANEL_FRACTION", ref.PANEL_FRACTION / 2)
    monkeypatch.setattr(ref, "PANEL_MAX", ref.PANEL_MAX / 2)
    fine = ref.route_integrals(route)
    assert fine["nodes"] > 2 * coarse["nodes"]
    for key in ("eta", "xi", "kk_exponent"):
        assert abs(fine[key] - coarse[key]) < 1e-12


@pytest.mark.parametrize("route", _routes(), ids=["small_arc", "big_arc", "near_branch"])
def test_kirk_klassen_and_eta_agree_by_parts(route):
    # Im int (lam_m dlam_l - lam_l dlam_m) = -2 eta + [arg m log|l| - arg l log|m|]
    r = ref.route_integrals(route)
    (a0, t0, b0, s0), (a1, t1, b1, s1) = r["ends"]
    boundary = (s1 * a1 - t1 * b1) - (s0 * a0 - t0 * b0)
    assert abs(r["kk_exponent"].real * 2 * math.pi - (-2 * r["eta"] + boundary)) < 1e-12


def test_closed_loop_periods():
    # eta is exact; xi / 4 pi^2 is fixed by the valuation of l at m = 0
    for loop, period in ((_arc(0j, 0.3, 0.0, 2 * math.pi, "small"), -2),
                         (_arc(0j, 0.35, 0.0, 2 * math.pi, "big"), 2),
                         (_arc(2 + 0j, 0.25, 0.0, 2 * math.pi, "small"), 0),
                         (_arc(0.25 + 0.25j, 0.12, 0.0, 2 * math.pi, "small"), 0)):
        r = ref.route_integrals(loop)
        assert abs(r["eta"]) < 1e-12
        assert abs(r["xi"] / ref.FOUR_PI2 - period) < 1e-12


def test_vol_fig8_against_the_lobachevsky_integral():
    with mpmath.workdps(30):
        lam = -mpmath.quad(lambda t: mpmath.log(abs(2 * mpmath.sin(t))), [0, mpmath.pi / 3])
        assert abs(ref.vol_fig8() - float(6 * lam)) < 1e-14


@pytest.mark.parametrize("N", [7, 50, 300])
def test_kashaev_log_sum_exp_against_mpmath(N):
    with mpmath.workdps(40):
        total, prod = mpmath.mpf(1), mpmath.mpf(1)
        for i in range(1, N):
            prod *= abs(1 - mpmath.expjpi(mpmath.mpf(2 * i) / N)) ** 2
            total += prod
        assert abs(ref.kashaev_log_abs(N) - float(mpmath.log(total))) < 1e-12 * max(1.0, float(mpmath.log(total)))


def test_kashaev_cumulative_sum_drift_at_large_N():
    N = 1_000_000
    i = np.arange(1, N, dtype=np.longdouble)
    logs = np.concatenate(([0.0], np.cumsum(np.log(4 * np.sin(np.pi * i / N) ** 2))))
    top = np.max(logs)
    wide = float(top + np.log(np.sum(np.exp(logs - top))))
    assert abs(ref.kashaev_log_abs(N) - wide) < 1e-12 * wide


def test_root_of_unity_sum_at_k_equal_N_is_the_kashaev_value():
    log_abs, arg = ref.jones_root_of_unity(200, 200)
    assert arg == 0.0 and abs(log_abs - ref.kashaev_log_abs(200)) < 1e-12 * log_abs


@pytest.mark.parametrize("N,k", [(60, 66), (60, 55), (500, 556)])
def test_root_of_unity_cut_off_matches_the_uncut_sum(N, k):
    # at 400 digits the zero factor evaluates to ~1e-400, so the uncut sum
    # differs from the cut one only far below double precision
    with mpmath.workdps(400):
        q = mpmath.expjpi(mpmath.mpf(2) / k)
        h = mpmath.sqrt(q)
        total, prod = mpmath.mpc(1), mpmath.mpc(1)
        for j in range(1, N):
            prod *= (h ** (N - j) - h ** (j - N)) * (h ** (N + j) - h ** (-N - j))
            total += prod
        want = float(mpmath.log(abs(total)))
    log_abs, _ = ref.jones_root_of_unity(N, k)
    assert abs(log_abs - want) < 1e-12


def test_growth_fit_recovers_a_known_slope():
    n = np.array([100.0, 200.0, 400.0, 800.0])
    y = 0.25 * n + 1.5 * np.log(n) - 3.0
    assert abs(ref.growth_fit(n, y) - 2 * math.pi * 0.25) < 1e-10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    assert make_inputs(workload, 3) == make_inputs(workload, 3)
    if workload != "demo":
        assert make_inputs(workload, 3) != make_inputs(workload, 4)


def _arc_output(route, bias=0.0, est=1e-9):
    r = ref.route_integrals(route)
    kk = cmath.exp(r["kk_exponent"])
    vol = ref.vol_fig8()
    return {"eta": [r["eta"] + bias, est], "xi": [r["xi"], est], "kk": [kk.real, kk.imag],
            "kk_est": est, "kk_expr_diff": 0.0, "vol": vol - 2 * r["eta"],
            "cs": r["xi"] / math.pi ** 2, "n_samples": 1, "max_step": 1.0}


def test_arc_check_accepts_the_reference_and_rejects_an_error_above_the_estimate():
    inputs = make_inputs("arcs", 5)
    good = [_arc_output(route) for route in inputs["routes"]]
    assert all(ok for ok, _, _ in checks.check("arcs", inputs, good))
    bad = [_arc_output(route, bias=1e-7) for route in inputs["routes"]]
    assert not any(ok for ok, _, _ in checks.check("arcs", inputs, bad))


def test_arc_check_rejects_an_error_that_its_own_estimate_covers():
    # a coarser lift reports a larger est_error; the fixed tolerance still fails it
    inputs = make_inputs("arcs", 5)
    coarse = [_arc_output(route, bias=5e-7, est=1e-6) for route in inputs["routes"]]
    assert not any(ok for ok, _, _ in checks.check("arcs", inputs, coarse))


def test_jones_check_flags_only_wrong_values():
    n_values = [300, 400, 500, 600]
    values = [[n, ref.kashaev_log_abs(n), 0.0] for n in n_values]
    kashaev = {"kind": "kashaev", "values": values,
               "slope": ref.growth_fit(n_values, [v[1] for v in values]), "rms": 0.0}
    # the fit at these small N is not yet near Vol, so only the slope check fails
    (ok, fault, problems), = checks.check("jones", {}, [kashaev])
    assert not ok and not fault and all("6 Lambda" in p for p in problems)
    log_abs, arg = ref.jones_root_of_unity(500, 556)
    right = {"kind": "root_of_unity", "N": 500, "k": 556, "log_abs": log_abs, "arg": arg}
    wrong = dict(right, log_abs=124.49432316243011)
    verdicts = checks.check("jones", {}, [right, wrong])
    assert verdicts[0][0] and not verdicts[1][0] and verdicts[1][1]


def test_probe_check_needs_the_exact_hit_set():
    inputs = make_inputs("probe", 5)
    grid = ref.probe_grid(inputs["re"], inputs["im"], inputs["density"])
    values = ref.probe_values(grid)
    hits = [(m, v) for m, v in zip(grid, values) if v < inputs["threshold"]]
    assert len(hits) == 25

    def output(rows):
        body = "".join("%.17g,%.17g,%.17g\n" % (m.real, m.imag, v) for m, v in rows)
        return [{"exit": 0, "stdout": "%d grid point(s) below threshold -> x\n" % len(rows),
                 "csv": "m_re,m_im,min_abs_dAdl\n" + body}]

    assert checks.check("probe", inputs, output(hits))[0][0]
    assert not checks.check("probe", inputs, output(hits[1:]))[0][0]


def test_self_time_excludes_child_spans():
    spans = [["curve_tracker.lift_path", 0.0, 1.0, -1, {"samples": 10, "halvings": 1}],
             ["poly_core.roots_in_l", 0.1, 0.3, 0, None],
             ["backends.track_grid", 0.3, 0.9, 0, None],
             ["one_forms.quadrature", 1.0, 1.5, -1, None],
             ["one_forms.quadrature", 1.1, 1.2, 3, None]]
    raw = tracer.raw_figures(spans)
    lift = raw["curve_tracker.lift_path"]
    assert lift["calls"] == 1 and lift["samples"] == 10
    assert lift["self"] == pytest.approx(0.2) and lift["busy"] == pytest.approx(1.0)
    quad = raw["one_forms.quadrature"]
    assert quad["calls"] == 1 and quad["self"] == pytest.approx(0.5)
    metrics = tracer.layer_metrics(raw)
    assert metrics["curve_tracker.lift_path.us_per_sample"] == pytest.approx(1e5)
    assert metrics["jones_kashaev.colored_jones_fig8.ns_per_term"] == 0.0


def test_host_speed_scales_by_the_sampled_loop():
    with hostspeed.HostSpeed() as short:
        pass
    assert not short.samples and short.seconds == short.unscaled
    with hostspeed.HostSpeed() as speed:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 2 and speed.spent == pytest.approx(sum(speed.samples))
    mean = sum(speed.samples) / len(speed.samples)
    assert speed.seconds == pytest.approx(speed.unscaled * hostspeed.LOOP_REF_S / mean)
