"""End-to-end acceptance checks, one verdict line per guarantee.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
then asserts, so a plain pytest run is still authoritative.  The nine
checks cover: closed-loop exactness of the volume form, lattice
rationality of the regulator's argument (the Chern-Simons period on
loops started on the positive real axis), regulator vs tame symbol, the
Steinberg relation, the holonomy (its two expressions differ by |ratio|
est_error / 3, which restates the refinement target of
one_forms.track_refined, so check 5 also requires the value within 1e-12
of the closed-form figure-eight lift and within its own est_error), the
N=2 Jones oracle,
the Kashaev growth rate, orientation/additivity of every integral, and
the generalized-asymptotics scan.
"""

import cmath
import json
import math
import re
import time

import numpy as np
import pytest

import oracles
from apolylab import cli_app, one_forms, symbols_k2
from apolylab.curve_tracker import (
    ArcSeg,
    LineSeg,
    PathSpec,
    StepControls,
    lift_path,
    reverse,
)
from apolylab.jones_kashaev import (
    colored_jones_fig8,
    growth_rate,
    kashaev_sequence,
)
from apolylab.poly_core import parse_poly, roots_in_l

TWO_PI = 2.0 * math.pi


def verdict(num, name, ok, detail):
    print("\n[%d] %-28s %s  (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def seed_at(poly, m, which="small"):
    roots = sorted(roots_in_l(poly, m), key=abs)
    return complex(roots[0] if which == "small" else roots[-1])


def circle_spec(poly, center, radius, which="small", turns=1):
    seg = ArcSeg(center, radius, 0.0, turns * 2.0 * math.pi)
    return PathSpec(segments=(seg,),
                    l_seed=seed_at(poly, center + radius, which), closed=True)


def square_spec(poly, center, w, turns=1):
    corners = [center + w, center + w * 1j, center - w, center - w * 1j,
               center + w]
    segs = [LineSeg(corners[k], corners[k + 1]) for k in range(4)] * turns
    return PathSpec(segments=tuple(segs),
                    l_seed=seed_at(poly, center + w), closed=True)


def arc_spec(poly, rho, a0, a1):
    return PathSpec(segments=(ArcSeg(0j, rho, a0, a1),),
                    l_seed=seed_at(poly, rho * cmath.exp(1j * a0)),
                    closed=False)


LOOPS = {
    "puncture_small": (0j, 0.30, "small"),
    "puncture_big": (0j, 0.35, "big"),
    "contractible_a": (2.0 + 0j, 0.25, "small"),
    "contractible_b": (0.25 + 0.25j, 0.12, "small"),
}

# -arg r / 2 pi of the regulator over those loops, each started on the
# positive real axis, where it is the Chern-Simons period in units of 4 pi^2
XI_LATTICE = {
    "puncture_small": (-2, 1),
    "puncture_big": (2, 1),
    "contractible_a": (0, 1),
    "contractible_b": (0, 1),
}


@pytest.fixture(scope="module")
def loop_data(fig8):
    t0 = time.perf_counter()
    out = {}
    for name, (center, radius, which) in LOOPS.items():
        spec = circle_spec(fig8, center, radius, which)
        path, res, used = one_forms.track_refined(
            fig8, spec, StepControls(), forms=("eta", "xi"), target=1e-8)
        out[name] = (spec, path, res, used)
    return out, time.perf_counter() - t0


def test_1_eta_exact_on_closed_loops(fig8, loop_data):
    data, elapsed = loop_data
    worst = max(abs(res["eta"].value) for _, _, res, _ in data.values())
    ok = worst < 1e-6 and elapsed < 120.0
    verdict(1, "eta exact on closed loops", ok,
            "%d loops, worst |integral| %.2e, %.1fs" % (len(data), worst, elapsed))


def test_2_xi_periods_rational(fig8, loop_data):
    data, _ = loop_data
    details = []
    ok = True
    for name, (spec, path, res, used) in data.items():
        exponent = one_forms.regulator_exponent(path)
        rec = symbols_k2.recognize_rational(-exponent.value.imag / TWO_PI, 48, 1e-5)
        details.append("%s=%d/%d" % (name, rec.p, rec.q))
        ok &= (rec.residual + exponent.est_error / TWO_PI < 1e-5
               and (rec.p, rec.q) == XI_LATTICE[name])
    verdict(2, "-arg r / 2pi lands on Z", ok, " ".join(details))


def test_3_regulator_matches_tame_symbol(fig8):
    lin1 = parse_poly("m + l - 1")
    lin2 = parse_poly("m + l - 2")
    punctures = [
        ("fig8 m=0", fig8, 0j, 0.30),
        ("lin1 l=0", lin1, 1.0 + 0j, 0.10),
        ("lin1 l=1", lin1, 0j, 0.10),
        ("lin2 l=0", lin2, 2.0 + 0j, 0.10),
        ("lin2 l=2", lin2, 0j, 0.10),
    ]
    ctrl = StepControls()
    worst = 0.0
    for _, curve, center, radius in punctures:
        loop = lift_path(curve, circle_spec(curve, center, radius), ctrl)
        v_l = symbols_k2.valuation(curve, loop, "l")
        v_m = symbols_k2.valuation(curve, loop, "m")
        tame = symbols_k2.tame_symbol(curve, loop, v_l, v_m)
        reg = one_forms.regulator(loop)
        worst = max(worst, abs(reg.value - tame))
    verdict(3, "regulator equals tame symbol",
            worst < 1e-6, "%d punctures, worst |r - T| %.2e" % (len(punctures), worst))


def test_4_steinberg_relation():
    lin1 = parse_poly("m + l - 1")
    ctrl = StepControls(max_step=0.002)
    worst = 0.0
    for center in (1.0 + 0j, 0j):  # l = 0 and l = 1 on m = 1 - l
        loop = lift_path(lin1, circle_spec(lin1, center, 0.1), ctrl)
        worst = max(worst, abs(one_forms.regulator(loop).value - 1.0))
    verdict(4, "Steinberg r(f,1-f) = 1", worst < 1e-8,
            "both punctures, worst |r - 1| %.2e" % worst)


def test_5_holonomy_expressions_agree(fig8):
    rng = np.random.default_rng(7)
    worst = worst_err = worst_ratio = 0.0
    for _ in range(10):
        rho = rng.uniform(0.25, 0.45)
        a0 = rng.uniform(0.2, 0.7)
        a1 = a0 + rng.uniform(0.3, 0.5)
        spec = arc_spec(fig8, rho, a0, a1)
        path, res, _ = one_forms.track_refined(
            fig8, spec, StepControls(max_step=5e-4), forms=("kk",), target=1e-8,
            max_halvings=2)
        kk = one_forms.kirk_klassen(path)
        worst = max(worst, kk.expr_diff)
        # the value itself, against the closed-form lift
        exact = cmath.exp(oracles.fig8_arc_integrals(0j, rho, a0, a1, spec.l_seed)["kk"])
        err = abs(kk.value - exact)
        worst_err = max(worst_err, err)
        worst_ratio = max(worst_ratio, err / res["kk"].est_error)
    verdict(5, "holonomy expressions agree",
            worst < 1e-8 and worst_err < 1e-12 and worst_ratio <= 1.0,
            "10 random paths, worst diff %.2e, worst error %.2e "
            "(%.2g of est_error)" % (worst, worst_err, worst_ratio))


def test_6_jones_n2_against_bracket_oracle():
    worst = 0.0
    for theta in np.linspace(0.2, 6.0, 10):
        q = cmath.exp(1j * theta)
        got = colored_jones_fig8(2, q).to_complex()
        worst = max(worst, abs(got - oracles.jones_poly_fig8(q)))
    verdict(6, "N=2 matches bracket oracle", worst < 1e-10,
            "10 unit q, worst |diff| %.2e" % worst)


def test_7_kashaev_growth_rate():
    t0 = time.perf_counter()
    fit = growth_rate(kashaev_sequence([500, 1000, 2000, 4000]))
    elapsed = time.perf_counter() - t0
    truth = 6.0 * oracles.lobachevsky_quadrature(math.pi / 3)
    diff = abs(fit.slope - truth)
    verdict(7, "Kashaev slope hits volume", diff < 1e-3 and elapsed < 300.0,
            "slope %.12g vs %.12g, diff %.2e, %.2fs"
            % (fit.slope, truth, diff, elapsed))


def test_8_orientation_and_additivity(fig8):
    rng = np.random.default_rng(11)
    ctrl = StepControls(max_step=0.002)
    checks = []

    def within(tag, diff, bound):
        checks.append((tag, diff, bound, diff <= bound))

    # open arcs: reversal negates, splitting adds, for eta / xi / the
    # holonomy exponent
    for trial in range(3):
        rho = rng.uniform(0.25, 0.45)
        a0 = rng.uniform(0.1, 0.3)
        a2 = a0 + rng.uniform(0.6, 1.0)
        a1 = a0 + rng.uniform(0.3, 0.7) * (a2 - a0)
        whole = lift_path(fig8, arc_spec(fig8, rho, a0, a2), ctrl)
        left = lift_path(fig8, arc_spec(fig8, rho, a0, a1), ctrl)
        right = lift_path(fig8, arc_spec(fig8, rho, a1, a2), ctrl)
        rev = reverse(whole)
        for tag, fn in (("eta", one_forms.integrate_eta),
                        ("xi", one_forms.integrate_xi),
                        ("kk", one_forms.kk_exponent)):
            w, p, q, r = fn(whole), fn(left), fn(right), fn(rev)
            within("%s rev %d" % (tag, trial), abs(r.value + w.value),
                   2.0 * (r.est_error + w.est_error))
            within("%s cat %d" % (tag, trial),
                   abs(w.value - p.value - q.value),
                   2.0 * (w.est_error + p.est_error + q.est_error))

    # regulator exponent on contractible square loops; doubling the
    # loop is the closed-path concatenation
    for trial, (center, lo, hi) in enumerate(
            [(2.0 + 0j, 0.2, 0.3), (0.25 + 0.25j, 0.08, 0.12)]):
        w = rng.uniform(lo, hi)
        single = lift_path(fig8, square_spec(fig8, center, w), ctrl)
        double = lift_path(fig8, square_spec(fig8, center, w, turns=2), ctrl)
        e1 = one_forms.regulator_exponent(single)
        e2 = one_forms.regulator_exponent(double)
        er = one_forms.regulator_exponent(reverse(single))
        within("reg rev %d" % trial, abs(er.value + e1.value),
               2.0 * (er.est_error + e1.est_error))
        within("reg cat %d" % trial, abs(e2.value - 2.0 * e1.value),
               2.0 * (e2.est_error + 2.0 * e1.est_error))

    bad = [c for c in checks if not c[3]]
    verdict(8, "reversal negates, concat adds", not bad,
            "%d comparisons, worst margin %.2e" % (
                len(checks),
                max((d / b if b else math.inf) for _, d, b, _ in checks)))
    assert not bad, bad


def test_9_generalized_scan_runs_and_repeats(tmp_path):
    cfg = {
        "knot": "fig8",
        "targets": ["conjecture"],
        "jones": {"N_list": [500, 1000, 2000, 4000],
                  "a_values": [0.9, 1.0, 1.1]},
        "out_dir": "out",
    }
    outs = []
    for sub in ("first", "second"):
        d = tmp_path / sub
        d.mkdir()
        p = d / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli_app.main(["run", str(p)]) == 0
        outs.append(d / "out")

    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in ("one_forms.csv", "jones.csv", "summary.txt"))

    rows = (outs[0] / "one_forms.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[2]) for r in rows]
    finite = vals and all(map(math.isfinite, vals))
    n_rows = sum(1 for r in rows
                 for a in ("0.9", "1", "1.1") if ",vol:a=%s," % a in r)

    summary = (outs[0] / "summary.txt").read_text()
    reported = ("LHS" in summary and "RHS" in summary
                and summary.count("[conjecture] a=") == 3)
    # endpoint of the a = 0.9 route is m = -e^{0.9 i pi}
    m_end = re.search(r"a=0\.9: m_end=([-0-9.e]+)([-+][0-9.e]+)j", summary)
    target = -cmath.exp(0.9j * math.pi)
    on_target = (m_end is not None and
                 abs(complex(float(m_end.group(1)), float(m_end.group(2)))
                     - target) < 1e-5)

    # the a != 1 Jones values, at q = e^{2 pi i/k}, against the mpmath sum
    worst = 0.0
    jones_rows = (outs[0] / "jones.csv").read_text().splitlines()[1:]
    deformed = [r.split(",") for r in jones_rows if float(r.split(",")[2]) != 1.0]
    for n, k, _, log_abs, arg, _ in deformed:
        want_log, want_arg = oracles.colored_jones_fig8_mp(int(n), 1, int(k))
        worst = max(worst, abs(float(log_abs) - want_log) / max(1.0, abs(want_log)),
                    abs(math.remainder(float(arg) - want_arg, 2 * math.pi)))
    values_ok = len(deformed) == 8 and worst < 1e-9

    ok = same and finite and reported and on_target and n_rows == 3 and values_ok
    verdict(9, "generalized scan a=0.9/1.0/1.1", ok,
            "%d rows finite=%s deterministic=%s report=%s endpoint=%s "
            "jones a!=1 vs mpmath %d rows, worst %.2g"
            % (len(rows), finite, same, reported, on_target, len(deformed), worst))
