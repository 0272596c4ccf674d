"""Checks of one round's outputs against the references.

``check(workload, inputs, outputs)`` returns one entry per operation:
(ok, known_fault, problems).  known_fault marks the operations that hit
the fault named in README.md (the Jones sum at a root of unity with
k < 2N); they are counted as failed and do not make the run incorrect.
The references run in the benchmark's parent process, after the measured
process has ended.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re

import reference as ref

PI2 = math.pi ** 2
FIG8_M0 = 1.0 + 1e-4  # the figure-eight record's offset base point m0 = 1 + epsilon


class Problems(list):
    def expect(self, ok: bool, what: str):
        if not ok:
            self.append(what)

    def close(self, got, want, tol: float, what: str):
        self.expect(abs(got - want) <= tol, "%s: got %r, want %r (tol %.3g)" % (what, got, want, tol))


# Fixed absolute tolerances of the arcs outputs against the closed-form
# reference, by the kind of route.  The program's errors: at most 2.4e-14
# on the arcs (seeds 1-10), and 5e-8 to 1.03e-7 on the line past the
# branch point (33 seeds), which stops short of the 1e-9 target
# (README.md).  The tolerances are four and two and a half times the
# largest errors seen, so a change that lifts the routes more coarsely
# fails the check, whatever error estimate it reports.
ARC_TOL = {"arc": 1e-13, "line": 2.5e-7}
VOL_K_TOL = 1e-12  # the program's vol_K against 6 Lambda(pi/3) from mpmath


def _arc_op(route, out, vol_k):
    p = Problems()
    r = ref.route_integrals(route)
    tol = ARC_TOL[route["segments"][0]["kind"]]
    eta, eta_est = out["eta"]
    xi, xi_est = out["xi"]
    kk_ref = cmath.exp(r["kk_exponent"])
    kk = complex(*out["kk"])
    p.close(eta, r["eta"], tol, "eta")
    p.close(xi, r["xi"], tol, "xi")
    p.close(kk, kk_ref, abs(kk_ref) * tol, "kirk_klassen")
    p.close(out["vol"], vol_k - 2.0 * r["eta"], 2.0 * tol + VOL_K_TOL, "vol_along")
    p.close(out["cs"], r["xi"] / PI2, tol / PI2, "cs_along")
    # and the program's own error estimates must cover their errors
    p.expect(abs(eta - r["eta"]) <= eta_est + 1e-10, "eta error above its est_error %r" % eta_est)
    p.expect(abs(xi - r["xi"]) <= xi_est + 1e-10, "xi error above its est_error %r" % xi_est)
    p.expect(abs(kk - kk_ref) <= abs(kk_ref) * (out["kk_est"] + 1e-10),
             "kirk_klassen error above its est_error %r" % out["kk_est"])
    p.expect(out["kk_expr_diff"] <= abs(kk_ref) * (out["kk_est"] + 1e-10),
             "kirk_klassen expressions differ by %r" % out["kk_expr_diff"])
    return (not p, False, p)


def _check_arcs(inputs, outputs):
    vol_k = ref.vol_fig8()
    return [_arc_op(route, out, vol_k) for route, out in zip(inputs["routes"], outputs)]


def _kashaev_op(out):
    p = Problems()
    n_values = [n for n, _, _ in out["values"]]
    refs = [ref.kashaev_log_abs(n) for n in n_values]
    for (n, log_abs, arg), want in zip(out["values"], refs):
        p.close(log_abs, want, 1e-12 * abs(want) + 1e-9, "log|J_%d|" % n)
        p.close(math.remainder(arg, 2.0 * math.pi), 0.0, 1e-9, "arg J_%d" % n)
    p.close(out["slope"], ref.growth_fit(n_values, refs), 1e-8, "growth slope against the reference fit")
    p.close(out["slope"], ref.vol_fig8(), 1e-6, "growth slope against 6 Lambda(pi/3)")
    return (not p, False, p)


def _root_of_unity_op(out):
    p = Problems()
    log_abs, arg = ref.jones_root_of_unity(out["N"], out["k"])
    what = "log|J_%d(e^{2 pi i/%d})|" % (out["N"], out["k"])
    p.close(out["log_abs"], log_abs, 1e-9 * max(1.0, abs(log_abs)), what)
    p.close(math.remainder(out["arg"] - arg, 2.0 * math.pi), 0.0, 1e-9, "arg of the same")
    return (not p, bool(p), p)


def _check_jones(inputs, outputs):
    return [_kashaev_op(out) if out["kind"] == "kashaev" else _root_of_unity_op(out)
            for out in outputs]


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


PROBE_MARGIN = 1e-6  # relative distance from the threshold inside which a point is excused


def _check_probe(inputs, outputs):
    out = outputs[0]
    p = Problems()
    p.expect(out["exit"] == 0, "probe exit code %r" % out["exit"])
    rows = _rows(out["csv"])
    p.expect(rows[:1] == [["m_re", "m_im", "min_abs_dAdl"]], "probe CSV header %r" % rows[:1])
    rows = rows[1:]
    p.expect(out["stdout"].startswith("%d grid point(s) below threshold" % len(rows)),
             "probe stdout %r" % out["stdout"])
    grid = ref.probe_grid(inputs["re"], inputs["im"], inputs["density"])
    values = ref.probe_values(grid)
    index = {complex(m): k for k, m in enumerate(grid)}
    thr = inputs["threshold"]
    want = {k for k, v in enumerate(values) if v < thr}
    excused = {k for k, v in enumerate(values) if abs(v - thr) <= PROBE_MARGIN * thr}
    got = set()
    for m_re, m_im, val in rows:
        k = index.get(complex(float(m_re), float(m_im)))
        if k is None:
            p.append("probe reported m = %s%+sj, which is not a grid point" % (m_re, m_im))
            continue
        got.add(k)
        p.close(float(val), float(values[k]), 1e-8 * float(values[k]),
                "|dA/dl| at m = %s%+sj" % (m_re, m_im))
    wrong = (got ^ want) - excused
    p.expect(not wrong, "probe hit set differs from |sqrt(disc)| < threshold at %d point(s)" % len(wrong))
    p.expect(len(want) > 0, "probe window has no hits")
    return [(not p, False, p)]


def _conjecture_route(a: float) -> dict:
    """The demo's route to m = -e^{i pi a}: along |m| = |m0| from m0, then
    radially onto the unit circle (empty when a = 1)."""
    ang = math.remainder(math.pi * (a + 1.0), 2.0 * math.pi)
    big, small = ref.fig8_sheets(FIG8_M0)
    seed = complex(big) if complex(big).imag > 0 else complex(small)
    seed = [seed.real, seed.imag]
    if ang == 0.0:
        return {"segments": [{"kind": "line", "m_start": [FIG8_M0, 0.0],
                              "m_end": [FIG8_M0, 0.0]}], "l_seed": seed, "closed": False}
    last = FIG8_M0 * cmath.exp(1j * ang)
    return {"segments": [
        {"kind": "arc", "center": [0.0, 0.0], "radius": FIG8_M0, "angle_start": 0.0,
         "angle_end": ang},
        {"kind": "line", "m_start": [last.real, last.imag],
         "m_end": [(last / FIG8_M0).real, (last / FIG8_M0).imag]}],
        "l_seed": seed, "closed": False}


def _expected_symbol(entry) -> tuple:
    """(v_l, v_m, tame symbol) of a demo puncture, from closed forms."""
    arc = entry["loop"]["segments"][0]
    center = complex(*arc["center"])
    if entry.get("a_poly") in (None, "knot"):
        start = center + arc["radius"] * cmath.exp(1j * arc["angle_start"])
        big, small = ref.fig8_sheets(start)
        seed = complex(*entry["loop"]["l_seed"])
        on_small = abs(seed - complex(small)) < abs(seed - complex(big))
        if center != 0 or not on_small:
            return None
        return 4, 1, ref.FIG8_TAME_AT_M0  # l ~ m^4 on the small sheet
    match = re.fullmatch(r"m \+ l - (\d+)", entry["a_poly"])
    if not match:
        return None
    c = int(match.group(1))
    if center == c:
        return 1, 0, ref.tame_linear(c, "l0")
    if center == 0:
        return 0, 1, ref.tame_linear(c, "m0")
    return None


def _check_demo_files(files):
    p = Problems()
    config = json.loads(files["demo_config.json"])
    vol_k = ref.vol_fig8()
    summary = files["summary.txt"]
    lines = summary.splitlines()
    p.expect(lines[-1:] == ["all checks passed"], "summary does not end with 'all checks passed'")
    p.expect(not any(line.endswith("FAIL") for line in lines), "summary has a FAIL line")
    vol_line = re.search(r"vol_K = (\S+) ", summary)
    p.expect(vol_line is not None, "summary lacks vol_K")
    if vol_line:
        p.close(float(vol_line.group(1)), vol_k, 1e-12, "vol_K")

    forms = {row[1]: [float(x) for x in row[2:]] for row in _rows(files["one_forms.csv"])[1:]}

    def need(key):
        if key not in forms:
            p.append("one_forms.csv lacks %s" % key)
            return [math.nan] * 4
        return forms[key]

    for name, loop in config["loops"].items():
        r = ref.route_integrals(loop)
        period = round(r["xi"] / ref.FOUR_PI2)
        p.close(r["xi"] / ref.FOUR_PI2, period, 1e-9, "reference xi period of %s" % name)
        xi = period * ref.FOUR_PI2
        p.close(need("eta:" + name)[0], 0.0, 1e-9, "eta:" + name)
        p.close(need("xi:" + name)[0], xi, 1e-8, "xi:" + name)
        rat = need("xi/4pi2_rational:" + name)
        p.expect(rat[:2] == [period, 1.0] and rat[2] <= 1e-9 and rat[3] == 1.0,
                 "xi/4pi2_rational:%s is %r, want %d/1 stable" % (name, rat, period))
        p.close(need("vol:" + name)[0], vol_k, 1e-9, "vol:" + name)
        p.close(need("cs:" + name)[0], 4.0 * period, 1e-9, "cs:" + name)
        u = need("u:" + name)
        p.close(u[0], xi, 1e-8, "u:" + name)  # the demo's symbol order is 1
        p.close(abs(math.remainder(u[1], 1.0)), 0.0, 1e-9, "u torus class:" + name)
        cs1 = need("cs1:" + name)
        p.close(complex(cs1[0], cs1[1]), complex(0.0, -xi / (2.0 * math.pi)), 1e-8, "cs1:" + name)

    # the demo's arc and conjecture routes: fixed tolerances above the
    # program's errors (kk 1.5e-15 against 1e-12, Vol 2.2e-11 against
    # 2e-10, CS and U 2.8e-15 against 1e-13), and the rows' own error
    # estimates besides
    for name, path in config["paths"].items():
        r = ref.route_integrals(path)
        kk = need("kk:" + name)
        kk_ref = cmath.exp(r["kk_exponent"])
        p.close(complex(kk[0], kk[1]), kk_ref, 1e-12 * abs(kk_ref), "kk:" + name)
        p.close(complex(kk[0], kk[1]), kk_ref, kk[2] + 1e-10, "kk within its estimate:" + name)
        p.expect(need("kk_expr_diff:" + name)[0] <= 1e-8, "kk_expr_diff:%s above 1e-8" % name)

    for a in config["jones"]["a_values"]:
        label = "a=%g" % a
        r = ref.route_integrals(_conjecture_route(a))
        for key, got, want, tol in (
                ("vol", need("vol:" + label), vol_k - 2.0 * r["eta"], 2e-10),
                ("cs", need("cs:" + label), r["xi"] / PI2, 1e-13),
                ("u", need("u:" + label), r["xi"], 1e-13)):
            p.close(got[0], want, tol, "%s:%s" % (key, label))
            p.close(got[0], want, (2.0 if key == "vol" else 1.0) * got[2] + 1e-10,
                    "%s within its estimate:%s" % (key, label))
        u = need("u:" + label)
        p.close(math.remainder(u[1] - r["xi"] / ref.FOUR_PI2, 1.0), 0.0, 1e-13,
                "u torus class:" + label)

    symbols = {row[0]: row[1:] for row in _rows(files["symbols.csv"])[1:]}
    for name, entry in config["punctures"].items():
        want = _expected_symbol(entry)
        row = symbols.get(name)
        if want is None or row is None:
            p.append("puncture %s: no closed form or no row" % name)
            continue
        v_l, v_m, tame = want
        p.expect([int(row[0]), int(row[1])] == [v_l, v_m],
                 "puncture %s valuations %r, want %r" % (name, row[:2], [v_l, v_m]))
        p.close(complex(float(row[2]), float(row[3])), tame, 1e-9, "tame symbol " + name)
        p.close(complex(float(row[4]), float(row[5])), tame, 1e-9, "regulator " + name)
        p.expect(float(row[6]) <= 2e-9, "puncture %s |r - T| = %s" % (name, row[6]))

    # Kashaev rows (a = 1) only: the a != 1 rows are checked by the jones workload
    kashaev = []
    for n, k, a, log_abs, arg, runtime in _rows(files["jones.csv"])[1:]:
        if float(a) != 1.0:
            continue
        n = int(n)
        want = ref.kashaev_log_abs(n)
        kashaev.append((n, want))
        p.expect(int(k) == n and float(runtime) == 0.0, "jones.csv row N=%d: k=%s runtime=%s" % (n, k, runtime))
        p.close(float(log_abs), want, 1e-12 * want + 1e-9, "jones.csv log|J_%d|" % n)
        p.close(float(arg), 0.0, 1e-12, "jones.csv arg J_%d" % n)
    fit = re.search(r"Kashaev fit slope (\S+) vs 6 Lambda\(pi/3\) (\S+)", summary)
    p.expect(fit is not None and len(kashaev) >= 4, "summary lacks the Kashaev fit")
    if fit and len(kashaev) >= 4:
        p.close(float(fit.group(1)), ref.growth_fit(*zip(*kashaev)), 1e-9, "Kashaev fit slope")
        p.close(float(fit.group(2)), vol_k, 1e-10, "6 Lambda(pi/3) in summary")
    return p


def _check_demo(inputs, outputs):
    out = outputs[0]
    p = Problems()
    p.expect(out["exit"] == 0, "demo exit code %r" % out["exit"])
    if all(text is not None for text in out["files"].values()):
        p.extend(_check_demo_files(out["files"]))
        p.expect(out["stdout"] == out["files"]["summary.txt"], "demo stdout differs from summary.txt")
    else:
        p.append("demo wrote no %s" % [k for k, v in out["files"].items() if v is None])
    return [(not p, False, p)]


CHECKS = {"demo": _check_demo, "arcs": _check_arcs, "jones": _check_jones, "probe": _check_probe}


def check(workload, inputs, outputs):
    return CHECKS[workload](inputs, outputs)
