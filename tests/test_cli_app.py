import cmath
import copy
import json
import math
import re
import subprocess

import numpy as np
import pytest

import oracles
from apolylab import (
    StepControls, cli_app, one_forms, parse_poly, partial, print_poly, vol_fig8)
from apolylab.poly_core import NO_CONVERGENCE, roots_in_l, roots_in_l_batch
from oracles import eval_poly


def circle_json(center, radius, l_seed, a0=0.0, a1=2.0 * math.pi):
    return {
        "segments": [{"kind": "arc", "center": [center.real, center.imag],
                      "radius": radius, "angle_start": a0, "angle_end": a1}],
        "l_seed": [l_seed.real, l_seed.imag],
        "closed": True,
    }


@pytest.fixture(scope="module")
def fig8_record():
    return cli_app.load_knots()["fig8"]


@pytest.fixture()
def minimal_cfg(fig8_record):
    seed = min(roots_in_l(fig8_record.a_poly, 0.3 + 0j), key=abs)
    return {
        "knot": "fig8",
        "targets": ["one_forms"],
        "loops": {"m0_small": circle_json(0j, 0.3, seed)},
        "out_dir": "results",
    }


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestKnotTable:

    def test_table_is_loaded_once_and_read_only(self, fig8_record):
        table = cli_app.load_knots()
        assert cli_app.load_knots() is table
        assert table["fig8"] is fig8_record
        with pytest.raises(TypeError):
            table["fig8"] = None

    def test_fig8_record(self, fig8_record):
        rec = fig8_record
        assert rec.name == "fig8"
        assert rec.vol_k == pytest.approx(vol_fig8(), abs=1e-15)
        assert rec.cs_k == 0.0
        assert rec.cs_note == "amphichiral"
        assert rec.epsilon == 1e-4
        assert rec.m0 == 1.0 + 1e-4
        # seed sits on the curve at the offset base point, upper half plane
        assert abs(eval_poly(rec.a_poly, rec.l_seed, rec.m0)) < 1e-10
        assert rec.l_seed.imag > 0
        assert abs(rec.l_seed + 1.0) < 0.1


class TestRunVerb:

    def test_minimal_run(self, tmp_path, minimal_cfg, capsys):
        cfg_path = write_cfg(tmp_path, minimal_cfg)
        assert cli_app.main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert out.rstrip().endswith("all checks passed")
        # out_dir resolves relative to the config file
        csv = tmp_path / "results" / "one_forms.csv"
        rows = csv.read_text().splitlines()
        assert rows[0].startswith("run_id,op,")
        assert any(",eta:m0_small," in r for r in rows)

    def test_run_deterministic(self, tmp_path, minimal_cfg):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        for d in (d1, d2):
            assert cli_app.main(["run", str(write_cfg(d, minimal_cfg))]) == 0
        for name in ("one_forms.csv", "summary.txt"):
            assert ((d1 / "results" / name).read_bytes()
                    == (d2 / "results" / name).read_bytes())

    def test_unknown_knot(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {"knot": "granny", "targets": ["jones"]})
        assert cli_app.main(["run", str(p)]) == 2
        assert "unknown knot" in capsys.readouterr().err

    def test_empty_targets(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {"knot": "fig8", "targets": []})
        assert cli_app.main(["run", str(p)]) == 2
        assert "targets" in capsys.readouterr().err

    def test_unknown_target(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {"knot": "fig8", "targets": ["frobnicate"]})
        assert cli_app.main(["run", str(p)]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert cli_app.main(["run", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_segment_kind(self, tmp_path, capsys):
        cfg = {"knot": "fig8", "targets": ["one_forms"],
               "loops": {"bad": {"segments": [{"kind": "zigzag"}],
                                 "l_seed": [0.0, 0.0]}}}
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
        assert "zigzag" in capsys.readouterr().err

    def test_controls_default_to_the_library_default(self, minimal_cfg):
        # one default mesh: a run config with no controls section, or with
        # only one key of it, lifts at StepControls()'s values
        assert "controls" not in minimal_cfg
        assert cli_app._read_config(minimal_cfg).ctrl == StepControls()
        cfg = dict(minimal_cfg, controls={"min_step": 1e-10})
        assert cli_app._read_config(cfg).ctrl == StepControls(min_step=1e-10)

    @pytest.mark.parametrize("target, section, entry", [
        ("jones", "jones", {"N_list": [500, 1000, 2000]}),
        ("jones", "jones", {"N_list": [0, 500, 1000, 2000]}),
        ("symbols", "punctures", {"p": {"a_poly": "m + + l",
                                        "loop": circle_json(1.0, 0.1, 0.1 + 0j)}}),
        ("symbols", "punctures", {"p": {"a_poly": "m + l - 1"}}),
        ("one_forms", "controls", {"max_step": "abc"}),
        ("one_forms", "controls", {"max_step": 0}),
        ("one_forms", "controls", {"max_step": -0.5}),
        ("one_forms", "controls", {"max_step": math.nan}),
        ("one_forms", "controls", {"newton_budget": -1}),
        # the lift has no Newton budget: a stale key is refused, not ignored
        ("one_forms", "controls", {"newton_budget": 20}),
        ("one_forms", "controls", {"max_step": 0.01, "max_stpe": 0.1}),
        ("one_forms", "controls", {"min_step": 0}),
        ("one_forms", "tolerances", {"q_max": 0}),
        ("jones", "out_dir", 5),
        # the seed's roots_in_l: the leading l-coefficient vanishes at m0 = 2
        ("jones", "knot", {"name": "k", "a_poly": "m*l - 2*l + 1", "vol": 1.0, "cs": 0.0,
                           "seed": {"m0": [2, 0], "l_near": [1, 0]}}),
        # ... and m0^4 overflows to a non-finite coefficient
        ("jones", "knot", {"name": "k", "a_poly": "l*m^4 - 1", "vol": 1.0, "cs": 0.0,
                           "seed": {"m0": [1e100, 0], "l_near": [1, 0]}}),
        # loops and witness loops must be closed routes
        ("one_forms", "loops", {"open": dict(circle_json(0j, 0.3, 0.0090699074 + 0j),
                                              closed=False)}),
        ("symbols", "punctures", {"p": {"a_poly": "m + l - 1",
                                        "loop": dict(circle_json(1.0, 0.1, -0.1 + 0j),
                                                     closed=False)}}),
        # a misspelt key is refused in every section with fixed keys, not
        # run at its default
        ("one_forms", "tolerances", {"quadrature_targt": 1e-14}),
        ("jones", "jones", {"N_lsit": [500, 1000, 2000, 4000]}),
    ], ids=["n_list_short", "n_list_zero", "a_poly_syntax", "no_loop",
            "max_step_text", "max_step_zero", "max_step_negative", "max_step_nan",
            "newton_budget_negative", "newton_budget_stale", "controls_unknown_key",
            "min_step_zero", "q_max_zero",
            "out_dir_number", "knot_seed_degenerate", "knot_seed_not_finite",
            "loop_open", "puncture_open", "tolerances_unknown_key", "jones_unknown_key"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_config_exits_2(self, tmp_path, capsys, minimal_cfg,
                                      target, section, entry):
        cfg = dict(minimal_cfg, targets=[target], **{section: entry})
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "results").exists()

    def test_missed_quadrature_target_is_noted(self, tmp_path, minimal_cfg):
        # est_error >= 0, so a target of 0 is missed on every route; a
        # missed target is noted, not failed, and the kk line is no check.
        # The arc stops at 257 samples, where kk's est_error is its rounding
        # floor (at 8,193, the end of the halving budget, the two
        # expressions agree to the bit)
        seed = complex(*minimal_cfg["loops"]["m0_small"]["l_seed"])
        arc = dict(circle_json(0j, 0.3, seed, 0.0, 0.5), closed=False)
        cfg = dict(minimal_cfg, targets=["one_forms", "kirk_klassen"],
                   paths={"arc": arc},
                   tolerances={"quadrature_target": 0, "kirk_klassen": 0})
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 0
        lines = (tmp_path / "results" / "summary.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("[kk]")] == [
            "[kk] path arc: two expressions differ by 3.47e-18 (unverified)"]
        noted = [line for line in lines if line.startswith("[quadrature]")]
        assert len(noted) == 2
        assert noted[0].startswith("[quadrature] loop m0_small: est_error eta ")
        assert noted[1].startswith("[quadrature] path arc: est_error kk ")
        assert all(line.endswith("misses target 0 (unverified)") for line in noted)

    def test_non_finite_conjecture_value_fails(self, tmp_path, minimal_cfg, monkeypatch):
        # a finite conjecture line is a note, checked against nothing; a
        # non-finite value is still a failure
        along = cli_app._add_along_rows

        def nan_vol(*args):
            return (math.nan,) + tuple(along(*args)[1:])

        cfg = dict(minimal_cfg, targets=["conjecture"], jones={"a_values": [0.9, 1.1]})
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 0
        monkeypatch.setattr(cli_app, "_add_along_rows", nan_vol)
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 1
        lines = (tmp_path / "results" / "summary.txt").read_text().splitlines()
        verdicts = [line for line in lines if line.startswith("[conjecture] a=")]
        assert len(verdicts) == 2
        assert all(" Vol=nan " in line and line.endswith("  FAIL") for line in verdicts)

    def test_graded_route_is_noted(self, tmp_path, minimal_cfg, fig8_record):
        # a path passing the branch point 1/phi at 1e-5 is graded toward it;
        # the summary names the branch point and the route's distance to it
        u = complex(math.cos(1.0), math.sin(1.0))
        mid = (math.sqrt(5.0) - 1.0) / 2.0 + 1e-5j * u
        a, b = mid - 0.2 * u, mid + 0.2 * u
        seed = min(roots_in_l(fig8_record.a_poly, a), key=abs)
        near = {"segments": [{"kind": "line", "m_start": [a.real, a.imag],
                              "m_end": [b.real, b.imag]}],
                "l_seed": [seed.real, seed.imag], "closed": False}
        cfg = dict(minimal_cfg, targets=["one_forms", "kirk_klassen"], paths={"near": near})
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 0
        lines = (tmp_path / "results" / "summary.txt").read_text().splitlines()
        noted = [line for line in lines if line.startswith("[quadrature]")]
        assert len(noted) == 1
        assert noted[0].startswith("[quadrature] path near: graded toward m = 0.618033989")
        assert noted[0].endswith(" (distance 1e-05)")

    @pytest.mark.parametrize("max_step", [1.0, 0.5, 0.1])
    def test_coarse_controls_refine_to_the_right_period(self, tmp_path, capsys,
                                                        minimal_cfg, max_step):
        # 2, 3 and 11 samples per loop can read est_error 0 on a wrong
        # value; track_refined keeps halving to at least 16 intervals
        cfg = dict(minimal_cfg, controls={"max_step": max_step})
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 0
        assert capsys.readouterr().out.rstrip().endswith("all checks passed")
        rows = {r.split(",")[1]: r.split(",")
                for r in (tmp_path / "results" / "one_forms.csv").read_text().splitlines()}
        assert rows["xi/4pi2_rational:m0_small"][2:4] == ["-2", "1"]
        assert abs(float(rows["eta:m0_small"][2])) <= 3e-12
        assert int(rows["eta:m0_small"][5]) >= 17

    @pytest.mark.parametrize("l_seed", [[math.nan, 0.0], [math.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_seed_exits_1_with_one_line(self, tmp_path, capsys, minimal_cfg,
                                                   l_seed):
        cfg = copy.deepcopy(minimal_cfg)
        cfg["loops"]["m0_small"]["l_seed"] = l_seed
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "stage one_forms failed: seed (%s+0j) is not a finite number" % l_seed[0]]
        assert "FAIL" in captured.out and "all checks passed" not in captured.out

    def test_witness_without_turns_exits_1_with_one_line(self, tmp_path, capsys,
                                                         fig8_record):
        # a C-shaped loop about 0.25, radii 0.15 and 0.05, open on the
        # positive real side: its samples' mean, about 0.285, lies in the
        # opening, 0.026 off the loop on every mesh, and the loop makes no
        # turn about it, so no residue is read off it
        c, outer, inner, gap = 0.25, 0.15, 0.05, 0.5
        corners = [c + radius * cmath.exp(1j * angle)
                   for radius, angle in ((outer, -gap), (inner, -gap), (inner, gap), (outer, gap))]
        seed = min(roots_in_l(fig8_record.a_poly, corners[3]), key=abs)
        out = circle_json(c + 0j, outer, seed, gap, 2.0 * math.pi - gap)
        back = circle_json(c + 0j, inner, seed, 2.0 * math.pi - gap, gap)
        lines = [{"kind": "line", "m_start": [a.real, a.imag], "m_end": [b.real, b.imag]}
                 for a, b in (corners[:2], corners[2:])]
        loop = dict(out, segments=[out["segments"][0], lines[0], back["segments"][0], lines[1]])
        cfg = {"knot": "fig8", "targets": ["symbols"],
               "punctures": {"eight": {"a_poly": "knot", "loop": loop}}}
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage symbols failed: witness loop makes ")
        assert "turns about its center" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_xi_row_keeps_the_full_mesh_rational(self, tmp_path, monkeypatch,
                                                  minimal_cfg):
        # the rational row and its verdict come from the regulator exponent
        # of the loop's own lift: -arg r / 2 pi = 1/97 has no rational and
        # writes stable 0; -2 with est_error / 2 pi = 1e-4 above the 1e-5
        # tolerance is recognized but unstable
        def run_with(value, est_error):
            def exponent(path, *roles):
                return one_forms.IntegralResult(value=value, est_error=est_error,
                                                n_samples=path.n_samples, certified=False)

            monkeypatch.setattr(one_forms, "regulator_exponent", exponent)
            d = tmp_path / ("%g" % est_error)
            d.mkdir()
            assert cli_app.main(["run", str(write_cfg(d, minimal_cfg))]) == 1
            rows = {r.split(",")[1]: r.split(",")
                    for r in (d / "results" / "one_forms.csv").read_text().splitlines()}
            lines = (d / "results" / "summary.txt").read_text().splitlines()
            line, = [line for line in lines if line.startswith("[regulator]")]
            return rows["xi/4pi2_rational:m0_small"][2:6], line

        (p, q, residual, stable), line = run_with(-2j * math.pi / 97.0, 0.0)
        assert stable == "0" and int(q) <= 48 and float(residual) > 1e-5
        assert line.endswith(" (no q<=48 rational within 1e-05)  FAIL")
        (p, q, residual, stable), line = run_with(4j * math.pi, 2.0 * math.pi * 1e-4)
        assert (p, q, stable) == ("-2", "1", "0") and float(residual) < 1e-12
        assert " -> -2/1 residual " in line
        assert line.endswith(" (unstable)  FAIL")

    def test_loop_around_a_branch_point_exits_1_with_one_line(self, tmp_path, capsys,
                                                               minimal_cfg, fig8_record):
        # once around 1/phi the sheets swap: the closed loop does not close
        center = (math.sqrt(5.0) - 1.0) / 2.0
        seed = min(roots_in_l(fig8_record.a_poly, center + 0.1), key=abs)
        cfg = dict(minimal_cfg, loops={"phi": circle_json(center, 0.1, seed)})
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("stage one_forms failed: closed route's lift does not "
                                 "return: l gap 1.9")

    def test_route_through_m_zero_exits_1_with_one_line(self, tmp_path, capsys):
        # a bowtie witness loop on l = 2 - m meeting m = 0 at a grid point
        corners = [[0.5, 0.5], [-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]]
        loop = {"segments": [{"kind": "line", "m_start": a, "m_end": b}
                             for a, b in zip(corners, corners[1:])],
                "l_seed": [1.5, -0.5], "closed": True}
        cfg = {"knot": "fig8", "targets": ["symbols"],
               "punctures": {"bowtie": {"a_poly": "m + l - 2", "loop": loop}}}
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["stage symbols failed: route meets m = 0 at m = 0j"]

    @pytest.mark.parametrize("angle", [1.0, 2.5])
    def test_regulator_verdicts_do_not_depend_on_the_start(self, tmp_path, fig8_record,
                                                           angle):
        # the demo's four loops started off the real axis: xi / 4 pi^2 is no
        # longer an integer on the loops about m = 0, but r(l, m) is still 1
        cfg = cli_app.build_demo_config()
        loops = {}
        for name, loop in cfg["loops"].items():
            seg = loop["segments"][0]
            center, radius = complex(*seg["center"]), seg["radius"]
            start = center + radius * complex(math.cos(angle), math.sin(angle))
            roots = sorted(roots_in_l(fig8_record.a_poly, start), key=abs)
            seed = roots[-1] if name == "m0_big" else roots[0]
            loops[name] = circle_json(center, radius, seed, angle, angle + 2.0 * math.pi)
        cfg = {"knot": "fig8", "targets": ["one_forms"], "loops": loops, "out_dir": "results"}
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 0
        lines = (tmp_path / "results" / "summary.txt").read_text().splitlines()
        verdicts = [line for line in lines if line.startswith("[regulator]")]
        assert len(verdicts) == 4
        assert all(re.search(r" -> -?\d+/1 residual \S+  PASS$", line) for line in verdicts)
        assert "[order] estimated order of {l,m} (lower bound): 1" in lines

    def test_stage_failure_exits_1(self, tmp_path, capsys):
        # a loop once around the square-root branching does not close on
        # the curve, which the symbols stage reports as a failure
        cfg = {
            "knot": {"name": "sqrt", "a_poly": "l^2 - m", "vol": 0.0,
                     "cs": 0.0,
                     "seed": {"m0": [1.0, 0.0], "l_seed": [1.0, 0.0]}},
            "targets": ["symbols"],
            "punctures": {"ram": {"a_poly": "knot",
                                  "loop": circle_json(0j, 1.0, 1.0 + 0j)}},
        }
        assert cli_app.main(["run", str(write_cfg(tmp_path, cfg))]) == 1
        captured = capsys.readouterr()
        assert "stage symbols failed" in captured.err
        assert "FAIL" in captured.out


class TestDemoVerb:

    def test_demo_outputs_and_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert cli_app.main(["demo", "-o", str(d1)]) == 0
        assert cli_app.main(["demo", "-o", str(d2)]) == 0
        out = capsys.readouterr().out
        assert out.count("all checks passed") == 2
        assert "FAIL" not in out
        for name in ("demo_config.json", "one_forms.csv", "symbols.csv",
                     "jones.csv", "summary.txt"):
            b1, b2 = (d1 / name).read_bytes(), (d2 / name).read_bytes()
            assert b1 == b2, name
        # stored config replays the run verbatim
        cfg = json.loads((d1 / "demo_config.json").read_text())
        assert set(cfg["targets"]) == set(cli_app.STAGES)

    def test_start_dependent_rows_are_marked_unverified(self, tmp_path):
        # a loop's cs:, u: and cs1: rows come from xi, which moves with the
        # loop's start point: one note per loop says so, next to its rows
        d = tmp_path / "out"
        assert cli_app.main(["demo", "-o", str(d)]) == 0
        loops = json.loads((d / "demo_config.json").read_text())["loops"]
        forms = (d / "one_forms.csv").read_text()
        notes = [line for line in (d / "summary.txt").read_text().splitlines()
                 if line.startswith("[cs] ")]
        assert len(loops) == 4
        assert sorted(notes) == ["[cs] loop %s: the cs:, u: and cs1: rows move with the "
                                 "loop's start point (unverified)" % name
                                 for name in sorted(loops)]
        for name in loops:
            for row in ("cs", "u", "cs1"):
                assert ",%s:%s," % (row, name) in forms

    def test_every_verdict_is_backed_by_a_csv_row(self, tmp_path):
        # no orphan claims: each pass/fail line in the summary must have
        # a row in one of the CSVs carrying the number it reports
        d = tmp_path / "out"
        assert cli_app.main(["demo", "-o", str(d)]) == 0
        forms = (d / "one_forms.csv").read_text()
        symbols = (d / "symbols.csv").read_text()
        jones = (d / "jones.csv").read_text()
        lines = (d / "summary.txt").read_text().splitlines()
        assert all(line.endswith("PASS") for line in lines if line.startswith("[eta]"))
        # every demo route meets its quadrature target
        assert not any(line.startswith("[quadrature]") for line in lines)
        for line in lines:
            if not line.endswith(("PASS", "FAIL")):
                continue
            tag, rest = line.split("]", 1)
            words = rest.strip().split()
            # "[eta] loop NAME:" vs "[tame] NAME:" style lines
            name = (words[1] if tag in ("[eta", "[regulator")
                    else words[0]).rstrip(":")
            if tag == "[eta":
                assert ",eta:%s," % name in forms
            elif tag == "[regulator":
                assert ",xi/4pi2_rational:%s," % name in forms
            elif tag in ("[tame", "[steinberg"):
                assert "\n%s," % name in symbols
            elif tag == "[jones":
                assert len(jones.splitlines()) > 1
            else:
                raise AssertionError("unrecognized verdict line: %s" % line)
        # the kk and conjecture lines check nothing: notes, still backed by rows
        unverified = [line for line in lines
                      if line.startswith(("[kk] path ", "[conjecture] a="))]
        assert len(unverified) == 4
        for line in unverified:
            assert line.endswith(" (unverified)")
            words = line.split()
            if words[0] == "[kk]":
                assert ",kk_expr_diff:%s," % words[2].rstrip(":") in forms
            else:
                assert ",vol:%s," % words[1].rstrip(":") in forms

    def test_numpy_verdicts_are_counted(self):
        summary = cli_app._Summary()
        summary.add("a", ok=np.bool_(True))
        summary.add("b", ok=np.bool_(False))
        summary.add("c")
        assert summary.lines == ["a  PASS", "b  FAIL", "c"]
        assert summary.failures == ["b  FAIL"]

    def test_timings_flag_breaks_identity(self, tmp_path):
        d1, d2 = tmp_path / "plain", tmp_path / "timed"
        assert cli_app.main(["demo", "-o", str(d1)]) == 0
        assert cli_app.main(["demo", "-o", str(d2), "--timings"]) == 0
        j1 = (d1 / "jones.csv").read_text().splitlines()
        j2 = (d2 / "jones.csv").read_text().splitlines()
        assert j1 != j2
        runtime_col = j1[0].split(",").index("runtime_ms")
        assert all(float(r.split(",")[runtime_col]) == 0.0 for r in j1[1:])
        assert any(float(r.split(",")[runtime_col]) > 0.0 for r in j2[1:])
        # timings leave every numeric result untouched
        strip = [",".join(r.split(",")[:runtime_col]) for r in j1[1:]]
        strip2 = [",".join(r.split(",")[:runtime_col]) for r in j2[1:]]
        assert strip == strip2


INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # the branch point 1/phi of fig8


class TestProbeVerb:

    def test_finds_the_branch_point(self, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        rv = cli_app.main(["probe", "fig8", "--re", "0.9", "1.1",
                           "--im", "-0.05", "0.05", "--density", "11",
                           "--threshold", "0.05", "-o", str(out)])
        assert rv == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "m_re,m_im,min_abs_dAdl"
        hits = [r.split(",") for r in rows[1:]]
        assert len(hits) == 1
        m = complex(float(hits[0][0]), float(hits[0][1]))
        assert m == 1.0 + 0j
        assert float(hits[0][2]) < 1e-8

    def test_clean_region_is_empty(self, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        rv = cli_app.main(["probe", "fig8", "--re", "0.2", "0.4",
                           "--im", "0.2", "0.4", "--density", "6",
                           "--threshold", "1e-12", "-o", str(out)])
        assert rv == 0
        assert "0 grid point(s)" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 1

    def test_unknown_knot(self, tmp_path, capsys):
        assert cli_app.main(["probe", "trefoil"]) == 2
        assert "unknown knot" in capsys.readouterr().err

    def test_linear_curve_has_no_branch_points(self):
        rec = cli_app._record_from_dict(
            {"name": "line", "a_poly": "l - m", "vol": 0.0, "cs": 0.0,
             "seed": {"m0": [0.5, 0.0], "l_seed": [0.5, 0.0]}})
        # dA/dl = 1 on the whole grid, never under the default threshold
        hits, closest = cli_app.probe_branch_points(
            rec, (-2.0, 2.0), (-2.0, 2.0), 12, threshold=1e-2)
        assert hits == []
        assert closest[1] == 1.0
        # a tie keeps the first grid point in CSV order, also across blocks
        assert closest[0] == complex(-2.0, -2.0)
        _, closest = cli_app.probe_branch_points(
            rec, (-2.0, 2.0), (-2.0, 2.0), 34, threshold=1e-2)
        assert closest == (complex(-2.0, -2.0), 1.0)

    def test_laurent_curve_root_at_l_zero(self):
        # A = l + (m - 1)/l: |dA/dl| = 2 on the curve, but at m = 1 the
        # cleared polynomial l^2 has the double root l = 0, off the curve
        rec = cli_app._record_from_dict(
            {"name": "laurent", "a_poly": "l + l^-1*m - l^-1", "vol": 0.0,
             "cs": 0.0, "seed": {"m0": [2.0, 0.0], "l_seed": [0.0, 1.0]}})
        hits, closest = cli_app.probe_branch_points(
            rec, (0.5, 1.5), (-0.5, 0.5), 5, threshold=3.0)
        assert len(hits) == 24 and 1.0 + 0j not in [m for m, _ in hits]
        assert all(v == pytest.approx(2.0, rel=1e-12) for _, v in hits)
        assert closest[1] == pytest.approx(2.0, rel=1e-12)
        # each hit against |dA/dl| term by term at the l-roots
        a_l = partial(rec.a_poly, "l")
        for m, v in hits:
            want = min(abs(eval_poly(a_l, l, m)) for l in roots_in_l(rec.a_poly, m))
            assert v == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_zero_threshold_is_empty(self, fig8_record):
        hits, _ = cli_app.probe_branch_points(fig8_record, (0.9, 1.1),
                                              (-0.1, 0.1), 11, threshold=0.0)
        assert hits == []

    def test_density_guard_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        assert cli_app.main(["probe", "fig8", "--density", "1001",
                             "-o", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("density", ["-3", "0"])
    def test_density_below_one_exits_2(self, tmp_path, capsys, density):
        out = tmp_path / "bp.csv"
        assert cli_app.main(["probe", "fig8", "--density", density,
                             "-o", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_result_reports_the_closest_point(self, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        assert cli_app.main(["probe", "fig8", "--re", "0.5", "0.7",
                             "--im", "-0.1", "0.1", "--density", "11",
                             "-o", str(out)]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == "0 grid point(s) below threshold -> %s" % out
        # the grid's closest point to the branch point 1/phi is m = 0.62
        assert second == ("smallest min |dA/dl| on the grid: %.6g at m = 0.62+0j"
                          % oracles.fig8_min_abs_dadl(0.62))

    def test_hits_match_the_discriminant(self, fig8_record):
        # a window around 1/phi and the double point m = 1 with hits on
        # both; min |dA/dl| is |sqrt(disc)| in closed form
        re_range, im_range, density, threshold = (0.55, 1.05), (-0.1, 0.1), 26, 0.2
        hits, closest = cli_app.probe_branch_points(
            fig8_record, re_range, im_range, density, threshold)
        grid = [complex(re, im) for re in np.linspace(*re_range, density)
                for im in np.linspace(*im_range, density)]
        want = [(m, oracles.fig8_min_abs_dadl(m)) for m in grid]
        assert [m for m, _ in hits] == [m for m, v in want if v < threshold]
        assert len(hits) > 10
        for (m, got), (_, val) in zip(hits, [w for w in want if w[1] < threshold]):
            assert got == pytest.approx(val, rel=1e-8, abs=1e-9)
        best = min(want, key=lambda w: w[1])
        assert closest[0] == best[0]
        assert closest[1] == pytest.approx(best[1], rel=1e-8, abs=1e-9)

    def test_density_guard(self, fig8_record):
        from apolylab.errors import ConfigError
        with pytest.raises(ConfigError):
            cli_app.probe_branch_points(fig8_record, (0, 1), (0, 1),
                                        1001, threshold=0.1)

    @pytest.mark.parametrize("curve, re_range, im_range, density, threshold", [
        # the benchmark's window around the branch point 1/phi
        ("fig8", (INV_PHI - 0.5, INV_PHI + 0.5), (-0.5, 0.5), 100, 0.1),
        ("fig8", (-2.0, 2.0), (-2.0, 2.0), 1, 1e4),
        ("fig8", (-2.0, 2.0), (-2.0, 2.0), 7, 1.0),
        # 29 rows per call: the second block is short
        ("fig8", (-2.0, 2.0), (-2.0, 2.0), 34, 1.0),
        # 9 rows per call
        ("fig8", (0.5, 1.1), (-0.3, 0.3), 101, 0.1),
        # m = 0 is a grid point, skipped
        ("fig8", (-0.5, 0.5), (-0.5, 0.5), 11, 5.0),
        # roots at l = 0, off the curve (test_laurent_curve_root_at_l_zero)
        ("l + l^-1*m - l^-1", (0.5, 1.5), (-0.5, 0.5), 5, 3.0),
    ])
    def test_blocks_match_the_row_loop(self, fig8_record, curve, re_range,
                                       im_range, density, threshold):
        rec = fig8_record if curve == "fig8" else cli_app._record_from_dict(
            {"name": "curve", "a_poly": curve, "vol": 0.0, "cs": 0.0,
             "seed": {"m0": [2.0, 0.0], "l_seed": [0.0, 1.0]}})
        got = cli_app.probe_branch_points(rec, re_range, im_range, density, threshold)
        assert got == oracles.probe_by_rows(rec, re_range, im_range, density, threshold)
        assert got[0]

    @pytest.mark.parametrize("density, n_calls", [
        (1, 1), (7, 1), (34, 2), (100, 10), (101, 12), (1000, 1000)])
    def test_root_solves_take_blocks_of_at_most_1000_points(
            self, monkeypatch, fig8_record, density, n_calls):
        calls = []

        def recorder(p, m):
            calls.append(m.copy())
            if density < cli_app.PROBE_BLOCK:
                return roots_in_l_batch(p, m)
            # leave every row unsolved: the largest grid solves nothing
            return (np.full((len(m), 2), np.nan, dtype=complex),
                    np.full(len(m), NO_CONVERGENCE),
                    np.full((len(m), 3), np.nan, dtype=complex))

        monkeypatch.setattr(cli_app, "roots_in_l_batch", recorder)
        cli_app.probe_branch_points(fig8_record, (0.5, 1.1), (-0.3, 0.3),
                                    density, threshold=0.1)
        assert len(calls) == n_calls
        assert max(len(m) for m in calls) <= cli_app.PROBE_BLOCK
        # the calls cover the grid exactly once, in CSV order
        m = np.concatenate(calls)
        assert np.array_equal(m.real, np.repeat(np.linspace(0.5, 1.1, density), density))
        assert np.array_equal(m.imag, np.tile(np.linspace(-0.3, 0.3, density), density))


class TestParseVerb:

    def test_valid_file(self, tmp_path, capsys):
        p = tmp_path / "poly.txt"
        p.write_text("l*m - 1\n")
        assert cli_app.main(["parse", str(p)]) == 0
        want = print_poly(parse_poly("l*m - 1"))
        assert capsys.readouterr().out == "2 term(s): %s\n" % want

    def test_syntax_error(self, tmp_path, capsys):
        p = tmp_path / "poly.txt"
        p.write_text("l +")
        assert cli_app.main(["parse", str(p)]) == 1
        assert "syntax error at offset 4" in capsys.readouterr().err


def _file_error_argv(case, tmp_path, minimal_cfg):
    a_file = tmp_path / "a_file"
    a_file.write_text("l - m")
    if case == "parse_missing":
        return ["parse", str(tmp_path / "nosuch.txt")]
    if case == "parse_directory":
        return ["parse", str(tmp_path)]
    if case == "parse_not_utf8":
        (tmp_path / "latin1.txt").write_bytes(b"l - \xe9m")
        return ["parse", str(tmp_path / "latin1.txt")]
    if case == "probe_missing_dir":
        return ["probe", "fig8", "--density", "5", "-o",
                str(tmp_path / "nosuch" / "x.csv")]
    if case == "demo_under_file":
        return ["demo", "-o", str(a_file / "sub")]
    cfg = dict(minimal_cfg, out_dir="a_file/sub")
    return ["run", str(write_cfg(tmp_path, cfg))]


@pytest.mark.parametrize("case", ["parse_missing", "parse_directory", "parse_not_utf8",
                                  "probe_missing_dir", "demo_under_file",
                                  "run_out_dir_under_file"])
def test_file_errors_exit_2_with_one_line(case, tmp_path, capsys, minimal_cfg):
    assert cli_app.main(_file_error_argv(case, tmp_path, minimal_cfg)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error:" in err
    assert "Traceback" not in err


def test_console_script(tmp_path):
    p = tmp_path / "poly.txt"
    p.write_text("l - m")
    proc = subprocess.run(["apolylab", "parse", str(p)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("2 term(s):")
