"""Command line front end.

Verbs:
    run <config.json>   execute the pipelines named in the config
    probe <knot>        grid scan for small |dA/dl|, a routing aid
    demo                built-in figure-eight configuration
    parse <polyfile>    syntax-check a polynomial file

Run configs are JSON; complex numbers are [re, im] pairs, path specs are
tagged segment records.  File paths inside a config are relative to the
config's directory.  CSV output uses 17 significant digits and LF line
endings and contains no timestamps, so identical configs produce byte
identical bodies.  The jones CSV has a runtime_ms column that is 0 by
default; --timings fills real wall-clock values (and is therefore the
one switch that breaks byte identity).

Exit codes: 0 all requested operations completed, 1 a stage failed
(stage named on stderr), 2 the config itself is invalid.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from . import one_forms, symbols_k2
from .curve_tracker import (
    ArcSeg,
    LineSeg,
    PathSpec,
    StepControls,
    lift_path,
)
from .errors import (
    AmbiguousWinding,
    ConfigError,
    ExtrapolationUnstable,
    NoRational,
    NonConvergence,
    NotClosed,
    PolySyntaxError,
    RamificationError,
    SeedError,
)
from .jones_kashaev import conjecture_gap, growth_rate, jones_sequence, kashaev_sequence
from .lobachevsky import lobachevsky
from .poly_core import (
    DegenerateError,
    DomainError,
    LaurentBiPoly,
    horner_row_batch,
    l_range,
    parse_poly,
    print_poly,
    roots_in_l,
    roots_in_l_batch,
)

TWO_PI = 2.0 * math.pi

ETA_TOL = 1e-6
RATIONAL_TOL = 1e-5
TAME_TOL = 1e-6
STEINBERG_TOL = 1e-8
KK_TOL = 1e-8


@dataclass(frozen=True)
class KnotRecord:
    name: str
    a_poly_text: str
    a_poly: LaurentBiPoly
    vol_k: float
    cs_k: float
    m0: complex
    l_seed: complex
    epsilon: float
    cs_note: str = ""


def _resolve_vol(vol_field) -> float:
    if isinstance(vol_field, dict) and "lobachevsky_coeff" in vol_field:
        theta = math.pi * vol_field["theta_pi_num"] / vol_field["theta_pi_den"]
        return vol_field["lobachevsky_coeff"] * lobachevsky(theta)
    return float(vol_field)


def _record_from_dict(rec: dict) -> KnotRecord:
    poly = parse_poly(rec["a_poly"])
    seed = rec["seed"]
    eps = float(seed.get("epsilon", 1e-4))
    if "m0" in seed:
        m0 = complex(seed["m0"][0], seed["m0"][1])
    else:
        m0 = 1.0 + eps
    if "l_seed" in seed:
        l_seed = complex(seed["l_seed"][0], seed["l_seed"][1])
    else:
        l_near = complex(seed["l_near"][0], seed["l_near"][1])
        im_sign = int(seed.get("im_sign", 0))
        roots = roots_in_l(poly, m0)
        if im_sign:
            filtered = [r for r in roots if r.imag * im_sign > 0]
            roots = filtered or roots
        l_seed = min(roots, key=lambda r: abs(r - l_near))
    return KnotRecord(
        name=rec["name"],
        a_poly_text=rec["a_poly"],
        a_poly=poly,
        vol_k=_resolve_vol(rec["vol"]),
        cs_k=float(rec["cs"]),
        m0=m0,
        l_seed=l_seed,
        epsilon=eps,
        cs_note=rec.get("cs_note", ""),
    )


@functools.cache
def load_knots() -> Mapping[str, KnotRecord]:
    """The knot table by name, read once per process; read-only, as every
    caller shares it."""
    text = resources.files("apolylab").joinpath("data/knots.txt").read_text()
    out: Dict[str, KnotRecord] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rec = _record_from_dict(json.loads(line))
        out[rec.name] = rec
    return MappingProxyType(out)


# ---------------------------------------------------------------- config

def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _segment_from_json(seg: dict):
    kind = seg.get("kind")
    if kind == "line":
        return LineSeg(_c(seg["m_start"]), _c(seg["m_end"]))
    if kind == "arc":
        return ArcSeg(_c(seg["center"]), float(seg["radius"]),
                      float(seg["angle_start"]), float(seg["angle_end"]))
    raise ConfigError("unknown segment kind %r" % kind)


def _pathspec_from_json(spec: dict) -> PathSpec:
    try:
        segments = tuple(_segment_from_json(s) for s in spec["segments"])
        return PathSpec(segments=segments, l_seed=_c(spec["l_seed"]),
                        closed=bool(spec.get("closed", False)))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError("bad path spec: %s" % exc)


def _loop_from_json(what: str, name: str, spec: dict) -> PathSpec:
    loop = _pathspec_from_json(spec)
    if not loop.closed:
        raise ConfigError("%s %r must be closed (\"closed\": true)" % (what, name))
    return loop


def _section(cfg: dict, key: str, allowed=None) -> dict:
    """cfg[key], {} when absent; it must be a JSON object and, when
    allowed is given, hold no key outside it."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError("'%s' must be a JSON object" % key)
    unknown = sorted(set(section) - set(allowed)) if allowed is not None else []
    if unknown:
        raise ConfigError("unknown %s key %s" % (key, ", ".join(map(repr, unknown))))
    return section


def _controls_from_json(cfg: dict) -> StepControls:
    ctrl = _section(cfg, "controls", ("max_step", "min_step"))
    default = StepControls()
    try:
        return StepControls(
            max_step=float(ctrl.get("max_step", default.max_step)),
            min_step=float(ctrl.get("min_step", default.min_step)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad controls: %s" % exc)


def _tolerances_from_json(cfg: dict) -> Dict[str, float]:
    defaults = {"eta": ETA_TOL, "rational": RATIONAL_TOL,
                "quadrature_target": 1e-8, "tame": TAME_TOL,
                "steinberg": STEINBERG_TOL, "kirk_klassen": KK_TOL}
    tol = _section(cfg, "tolerances", list(defaults) + ["q_max"])
    try:
        out = {name: float(tol.get(name, value)) for name, value in defaults.items()}
        out["q_max"] = int(tol.get("q_max", 48))
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad tolerances: %s" % exc)
    if out["q_max"] < 1:
        raise ConfigError("tolerances.q_max must be at least 1")
    return out


def _punctures_from_json(cfg: dict, knot: KnotRecord):
    out = {}
    for name, entry in _section(cfg, "punctures").items():
        if not isinstance(entry, dict) or "loop" not in entry:
            raise ConfigError("puncture %r needs a 'loop'" % name)
        curve_text = entry.get("a_poly")
        try:
            curve = (knot.a_poly if curve_text in (None, "knot")
                     else parse_poly(curve_text))
        except (PolySyntaxError, TypeError) as exc:
            raise ConfigError("puncture %r: bad a_poly: %s" % (name, exc))
        out[name] = (curve, _loop_from_json("puncture", name, entry["loop"]),
                     bool(entry.get("steinberg")))
    return out


def _jones_from_json(cfg: dict) -> Tuple[List[int], List[float]]:
    """N_list and a_values of the jones section; the growth fit needs at
    least four increasing N, and every a must give k = round(N / a) >= 1."""
    jcfg = _section(cfg, "jones", ("N_list", "a_values"))
    try:
        n_list = [int(n) for n in jcfg.get("N_list", [500, 1000, 2000, 4000])]
        a_values = [float(a) for a in jcfg.get("a_values", [0.9, 1.0, 1.1])]
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad jones section: %s" % exc)
    if len(n_list) < 4:
        raise ConfigError("jones.N_list needs at least 4 entries, got %d"
                          % len(n_list))
    if n_list[0] < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("jones.N_list must be increasing positive integers")
    if not all(a > 0 and round(n_list[0] / a) >= 1 for a in a_values):
        raise ConfigError("jones.a_values must be positive with round(N / a) >= 1")
    return n_list, a_values


def _knot_from_config(cfg: dict) -> KnotRecord:
    knot = cfg.get("knot")
    if isinstance(knot, dict):
        try:
            return _record_from_dict(knot)
        except (KeyError, ValueError, TypeError, PolySyntaxError, DegenerateError,
                NonConvergence) as exc:
            raise ConfigError("bad inline knot record: %s" % exc)
    if isinstance(knot, str):
        table = load_knots()
        if knot not in table:
            raise ConfigError("unknown knot %r" % knot)
        return table[knot]
    raise ConfigError("config needs a 'knot' entry")


@dataclass(frozen=True)
class _RunConfig:
    """A run config, read and checked in full before any stage runs."""
    targets: Tuple[str, ...]
    knot: KnotRecord
    ctrl: StepControls
    tol: Dict[str, float]
    loops: Dict[str, PathSpec]
    paths: Dict[str, PathSpec]
    punctures: Dict[str, Tuple[LaurentBiPoly, PathSpec, bool]]
    n_list: List[int]
    a_values: List[float]
    out_dir: str


def _read_config(cfg) -> _RunConfig:
    """Every section of a parsed JSON config; raises ConfigError on the
    first invalid entry."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    targets = cfg.get("targets", [])
    if not targets:
        raise ConfigError("targets list is empty")
    unknown = [t for t in targets if t not in STAGES]
    if unknown:
        raise ConfigError("unknown targets: %s" % ", ".join(map(str, unknown)))
    knot = _knot_from_config(cfg)
    n_list, a_values = _jones_from_json(cfg)
    out_dir = cfg.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")
    return _RunConfig(
        targets=tuple(targets),
        knot=knot,
        ctrl=_controls_from_json(cfg),
        tol=_tolerances_from_json(cfg),
        loops={name: _loop_from_json("loop", name, spec)
               for name, spec in _section(cfg, "loops").items()},
        paths={name: _pathspec_from_json(spec)
               for name, spec in _section(cfg, "paths").items()},
        punctures=_punctures_from_json(cfg, knot),
        n_list=n_list,
        a_values=a_values,
        out_dir=out_dir,
    )


# ---------------------------------------------------------------- output

def _fmt(x: float) -> str:
    return "%.17g" % float(x)


class _Csv:
    def __init__(self, path: Path, header: List[str]):
        self.path = path
        self.rows: List[List[str]] = [header]

    def add(self, *cells):
        self.rows.append([c if isinstance(c, str) else _fmt(c) for c in cells])

    def write(self):
        body = "\n".join(",".join(row) for row in self.rows) + "\n"
        self.path.write_text(body, newline="\n")


class _Summary:
    def __init__(self):
        self.lines: List[str] = []
        self.failures: List[str] = []

    def add(self, line: str, ok: Optional[bool] = None):
        if ok is not None and ok:  # ok may be a numpy bool
            line = line + "  PASS"
        elif ok is not None:
            line = line + "  FAIL"
            self.failures.append(line)
        self.lines.append(line)

    def note(self, line: str):
        self.lines.append(line)

    def text(self) -> str:
        tail = ("all checks passed" if not self.failures
                else "%d check(s) failed" % len(self.failures))
        return "\n".join(self.lines + [tail]) + "\n"


def _run_id(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------- stages

def _stage_one_forms(rc, run_id, csv, summary):
    """eta/xi/vol/cs/U/cs1 per named loop, with -arg r / 2 pi of the
    regulator r(l, m) on its lift recognized as p/q (stable when residual
    plus est_error / 2 pi is within tolerance) and the lcm of q feeding U."""
    knot = rc.knot
    eta_tol, q_max = rc.tol["eta"], rc.tol["q_max"]
    rat_tol, target = rc.tol["rational"], rc.tol["quadrature_target"]

    recognized: List[symbols_k2.RationalRecognition] = []
    per_loop = {}
    for name, spec in rc.loops.items():
        path, res = _track_noted(rc, summary, "loop " + name, spec, ("eta", "xi"), target)
        eta, xi = res["eta"], res["xi"]
        csv.add(run_id, "eta:" + name, eta.value, 0.0, eta.est_error, eta.n_samples)
        csv.add(run_id, "xi:" + name, xi.value, 0.0, xi.est_error, xi.n_samples)
        summary.add("[eta] loop %s: |integral| = %.3g (est %.2g, n=%d)"
                    % (name, abs(eta.value), eta.est_error, eta.n_samples),
                    ok=abs(eta.value) < max(eta_tol, 10.0 * eta.est_error))
        exponent = one_forms.regulator_exponent(path)
        ratio = -exponent.value.imag / TWO_PI
        try:
            rec = symbols_k2.recognize_rational(ratio, q_max, rat_tol)
            rec = replace(rec, stable=rec.residual + exponent.est_error / TWO_PI < rat_tol)
            caveat = "" if rec.stable else " (unstable)"
        except NoRational as exc:
            rec, caveat = exc.best, " (no q<=%d rational within %g)" % (q_max, rat_tol)
        recognized.append(rec)
        csv.add(run_id, "xi/4pi2_rational:" + name, rec.p, rec.q, rec.residual,
                int(rec.stable))
        summary.add("[regulator] loop %s: -arg r/2pi = %.12g -> %d/%d residual %.2g%s"
                    % (name, ratio, rec.p, rec.q, rec.residual, caveat), ok=rec.stable)
        per_loop[name] = (path, res)

    try:
        q_order = symbols_k2.estimate_symbol_order(recognized)
    except ValueError:
        q_order = 1
    summary.note("[order] estimated order of {l,m} (lower bound): %d" % q_order)

    for name, (path, res) in per_loop.items():
        eta, xi = res["eta"], res["xi"]
        _add_along_rows(csv, run_id, name, knot, q_order, eta, xi)
        cs1 = one_forms.cs1_from(eta.value, xi.value)
        csv.add(run_id, "cs1:" + name, cs1.real, cs1.imag,
                max(eta.est_error, xi.est_error), xi.n_samples)
        summary.note("[cs] loop %s: the cs:, u: and cs1: rows move with the loop's "
                     "start point (unverified)" % name)
    return q_order


def _track_noted(rc, summary, route, spec, forms, target, max_halvings=6):
    """track_refined on one route of the run's knot, with summary notes: a
    line per branch point its lift was graded toward, with the route's
    closest sample distance to it, and a line when the refinement stopped
    short of its quadrature target (its values are then unverified).  No
    line for an ungraded route that meets its target."""
    path, res, _ = one_forms.track_refined(rc.knot.a_poly, spec, rc.ctrl, forms=forms,
                                           target=target, max_halvings=max_halvings)
    for m_b in path.graded_toward:
        summary.note("[quadrature] %s: graded toward m = %.9g%+.3gj (distance %.3g)"
                     % (route, m_b.real, m_b.imag, float(np.min(np.abs(path.m - m_b)))))
    shortfall = one_forms.quadrature_shortfall(path, res, target)
    if shortfall:
        summary.note("[quadrature] %s: %s (unverified)" % (route, shortfall))
    return path, res


def _add_along_rows(csv, run_id, label, knot, q_order, eta, xi):
    """vol, cs and U rows of one route from its eta and xi integrals;
    returns (vol, cs, U)."""
    vol = one_forms.vol_from(eta.value, knot.vol_k)
    cs = one_forms.cs_from(xi.value, knot.cs_k)
    u = one_forms.special_cs_from(xi.value, q_order)
    csv.add(run_id, "vol:" + label, vol, 0.0, eta.est_error, eta.n_samples)
    csv.add(run_id, "cs:" + label, cs, 0.0, xi.est_error, xi.n_samples)
    csv.add(run_id, "u:" + label, u.value, u.torus_class, xi.est_error,
            xi.n_samples)
    return vol, cs, u


def _stage_symbols(rc, csv, summary):
    ctrl = rc.ctrl
    tame_tol, steinberg_tol = rc.tol["tame"], rc.tol["steinberg"]
    for name, (curve, spec, steinberg) in rc.punctures.items():
        loop = lift_path(curve, spec, ctrl)
        v_l = symbols_k2.valuation(loop, "l")
        v_m = symbols_k2.valuation(loop, "m")
        tame = symbols_k2.tame_symbol(loop, v_l, v_m)
        reg = one_forms.regulator(loop)
        match = abs(reg.value - tame)
        csv.add(name, v_l, v_m, tame.real, tame.imag,
                reg.value.real, reg.value.imag, match)
        summary.add("[tame] %s: v_l=%d v_m=%d T=%.9g%+.3gj |r-T|=%.3g"
                    % (name, v_l, v_m, tame.real, tame.imag, match),
                    ok=match < tame_tol)
        if steinberg:
            defect = abs(reg.value - 1.0)
            summary.add("[steinberg] %s: |r(l,m) - 1| = %.3g" % (name, defect),
                        ok=defect < steinberg_tol)


def _stage_kirk_klassen(rc, run_id, csv, summary):
    tol = rc.tol["kirk_klassen"]
    for name, spec in rc.paths.items():
        # refine until the exponent's quadrature estimate supports tol
        path, res = _track_noted(rc, summary, "path " + name, spec, ("kk",), tol,
                                 max_halvings=8)
        est = res["kk"].est_error
        kk = one_forms.kirk_klassen(path)
        csv.add(run_id, "kk:" + name, kk.value.real, kk.value.imag,
                est, path.n_samples)
        csv.add(run_id, "kk_expr_diff:" + name, kk.expr_diff, 0.0, est,
                path.n_samples)
        # expr_diff is at most |kk| est_error / 63 under R2's spread
        # (|kk| est_error / 3 under one Richardson step): it restates the
        # stopping rule
        summary.note("[kk] path %s: two expressions differ by %.3g (unverified)"
                     % (name, kk.expr_diff))


def _stage_jones(rc, csv, summary, timings):
    knot = rc.knot
    t0 = time.perf_counter()
    seq = kashaev_sequence(rc.n_list)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    for N, value in seq:
        csv.add(N, N, 1.0, value.log_abs, value.arg,
                elapsed_ms / len(seq) if timings else 0.0)
    fit = growth_rate(seq, a=1.0)
    gap, report = conjecture_gap(fit, knot.vol_k, knot.cs_k)
    summary.add("[jones] Kashaev fit slope %.12g vs 6 Lambda(pi/3) %.12g "
                "(diff %.3g), log N coefficient %.3f"
                % (fit.slope, knot.vol_k, abs(fit.slope - knot.vol_k),
                   fit.log_correction),
                ok=abs(fit.slope - knot.vol_k) < 1e-3)
    for line in report.splitlines():
        summary.note("[jones]   " + line)
    return fit


def _conjecture_path(knot: KnotRecord, a: float) -> Tuple[PathSpec, float]:
    """Route from the offset base point to m = -e^{i pi a} along the circle
    of radius |m0|, then radially onto the unit circle.

    a = 1 targets m = 1, the singular geometric point, so the route stays
    at the offset base point and the integrals are empty.
    """
    ang = math.remainder(math.pi * (a + 1.0), 2.0 * math.pi)
    r0 = abs(knot.m0)
    if ang == 0.0:
        return PathSpec(segments=(LineSeg(knot.m0, knot.m0),),
                        l_seed=knot.l_seed, closed=False), ang
    arc = ArcSeg(0.0, r0, 0.0, ang)
    drop = LineSeg(arc.last, arc.last / r0)
    return PathSpec(segments=(arc, drop), l_seed=knot.l_seed, closed=False), ang


def _stage_conjecture(rc, run_id, csv, jones_csv, summary, q_order, timings):
    knot, target = rc.knot, rc.tol["quadrature_target"]
    for a in rc.a_values:
        spec, ang = _conjecture_path(knot, a)
        label = "a=%g" % a
        path, res = _track_noted(rc, summary, "conjecture " + label, spec, ("eta", "xi"),
                                 target)
        vol, cs, u = _add_along_rows(csv, run_id, label, knot, q_order,
                                     res["eta"], res["xi"])
        t0 = time.perf_counter()
        seq = jones_sequence(rc.n_list, a)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        fit = growth_rate(seq, a)
        if a != 1.0:
            for (N, value), k in zip(seq, fit.k_values):
                jones_csv.add(N, k, a, value.log_abs, value.arg,
                              elapsed_ms / len(seq) if timings else 0.0)
        gap, report = conjecture_gap(fit, vol, cs, u.value)
        endpoint = complex(path.m[-1])
        line = ("[conjecture] %s: m_end=%.6g%+.6gj Vol=%.12g CS=%.12g U=%.12g"
                % (label, endpoint.real, endpoint.imag, vol, cs, u.value))
        # finite values are not checked against anything: no verdict
        if all(map(math.isfinite, (vol, cs, u.value, fit.slope))):
            summary.note(line + " (unverified)")
        else:
            summary.add(line, ok=False)
        if ang == 0.0:
            summary.note("[conjecture]   a=1 targets the singular geometric "
                         "point; integrals stop at the offset base point "
                         "(epsilon=%g)" % knot.epsilon)
        for line in report.splitlines():
            summary.note("[conjecture]   " + line)


STAGES = ("one_forms", "symbols", "kirk_klassen", "jones", "conjecture")


def run(cfg: dict, config_dir: Path, timings: bool = False) -> int:
    """Execute the targets of a parsed config; returns the exit code.
    Raises ConfigError before any stage runs when the config is invalid."""
    rc = _read_config(cfg)
    out_dir = config_dir / rc.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = _run_id(cfg)

    forms_csv = _Csv(out_dir / "one_forms.csv",
                     ["run_id", "op", "value_re", "value_im", "est_error",
                      "n_samples"])
    symbols_csv = _Csv(out_dir / "symbols.csv",
                       ["puncture_id", "v_l", "v_m", "tame_re", "tame_im",
                        "regulator_re", "regulator_im", "match_abs_err"])
    jones_csv = _Csv(out_dir / "jones.csv",
                     ["N", "k", "a", "log_abs", "arg", "runtime_ms"])
    summary = _Summary()
    knot = rc.knot
    summary.note("run %s on knot %s (A = %s)" % (run_id, knot.name,
                                                 knot.a_poly_text))
    summary.note("vol_K = %.15g (Lobachevsky), cs_K = %g%s"
                 % (knot.vol_k, knot.cs_k,
                    " [%s]" % knot.cs_note if knot.cs_note else ""))

    hard_error = None
    q_order = 1
    for stage in rc.targets:
        try:
            if stage == "one_forms":
                q_order = _stage_one_forms(rc, run_id, forms_csv, summary)
            elif stage == "symbols":
                _stage_symbols(rc, symbols_csv, summary)
            elif stage == "kirk_klassen":
                _stage_kirk_klassen(rc, run_id, forms_csv, summary)
            elif stage == "jones":
                _stage_jones(rc, jones_csv, summary, timings)
            elif stage == "conjecture":
                _stage_conjecture(rc, run_id, forms_csv, jones_csv, summary,
                                  q_order, timings)
        except (RamificationError, NonConvergence, SeedError, DegenerateError,
                DomainError, NotClosed, AmbiguousWinding, ExtrapolationUnstable,
                ArithmeticError) as exc:
            hard_error = (stage, exc)
            summary.add("[%s] stage failed: %s" % (stage, exc), ok=False)
            break

    forms_csv.write()
    symbols_csv.write()
    jones_csv.write()
    (out_dir / "summary.txt").write_text(summary.text(), newline="\n")
    print(summary.text(), end="")
    if hard_error:
        print("stage %s failed: %s" % hard_error, file=sys.stderr)
        return 1
    return 0 if not summary.failures else 1


# ---------------------------------------------------------------- demo

def build_demo_config() -> dict:
    """Figure-eight demonstration: four loops (two puncture circles around
    m = 0, one on each sheet, and two contractible circles), one open arc
    for the holonomy integral, five punctures across three
    curves, the Kashaev fit and the three-point conjecture scan."""
    knots = load_knots()
    fig8 = knots["fig8"]

    def seed_at(m_start: complex, which: str, curve=fig8.a_poly) -> List[float]:
        roots = sorted(roots_in_l(curve, m_start), key=abs)
        root = roots[0] if which == "small" else roots[-1]
        return [root.real, root.imag]

    def circle(center: complex, radius: float, seed: List[float]) -> dict:
        return {
            "segments": [{"kind": "arc", "center": [center.real, center.imag],
                          "radius": radius, "angle_start": 0.0,
                          "angle_end": 2.0 * math.pi}],
            "l_seed": seed, "closed": True,
        }

    loops = {
        "m0_small": circle(0j, 0.3, seed_at(0.3 + 0j, "small")),
        "m0_big": circle(0j, 0.35, seed_at(0.35 + 0j, "big")),
        "contract_a": circle(2.0 + 0j, 0.25, seed_at(2.25 + 0j, "small")),
        "contract_b": circle(0.25 + 0.25j, 0.12,
                             seed_at(0.37 + 0.25j, "small")),
    }
    arc_path = {
        "segments": [{"kind": "arc", "center": [0.0, 0.0], "radius": 0.3,
                      "angle_start": 0.3, "angle_end": 1.0}],
        "l_seed": seed_at(0.3 * complex(math.cos(0.3), math.sin(0.3)), "small"),
        "closed": False,
    }
    lin1 = parse_poly("m + l - 1")
    lin2 = parse_poly("m + l - 2")
    punctures = {
        "fig8_m0_small": {"a_poly": "knot", "loop": loops["m0_small"]},
        "lin1_l0": {"a_poly": "m + l - 1", "steinberg": True,
                    "loop": circle(1.0 + 0j, 0.1,
                                   seed_at(1.1 + 0j, "small", lin1))},
        "lin1_l1": {"a_poly": "m + l - 1", "steinberg": True,
                    "loop": circle(0j, 0.1, seed_at(0.1 + 0j, "small", lin1))},
        "lin2_l0": {"a_poly": "m + l - 2",
                    "loop": circle(2.0 + 0j, 0.1,
                                   seed_at(2.1 + 0j, "small", lin2))},
        "lin2_l2": {"a_poly": "m + l - 2",
                    "loop": circle(0j, 0.1, seed_at(0.1 + 0j, "small", lin2))},
    }
    return {
        "knot": "fig8",
        "targets": ["one_forms", "symbols", "kirk_klassen", "jones",
                    "conjecture"],
        "loops": loops,
        "paths": {"arc_a": arc_path},
        "punctures": punctures,
        "jones": {"N_list": [500, 1000, 2000, 4000],
                  "a_values": [0.9, 1.0, 1.1]},
        "out_dir": ".",
    }


# ---------------------------------------------------------------- probe

# points per roots_in_l_batch call, and the largest grid density (one row)
PROBE_BLOCK = 1000


def probe_branch_points(knot: KnotRecord, re_range, im_range, density: int,
                        threshold: float):
    """Scan of min over sheets of |dA/dl| on the density x density grid.

    Returns (hits, closest): the grid points m (real part outer, as in the
    CSV) where the minimum is below threshold, each as (m, value), and
    (m, value) at the first smallest minimum on the grid, or None when no
    grid point has l-roots.  Points with m = 0, a degenerate leading
    coefficient, no convergence or no l-roots are skipped.  Each
    roots_in_l_batch call takes a block of whole grid rows (fixed Re m),
    at most PROBE_BLOCK points; dA/dl at the roots is read off the
    coefficient rows it solved (poly_core.horner_row_batch).
    """
    if density < 1:
        raise ConfigError("grid density must be at least 1")
    if density > PROBE_BLOCK:
        raise ConfigError("grid density above %d" % PROBE_BLOCK)
    lo = l_range(knot.a_poly)[0]
    hits: List[Tuple[complex, float]] = []
    closest = None
    res = np.linspace(re_range[0], re_range[1], density)
    ims = np.linspace(im_range[0], im_range[1], density)
    rows = max(1, PROBE_BLOCK // density)
    for start in range(0, density, rows):
        block = res[start:start + rows]
        m = np.empty((len(block), density), dtype=complex)
        m.real = block[:, None]
        m.imag = ims
        m = m.ravel()
        roots, status, coeffs = roots_in_l_batch(knot.a_poly, m)
        solved = status == 0
        if roots.shape[1] == 0 or not solved.any():
            continue
        ms, roots = m[solved], roots[solved]
        with np.errstate(divide="ignore", invalid="ignore"):
            dadl = np.abs(horner_row_batch(coeffs[solved], lo, roots)[1])
        # l = 0 is off the curve when A has negative powers of l: never a hit
        vals = np.where(np.isnan(dadl), np.inf, dadl).min(axis=1)
        below = vals < threshold
        hits.extend(zip(ms[below].tolist(), vals[below].tolist()))
        k = int(np.argmin(vals))
        if closest is None or vals[k] < closest[1]:
            closest = (complex(ms[k]), float(vals[k]))
    return hits, closest


# ---------------------------------------------------------------- verbs

def _cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ConfigError(str(exc))
    return run(cfg, config_path.resolve().parent, timings=args.timings)


def _cmd_demo(args) -> int:
    cfg = build_demo_config()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "demo_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", newline="\n")
    return run(cfg, out_dir, timings=args.timings)


def _cmd_probe(args) -> int:
    table = load_knots()
    if args.knot not in table:
        raise ConfigError("unknown knot %r" % args.knot)
    hits, closest = probe_branch_points(
        table[args.knot], (args.re[0], args.re[1]),
        (args.im[0], args.im[1]), args.density, args.threshold)
    csv = _Csv(Path(args.out), ["m_re", "m_im", "min_abs_dAdl"])
    for m, val in hits:
        csv.add(m.real, m.imag, val)
    csv.write()
    print("%d grid point(s) below threshold -> %s" % (len(hits), args.out))
    if closest is None:
        print("no grid point has l-roots")
    else:
        m, val = closest
        print("smallest min |dA/dl| on the grid: %.6g at m = %.6g%+.6gj"
              % (val, m.real, m.imag))
    return 0


def _cmd_parse(args) -> int:
    text = Path(args.polyfile).read_text(encoding="utf-8").strip()
    try:
        poly = parse_poly(text)
    except PolySyntaxError as exc:
        print("syntax error at offset %d: %s" % (exc.offset, exc.msg),
              file=sys.stderr)
        return 1
    print("%d term(s): %s" % (len(poly.terms), print_poly(poly)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="apolylab",
        description="line integrals, tame symbols and colored Jones "
                    "asymptotics on A-polynomial curves")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run config")
    p_run.add_argument("config")
    p_run.add_argument("--timings", action="store_true",
                       help="fill runtime_ms columns (breaks byte identity)")
    p_run.set_defaults(func=_cmd_run)

    p_demo = sub.add_parser("demo", help="built-in figure-eight run")
    p_demo.add_argument("-o", "--out", default="demo_out")
    p_demo.add_argument("--timings", action="store_true")
    p_demo.set_defaults(func=_cmd_demo)

    p_probe = sub.add_parser("probe", help="scan for small |dA/dl|")
    p_probe.add_argument("knot")
    p_probe.add_argument("--re", nargs=2, type=float, default=[-2.0, 2.0])
    p_probe.add_argument("--im", nargs=2, type=float, default=[-2.0, 2.0])
    p_probe.add_argument("--density", type=int, default=50)
    p_probe.add_argument("--threshold", type=float, default=1e-2)
    p_probe.add_argument("-o", "--out", default="branch_points.csv")
    p_probe.set_defaults(func=_cmd_probe)

    p_parse = sub.add_parser("parse", help="syntax-check a polynomial file")
    p_parse.add_argument("polyfile")
    p_parse.set_defaults(func=_cmd_parse)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print("file error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
