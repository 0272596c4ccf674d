"""Spans around calls into the package's public functions.

The tracer wraps functions from outside the package.  Modules import
functions by name, so every binding of a wrapped function in every loaded
``apolylab`` module (module-level dicts included) is replaced.  Spans stay
in memory; per-layer figures are computed from them when asked for.

A layer's self time is its spans' duration minus that of their direct
child spans.  ``calls`` and ``busy`` count only the outermost span of a
layer, so a layer that calls itself (one quadrature routine calling
another) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

# (layer, module, function) for every wrapped public function
TARGETS = (
    ("cli_app.load_knots", "apolylab.cli_app", "load_knots"),
    ("lobachevsky", "apolylab.lobachevsky", "lobachevsky"),
    ("poly_core.roots_in_l", "apolylab.poly_core", "roots_in_l"),
    ("curve_tracker.lift_path", "apolylab.curve_tracker", "lift_path"),
    ("backends.track_grid", "apolylab.backends", "track_grid"),
    ("one_forms.track_refined", "apolylab.one_forms", "track_refined"),
    ("one_forms.quadrature", "apolylab.one_forms", "integrate_eta"),
    ("one_forms.quadrature", "apolylab.one_forms", "integrate_xi"),
    ("one_forms.quadrature", "apolylab.one_forms", "kk_exponent"),
    ("one_forms.quadrature", "apolylab.one_forms", "kirk_klassen"),
    ("one_forms.quadrature", "apolylab.one_forms", "regulator_exponent"),
    ("one_forms.quadrature", "apolylab.one_forms", "regulator"),
    ("symbols_k2.tame_symbol", "apolylab.symbols_k2", "tame_symbol"),
    ("jones_kashaev.colored_jones_fig8", "apolylab.jones_kashaev", "colored_jones_fig8"),
)

# per-layer metric names, in report order; each maps to a raw field or a ratio
METRICS = (
    ("cli_app.load_knots.calls", "cli_app.load_knots", "calls"),
    ("cli_app.load_knots.self_s", "cli_app.load_knots", "self"),
    ("lobachevsky.calls", "lobachevsky", "calls"),
    ("lobachevsky.busy_s", "lobachevsky", "busy"),
    ("poly_core.roots_in_l.calls", "poly_core.roots_in_l", "calls"),
    ("poly_core.roots_in_l.busy_s", "poly_core.roots_in_l", "busy"),
    ("poly_core.roots_in_l.us_per_call", "poly_core.roots_in_l", ("busy", "calls", 1e6)),
    ("curve_tracker.lift_path.calls", "curve_tracker.lift_path", "calls"),
    ("curve_tracker.lift_path.samples", "curve_tracker.lift_path", "samples"),
    ("curve_tracker.lift_path.halvings", "curve_tracker.lift_path", "halvings"),
    ("curve_tracker.lift_path.self_s", "curve_tracker.lift_path", "self"),
    ("curve_tracker.lift_path.us_per_sample", "curve_tracker.lift_path", ("busy", "samples", 1e6)),
    ("backends.track_grid.calls", "backends.track_grid", "calls"),
    ("backends.track_grid.busy_s", "backends.track_grid", "busy"),
    ("one_forms.track_refined.calls", "one_forms.track_refined", "calls"),
    ("one_forms.track_refined.lifts", "one_forms.track_refined", "lifts"),
    ("one_forms.quadrature.calls", "one_forms.quadrature", "calls"),
    ("one_forms.quadrature.self_s", "one_forms.quadrature", "self"),
    ("symbols_k2.tame_symbol.calls", "symbols_k2.tame_symbol", "calls"),
    ("symbols_k2.tame_symbol.self_s", "symbols_k2.tame_symbol", "self"),
    ("jones_kashaev.colored_jones_fig8.calls", "jones_kashaev.colored_jones_fig8", "calls"),
    ("jones_kashaev.colored_jones_fig8.terms", "jones_kashaev.colored_jones_fig8", "terms"),
    ("jones_kashaev.colored_jones_fig8.busy_s", "jones_kashaev.colored_jones_fig8", "busy"),
    ("jones_kashaev.colored_jones_fig8.ns_per_term", "jones_kashaev.colored_jones_fig8",
     ("busy", "terms", 1e9)),
)
FIELDS = ("calls", "busy", "self", "samples", "halvings", "terms", "lifts")


def _lift_counts(bound, result):
    # halvings: samples beyond the requested grid of segments * n + 1 points,
    # with n computed as lift_path computes it
    ctrl = bound.arguments["ctrl"]
    n = max(1, int(math.ceil(1.0 / ctrl.max_step)))
    grid = len(bound.arguments["spec"].segments) * n + 1
    return {"samples": result.n_samples, "halvings": result.n_samples - grid}


def _jones_counts(bound, result):
    return {"terms": int(bound.arguments["N"])}


COUNTERS = {"curve_tracker.lift_path": _lift_counts,
            "jones_kashaev.colored_jones_fig8": _jones_counts}


class Tracer:
    def __init__(self):
        self.spans = []   # [layer, start, end, parent index, counts]
        self._stack = []
        self.missing = []

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx][4] = counter(bound, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists and rebind it wherever it is bound."""
        for layer, module_name, name in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                self.missing.append("%s.%s" % (module_name, name))
                continue
            wrapped = self._wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "apolylab" or mod_name.startswith("apolylab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapped

    def take(self):
        """Raw per-layer figures of the spans recorded so far; then forget them."""
        spans = list(self.spans)
        self.spans.clear()
        return raw_figures(spans)


def raw_figures(spans):
    layers = {layer for layer, _, _ in TARGETS}
    raw = {layer: dict.fromkeys(FIELDS, 0) for layer in layers}
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (layer, start, end, parent, counts) in enumerate(spans):
        fig = raw[layer]
        fig["self"] += (end - start) - child_time[idx]
        if parent < 0 or spans[parent][0] != layer:
            fig["calls"] += 1
            fig["busy"] += end - start
        for key, value in (counts or {}).items():
            fig[key] += value
        if layer == "curve_tracker.lift_path" and parent >= 0 \
                and spans[parent][0] == "one_forms.track_refined":
            raw["one_forms.track_refined"]["lifts"] += 1
    return raw


def add_raw(a, b):
    return {layer: {f: a[layer][f] + b[layer][f] for f in FIELDS} for layer in a}


def median_raw(raws):
    def median(xs):
        xs = sorted(xs)
        n = len(xs)
        return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])

    return {layer: {f: median([r[layer][f] for r in raws]) for f in FIELDS}
            for layer in raws[0]}


def counts_of(raw):
    """The figures that must repeat exactly from one round to the next."""
    return {layer: {f: raw[layer][f] for f in FIELDS if f not in ("busy", "self")}
            for layer in raw}


def layer_metrics(raw):
    out = {}
    for name, layer, field in METRICS:
        fig = raw[layer]
        if isinstance(field, tuple):
            num, den, scale = field
            value = fig[num] / fig[den] * scale if fig[den] else 0.0
        else:
            value = fig[field]
        out[name] = value
    return out
