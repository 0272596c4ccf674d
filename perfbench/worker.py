"""The measured process: set-up, then whole rounds of one workload.

    worker.py setup <workload> <inputs file>
        set up, print "ready" and exit (one set-up time sample)
    worker.py run <workload> <inputs file> <seconds> <traced 0|1> <work dir> <result file>
        set up, print "ready", run rounds until <seconds> have passed and
        write the outputs, round times (scaled to one host speed by
        hostspeed.py, and unscaled), peak memory and, when traced, the
        per-layer figures to <result file>
    worker.py demo-traced <out dir> <figures file>
        the traced demo launcher: install the tracer, run the demo verb
        in this process and write its per-layer figures

The package comes from the checkout's ``src`` (run.py sets PYTHONPATH).
The inputs file is the JSON that run.py made from the seed
(workloads.py); set-up only parses it.  One operation runs at a time.
References are not computed here, so the time and memory measured are
the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from hostspeed import HostSpeed


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


class Arcs:
    def __init__(self, lab, inputs):
        self.lab = lab
        self.knot = lab.cli_app.load_knots()["fig8"]
        self.target = inputs["target"]
        self.specs = [self._spec(r) for r in inputs["routes"]]

    def _spec(self, route):
        lab = self.lab
        segs = []
        for seg in route["segments"]:
            if seg["kind"] == "line":
                segs.append(lab.LineSeg(_c(seg["m_start"]), _c(seg["m_end"])))
            else:
                segs.append(lab.ArcSeg(_c(seg["center"]), seg["radius"],
                                       seg["angle_start"], seg["angle_end"]))
        return lab.PathSpec(segments=tuple(segs), l_seed=_c(route["l_seed"]),
                            closed=route["closed"])

    def round(self, index):
        forms = self.lab.one_forms
        out = []
        for spec in self.specs:
            path, _, used = forms.track_refined(self.knot.a_poly, spec, self.lab.StepControls(),
                                                forms=("eta", "xi"), target=self.target)
            eta = forms.integrate_eta(path)
            xi = forms.integrate_xi(path)
            kk = forms.kirk_klassen(path)
            out.append({
                "eta": [eta.value, eta.est_error], "xi": [xi.value, xi.est_error],
                "kk": _pair(kk.value), "kk_est": forms.kk_exponent(path).est_error,
                "kk_expr_diff": kk.expr_diff,
                "vol": forms.vol_along(path, self.knot.vol_k),
                "cs": forms.cs_along(path, self.knot.cs_k),
                "n_samples": path.n_samples, "max_step": used.max_step,
            })
        return out


class Jones:
    def __init__(self, lab, inputs):
        self.lab = lab
        lab.cli_app.load_knots()
        self.kashaev = inputs["kashaev"]
        self.deformed = [(n, k, complex(math.cos(2.0 * math.pi / k), math.sin(2.0 * math.pi / k)))
                         for n, k in inputs["deformed"]]

    def round(self, index):
        lab = self.lab
        seq = lab.kashaev_sequence(self.kashaev)
        fit = lab.growth_rate(seq)
        out = [{"kind": "kashaev", "values": [[n, v.log_abs, v.arg] for n, v in seq],
                "slope": fit.slope, "rms": fit.rms}]
        for n, k, q in self.deformed:
            v = lab.colored_jones_fig8(n, q)
            out.append({"kind": "root_of_unity", "N": n, "k": k,
                        "log_abs": v.log_abs, "arg": v.arg})
        return out


class Probe:
    def __init__(self, lab, inputs, work_dir):
        self.lab = lab
        lab.cli_app.load_knots()
        self.work_dir = work_dir
        self.argv = ["probe", "fig8", "--re", repr(inputs["re"][0]), repr(inputs["re"][1]),
                     "--im", repr(inputs["im"][0]), repr(inputs["im"][1]),
                     "--density", str(inputs["density"]),
                     "--threshold", repr(inputs["threshold"])]

    def round(self, index):
        out_csv = self.work_dir / "probe.csv"  # one name: the CLI prints it
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.lab.cli_app.main(self.argv + ["-o", str(out_csv)])
        text = out_csv.read_text()
        out_csv.unlink()
        return [{"exit": code, "stdout": stdout.getvalue(), "csv": text}]


DEMO_FILES = ("demo_config.json", "jones.csv", "one_forms.csv", "summary.txt", "symbols.csv")


class Demo:
    """Each operation is a fresh interpreter running the demo verb."""

    def __init__(self, work_dir, traced):
        self.work_dir = work_dir
        self.traced = traced
        self.peak_kb = 0
        self.figures = []

    def round(self, index):
        out_dir = self.work_dir / ("demo-%d" % index)
        if self.traced:
            figures_file = self.work_dir / ("figures-%d.json" % index)
            argv = [sys.executable, str(Path(__file__).resolve()), "demo-traced",
                    str(out_dir), str(figures_file)]
        else:
            argv = [sys.executable, "-m", "apolylab.cli_app", "demo", "-o", str(out_dir)]
        log = self.work_dir / ("demo-%d.log" % index)
        with open(log, "wb") as sink:
            proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        files = {name: (out_dir / name).read_text() if (out_dir / name).is_file() else None
                 for name in DEMO_FILES}
        for name in DEMO_FILES:
            (out_dir / name).unlink(missing_ok=True)
        out_dir.rmdir()
        stdout = log.read_text()
        log.unlink()
        if self.traced and proc.returncode == 0:
            self.figures.append(json.loads(figures_file.read_text()))
            figures_file.unlink()
        return [{"exit": proc.returncode, "stdout": stdout, "files": files}]


def _setup(workload, inputs_file, work_dir, traced):
    """Import, knot table and inputs: everything before the first operation."""
    if workload == "demo":
        return Demo(work_dir, traced), None  # a traced demo traces in its launcher
    import apolylab
    import apolylab.cli_app

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    inputs = json.loads(Path(inputs_file).read_text())
    if workload == "arcs":
        return Arcs(apolylab, inputs), tracer
    if workload == "jones":
        return Jones(apolylab, inputs), tracer
    return Probe(apolylab, inputs, work_dir), tracer


def cmd_setup(workload, inputs_file):
    if workload == "demo":
        # what every demo process pays before its first stage
        import apolylab.cli_app

        apolylab.cli_app.load_knots()
    else:
        _setup(workload, inputs_file, None, False)
    print("ready", flush=True)


def cmd_run(workload, inputs_file, seconds, traced, work_dir, result_file):
    ops, tracer = _setup(workload, inputs_file, work_dir, traced)
    setup_raw = tracer.take() if tracer else None
    print("ready", flush=True)
    rounds, round_raw = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        with HostSpeed() as speed:
            outputs = ops.round(len(rounds))
        if tracer:
            round_raw.append(tracer.take())
        rounds.append({"seconds": speed.seconds, "unscaled": speed.unscaled, "outputs": outputs})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "demo":
        peak_kb = ops.peak_kb
        round_raw = ops.figures
        setup_raw = None
    result = {"rounds": rounds, "peak_kb": peak_kb, "setup_raw": setup_raw,
              "round_raw": round_raw, "missing": tracer.missing if tracer else []}
    Path(result_file).write_text(json.dumps(result))


def cmd_demo_traced(out_dir, figures_file):
    import apolylab.cli_app

    tracer = tracing.Tracer()
    tracer.install()
    code = apolylab.cli_app.main(["demo", "-o", out_dir])
    Path(figures_file).write_text(json.dumps(tracer.take()))
    return code


def main(argv):
    verb = argv[0]
    if verb == "setup":
        cmd_setup(argv[1], argv[2])
        return 0
    if verb == "run":
        cmd_run(argv[1], argv[2], float(argv[3]), argv[4] == "1",
                Path(argv[5]), argv[6])
        return 0
    if verb == "demo-traced":
        return cmd_demo_traced(argv[1], argv[2])
    raise SystemExit("unknown verb %r" % verb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
