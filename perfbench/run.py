"""levyem benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mc-stable --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark imports levyem from ``src/``,
generates config files from the seed, calls ``levyem.cli.main`` in-process
until the measuring time is used up, checks every artifact, and prints the
metrics by name with their units.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  README.md describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
CLOCK = time.perf_counter


def import_levyem():
    """Import levyem from this checkout's ``src``, never from elsewhere."""
    package = SRC / "levyem"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no levyem package at {package}")
    sys.path.insert(0, str(SRC))
    import levyem
    import levyem.cli
    if Path(levyem.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported levyem from {levyem.__file__}, not {package}")
    return levyem


def environment(levyem) -> dict:
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "levyem": levyem.__version__,
            "nproc": nproc(), "cpu": cpu}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def setup_probe(args) -> None:
    """Child mode: a fresh interpreter sets up once and prints the
    monotonic time at which timing would start."""
    levyem = import_levyem()
    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    cfg = workloads.write_configs(inputs, Path(args.setup_probe))
    workloads.warm_up(levyem, cfg)
    print(time.monotonic())


def measure_setup(args, work: Path) -> list:
    """Seconds from starting a fresh interpreter until it is set up, once
    per repeat; the children run one after another."""
    samples = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale,
               "--setup-probe", str(work / f"setup{i}")]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


# ----------------------------------------------------------------------
# the measuring loop
# ----------------------------------------------------------------------

class Run:
    """Reports of one workload: each report is the workload's ``cli.main``
    calls in order, one ``converge`` or ``density`` then ``kolmogorov``."""

    def __init__(self, levyem, inputs, cfg: dict, work: Path):
        self.levyem, self.inputs, self.cfg, self.work = levyem, inputs, cfg, work
        self.reports: list[dict] = []

    def report(self, kind: str, extra=(), tracer=None) -> dict:
        ops = []
        lo = tracer.mark() if tracer else 0
        if tracer:
            tracer.counters.clear()
        span = (lambda: tracer.span("cli.main")) if tracer else contextlib.nullcontext
        for command in self.inputs.configs:
            op = workloads.run_cli(self.levyem, command, self.cfg[command],
                                   self.work / f"{kind}-{command}", CLOCK, extra, span)
            try:
                workloads.check(op, self.inputs)
            except (KeyError, TypeError, ValueError) as exc:
                op.failures.append(f"{command}: malformed artifact ({exc!r})")
            ops.append(op)
        rec = {"kind": kind, "ops": ops, "seconds": sum(op.seconds for op in ops)}
        if tracer:
            rec["spans"] = tracer.summarize(lo, tracer.mark())
            rec["counters"] = dict(tracer.counters)
        self.reports.append(rec)
        return rec

    def of(self, kind: str) -> list:
        return [r for r in self.reports if r["kind"] == kind]

    def ops(self) -> list:
        return [op for r in self.reports for op in r["ops"]]


def measure(run: Run, schedule, min_reports: int, seconds: float, runner) -> None:
    """Run reports of kind ``schedule(i)`` until the next one, at the median
    time of its kind so far, would end past ``seconds``."""
    t0 = CLOCK()
    i = 0
    while True:
        runner(schedule(i))
        i += 1
        if i < min_reports:
            continue
        same = run.of(schedule(i)) or run.reports
        if CLOCK() - t0 + statistics.median(r["seconds"] for r in same) > seconds:
            return


def untraced(args, run: Run) -> tuple:
    threads = nproc()
    mc_stable = args.workload == "mc-stable"

    def runner(kind):
        if kind == "serial":
            run.report(kind)
            return
        rec = run.report(kind, extra=("--threads", str(threads)))
        serial = run.of("serial")[0]["ops"][0].artifacts
        for op in rec["ops"]:
            for name in ("report.json", "report.csv"):
                if op.artifacts.get(name) != serial.get(name):
                    op.failures.append(f"threaded {name} differs from the serial one")

    measure(run, lambda i: "threaded" if mc_stable and i % 4 == 1 else "serial",
            2 if mc_stable else 1, args.seconds, runner)
    report_s = fastest(run.of("serial"))
    extra = {"report_median_s": (statistics.median(r["seconds"] for r in run.of("serial")),
                                 "s")}
    if run.inputs.paths:
        steps = run.inputs.paths * run.inputs.n_ref * (1 + run.inputs.levels)
        extra["path_steps_per_s"] = (steps / report_s, "1/s")
    if mc_stable:
        extra["parallel_eff"] = (report_s / (threads * fastest(run.of("threaded"))),
                                 "fraction")
    return {"report_s": (report_s, "s")}, extra


def fastest(reports: list) -> float:
    """Time of a report made of the fastest call of each of its commands.

    Other tenants of a shared machine slow it down by up to 2x for seconds
    to minutes at a time, so the median of a run follows their load; the
    fastest of many short calls does not.
    """
    calls = {}
    for r in reports:
        for op in r["ops"]:
            calls.setdefault(op.command, []).append(op.seconds)
    return sum(min(times) for times in calls.values())


def traced(args, run: Run, tracer: tracing.Tracer, setup) -> dict:
    def runner(kind):
        if kind == "plain":
            run.report(kind)
            return
        with tracing.installed(tracer, run.levyem):
            rec = run.report(kind, tracer=tracer)
        first = run.of("traced")[0]["counters"]
        if rec["counters"] != first:
            rec["ops"][-1].failures.append("counters differ between traced reports")

    measure(run, lambda i: "traced" if i % 2 else "plain", 2, args.seconds, runner)
    return layer_metrics(run, setup)


def layer_metrics(run: Run, setup: tracing.SpanSummary) -> dict:
    """Per-layer metrics of the traced reports: times are medians over the
    reports, counters come from the first (they repeat exactly)."""
    recs = run.of("traced")
    paths = run.inputs.paths

    def counter(name):
        return int(recs[0]["counters"].get(name, 0))

    def med(fn):
        return statistics.median(fn(r["spans"], r) for r in recs)

    def total(name):
        return med(lambda s, r: s.total.get(name, 0.0))

    def count(name):
        return recs[0]["spans"].count.get(name, 0)

    def layer_self(layer):
        return med(lambda s, r: s.layer_self.get(layer, 0.0))

    increments_s = total("samplers.increments")
    variates = counter("samplers.variates")
    return {
        "samplers.increments_s": (increments_s, "s"),
        "samplers.ms_per_path": (1e3 * increments_s / paths if paths else 0.0, "ms"),
        "samplers.share": (med(lambda s, r: s.total.get("samplers.increments", 0.0)
                               / r["seconds"]), "fraction"),
        "samplers.variates": (variates, "count"),
        "samplers.jumps_per_step": (counter("samplers.jumps") / variates
                                    if variates else 0.0, "count"),
        "samplers.default_epsilon_s": (setup.total.get("samplers.default_epsilon", 0.0), "s"),
        "samplers.self_s": (layer_self("samplers"), "s"),
        "models.char_exponent_s": (setup.total.get("models.char_exponent_radial", 0.0), "s"),
        "models.self_s": (layer_self("models"), "s"),
        "rng.streams": (count("rng.generator"), "count"),
        "rng.generator_s": (total("rng.generator"), "s"),
        "engine.drift_calls": (count("engine.drift"), "count"),
        "engine.drift_elems": (counter("engine.drift_elems"), "count"),
        "engine.drift_s": (total("engine.drift"), "s"),
        "harness.mc_s": (total("harness.mc_strong_error"), "s"),
        "harness.self_s": (layer_self("harness"), "s"),
        "harness.chunks": (counter("harness.chunks"), "count"),
        "harness.flagged": (counter("harness.flagged"), "count"),
        "fitting.fit_s": (med(lambda s, r: s.layer_time.get("fitting", 0.0)), "s"),
        "spectral.suggest_grid_s": (total("spectral.suggest_grid"), "s"),
        "spectral.density_fft_s": (total("spectral.density_fft"), "s"),
        "spectral.density_fft_calls": (count("spectral.density_fft"), "count"),
        "spectral.grid_points": (counter("spectral.grid_points"), "count"),
        "spectral.fft_flops_computed": (counter("spectral.fft_flops_computed"),
                                        "flop"),
        "spectral.picard_s": (total("spectral.picard_solve"), "s"),
        "spectral.picard_iters": (counter("spectral.picard_iters"), "count"),
        "spectral.picard_halvings": (counter("spectral.picard_halvings"), "count"),
        "spectral.residual_s": (total("spectral.kolmogorov_residual"), "s"),
        "spectral.self_s": (layer_self("spectral"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.bytes_written": (sum(op.bytes_written for op in recs[0]["ops"]), "bytes"),
        "trace.overhead_frac": (fastest(recs) / fastest(run.of("plain")) - 1.0, "fraction"),
    }


def self_shares(run: Run) -> dict:
    """Each layer's self time as a share of the traced report time."""
    recs = run.of("traced")
    layers = sorted({layer for r in recs for layer in r["spans"].layer_self})
    return {f"{layer}.self_share": (statistics.median(
        r["spans"].layer_self.get(layer, 0.0) / r["seconds"] for r in recs), "fraction")
        for layer in layers}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the benchmark's own tests")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    levyem = import_levyem()
    env = environment(levyem)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{label}-{os.getpid()}"
    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    cfg = workloads.write_configs(inputs, work / "cfg")
    run = Run(levyem, inputs, cfg, work)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer, levyem):
                workloads.warm_up(levyem, cfg)
            setup = tracer.summarize(0, tracer.mark())
            metrics = traced(args, run, tracer, setup)
            extra = self_shares(run)
            tracer.save(OUT / f"{label}-spans.npz")
        else:
            workloads.warm_up(levyem, cfg)
            setup = measure_setup(args, work)
            metrics, extra = untraced(args, run)
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = run.ops()
    failures = [f for op in ops for f in op.failures]
    failed = sum(1 for op in ops if op.failures)
    extra["failed_frac"] = (failed / len(ops), "fraction")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    kinds = {r["kind"]: len(run.of(r["kind"])) for r in run.reports}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} cli.main calls in reports {kinds}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    for f in failures:
        print(f"FAILED: {f}")
    result = {"correct": not failures, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{label}.json").write_text(json.dumps(
        {**result, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
         "env": env, "report_seconds": [[r["kind"], r["seconds"]] for r in run.reports],
         "missing_boundaries": tracer.missing if args.trace else []}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
