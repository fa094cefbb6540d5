"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/tests -q

Each benchmark run is a subprocess of ``perfbench/run.py --scale tiny``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return {"stdout": proc.stdout, "result": json.loads(proc.stdout.splitlines()[-1]),
            "spans": BENCH / "out" / f"{workload}-seed{seed}-trace{trace}-spans.npz"}


bench = functools.lru_cache(maxsize=None)(run_bench)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    run = bench(workload, trace)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in declared:
        assert f"  {m['name']} " in run["stdout"]
        assert run["stdout"].split(f"  {m['name']} ", 1)[1].split("\n")[0].split()[-1] \
            == m["unit"]
    assert "env: python=" in run["stdout"] and " cpu=" in run["stdout"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_self_times_nonnegative_and_children_within_parent(workload):
    metrics = bench(workload, 1)["result"]["metrics"]
    for name, m in metrics.items():
        if name.endswith("self_s"):
            assert m["value"] >= 0.0, name
    spans = np.load(bench(workload, 1)["spans"])
    dur = spans["end"] - spans["start"]
    assert np.all(dur >= 0.0)
    inside = spans["parent"] >= 0
    children = np.bincount(spans["parent"][inside], weights=dur[inside],
                           minlength=dur.size)
    assert np.all(children <= dur + 1e-12)


def test_traced_stage_split_matches_the_workloads():
    spectral = bench("spectral", 1)["result"]["metrics"]
    for name in ("samplers.increments_s", "rng.streams", "harness.mc_s"):
        assert spectral[name]["value"] == 0
    tempered = bench("mc-tempered", 1)["result"]["metrics"]
    assert tempered["samplers.jumps_per_step"]["value"] > 0
    assert bench("mc-stable", 1)["result"]["metrics"]["samplers.jumps_per_step"]["value"] == 0


def test_counters_repeat_exactly():
    counts = [{k: v["value"] for k, v in run_bench("mc-tempered", 1, 5)["result"]["metrics"].items()
               if v["unit"] in ("count", "bytes", "flop")}
              for _ in range(2)]
    assert counts[0]["engine.drift_calls"] > 0
    assert counts[0] == counts[1]


def test_seed_changes_inputs_and_same_seed_repeats():
    for name in workloads.NAMES:
        a, b = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
        assert a.configs != b.configs
        assert workloads.make_inputs(name, 1).configs == a.configs


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner.work", lambda: sum(range(10000)))
    outer = tracer.wrap("outer.work", lambda: [inner() for _ in range(3)])
    with tracer.span("cli.main"):
        outer()
    summary = tracer.summarize(0, tracer.mark())
    assert summary.count == {"cli.main": 1, "outer.work": 1, "inner.work": 3}
    assert all(v >= 0.0 for v in summary.layer_self.values())
    assert summary.layer_self["outer"] == pytest.approx(
        summary.total["outer.work"] - summary.total["inner.work"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "spectral",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
