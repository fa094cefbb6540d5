"""Each benchmark workload at its default seed and full size reproduces the
summary digests recorded in perfbench/golden.json, so a changed report or
summary fails here before the benchmark sees it."""

import contextlib
import sys
import time
from pathlib import Path

import pytest

import levyem
import levyem.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_default_seed_matches_golden_digests(name, tmp_path):
    inputs = workloads.make_inputs(name, workloads.DEFAULT_SEED, "full")
    cfgs = workloads.write_configs(inputs, tmp_path / "cfg")
    for command, cfg in cfgs.items():
        op = workloads.run_cli(levyem, command, cfg, tmp_path / command,
                               time.perf_counter, [], contextlib.nullcontext)
        workloads.check(op, inputs)
        assert op.failures == []
