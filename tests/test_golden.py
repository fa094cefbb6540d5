"""Each benchmark workload at its default seed and full size reproduces the
summary digests recorded in perfbench/golden.json and the digests of its CSV
files below, so a changed report, summary or table fails here before the
benchmark sees it."""

import contextlib
import hashlib
import sys
import time
from pathlib import Path

import pytest

import levyem
import levyem.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# sha256 of each workload's CSVs at the default seed, which golden.json does not pin
CSV_SHA256 = {
    "mc-stable": {
        "report.csv": "018fe8da0ff2534cef396c06ba1377d8a59093e82337317498bcf490478e0910",
    },
    "mc-tempered": {
        "report.csv": "b71c345ca3f7c602a7887913043d1c35207d4cf23dfcdd0e24f7b276cd0a541d",
    },
    "spectral": {
        "kolmogorov_u0.csv": "2d2977adf6aadf6a1a299f07a2b926f1e864af543a7e38b04c4997f88f0283e3",
        "density_t0.05.csv": "765a2cb8991a87a2f6673938a2b6425c6b471235124afe0f09f5bd742243ca23",
        "density_t0.1.csv": "0103cf7c949ea78cd4085411d729c3051ea13805f86dfc3c63cb8a8caf00f2b8",
        "density_t0.2.csv": "73ae48acaf7813d345a0a30453441b839aaf87da45ca0573523356e7b5ba26ea",
        "density_t0.4.csv": "75cb288ef3767a938d94871e02126298f647b7f28fb303dc13ba0d0727208f44",
        "density_t0.8.csv": "852dd8618a79ebf69a3fdeef347beb1049826e89ef3a9a16a87d12bf851b4b7a",
    },
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_default_seed_matches_golden_digests(name, tmp_path):
    inputs = workloads.make_inputs(name, workloads.DEFAULT_SEED, "full")
    cfgs = workloads.write_configs(inputs, tmp_path / "cfg")
    csvs = {}
    for command, cfg in cfgs.items():
        op = workloads.run_cli(levyem, command, cfg, tmp_path / command,
                               time.perf_counter, [], contextlib.nullcontext)
        workloads.check(op, inputs)
        assert op.failures == []
        csvs.update({file: hashlib.sha256(data).hexdigest()
                     for file, data in op.artifacts.items() if file.endswith(".csv")})
    assert csvs == CSV_SHA256[name]
