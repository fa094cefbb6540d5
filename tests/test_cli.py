import json
import math

import numpy as np
import pytest

from levyem import cli
from levyem.errors import ConfigError
from levyem.harness import ExperimentConfig, run_experiment
from levyem.models import LevyModel
from levyem.rng import RngStream
from levyem.samplers import increments, load_batch
from levyem.engine import drift_cos


BASE_EXPERIMENT = """
[model]
family = brownian
dim = 1

[drift]
name = cos

[experiment]
t = 1.0
p = 2.0
n_list = 8,16,32,64
n_ref = 512
paths = 200
seed = 77
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_unknown_key_names_location(self, tmp_path):
        cfg = write(tmp_path, BASE_EXPERIMENT + "\n[sample]\nflavour = 3\n")
        with pytest.raises(ConfigError) as err:
            cli.load_config(cfg)
        assert "flavour" in str(err.value)
        assert "sample" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write(tmp_path, BASE_EXPERIMENT + "\n[extras]\nx = 1\n")
        with pytest.raises(ConfigError):
            cli.load_config(cfg)

    def test_missing_seed_rejected(self, tmp_path):
        text = BASE_EXPERIMENT.replace("seed = 77\n", "")
        cfg = write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            cli.build_experiment(cli.load_config(cfg))
        assert "seed" in str(err.value)

    def test_model_round_trip(self, tmp_path):
        text = """
[model]
family = layered_stable
alpha = 1.5
lambda_tail = 2.5
"""
        model = cli.build_model(cli.load_config(write(tmp_path, text)))
        assert model == LevyModel.layered_stable(1.5, 2.5)

    @pytest.mark.parametrize("model", [
        LevyModel.brownian(dim=2),
        LevyModel.isotropic_stable(1.5),
        LevyModel.tempered_stable(1.7, 0.5),
        LevyModel.layered_stable(1.5, 2.5),
        LevyModel.subordinated_bm(
            __import__("levyem.models", fromlist=["SubordinatorSpec"])
            .SubordinatorSpec.tempered(0.75, 2.0)),
    ])
    def test_model_serialisation_round_trips(self, tmp_path, model):
        section = cli.model_section(model)
        text = "[model]\n" + "\n".join(f"{k} = {v}" for k, v in section.items())
        rebuilt = cli.build_model(cli.load_config(write(tmp_path, text)))
        assert rebuilt == model

    def test_subordinated_dispatch(self, tmp_path):
        stable = cli.build_model(cli.load_config(write(
            tmp_path, "[model]\nfamily = subordinated_bm\nrho = 0.75\n")))
        assert stable.sub.m == 0.0
        tilted = cli.build_model(cli.load_config(write(
            tmp_path, "[model]\nfamily = subordinated_bm\nrho = 0.75\nm = 2.0\n",
            name="b.cfg")))
        assert tilted.sub.m == 2.0

    def test_drift_param_scoping(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.build_drift(cli.load_config(write(
                tmp_path, "[drift]\nname = cos\nbeta = 0.5\n")))


STABLE_MODEL = "[model]\nfamily = isotropic_stable\nalpha = 1.5\n"
MODE_SOURCE = STABLE_MODEL + "[drift]\nname = zero\n[kolmogorov]\npoints = 512\nsource = "


MALFORMED = [
    ("check", "[experiment]\nwhat = 1\n", "[experiment] what:"),
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,abc\n", "[density] t_list:"),
    ("kolmogorov", MODE_SOURCE + "mode:xyz\n", "[kolmogorov] source:"),
    ("kolmogorov", MODE_SOURCE + "mode:512\n", "[kolmogorov] source:"),
    ("kolmogorov", MODE_SOURCE + "mode:-1\n", "[kolmogorov] source:"),
    ("converge", BASE_EXPERIMENT + "x0 = nan\n", "[experiment] x0:"),
    ("converge", BASE_EXPERIMENT.replace("dim = 1", "dim = 2") + "x0 = 0,1,2\n",
     "[experiment] x0:"),
]


class TestExitCodes:
    def test_malformed_config_exits_one(self, tmp_path, capsys):
        for command, text, message in MALFORMED:
            cfg = write(tmp_path, text)
            code = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")])
            assert code == 1, text
            assert message in capsys.readouterr().err, text

    def test_check_balance_pass(self, tmp_path, capsys):
        text = """
[model]
family = isotropic_stable
alpha = 1.5

[drift]
name = cos

[experiment]
p = 1.0
"""
        code = cli.main(["check", "--config", write(tmp_path, text)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.3333" not in out  # rate for beta=1 is 2/3 here
        assert "PASS" in out

    def test_check_balance_fail_exits_two(self, tmp_path, capsys):
        text = """
[model]
family = isotropic_stable
alpha = 1.1

[drift]
name = rough_sin
beta = 0.05

[experiment]
p = 1.0
"""
        code = cli.main(["check", "--config", write(tmp_path, text)])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_check_prints_rate_formula_values(self, tmp_path, capsys):
        text = """
[model]
family = isotropic_stable
alpha = 1.5

[drift]
name = rough_sin
beta = 0.5

[experiment]
p = 1.0
"""
        code = cli.main(["check", "--config", write(tmp_path, text)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.3333" in out  # min{1, 0.5/1.5, 1}

    def test_tempered_gamma_inf_reported_infinite(self, tmp_path, capsys):
        text = """
[model]
family = tempered_stable
alpha = 1.5
m = 1.0

[drift]
name = cos

[experiment]
p = 1.0
"""
        cli.main(["check", "--config", write(tmp_path, text)])
        assert "gamma_inf = inf" in capsys.readouterr().out


class TestConverge:
    def test_zero_drift_degenerate_exits_zero(self, tmp_path, capsys):
        text = BASE_EXPERIMENT.replace("name = cos", "name = zero")
        cfg = write(tmp_path, text)
        out_dir = tmp_path / "out"
        code = cli.main(["converge", "--config", cfg, "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdict"] == "degenerate-exact"

    @pytest.mark.parametrize("x0_line,x0", [("", [0.0, 0.0]),
                                            ("x0 = 0.5, -0.5\n", [0.5, -0.5])])
    def test_two_dimensional_model_runs(self, tmp_path, x0_line, x0):
        text = BASE_EXPERIMENT.replace("dim = 1", "dim = 2") + x0_line
        out_dir = tmp_path / "out"
        code = cli.main(["converge", "--config", write(tmp_path, text),
                         "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["x0"] == x0
        assert report["table"]["flagged"] == 0

    def test_cli_results_byte_identical_to_library(self, tmp_path):
        cfg = write(tmp_path, BASE_EXPERIMENT)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert cli.main(["converge", "--config", cfg, "--out-dir", str(out1)]) == 0
        assert cli.main(["converge", "--config", cfg, "--out-dir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

        lib = run_experiment(ExperimentConfig(
            model=LevyModel.brownian(), drift=drift_cos(), x0=0.0, T=1.0, p=2.0,
            n_list=(8, 16, 32, 64), n_ref=512, paths=200, seed=77))
        assert (out1 / "report.json").read_text() == lib.to_json() + "\n"

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write(tmp_path, BASE_EXPERIMENT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["converge", "--config", cfg, "--out-dir", str(out1)])
        cli.main(["converge", "--config", cfg, "--out-dir", str(out2),
                  "--seed-override", "123"])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["table"]["mean"] != r2["table"]["mean"]
        assert r2["config"]["seed"] == 123


class TestDensityCommand:
    def test_stable_density_run(self, tmp_path):
        text = """
[model]
family = isotropic_stable
alpha = 1.5

[density]
t_list = 0.05,0.1,0.2,0.4,0.8
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "dens"
        code = cli.main(["density", "--config", cfg, "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "density_summary.json").read_text())
        assert abs(summary["slope"] - (-1.0 / 1.5)) <= 0.01
        assert summary["propagation_ok"] is True
        assert (out / "density_t0.05.csv").exists()


class TestKolmogorovCommand:
    def test_certified_run(self, tmp_path):
        text = """
[model]
family = isotropic_stable
alpha = 1.5

[drift]
name = cos

[kolmogorov]
t = 0.25
points = 1024
half_width = 50.26548245743669
n_time = 128
target_ratio = 0.5
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "kol"
        code = cli.main(["kolmogorov", "--config", cfg, "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "kolmogorov_summary.json").read_text())
        assert summary["certified"] is True
        assert summary["residual"] <= 5e-3
        assert len(summary["contraction_history"]) >= 2
        assert (out / "kolmogorov_u0.csv").exists()

    def test_unbalanced_pair_refused_with_exit_two(self, tmp_path):
        text = """
[model]
family = isotropic_stable
alpha = 1.05

[drift]
name = rough_sin
beta = 0.02

[kolmogorov]
t = 0.2
points = 512
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "kol2"
        code = cli.main(["kolmogorov", "--config", cfg, "--out-dir", str(out)])
        assert code == 2
        summary = json.loads((out / "kolmogorov_summary.json").read_text())
        assert summary["certified"] is False
        assert summary["kappa"] >= 1.0

    def test_zero_drift_contraction_history_length_one(self, tmp_path):
        text = """
[model]
family = isotropic_stable
alpha = 1.5

[drift]
name = zero

[kolmogorov]
t = 0.25
points = 512
source = mode:3
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "kol3"
        code = cli.main(["kolmogorov", "--config", cfg, "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "kolmogorov_summary.json").read_text())
        assert len(summary["contraction_history"]) == 1


class TestSampleCommand:
    def test_dump_matches_library(self, tmp_path):
        text = """
[model]
family = tempered_stable
alpha = 1.5
m = 1.0

[sample]
t = 1.0
n = 64
seed = 5
csv = true
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "dump"
        code = cli.main(["sample", "--config", cfg, "--out-dir", str(out)])
        assert code == 0
        model = LevyModel.tempered_stable(1.5, 1.0)
        loaded = load_batch(out / "increments.bin", model)
        direct = increments(model, 1.0, 64, RngStream(5, 0))
        assert np.array_equal(loaded.values, direct.values)
        assert (out / "increments.bin.csv").exists()
