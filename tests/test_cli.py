import json
import math

import numpy as np
import pytest

from levyem import cli, spectral
from levyem.errors import ConfigError
from levyem.harness import ExperimentConfig, run_experiment
from levyem.models import LevyModel, SubordinatorSpec
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
        ("family = brownian\ndim = 2\n", LevyModel.brownian(dim=2)),
        ("family = isotropic_stable\nalpha = 1.5\n", LevyModel.isotropic_stable(1.5)),
        ("family = tempered_stable\nalpha = 1.7\nm = 0.5\n",
         LevyModel.tempered_stable(1.7, 0.5)),
        ("family = layered_stable\nalpha = 1.5\nlambda_tail = 2.5\n",
         LevyModel.layered_stable(1.5, 2.5)),
        ("family = subordinated_bm\nrho = 0.75\nm = 2.0\n",
         LevyModel.subordinated_bm(SubordinatorSpec.tempered(0.75, 2.0))),
    ])
    def test_model_serialisation_round_trips(self, tmp_path, model):
        keys, expected = model
        rebuilt = cli.build_model(cli.load_config(write(tmp_path, "[model]\n" + keys)))
        assert rebuilt == expected

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

    @pytest.mark.parametrize("keys,message", [
        ("family = tempered_stable\nalpha = 1.5\nm = 1.0\ndim = 2\n",
         "tempered_stable is one-dimensional"),
        ("family = isotropic_stable\nalpha = 1.5\nm = 1.0\nrho = 0.7\n",
         "isotropic_stable takes no"),
        ("family = isotropic_stable\nalpha = 1.5\nrho = 0.7\n",
         "[model] rho: family isotropic_stable takes no rho"),
        ("family = brownian\nalpha = 1.5\n", "brownian takes no alpha"),
        ("family = layered_stable\nalpha = 1.5\n", "layered_stable needs lambda_tail"),
        ("family = subordinated_bm\nm = 2.0\n", "[model] rho: required"),
        ("family = isotropic_stable\nalpha = 0.8\n", "[model] alpha: must lie in (1.0, 2]"),
    ])
    def test_refused_model_keys_exit_one(self, tmp_path, capsys, keys, message):
        cfg = write(tmp_path, "[model]\n" + keys + "[drift]\nname = cos\n")
        with pytest.raises(ConfigError):
            cli.build_model(cli.load_config(cfg))
        assert cli.main(["check", "--config", cfg]) == 1
        assert message in capsys.readouterr().err


STABLE_MODEL = "[model]\nfamily = isotropic_stable\nalpha = 1.5\n"
MODE_SOURCE = STABLE_MODEL + "[drift]\nname = zero\n[kolmogorov]\npoints = 512\nsource = "


MALFORMED = [
    ("check", "[experiment]\nwhat = 1\n", "[experiment] what:"),
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,abc\n", "[density] t_list:"),
    ("kolmogorov", MODE_SOURCE + "mode:xyz\n", "[kolmogorov] source:"),
    ("kolmogorov", MODE_SOURCE + "mode:512\n", "[kolmogorov] source:"),
    ("kolmogorov", MODE_SOURCE + "mode:-1\n", "[kolmogorov] source:"),
    ("kolmogorov", MODE_SOURCE + "mode:1\nn_time = 0\n", "[kolmogorov] n_time:"),
    ("kolmogorov", MODE_SOURCE + "mode:1\nn_time = -3\n", "[kolmogorov] n_time:"),
    ("kolmogorov", MODE_SOURCE + "mode:1\nn_time = 1\n", "[kolmogorov] n_time:"),
    ("kolmogorov", MODE_SOURCE + "mode:1\nmax_iter = 0\n", "[kolmogorov] max_iter:"),
    ("converge", BASE_EXPERIMENT + "x0 = nan\n", "[experiment] x0:"),
    ("converge", BASE_EXPERIMENT.replace("dim = 1", "dim = 2") + "x0 = 0,1,2\n",
     "[experiment] x0:"),
    ("converge", BASE_EXPERIMENT.replace("seed = 77", "seed = -1"), "seed=-1"),
    ("sample", "[model]\nfamily = brownian\n[sample]\nn = 8\nseed = -1\n", "seed=-1"),
    # non-finite floats are refused where they are read, never downstream
    ("kolmogorov", MODE_SOURCE + "mode:1\nt = nan\n", "[kolmogorov] t:"),
    ("kolmogorov", MODE_SOURCE + "mode:1\nhalf_width = nan\n", "[kolmogorov] half_width:"),
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,0.2,nan,0.4\n", "[density] t_list:"),
    ("converge", BASE_EXPERIMENT + "tol = nan\n", "[experiment] tol:"),
    ("converge", BASE_EXPERIMENT + "tol = -0.1\n", "tol must be finite and >= 0"),
    ("converge", BASE_EXPERIMENT.replace("t = 1.0", "t = inf"), "[experiment] t:"),
    ("converge", BASE_EXPERIMENT.replace("p = 2.0", "p = nan"), "[experiment] p:"),
    ("sample", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = nan\n"
     "[sample]\nn = 8\nseed = 1\n", "[model] m:"),
    ("sample", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = inf\n"
     "[sample]\nn = 8\nseed = 1\n", "[model] m:"),
    # two levels cannot be fitted: refused before any Monte Carlo runs
    ("converge", BASE_EXPERIMENT.replace("n_list = 8,16,32,64", "n_list = 8,16"),
     "n_list needs at least 3 levels"),
    # a boolean key takes a boolean word, never reads a typo as false
    ("sample", "[model]\nfamily = brownian\n[sample]\nn = 8\nseed = 1\ncsv = ture\n",
     "[sample] csv:"),
    ("kolmogorov", MODE_SOURCE + "mode:1\nforce_unbalanced = maybe\n",
     "[kolmogorov] force_unbalanced:"),
    # a density grid is given whole or not at all
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,0.2,0.4,0.8\nhalf_width = 50\n",
     "[density] points:"),
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,0.2,0.4,0.8\npoints = 4096\n",
     "[density] half_width:"),
    # what configparser itself refuses
    ("check", STABLE_MODEL + "alpha = 1.7\n", "option 'alpha' in section 'model' already"),
    ("check", STABLE_MODEL + "[drift]\nname = cos\n[model]\ndim = 1\n",
     "section 'model' already exists"),
    ("check", "family = brownian\n" + STABLE_MODEL, "[file]: File contains no section headers"),
    ("check", STABLE_MODEL + "dim 1\n", "[file]: Source contains parsing errors"),
    # solver settings outside their range are refused before the solve runs
    ("kolmogorov", MODE_SOURCE + "mode:1\ntol = 0\n", "tol must be finite and > 0"),
    ("kolmogorov", MODE_SOURCE + "mode:1\ntol = -1e-8\n", "tol must be finite and > 0"),
    ("kolmogorov", MODE_SOURCE + "mode:1\ntarget_ratio = 0\n",
     "target_ratio must lie in (0, 1)"),
    # sampler work is bounded and refused before any draw
    ("sample", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = 1.0\n"
     "[sample]\nt = 1e300\nn = 8\nseed = 1\n", "dt=1.25e+299 asks for"),
    ("sample", "[model]\nfamily = subordinated_bm\nrho = 0.75\nm = 1e300\n"
     "[sample]\nn = 8\nseed = 1\n", "tilt m must be positive with a finite square"),
    ("sample", "[model]\nfamily = subordinated_bm\nrho = 0.75\nm = 1.0\n"
     "[sample]\nt = 1e300\nn = 8\nseed = 1\n", "t=1.25e+299 with tilt m=1.0 needs"),
    # a tilt whose square overflows is refused where the model is built
    ("density", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = 1e300\n"
     "[density]\nt_list = 0.1,0.2,0.4,0.8\n", "m must be > 0 with a finite square, got 1e+300"),
    ("kolmogorov", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = 1e300\n"
     "[drift]\nname = cos\n", "m must be > 0 with a finite square, got 1e+300"),
    ("density", "[model]\nfamily = relativistic_stable\nalpha = 1.5\nm = 1e300\n"
     "[density]\nt_list = 0.1,0.2,0.4,0.8\n", "m must be > 0 with a finite square, got 1e+300"),
    # counts no machine can allocate (7 PiB and more) fail at once, with a message
    ("sample", f"[model]\nfamily = brownian\n[sample]\nn = {10**15}\nseed = 1\n",
     "Unable to allocate 7.11 PiB"),
    ("converge", BASE_EXPERIMENT.replace("paths = 200", f"paths = {10**15}"),
     "Unable to allocate 28.4 PiB"),
    ("kolmogorov", MODE_SOURCE.replace("points = 512", f"points = {2**50}") + "mode:1\n",
     "Unable to allocate 8.00 PiB"),
    ("kolmogorov", MODE_SOURCE + f"mode:1\nn_time = {10**15}\n", "Unable to allocate 7.11 PiB"),
    # no drift in the catalog takes eta
    ("check", STABLE_MODEL + "[drift]\nname = cos\neta = 0.5\n", "[drift] eta: unknown key"),
]


class TestExitCodes:
    def test_malformed_config_exits_one(self, tmp_path, capsys):
        for command, text, message in MALFORMED:
            cfg = write(tmp_path, text)
            code = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")])
            assert code == 1, text
            assert message in capsys.readouterr().err, text

    def test_config_not_utf8_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes((STABLE_MODEL + "[drift]\nname = cos\n# d\xe9rive\n").encode("latin-1"))
        assert cli.main(["check", "--config", str(cfg)]) == 1
        assert "[file]: 'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,message", [("--seed-override", "seed=-1"),
                                              ("--threads", "threads must be >= 0")])
    def test_negative_converge_flag_exits_one(self, tmp_path, capsys, flag, message):
        # 300 paths span two blocks
        cfg = write(tmp_path, BASE_EXPERIMENT.replace("paths = 200", "paths = 300"))
        code = cli.main(["converge", "--config", cfg, "--out-dir", str(tmp_path / "out"),
                         flag, "-1"])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_flags_refused_where_they_do_nothing(self, tmp_path, capsys):
        # usage errors exit 1: code 2 is reserved for a theory violation
        cfg = write(tmp_path, BASE_EXPERIMENT)
        for command, flag in (("check", "--threads"), ("check", "--seed-override"),
                              ("density", "--threads"), ("density", "--seed-override"),
                              ("kolmogorov", "--threads"),
                              ("kolmogorov", "--seed-override"), ("sample", "--threads")):
            assert cli.main([command, "--config", cfg, flag, "3"]) == 1, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err, (command, flag)
        for command in ("check", "converge", "density", "kolmogorov", "sample"):
            assert cli.main([command]) == 1, command
            assert "the following arguments are required: --config" \
                in capsys.readouterr().err, command

    def test_threads_flag_changes_nothing(self, tmp_path):
        # paths run serially whatever --threads says; 300 paths span two blocks
        cfg = write(tmp_path, BASE_EXPERIMENT.replace("paths = 200", "paths = 300"))
        for name, extra in (("serial", []), ("threads", ["--threads", "2"])):
            argv = ["converge", "--config", cfg, "--out-dir", str(tmp_path / name)]
            assert cli.main(argv + extra) == 0
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "threads" / name).read_bytes() \
                == (tmp_path / "serial" / name).read_bytes()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["converge", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())  # undo the help's line wrapping
        assert "--threads THREADS accepted and ignored" in out

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


# The generated sweep: every key of every section a command reads, set to each
# value below, on each family.  Sizes are small so that a case that runs runs
# fast.  Each family carries a density grid it resolves: heavy tails need a
# wide grid, light ones a fine one.
SWEEP_FAMILIES = {
    "isotropic": ({"family": "isotropic_stable", "alpha": "1.9"}, "300", "4096"),
    "relativistic": ({"family": "relativistic_stable", "alpha": "1.5", "m": "1.0"}, "50", "2048"),
    "tempered": ({"family": "tempered_stable", "alpha": "1.5", "m": "1.0"}, "50", "2048"),
    "layered": ({"family": "layered_stable", "alpha": "1.5", "lambda_tail": "2.5"},
                "200", "4096"),
    "subordinated": ({"family": "subordinated_bm", "rho": "0.75", "m": "1.0"}, "50", "2048"),
}
SWEEP_SECTIONS = {
    "drift": {"name": "cos"},
    "experiment": {"t": "1.0", "p": "1.0", "n_list": "1,2,4", "n_ref": "32", "paths": "100",
                   "seed": "1"},
    "density": {"t_list": "0.1,0.11,0.12,0.13"},
    "kolmogorov": {"t": "0.1", "points": "64", "n_time": "8"},
    "sample": {"n": "4", "seed": "1"},
}
# the sections besides [model] that each command reads
SWEEP_READS = {"check": ("drift", "experiment"), "converge": ("drift", "experiment"),
               "density": ("density",), "kolmogorov": ("drift", "kolmogorov"),
               "sample": ("sample",)}
SWEEP_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "abc", "", "0.5", "1,2", "2")
COUNT_KEYS = {"dim", "n_list", "n_ref", "paths", "seed", "points", "n_time", "max_iter", "n"}


def sweep_config(family, command, section=None, key=None, value=None) -> str:
    model, half_width, points = SWEEP_FAMILIES[family]
    sections = {"model": dict(model)}
    sections.update((name, dict(SWEEP_SECTIONS[name])) for name in SWEEP_READS[command])
    if command == "density":
        sections["density"].update(half_width=half_width, points=points)
    if section is not None:
        sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@pytest.mark.parametrize("command", sorted(SWEEP_READS))
@pytest.mark.parametrize("family", sorted(SWEEP_FAMILIES))
def test_generated_malformed_inputs_exit_cleanly(tmp_path, capsys, family, command):
    cfg = tmp_path / "run.cfg"
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    cfg.write_text(sweep_config(family, command))
    assert cli.main(argv) == 0, capsys.readouterr().err  # the unaltered config runs
    for section in ("model",) + SWEEP_READS[command]:
        for key in sorted(cli._SECTION_KEYS[section]):
            for value in SWEEP_VALUES + ((str(10**15),) if key in COUNT_KEYS else ()):
                cfg.write_text(sweep_config(family, command, section, key, value))
                assert cli.main(argv) in (0, 1, 2), (section, key, value)
    capsys.readouterr()


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
    def test_stable_density_run(self, tmp_path, monkeypatch):
        calls = []
        density_fft = spectral.density_fft

        def counted(*args, **kwargs):
            calls.append(args[1])
            return density_fft(*args, **kwargs)

        monkeypatch.setattr(spectral, "density_fft", counted)
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
        # one table per distinct time of t_list and 2 t_list: 0.05, ..., 0.8, 1.6
        assert len(calls) == 6
        # the CSVs hold the tables on the grid the summary names
        grid = spectral.SpaceGrid(summary["grid"]["half_width"], summary["grid"]["points"])
        model = LevyModel.isotropic_stable(1.5)
        for t in summary["t_list"]:
            expected = tmp_path / f"expected_t{t:g}.csv"
            density_fft(model, t, grid).to_csv(expected, max_rows=4096)
            assert (out / f"density_t{t:g}.csv").read_bytes() == expected.read_bytes()


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
