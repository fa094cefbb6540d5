import json
import math

import numpy as np
import pytest

from levyem import cli, spectral
from levyem.errors import ConfigError
from levyem.harness import ExperimentConfig, run_experiment
from levyem.models import Family, LevyModel, SubFamily, SubordinatorSpec
from levyem.rng import RngStream
from levyem.samplers import increments, load_batch
from levyem.engine import drift_cos, drift_cos_time


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
        assert model == LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)

    @pytest.mark.parametrize("model", [
        ("family = brownian\ndim = 2\n", LevyModel(Family.BROWNIAN, dim=2)),
        ("family = isotropic_stable\nalpha = 1.5\n",
         LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)),
        ("family = tempered_stable\nalpha = 1.7\nm = 0.5\n",
         LevyModel(Family.TEMPERED_STABLE, alpha=1.7, m=0.5)),
        ("family = layered_stable\nalpha = 1.5\nlambda_tail = 2.5\n",
         LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)),
        ("family = subordinated_bm\nrho = 0.75\nm = 2.0\n",
         LevyModel(Family.SUBORDINATED_BM,
                   sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 2.0))),
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
ZERO_DRIFT = STABLE_MODEL + "[drift]\nname = zero\n[kolmogorov]\npoints = 512\n"


MALFORMED = [
    ("check", "[experiment]\nwhat = 1\n", "[experiment] what:"),
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,abc\n", "[density] t_list:"),
    ("kolmogorov", ZERO_DRIFT + "n_time = 0\n", "[kolmogorov] n_time:"),
    ("kolmogorov", ZERO_DRIFT + "n_time = -3\n", "[kolmogorov] n_time:"),
    ("kolmogorov", ZERO_DRIFT + "n_time = 1\n", "[kolmogorov] n_time:"),
    ("converge", BASE_EXPERIMENT + "x0 = nan\n", "[experiment] x0:"),
    ("converge", BASE_EXPERIMENT.replace("dim = 1", "dim = 2") + "x0 = 0,1,2\n",
     "[experiment] x0:"),
    ("converge", BASE_EXPERIMENT.replace("seed = 77", "seed = -1"), "seed=-1"),
    ("sample", "[model]\nfamily = brownian\n[sample]\nn = 8\nseed = -1\n", "seed=-1"),
    # non-finite floats are refused where they are read, never downstream
    ("kolmogorov", ZERO_DRIFT + "t = nan\n", "[kolmogorov] t:"),
    ("kolmogorov", ZERO_DRIFT + "half_width = nan\n", "[kolmogorov] half_width:"),
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,0.2,nan,0.4\n", "[density] t_list:"),
    # a repeated time is one point of the fit: two distinct times are refused
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,0.1,0.2,0.2\n",
     "need at least 4 distinct positive t values, got 2"),
    # two distinct times whose CSVs would share the name density_t0.1.csv
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,0.1000001,0.2,0.4,0.8\n"
     "half_width = 160.0\npoints = 16384\n", "[density] t_list: two times share a CSV name"),
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
    # a solver setting outside its range is refused before the solve runs
    ("kolmogorov", ZERO_DRIFT + "target_ratio = 0\n",
     "target_ratio must lie in (0, 1)"),
    # the verdict band, the solver's tolerance and sweep cap are fixed, and an
    # unbalanced pair is always refused: these keys are unknown, valid values too
    ("converge", BASE_EXPERIMENT + "tol = 0.2\n", "[experiment] tol: unknown key"),
    ("kolmogorov", ZERO_DRIFT + "tol = 1e-9\n", "[kolmogorov] tol: unknown key"),
    ("kolmogorov", ZERO_DRIFT + "max_iter = 10\n", "[kolmogorov] max_iter: unknown key"),
    ("kolmogorov", ZERO_DRIFT + "force_unbalanced = false\n",
     "[kolmogorov] force_unbalanced: unknown key"),
    # sampler work is bounded and refused before any draw
    ("sample", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = 1.0\n"
     "[sample]\nt = 1e300\nn = 8\nseed = 1\n", "dt=1.25e+299 asks for"),
    ("sample", "[model]\nfamily = subordinated_bm\nrho = 0.75\nm = 1e300\n"
     "[sample]\nn = 8\nseed = 1\n", "tilt m must be positive with a finite square"),
    ("sample", "[model]\nfamily = subordinated_bm\nrho = 0.75\nm = 1.0\n"
     "[sample]\nt = 1e300\nn = 8\nseed = 1\n", "t=1.25e+299 with tilt m=1.0 needs"),
    # so is a self-similar scale t ** (1 / index) beyond the float range
    ("sample", "[model]\nfamily = subordinated_bm\nrho = 0.75\n[sample]\nt = 1e300\nn = 8\n"
     "seed = 1\n", "error: the scale t ** 1.3333333333333333 overflows a float at t=1.25e+299"),
    ("sample", STABLE_MODEL + "dim = 2\n[sample]\nt = 1e300\nn = 8\nseed = 1\n",
     "error: the scale t ** 1.3333333333333333 overflows a float at t=1.25e+299"),
    ("converge", "[model]\nfamily = subordinated_bm\nrho = 0.75\n[drift]\nname = cos\n"
     "[experiment]\nt = 1e300\np = 1.0\nn_list = 4,8,16\nn_ref = 128\npaths = 100\nseed = 1\n",
     "error: the scale t ** 1.3333333333333333 overflows a float at t=7.8125e+297"),
    # a step T / n that underflows to 0 is refused before any draw, on every
    # sampler, with T and n named
    ("sample", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = 1.0\n"
     "[sample]\nt = 5e-324\nn = 4\nseed = 1\n",
     "error: the step T / n underflows to 0 at T=5e-324 and n=4"),
    ("sample", STABLE_MODEL + "[sample]\nt = 5e-324\nn = 4\nseed = 1\n",
     "error: the step T / n underflows to 0 at T=5e-324 and n=4"),
    ("converge", "[model]\nfamily = layered_stable\nalpha = 1.5\nlambda_tail = 2.5\n"
     "[drift]\nname = cos\n[experiment]\nt = 5e-324\np = 1.0\nn_list = 4,8,16\n"
     "n_ref = 128\npaths = 100\nseed = 1\n",
     "error: the step T / n underflows to 0 at T=5e-324 and n=128"),
    ("converge", BASE_EXPERIMENT.replace("t = 1.0", "t = 5e-324"),
     "error: the step T / n underflows to 0 at T=5e-324 and n=512"),
    # so is a nonzero step whose self-similar scale or small-jump variance
    # underflows to 0, which would draw exact zeros
    ("sample", "[model]\nfamily = relativistic_stable\nalpha = 1.5\nm = 1.0\n"
     "[sample]\nt = 1e-300\nn = 4\nseed = 1\n",
     "error: the scale t ** 1.3333333333333333 underflows to 0 at t=2.5e-301"),
    ("sample", "[model]\nfamily = tempered_stable\nalpha = 1.5\nm = 1.0\n"
     "[sample]\nt = 1e-320\nn = 4\nseed = 1\n",
     "error: the small-jump variance dt * sigma2 underflows to 0 at dt=2.5e-321"),
    # so is a Gaussian scale sqrt(2 dt) or sqrt(2 S) whose 2 dt or 2 S overflows
    ("sample", "[model]\nfamily = brownian\n[sample]\nt = 1e308\nn = 1\nseed = 1\n",
     "error: the Gaussian scale sqrt(2 S) overflows a float at S=1e+308"),
    ("sample", "[model]\nfamily = subordinated_bm\nrho = 1.0\n[sample]\nt = 1e308\nn = 1\n"
     "seed = 1\n", "error: the Gaussian scale sqrt(2 S) overflows a float at S=1e+308"),
    # a grid whose spacing underflows or whose top frequency overflows is
    # refused where it is built, not left to a ZeroDivisionError or a StiffnessError
    ("kolmogorov", ZERO_DRIFT + "half_width = 5e-324\n", "error: half_width must be finite "
     "and > 0, with a nonzero spacing h and a finite pi / h at 512 points, got 5e-324"),
    ("kolmogorov", ZERO_DRIFT + "half_width = 1e-310\n", "error: half_width must be finite "
     "and > 0, with a nonzero spacing h and a finite pi / h at 512 points, got 1e-310"),
    ("density", STABLE_MODEL + "[density]\nt_list = 0.1,0.2,0.4,0.8\nhalf_width = 5e-324\n"
     "points = 4096\n", "error: half_width must be finite and > 0, with a nonzero spacing h "
     "and a finite pi / h at 4096 points, got 5e-324"),
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
    ("kolmogorov", ZERO_DRIFT.replace("points = 512", f"points = {2**50}"),
     "Unable to allocate 8.00 PiB"),
    ("kolmogorov", ZERO_DRIFT + f"n_time = {10**15}\n", "Unable to allocate 7.11 PiB"),
    # no drift in the catalog takes eta
    ("check", STABLE_MODEL + "[drift]\nname = cos\neta = 0.5\n", "[drift] eta: unknown key"),
    # counts no array can hold are refused where they are read: numpy would
    # raise a ValueError on the shape, not a MemoryError
    ("sample", f"[model]\nfamily = brownian\n[sample]\nn = {10**20}\nseed = 1\n",
     f"[sample] n: {10**20} is more elements than an array can hold"),
    ("converge", BASE_EXPERIMENT.replace("paths = 200", f"paths = {10**20}"),
     f"[experiment] paths: {10**20} is more elements than an array can hold"),
    ("sample", f"[model]\nfamily = brownian\n[sample]\nn = {2**61}\nseed = 1\n",
     f"[sample] n: {2**61} is more elements than an array can hold"),
    # so are products of counts, where the array they shape is built
    ("sample", f"[model]\nfamily = brownian\ndim = 2\n[sample]\nn = {2**59}\nseed = 1\n",
     f"n={2**59} increments in dim=2 are more elements than an array can hold"),
    ("converge", STABLE_MODEL + "[drift]\nname = cos\n[experiment]\np = 1.0\n"
     f"n_list = 4,8,16\nn_ref = {2**55}\npaths = 100\nseed = 3\n",
     f"n_ref={2**55} steps of 100 paths in dim=1 are more elements than an array"),
    ("kolmogorov", ZERO_DRIFT + f"n_time = {2**52}\n",
     f"n_time={2**52} time steps of 512 points are more elements than an array"),
    # the Fourier side is one-dimensional: a d > 1 model is refused, never
    # tabulated as its 1-D marginal under a d > 1 label
    ("density", STABLE_MODEL + "dim = 3\n[density]\nt_list = 0.1,0.2,0.4,0.8\n",
     "[model] dim: 3 > 1"),
    ("kolmogorov", ZERO_DRIFT.replace("alpha = 1.5", "alpha = 1.5\ndim = 3"),
     "[model] dim: 3 > 1"),
    # the dump is always increments.bin in --out-dir, and the Kolmogorov
    # source is always the drift
    ("sample", "[model]\nfamily = brownian\n[sample]\nn = 8\nseed = 1\nout = x.bin\n",
     "[sample] out: unknown key"),
    ("kolmogorov", ZERO_DRIFT + "source = drift\n", "[kolmogorov] source: unknown key"),
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

    @pytest.mark.parametrize("flag,message", [("--threads", "threads must be >= 0")])
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
        # the config's seed is the only seed: no command takes --seed-override
        for command, flag in (("check", "--threads"), ("check", "--seed-override"),
                              ("converge", "--seed-override"),
                              ("density", "--threads"), ("density", "--seed-override"),
                              ("kolmogorov", "--threads"),
                              ("kolmogorov", "--seed-override"), ("sample", "--threads"),
                              ("sample", "--seed-override")):
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
COUNT_KEYS = {"dim", "n_list", "n_ref", "paths", "seed", "points", "n_time", "n"}


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


def test_every_declared_key_is_read(tmp_path, capsys):
    # "abc" is no valid value of any key, so a key that some command reads
    # makes that command exit 1; a declared key nothing reads would be
    # accepted and ignored, which the sweep above cannot tell from a clean run
    cfg = tmp_path / "run.cfg"
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]

    def refused(command, section, key):
        cfg.write_text(sweep_config("isotropic", command, section, key, "abc"))
        return cli.main([command] + argv) == 1

    for section, keys in cli._SECTION_KEYS.items():
        readers = [c for c in sorted(SWEEP_READS) if section in ("model",) + SWEEP_READS[c]]
        for key in sorted(keys):
            assert any(refused(command, section, key) for command in readers), (section, key)
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
            model=LevyModel(Family.BROWNIAN), drift=drift_cos(), x0=0.0, T=1.0, p=2.0,
            n_list=(8, 16, 32, 64), n_ref=512, paths=200, seed=77))
        assert (out1 / "report.json").read_text() \
            == json.dumps(lib.to_dict(), indent=2, sort_keys=True) + "\n"


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
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        for t in summary["t_list"]:
            expected = tmp_path / f"expected_t{t:g}.csv"
            density_fft(model, t, grid).to_csv(expected)
            assert (out / f"density_t{t:g}.csv").read_bytes() == expected.read_bytes()

    # five jittered times, none twice another: ten distinct tables
    JITTERED = "0.0512,0.0981,0.2043,0.3962,0.8127"

    def test_jittered_times_write_each_table_as_computed(self, tmp_path, monkeypatch):
        calls = []
        density_fft = spectral.density_fft

        def counted(*args, **kwargs):
            calls.append(args[1])
            return density_fft(*args, **kwargs)

        monkeypatch.setattr(spectral, "density_fft", counted)
        cfg = write(tmp_path, STABLE_MODEL + f"[density]\nt_list = {self.JITTERED}\n"
                    "half_width = 60\npoints = 8192\n")
        out = tmp_path / "dens"
        assert cli.main(["density", "--config", cfg, "--out-dir", str(out)]) == 0
        t_list = [float(t) for t in self.JITTERED.split(",")]
        assert calls == sorted(t_list + [2.0 * t for t in t_list])
        grid = spectral.SpaceGrid(60.0, 8192)
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        for t in t_list:
            expected = tmp_path / f"expected_t{t:g}.csv"
            density_fft(model, t, grid).to_csv(expected)
            assert (out / f"density_t{t:g}.csv").read_bytes() == expected.read_bytes()

    def test_grid_too_small_for_the_largest_time_writes_no_summary(self, tmp_path, capsys):
        # the mass check fails only at 2 * 0.8127; each CSV is written as its
        # table is computed, so the CSVs of the earlier times remain
        cfg = write(tmp_path, STABLE_MODEL + f"[density]\nt_list = {self.JITTERED}\n"
                    "half_width = 48\npoints = 4096\n")
        out = tmp_path / "dens"
        assert cli.main(["density", "--config", cfg, "--out-dir", str(out)]) == 1
        assert "error: density mass" in capsys.readouterr().err
        assert not (out / "density_summary.json").exists()
        assert sorted(p.name for p in out.glob("density_t*.csv")) == sorted(
            f"density_t{float(t):g}.csv" for t in self.JITTERED.split(","))

    def test_times_sharing_a_csv_name_refused_before_any_table(self, tmp_path, capsys,
                                                               monkeypatch):
        # 0.1 and 0.1000001 both print as density_t0.1.csv: one table would
        # silently overwrite the other
        calls = []
        monkeypatch.setattr(spectral, "density_fft", lambda *args: calls.append(args[1]))
        cfg = write(tmp_path, STABLE_MODEL + "[density]\nt_list = 0.1,0.1000001,0.2,0.4,0.8\n"
                    "half_width = 160.0\npoints = 16384\n")
        out = tmp_path / "dens"
        assert cli.main(["density", "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: [density] t_list: ")
        assert calls == []
        assert not out.exists()


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
        grid = spectral.SpaceGrid(50.26548245743669, 1024)
        sol = spectral.picard_solve(drift_cos(), drift_cos()(0.0, grid.nodes), 0.25,
                                    LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), grid,
                                    n_time=128, target_ratio=0.5)
        expected = tmp_path / "expected.csv"
        np.savetxt(expected, np.column_stack([grid.nodes, sol.u[0], sol.grad_u[0]]),
                   delimiter=",", comments="", newline="\n", header="x,u,grad_u")
        assert (out / "kolmogorov_u0.csv").read_bytes() == expected.read_bytes()

    def test_time_dependent_drift_is_the_source_at_every_time(self, tmp_path):
        # cos_time solves the Zvonkin equation g = b(t, .), as picard_solve's
        # g=None does, not the source frozen at t = 0
        text = ("[model]\nfamily = isotropic_stable\nalpha = 1.5\n[drift]\nname = cos_time\n"
                "[kolmogorov]\nt = 0.25\npoints = 512\nn_time = 64\n")
        out = tmp_path / "kol"
        assert cli.main(["kolmogorov", "--config", write(tmp_path, text),
                         "--out-dir", str(out)]) == 0
        grid = spectral.SpaceGrid(16 * math.pi, 512)
        sol = spectral.picard_solve(drift_cos_time(), None, 0.25,
                                    LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), grid,
                                    n_time=64)
        expected = tmp_path / "expected.csv"
        spectral.write_csv(expected, "x,u,grad_u",
                           np.column_stack([grid.nodes, sol.u[0], sol.grad_u[0]]))
        assert (out / "kolmogorov_u0.csv").read_bytes() == expected.read_bytes()

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
        model = LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)
        loaded = load_batch(out / "increments.bin", model)
        direct = increments(model, 1.0, 64, RngStream(5, 0))
        assert np.array_equal(loaded.values, direct.values)
        assert (out / "increments.bin.csv").exists()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_csv_is_savetxt_of_the_batch(self, dim, tmp_path):
        text = (f"[model]\nfamily = brownian\ndim = {dim}\n"
                "[sample]\nt = 1.0\nn = 64\nseed = 5\ncsv = true\n")
        out = tmp_path / "dump"
        assert cli.main(["sample", "--config", write(tmp_path, text),
                         "--out-dir", str(out)]) == 0
        batch = increments(LevyModel(Family.BROWNIAN, dim=dim), 1.0, 64, RngStream(5, 0))
        expected = tmp_path / "expected.csv"
        np.savetxt(expected, batch.values, delimiter=",", comments="", newline="\n",
                   header=",".join(f"dL_{i + 1}" for i in range(dim)))
        assert (out / "increments.bin.csv").read_bytes() == expected.read_bytes()
