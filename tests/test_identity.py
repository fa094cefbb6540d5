"""sha256 pins over small fixed matrices of the simulation layer, so a claim
that a change keeps every bit is checked here rather than rebuilt by hand.

Pinned: ``euler_ladder`` terminal states and sup gaps for both variants in
d = 1 and 3 on fixed noise (including no levels, a level of factor 1, a
single path, step counts below and not a multiple of the ladder's
gap-buffer length); ``mc_strong_error`` means and stderrs at 300 paths (one
full block and one partial block) for stable noise and, through the jump
decomposition, tempered and truncated stable noise; ``increments`` at small
``n`` for every catalog family
that has a sampler, and at ``n = 512`` (about 32,000 jumps) for the
jump-decomposition families; ``density_fft`` for six families at jittered
times; ``picard_solve`` over families, drifts (one of which halves the
horizon), step counts and array, callable and zero sources; the test
oracle ``radial_q`` for the three radial densities around their piece edge,
recorded from the library's former ``RadialDensity.q``; and every file that
``levyem sample`` and ``levyem converge`` write for the four
jump-decomposition models, which no benchmark golden covers.

Regenerate the table with

    PYTHONPATH=src python tests/test_identity.py

which prints ``SHA256`` as it should read.  A change that moves a digest on
purpose re-records its rows and lists the largest differences in CHANGES.md.
"""

import contextlib
import hashlib
import io
import math
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from levyem import cli
from levyem.engine import DriftSpec, drift_cos, drift_cos_time, drift_rough, euler_ladder
from levyem.harness import ExperimentConfig, mc_strong_error
from levyem.models import Family, LevyModel, SubFamily, SubordinatorSpec, radial_density
from levyem.rng import RngStream
from levyem.samplers import increments
from levyem.spectral import SpaceGrid, density_fft, picard_solve
from oracles import radial_q

LADDER_DRIFTS = {"cos_time": drift_cos_time(), "rough_sin": drift_rough(0.5)}
# (n, factors): no levels, a factor-1 level, n below 16 and n not a multiple of 16
LADDER_GRIDS = ((1, ()), (15, ()), (45, ()), (1, (1,)), (15, (1, 3, 5)),
                (45, (1, 3, 5)), (8, (2, 4, 8)), (40, (8, 4, 2)), (48, (16,)),
                (64, (32, 8, 2)))
LADDER_PATHS = 5
# a single path: the ladder's per-path axis has length one
ONE_PATH_GRIDS = ((15, (1, 3, 5)), (64, (32, 8, 2)))


def ladder_bytes(variant, drift, d, n, factors, paths=LADDER_PATHS):
    # heavy-tailed fixed noise that does not depend on any library sampler
    gen = RngStream(31, 100 * d + n).generator()
    noise = gen.standard_cauchy((paths, n, d)) * (1.0 / n) ** (1.0 / 1.5)
    x_T, sup = euler_ladder(LADDER_DRIFTS[drift], 0.3, 1.0, noise, factors, variant)
    return x_T.tobytes() + sup.tobytes()


MC_CONFIGS = {
    "stable-1.5-d1-cos-frozen": (LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), drift_cos(),
                                 "frozen"),
    "stable-1.5-d1-cos_time-timeint": (LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5),
                                       drift_cos_time(), "timeint"),
    "stable-1.5-d3-cos-frozen": (LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5, dim=3),
                                 drift_cos(), "frozen"),
    # the jump path: poisson, multinomial, shuffle and spare-32-bit integers draws
    "tempered-1.5-1-cos_time-timeint": (LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
                                        drift_cos_time(), "timeint"),
    "truncated-1.5-cos_time-timeint": (LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
                                       drift_cos_time(), "timeint"),
}


def mc_bytes(name):
    model, drift, variant = MC_CONFIGS[name]
    table = mc_strong_error(ExperimentConfig(
        model=model, drift=drift, x0=0.1, T=1.0, p=1.0, n_list=(4, 8, 16), n_ref=128,
        paths=300, seed=17, variant=variant))
    fields = table.means + table.stderrs + (table.paths, table.flagged)
    return repr([float(v).hex() for v in fields]).encode()


SAMPLER_MODELS = {
    "brownian-d1": LevyModel(Family.BROWNIAN),
    "brownian-d3": LevyModel(Family.BROWNIAN, dim=3),
    "isotropic-1.5-d1": LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5),
    "isotropic-1.5-d3": LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5, dim=3),
    "relativistic-1.5-1-d1": LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0),
    "relativistic-1.5-1-d3": LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0, dim=3),
    "subordinated-stable-0.75-d2": LevyModel(
        Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.75), dim=2),
    "subordinated-tempered-0.6-1-d1": LevyModel(
        Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.6, 1.0)),
    "tempered-1.5-1": LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
    "truncated-1.5": LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
    "layered-1.5-2.5": LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
}


def increments_bytes(name):
    return increments(SAMPLER_MODELS[name], 0.5, 16, RngStream(23, 4)).values.tobytes()


# about 64 jumps per step: several chunks of the jump path and a partial last one
LONG_SAMPLER_MODELS = {
    "tempered-1.5-1": LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
    "tempered-1.3-2": LevyModel(Family.TEMPERED_STABLE, alpha=1.3, m=2.0),
    "truncated-1.5": LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
    "layered-1.5-2.5": LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
}


def long_increments_bytes(name):
    return increments(LONG_SAMPLER_MODELS[name], 1.0, 512, RngStream(29, 6)).values.tobytes()


def _hex(values):
    return repr([float(v).hex() for v in values]).encode()


SPECTRAL_MODELS = {
    "brownian": LevyModel(Family.BROWNIAN),
    "isotropic-1.5": LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5),
    "relativistic-1.7-1": LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.7, m=1.0),
    "tempered-1.5-1": LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
    "truncated-1.5": LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
    "layered-1.5-2.5": LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
}
# five jittered times, none twice another
DENSITY_TIMES = (0.0512, 0.0981, 0.2043, 0.3962, 0.8127)
DENSITY_GRID = SpaceGrid(64.0, 2 ** 12)


def density_bytes(name, t):
    table = density_fft(SPECTRAL_MODELS[name], t, DENSITY_GRID)
    return (table.values.tobytes() + table.deriv1.tobytes() + table.deriv2.tobytes()
            + _hex([table.mass]))


PICARD_MODELS = ("isotropic-1.5", "brownian", "relativistic-1.7-1", "tempered-1.5-1")
# (drift, T, solver keywords); "strong" halves the horizon in some cases
PICARD_DRIFTS = {
    "cos": (drift_cos(), 0.25, {}),
    "cos_time": (drift_cos_time(), 0.25, {}),
    "rough_sin": (drift_rough(0.7), 0.25, {}),
    "strong": (DriftSpec(lambda t, x: 5.0 * np.cos(x + t), 1.0, 1.0), 0.5,
               {"target_ratio": 0.5}),
}
PICARD_GRID = SpaceGrid(16 * math.pi, 512)
PICARD_SOURCES = {
    "array": np.cos(PICARD_GRID.nodes),
    "callable": lambda t: np.cos(PICARD_GRID.nodes + 2.0 * t),
    "zero": np.zeros(PICARD_GRID.n_points),
}


def picard_bytes(name, drift, n_time, source):
    fn, T, kwargs = PICARD_DRIFTS[drift]
    sol = picard_solve(fn, PICARD_SOURCES[source], T, SPECTRAL_MODELS[name], PICARD_GRID,
                       n_time=n_time, **kwargs)
    cert = sorted(sol.certificate.items())
    scalars = (sol.diffs + (sol.horizon, sol.halvings, sol.converged, sol.certified,
                            sol.kappa, sol.residual) + tuple(v for _, v in cert))
    return (sol.u.tobytes() + sol.grad_u.tobytes() + sol.times.tobytes()
            + repr([k for k, _ in cert]).encode() + _hex(scalars))


# 0, the piece edge 1 and its two neighbours, and points in and past each piece
RADIAL_Q_POINTS = np.array([0.0, 1e-3, 0.37, np.nextafter(1.0, 0.0), 1.0,
                            np.nextafter(1.0, 2.0), 2.5, 40.0])


def radial_q_bytes(name):
    density = radial_density(SPECTRAL_MODELS[name])
    # a scalar argument gives a float, inside the first piece and at its edge
    return (radial_q(density, RADIAL_Q_POINTS).tobytes()
            + _hex([radial_q(density, 0.37), radial_q(density, 1.0)]))


CLI_MODELS = {
    "tempered-1.5-1": "family = tempered_stable\nalpha = 1.5\nm = 1.0\n",
    "tempered-1.3-2": "family = tempered_stable\nalpha = 1.3\nm = 2.0\n",
    "truncated-1.5": "family = truncated_stable\nalpha = 1.5\n",
    "layered-1.5-2.5": "family = layered_stable\nalpha = 1.5\nlambda_tail = 2.5\n",
}
CLI_SECTIONS = {
    "sample": "[sample]\nt = 1.0\nn = 64\nseed = 11\ncsv = true\n",
    "converge": ("[drift]\nname = cos\n[experiment]\np = 1.0\nn_list = 4,8,16\n"
                 "n_ref = 128\npaths = 100\nseed = 5\n"),
}
CLI_FILES = {"sample": ("increments.bin", "increments.bin.csv"),
             "converge": ("report.csv", "report.json")}


@lru_cache(maxsize=None)
def cli_artifacts(name, command):
    """Every file one ``levyem <command>`` run writes, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("[model]\n" + CLI_MODELS[name] + CLI_SECTIONS[command])
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):  # keep the printed table clean
            assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}


def cli_bytes(name, command, file):
    artifacts = cli_artifacts(name, command)
    assert sorted(artifacts) == sorted(CLI_FILES[command])  # and no other file
    return artifacts[file]


def _cases():
    cases = {}
    for variant in ("frozen", "timeint"):
        for drift in LADDER_DRIFTS:
            for d in (1, 3):
                for n, factors in LADDER_GRIDS:
                    key = f"ladder/{variant}/{drift}/d{d}/n{n}/f{','.join(map(str, factors))}"
                    cases[key] = (ladder_bytes, variant, drift, d, n, factors)
                for n, factors in ONE_PATH_GRIDS:
                    key = f"ladder-1path/{variant}/{drift}/d{d}/n{n}/f{','.join(map(str, factors))}"
                    cases[key] = (ladder_bytes, variant, drift, d, n, factors, 1)
    cases.update({f"mc/{name}": (mc_bytes, name) for name in MC_CONFIGS})
    cases.update({f"increments/{name}": (increments_bytes, name) for name in SAMPLER_MODELS})
    cases.update({f"increments-512/{name}": (long_increments_bytes, name)
                  for name in LONG_SAMPLER_MODELS})
    for name in SPECTRAL_MODELS:
        for t in DENSITY_TIMES:
            cases[f"density/{name}/t{t}"] = (density_bytes, name, t)
    for name in PICARD_MODELS:
        for drift in PICARD_DRIFTS:
            for n_time in (1, 2, 37):
                for source in PICARD_SOURCES:
                    key = f"picard/{name}/{drift}/n{n_time}/{source}"
                    cases[key] = (picard_bytes, name, drift, n_time, source)
    for name in ("tempered-1.5-1", "truncated-1.5", "layered-1.5-2.5"):
        cases[f"radial-q/{name}"] = (radial_q_bytes, name)
    for name in CLI_MODELS:
        for command, files in CLI_FILES.items():
            for file in files:
                cases[f"cli/{name}/{command}/{file}"] = (cli_bytes, name, command, file)
    return cases


CASES = _cases()


def digest(key):
    fn, *args = CASES[key]
    return hashlib.sha256(fn(*args)).hexdigest()


SHA256 = {
    "ladder/frozen/cos_time/d1/n1/f":
        "b45f91d6d9d5f0f4a8ee0e7633e564a7e8bc312de7cecf35009dd6b84651238b",
    "ladder/frozen/cos_time/d1/n15/f":
        "1619f056b5c2d3a462c4e4c52de78f8718ed0e4306a2dd0dbbb3d01755384a47",
    "ladder/frozen/cos_time/d1/n45/f":
        "862ad7972b8f47cce95f5f9913c62b146686e197aa366e2ef12c30fd09e5163e",
    "ladder/frozen/cos_time/d1/n1/f1":
        "3528aad810eb9da9b0289d4f66ffaed1544fbd53162c29f7e9066f92b7361709",
    "ladder/frozen/cos_time/d1/n15/f1,3,5":
        "3e57dcdb84a0b6c0a7c9d9bbc0298e3d2609512042eafffa09521680aa95f3b5",
    "ladder/frozen/cos_time/d1/n45/f1,3,5":
        "8070a660ac287dd1ee01d5b1dc67d31e7d4b19b5cd4a39f37a39f5ee8bf9a228",
    "ladder/frozen/cos_time/d1/n8/f2,4,8":
        "8a19ed7d2e9762f736c6b1f3fc656c9e9b2e608b16d05cad9fbe5f5ff3bf2ac1",
    "ladder/frozen/cos_time/d1/n40/f8,4,2":
        "a811f1709db279974af74b1ed8f89712c7b714179f635210613713bf5c0cf5b1",
    "ladder/frozen/cos_time/d1/n48/f16":
        "57e9b3b010fc4b09d483eda86bfaab42311ac65ad25b02ee4883e3644ed14d20",
    "ladder/frozen/cos_time/d1/n64/f32,8,2":
        "41032d2e20968a819a8db4ee887e5de561857265f86b132733f8d5cff313c89a",
    "ladder-1path/frozen/cos_time/d1/n15/f1,3,5":
        "b97fca7b4ac618fac934d38dfd1c7b6ff20d136928b3797cecadc7e1602fc06e",
    "ladder-1path/frozen/cos_time/d1/n64/f32,8,2":
        "299c18a9790a845b11b4d5a57f65a1a3158a46b334f776bc08d733c4c3cd7c78",
    "ladder/frozen/cos_time/d3/n1/f":
        "1843e848568ac4616bed766d11909d5c33034cac1da8682a33e3aac285484549",
    "ladder/frozen/cos_time/d3/n15/f":
        "a31d54d74bc899729dcb6fba464ee1378b2da0acf2a50639aaccf9d0d5bd5ccd",
    "ladder/frozen/cos_time/d3/n45/f":
        "ab63159e1d79197e022b77c61606b342f52598b7916d9822281b49a0f1752c68",
    "ladder/frozen/cos_time/d3/n1/f1":
        "ce209ee2734a5c7dfdecc80140376c025fe14c9666a0ea492fd8d70cc19922f5",
    "ladder/frozen/cos_time/d3/n15/f1,3,5":
        "a8d557f7ef01e7e01c0b17d7a3cdb822e253b2a744982dc0aad995ca2de276bd",
    "ladder/frozen/cos_time/d3/n45/f1,3,5":
        "a58792d4ec1b65a06228593b01931dc6349768a1aa7c34e4c3f821cff72938e8",
    "ladder/frozen/cos_time/d3/n8/f2,4,8":
        "4268289094636489207f715d6781ae49605bbdd2c02dfa95f43a39bcacffeb9d",
    "ladder/frozen/cos_time/d3/n40/f8,4,2":
        "0da860d2cfef43a00c9d37375a53834624c59ceb18d173467bdf88dff56029d2",
    "ladder/frozen/cos_time/d3/n48/f16":
        "2eedd3eca26ec66c22fe565bc29eff9b331493de82ebce4193a6758cb9476ed5",
    "ladder/frozen/cos_time/d3/n64/f32,8,2":
        "570c5522af8581c7f70cdd11b3210d790894a65756bdb3396f929cd8db136c39",
    "ladder-1path/frozen/cos_time/d3/n15/f1,3,5":
        "c673630c9b0ff20b23fc91f5c73f97ec1ceeda13461b21d883bc41833337709e",
    "ladder-1path/frozen/cos_time/d3/n64/f32,8,2":
        "9fd64e82ae745f3c5fb84bd758db1fcabae412d03941a50096a6d7a5a4c5df6d",
    "ladder/frozen/rough_sin/d1/n1/f":
        "510cc10f127259b083952d9beda6dbf1203c901703a24ffe806a16fc0a0198c8",
    "ladder/frozen/rough_sin/d1/n15/f":
        "d910f3d1e3295c3e19b7616b2f36ff5d93ffaa7eba268c16ce8b82e2dffbd3a8",
    "ladder/frozen/rough_sin/d1/n45/f":
        "8c314f13b8d11d0e398efcc2f272f185cd2a7b837c6412efd79eaa39ba90af8f",
    "ladder/frozen/rough_sin/d1/n1/f1":
        "9861bd8df441daf87d97c57380d0959613ab5b0acdba6915aada1bbe32070993",
    "ladder/frozen/rough_sin/d1/n15/f1,3,5":
        "2733e433ca79c2b6d6912a2751d7ad42e082b5b7ee88324c5d53b6d7caf6de1c",
    "ladder/frozen/rough_sin/d1/n45/f1,3,5":
        "e1b7a8e19a9f2e4a2e8182b814c7a83bea56ed4ca669114a7e8e25545d7ddc83",
    "ladder/frozen/rough_sin/d1/n8/f2,4,8":
        "cca2aed8218e558eb153713347c01a5f24da1773d3d55067617f2dc5ba019a88",
    "ladder/frozen/rough_sin/d1/n40/f8,4,2":
        "d9d02d55063baac9de640f9490cbe3a16911776ba34290c1769b5a7e5eb4f650",
    "ladder/frozen/rough_sin/d1/n48/f16":
        "619d97f381753873c77ab4255bc62652596e09315dd3845b2c5d5e96738c20a9",
    "ladder/frozen/rough_sin/d1/n64/f32,8,2":
        "2e60cc390d6940f12ba98b81264f68f1d1f7030bf36eeafd8edddf6bc8261e03",
    "ladder-1path/frozen/rough_sin/d1/n15/f1,3,5":
        "5d6b0cc4e3c69241f6d9b52cba31912421a0c31db71ce8674d942ef67288bd1e",
    "ladder-1path/frozen/rough_sin/d1/n64/f32,8,2":
        "957b7f5323514250d9205ab200319e207f677af9f9a8ff59312cc934da04ab02",
    "ladder/frozen/rough_sin/d3/n1/f":
        "98c10fe31c5544d6ac71b687e3b73f29f4c47ea9fb1d9f8fabf1e45472ce558c",
    "ladder/frozen/rough_sin/d3/n15/f":
        "a87b0093906f754f9125355faabb386bf19ae6efb924daac4412b79c5da149c0",
    "ladder/frozen/rough_sin/d3/n45/f":
        "d162f0e791cda96f90459c22d1b186b601bb21e17493356be498c38122041b3d",
    "ladder/frozen/rough_sin/d3/n1/f1":
        "e4e5e13e0f72f824b27f990b4627492662ae945cd1b841842895d48f41b067f7",
    "ladder/frozen/rough_sin/d3/n15/f1,3,5":
        "1372b28325fbabb4a3d8b61d302fdd8b4d45312056b30d17802159c1ba8b51e5",
    "ladder/frozen/rough_sin/d3/n45/f1,3,5":
        "065631ae39b1a74346e1d23394346973cc4624efc24e293a33478c6be9a37b37",
    "ladder/frozen/rough_sin/d3/n8/f2,4,8":
        "c31f8168c55d3f28987c979b755714f39a841268b5a3b51c12df99630fae22fb",
    "ladder/frozen/rough_sin/d3/n40/f8,4,2":
        "9dd0dd25622f572bba96a35cc7248ae7083a49ce0ba505a9e7d884dbc7efa69d",
    "ladder/frozen/rough_sin/d3/n48/f16":
        "9c829bd458ae286bc9652c723f950211eeb215762c70dfd3c3f906d61aba472b",
    "ladder/frozen/rough_sin/d3/n64/f32,8,2":
        "efae3fda07797bc497eea7157bb607c34cbd851e979bd94d46faa9d8fee6b45a",
    "ladder-1path/frozen/rough_sin/d3/n15/f1,3,5":
        "c6f05858fd449ef1d2db93ef48ec56374019dab4337a893fb8dac3753d2a870d",
    "ladder-1path/frozen/rough_sin/d3/n64/f32,8,2":
        "567ac2f6c06d0f65dfdd2ab16f4733e88e3a9c7bd8be2429024694958c9051bc",
    "ladder/timeint/cos_time/d1/n1/f":
        "9e9b9b2bb28a10b36db73ee6919f03a85cc467c041df97365a20841a5ec633f1",
    "ladder/timeint/cos_time/d1/n15/f":
        "cb13bd7a1533636aa51a1a23132af72abe2f991334bab6cc837fc31327ebaf24",
    "ladder/timeint/cos_time/d1/n45/f":
        "79ce0e6a6e7a252c5f095c721a9c0af9ddbaa3ba6bb175d4063a47ed20e652a7",
    "ladder/timeint/cos_time/d1/n1/f1":
        "178a3254b66c906d8187e8b8464fccfceea2656cb2373b7a339fa7311248d40f",
    "ladder/timeint/cos_time/d1/n15/f1,3,5":
        "f6c49bfe97f5ef3ce2a4484f5bbae649e7e8cea4fb2ffb801d613a0bd155d3d1",
    "ladder/timeint/cos_time/d1/n45/f1,3,5":
        "3c1d78a87932f9e7bb66775f0299fcea7fd410ddb98a24032022b0304c6891d8",
    "ladder/timeint/cos_time/d1/n8/f2,4,8":
        "ad3d3c64796c48e8930fd95ecc1f7e777c1d71bf97066348d8149e16b6fa0567",
    "ladder/timeint/cos_time/d1/n40/f8,4,2":
        "9e7c0fd26c0dd19b7055ce9f265105fa01ce2d0a9b9bd0a1a74990dff264b569",
    "ladder/timeint/cos_time/d1/n48/f16":
        "7cb79fb730ee27818d039b9759f94c0225344221dc5ca8a7cbe641219147a7a1",
    "ladder/timeint/cos_time/d1/n64/f32,8,2":
        "f7790869b7cb5a97f02b63310f39bf1cc5928eed0726f6cb47b7de9b3541da1b",
    "ladder-1path/timeint/cos_time/d1/n15/f1,3,5":
        "3190956cb8675253c216249a6962f4927a20d61839a1aa2d039fd73ae402ef6d",
    "ladder-1path/timeint/cos_time/d1/n64/f32,8,2":
        "e90927c1010f48baead9e3ecd5216300c2ef662131903c4ae03f7a8ce4e032aa",
    "ladder/timeint/cos_time/d3/n1/f":
        "8c8f5c0e8c9a5533f36e9f11eb6d5e3a0d75695620f6570767d1c7bd93ebe480",
    "ladder/timeint/cos_time/d3/n15/f":
        "3d5931dee852db58168ea18ef19700b95c24e4d8de261450fdaa03236998ddc1",
    "ladder/timeint/cos_time/d3/n45/f":
        "fd0c081ea190a68c1dfe227a6750f31ead29338c7c221ee8c2ded76ea48ea6f9",
    "ladder/timeint/cos_time/d3/n1/f1":
        "2029ecd67aa7c165ed85e84fb9e5552032725f9b08d699818fd52817c643db7d",
    "ladder/timeint/cos_time/d3/n15/f1,3,5":
        "58afe405d4c254fece000ae0af506fcbedc9d4af25f0eecf8aee2a4511d6d89c",
    "ladder/timeint/cos_time/d3/n45/f1,3,5":
        "9c1d28640d5295463acf67bcd4d6e5ba1d6718ae9448825a06229885ea893cd3",
    "ladder/timeint/cos_time/d3/n8/f2,4,8":
        "cfd5bb755cbd6da5c57d51c7fa86ef427c9755e30bcfaa1a7d41aee9d0aab8f0",
    "ladder/timeint/cos_time/d3/n40/f8,4,2":
        "a876bac5f7073fe5b8bdea06235ce337283ee868cbb61bef3df0195ea498f66c",
    "ladder/timeint/cos_time/d3/n48/f16":
        "55278bb1c12dc460f9d9f25743031648c730057049e021493e306fd63eac6645",
    "ladder/timeint/cos_time/d3/n64/f32,8,2":
        "688af18c4493f1cc6fd47772c1cf1e1f7bdf93deff7dcb0979db2fc91fe22245",
    "ladder-1path/timeint/cos_time/d3/n15/f1,3,5":
        "d548ce97ce6fb5af9a275af55f9934bd111c5e760471414f269926fd370af8b3",
    "ladder-1path/timeint/cos_time/d3/n64/f32,8,2":
        "9994b40c8e6bfa904fd142e53cda196aec3aecdcc98b9f3a95028276bbddd2ac",
    "ladder/timeint/rough_sin/d1/n1/f":
        "89f289411e5d5a1c0a9246d2f74c3396dcc59490a4c4adcd53df13ba7d43a236",
    "ladder/timeint/rough_sin/d1/n15/f":
        "d910f3d1e3295c3e19b7616b2f36ff5d93ffaa7eba268c16ce8b82e2dffbd3a8",
    "ladder/timeint/rough_sin/d1/n45/f":
        "19fb78ac353ba5f36285a7c344d15a4544212b75dde48df38ed5544145c5f001",
    "ladder/timeint/rough_sin/d1/n1/f1":
        "420370949cef4ea9c4fb320c60ccbfdd4ff27f77aef7f4a3a16524c50f21f7cc",
    "ladder/timeint/rough_sin/d1/n15/f1,3,5":
        "2733e433ca79c2b6d6912a2751d7ad42e082b5b7ee88324c5d53b6d7caf6de1c",
    "ladder/timeint/rough_sin/d1/n45/f1,3,5":
        "2ec203e5904774ba63386223fdd355d23adeacc7753dc58c69b60ba992519122",
    "ladder/timeint/rough_sin/d1/n8/f2,4,8":
        "bd228c393acecf9ecd1e0d22ca1b2244632de2ec8960854068a2a6ba5b8bae8a",
    "ladder/timeint/rough_sin/d1/n40/f8,4,2":
        "cd001a1188d37b973ec878347bb27a92c02a8158d8311cb27243a0b9ed85ddd3",
    "ladder/timeint/rough_sin/d1/n48/f16":
        "7ed28f0cf120d36d3411639d43ea32b1fe660612a145927e2d10724b920ac065",
    "ladder/timeint/rough_sin/d1/n64/f32,8,2":
        "518db77a8f30a1fb76047702e31dfff7a62be7bfe3d3d5274ea6be8755586ede",
    "ladder-1path/timeint/rough_sin/d1/n15/f1,3,5":
        "5d6b0cc4e3c69241f6d9b52cba31912421a0c31db71ce8674d942ef67288bd1e",
    "ladder-1path/timeint/rough_sin/d1/n64/f32,8,2":
        "957b7f5323514250d9205ab200319e207f677af9f9a8ff59312cc934da04ab02",
    "ladder/timeint/rough_sin/d3/n1/f":
        "7e53a3d0c20335d80897b257c9ceeed42b4ef4e60fbe77600dbf8348d5b6b7d0",
    "ladder/timeint/rough_sin/d3/n15/f":
        "5adc1b21e2058eb54478bccca98ab078f8f545de7c31a9ef62d4b767193d7e6a",
    "ladder/timeint/rough_sin/d3/n45/f":
        "d162f0e791cda96f90459c22d1b186b601bb21e17493356be498c38122041b3d",
    "ladder/timeint/rough_sin/d3/n1/f1":
        "c74856592f4fcc3ae460228d08d77ab3ec6e673af74d38e88ab513d0c7376212",
    "ladder/timeint/rough_sin/d3/n15/f1,3,5":
        "4b107727a75d811a756c8f887ef7d949dac3c1335c215a9811f5466be2507997",
    "ladder/timeint/rough_sin/d3/n45/f1,3,5":
        "a5badb82e5b63228c4ac1c2532cb322a49b14ee9e69d8d814446e16faca2a369",
    "ladder/timeint/rough_sin/d3/n8/f2,4,8":
        "a1cc7c1a83623082f25c6efedd81e4ccf54e86ea686efde095dbf2b481991e6e",
    "ladder/timeint/rough_sin/d3/n40/f8,4,2":
        "ee67a6e5cf3debb4741e971a53d6d44376c9c802ccf753c089c366e5d5cd1a66",
    "ladder/timeint/rough_sin/d3/n48/f16":
        "ac16a81d61cdd7fec08a02e206e916114242793ea3e50030940e8bde56ff4b2d",
    "ladder/timeint/rough_sin/d3/n64/f32,8,2":
        "1724a80069659ecf252fa233ed3c664370bfe8d27beec9022e50a31864ca90bf",
    "ladder-1path/timeint/rough_sin/d3/n15/f1,3,5":
        "c6f05858fd449ef1d2db93ef48ec56374019dab4337a893fb8dac3753d2a870d",
    "ladder-1path/timeint/rough_sin/d3/n64/f32,8,2":
        "890fce2685b09691fac58e08ba879456aa4d7ea52d61157ed5d878143ccb316e",
    "mc/stable-1.5-d1-cos-frozen":
        "42831693ec247275187f3b16abd5b8dc6d1b1589a7be171040ebe5b252a40442",
    "mc/stable-1.5-d1-cos_time-timeint":
        "eda48608528b47b29d42df27941346748173195fec47f733a7eb17624db607e1",
    "mc/stable-1.5-d3-cos-frozen":
        "791f118dd4ebcf64104cd9612b1bd87db9666a4e5989ffef44c47edb6adc5199",
    "mc/tempered-1.5-1-cos_time-timeint":
        "77284f4526b3d25a410209c32c4397e7c8e54443d142140e7e991a6f902e9fb1",
    "mc/truncated-1.5-cos_time-timeint":
        "6697f6f24061502ab6c79964ea17112f7e102efca539515078197de03aa2c599",
    "increments/brownian-d1":
        "e8ac2cc30d5de418a8d9d139adbf633d109ef164c83f076b892b68c65ccf0999",
    "increments/brownian-d3":
        "510a16d2595ae0ad39993d74b7540661f42c256999d72243cce75043badb6062",
    "increments/isotropic-1.5-d1":
        "24337ea28da439ea4a2a9d8e37405e180092f76ed56104156105c6534496d20b",
    "increments/isotropic-1.5-d3":
        "ec40ec3875dd0e508ed9dded7884a9f5356c77d72bd269342698a1154a28e7a1",
    "increments/relativistic-1.5-1-d1":
        "d37c214d41b0107335f3869cc9911dd259c7ae54975423c8272994564a19365f",
    "increments/relativistic-1.5-1-d3":
        "6f59c0c54bdcdf1701dbb9f034013f872404faff308f48f50d84852ef444a187",
    "increments/subordinated-stable-0.75-d2":
        "6580714c8316fe32427b401661d768f5f05e03377d04faaadfbddbe446f97ef1",
    "increments/subordinated-tempered-0.6-1-d1":
        "163c5608ba9e9f1a3954264de60c8f603decc48fe1dffec247691c3a5460b0cf",
    "increments/tempered-1.5-1":
        "ce3085753472e07534d9f79b9dfa34da8e1046d65ba8e185636a9cdfb68b6d86",
    "increments/truncated-1.5":
        "dfafc12b707b8cf7c142c3a307b65f56b4318a440d4ee5cdd7da705bb9fea5c9",
    "increments/layered-1.5-2.5":
        "6116c2560d15bca188a605de8fad9da62e4ff8e474082fbb6353f368356fce8d",
    "increments-512/tempered-1.5-1":
        "364811c79c7f80265922c80b0f894cc4c6f54407d93c4b6017fc5a6241612f76",
    "increments-512/tempered-1.3-2":
        "6b32ef47656f0f1bc59cd8c84e5ea7c83bff84c5825b36da45c0306999af5370",
    "increments-512/truncated-1.5":
        "f01bd8bb0451c5de32c1cde94dbb1bd78f5a15db5c7a2889fbcc3df5efa0aaeb",
    "increments-512/layered-1.5-2.5":
        "27a621d5fd4eb7ce130e143cd353e49493eafa592d7356ee5e7a9619cf4bf5f9",
    "density/brownian/t0.0512":
        "bc42cffdda79e42f4490d0373e53d502d51c5195afb7c39c66406496e1291bd6",
    "density/brownian/t0.0981":
        "7ccdd82474bd52f9585152c8ad4f332abdfe054bd65e5613617461ccfdd56039",
    "density/brownian/t0.2043":
        "ec7c95f606f3dd6106bc681fdeab1022c779c91c50fc5ec370213b49580ce546",
    "density/brownian/t0.3962":
        "1b15b7ebeab0294314412889ca2564533ec0b41016b17cc286d0df0b48b60476",
    "density/brownian/t0.8127":
        "168e10838dc973197e13c5c79f0b96055de77194081788bacf63ef46e702effa",
    "density/isotropic-1.5/t0.0512":
        "fd9bdff7e3b4df39186f0c18b4999dc7ecbb5210f9b5e5db0b6306dc048342fa",
    "density/isotropic-1.5/t0.0981":
        "1ef724bab02bdfc0de982767909938bcc6405f2df696b167306aa4e630dda298",
    "density/isotropic-1.5/t0.2043":
        "14c9053d11de8250aa9d10367a87423cbc375d7b615e2ff677ca8a9f9c646f0f",
    "density/isotropic-1.5/t0.3962":
        "96b67b919bfe565ecaff63a77034d8cb9fcba6c807171c76ce1a3a372a0b53eb",
    "density/isotropic-1.5/t0.8127":
        "bb75910f68033b31f9ae9bb82d09b86e8d8124681da7ef8d3e335808c57d1df0",
    "density/relativistic-1.7-1/t0.0512":
        "bf3a4b8579678ed90438b915a58aeda18431be475015af71e84df50e113e25e9",
    "density/relativistic-1.7-1/t0.0981":
        "c70a6fa1e5fe867fcb07bd2f2553ab557474bcab32d95ce19c71c96ef3a3ba04",
    "density/relativistic-1.7-1/t0.2043":
        "4224ac5f5b3e98f95f8d0254db4076601d856ad6b2af5a65c8b7f3ea9ad140e6",
    "density/relativistic-1.7-1/t0.3962":
        "6337222551900fd837cc68e7fa1cc5e0929d34dbdc332659e6f04cbab733f315",
    "density/relativistic-1.7-1/t0.8127":
        "1ab52fbe2b1c591ef5f388ff2e4b8dd48ebdc5be3554f9b7442ac27ac2a713dd",
    "density/tempered-1.5-1/t0.0512":
        "49e8ffd048bcf0c3780b125d9441eda6dc4f61fbb28bdef111a6551f74b69bbc",
    "density/tempered-1.5-1/t0.0981":
        "d4ad7aa7b1772fa2f1e5d6394d2ad679b41f9844f7c809132425c8cffec00d7d",
    "density/tempered-1.5-1/t0.2043":
        "e70d798e8b3244ea456ca3d4c8aa4d2d9199a199b7fc286a663b9225f731acfc",
    "density/tempered-1.5-1/t0.3962":
        "3eea5f9915e8cea32b989f006fe87366cd46ff38394a8b2bd003d28dec8b2dcb",
    "density/tempered-1.5-1/t0.8127":
        "d119a08b104e8de5a2f5e9a881b45fa923255469dedbf8d7e7845dc51197473f",
    "density/truncated-1.5/t0.0512":
        "bf35cca2ffd244c2d4ad2fd92344cb83338e5ad0321a20dda497fa0c3a2b4bb4",
    "density/truncated-1.5/t0.0981":
        "2ad0024c723dabef40f8350a5707e219304127adbab974c8364bc0278867d0df",
    "density/truncated-1.5/t0.2043":
        "1e728c3cae2fbcc99c8ab90a67e9c131ea17d849779551268390cab38cbe1fa1",
    "density/truncated-1.5/t0.3962":
        "81b0534a97548c66a166c9350f68c9541e0ade02208c62a2937f1e9300ff65cb",
    "density/truncated-1.5/t0.8127":
        "2b79307b2ec6a74d7aa84fd22147b503094d020024e77b248373a47310a1e183",
    "density/layered-1.5-2.5/t0.0512":
        "9dd7c8247ac82005ac0f8ac2c805efc12ecda88be51e0bf28068b66cb7d47366",
    "density/layered-1.5-2.5/t0.0981":
        "c02d8a6ad4e9510060d68b74545777b3e7b96d1a861cf41e64f0fb8d06fa4dc1",
    "density/layered-1.5-2.5/t0.2043":
        "579f81e3d07b1f239c36e6275c8c7310a803f13fe3375fd5bdec9e498a915516",
    "density/layered-1.5-2.5/t0.3962":
        "e8ee0943d162f058d4927be29e93d3334b570b8402711dbf6c8a85956d2f896a",
    "density/layered-1.5-2.5/t0.8127":
        "96d2d98ea516eb7f348d04b8674960115fb56eebc4a7977b8040f384a8b83dca",
    "picard/isotropic-1.5/cos/n1/array":
        "b8aad21e674b96ed0313aa0d193085530affbdf5059187e6afe73cd341fb41d4",
    "picard/isotropic-1.5/cos/n1/callable":
        "8c3f10856cd2d3e3caaf4765dc7d15f0c41fe255ef7f3e8d9e71c25bfa2a9fe9",
    "picard/isotropic-1.5/cos/n1/zero":
        "9345d670624fceb97f7e6e3bb95bcfed90489e09162b7cc5ad78ce5685e3f9b8",
    "picard/isotropic-1.5/cos/n2/array":
        "a6d37ff098af709a60ae26ad65b72533b13b4756b4b267ac0c32b195dedc6d56",
    "picard/isotropic-1.5/cos/n2/callable":
        "00ee42277feb5874c2c38929927e7ba1a20f1135f6a123ca9e857e7e2fff2eb6",
    "picard/isotropic-1.5/cos/n2/zero":
        "234f46d38595d9689b332a68287da0543692d6adb545a0d2c1a7093e535a8437",
    "picard/isotropic-1.5/cos/n37/array":
        "341b8a74c7277d4f34b5f89053b4b9f766bcdc9405de0f006e1451e65ea5e286",
    "picard/isotropic-1.5/cos/n37/callable":
        "a23fd6bdb4c02adaf72183d5b1953453bbab2a2185bc3c6846673f7a6a16626f",
    "picard/isotropic-1.5/cos/n37/zero":
        "445c93540fa76e52487ef4a599ce29ba88ef10927dceb30b3e8d4ed28ea69c75",
    "picard/isotropic-1.5/cos_time/n1/array":
        "b8aad21e674b96ed0313aa0d193085530affbdf5059187e6afe73cd341fb41d4",
    "picard/isotropic-1.5/cos_time/n1/callable":
        "8c3f10856cd2d3e3caaf4765dc7d15f0c41fe255ef7f3e8d9e71c25bfa2a9fe9",
    "picard/isotropic-1.5/cos_time/n1/zero":
        "9345d670624fceb97f7e6e3bb95bcfed90489e09162b7cc5ad78ce5685e3f9b8",
    "picard/isotropic-1.5/cos_time/n2/array":
        "b89c9c621352302b7f354e4efb2459ed95bc5930e8902ebaf448c1a0169a63ad",
    "picard/isotropic-1.5/cos_time/n2/callable":
        "9ab93dd6260e0d024a253a987f06f0546804a54c9006a87f070dd975d4c8f9a1",
    "picard/isotropic-1.5/cos_time/n2/zero":
        "234f46d38595d9689b332a68287da0543692d6adb545a0d2c1a7093e535a8437",
    "picard/isotropic-1.5/cos_time/n37/array":
        "bb644bfa4c3db932fc83e6b49dfd5791a5ee69ed5c0bdc40fba1f18e63999b82",
    "picard/isotropic-1.5/cos_time/n37/callable":
        "7b4dca23f097882da5942dc54a244148c19062ab0bcbd03e37eaa887b10a107c",
    "picard/isotropic-1.5/cos_time/n37/zero":
        "445c93540fa76e52487ef4a599ce29ba88ef10927dceb30b3e8d4ed28ea69c75",
    "picard/isotropic-1.5/rough_sin/n1/array":
        "52e6ad6af72884090f7f044cd72aff706fa8fdfc88d28cf1a4252260744669e7",
    "picard/isotropic-1.5/rough_sin/n1/callable":
        "33b5a01e995896919d314a92b6a28b880d6593df639860d2994e8d77830e6cbd",
    "picard/isotropic-1.5/rough_sin/n1/zero":
        "fa23810a734c8c89b86a600b6402df0e0e2da9e638fe669156b3a79cbc3736fc",
    "picard/isotropic-1.5/rough_sin/n2/array":
        "f195a0a4c27db2e959c969c7eb2cb13adb0e664cf3e2991eb6993a3ba5d500b2",
    "picard/isotropic-1.5/rough_sin/n2/callable":
        "3ab8c6c0aff0942b439ed684d4c2791a74d7d4f956ac8f96813f51af875bf02f",
    "picard/isotropic-1.5/rough_sin/n2/zero":
        "13ab4f55580009b8a58ed63480a5cb000d3b18a8f00e590acaac511ff265eac1",
    "picard/isotropic-1.5/rough_sin/n37/array":
        "bf2dac3401cbc138213d6b563b47f600a1887acda0e97a857aa9d57c0e127d98",
    "picard/isotropic-1.5/rough_sin/n37/callable":
        "90b48239db2d51b72d0847a5cd26a65ab5f04e6b4f037cd114a7cde29908f5ed",
    "picard/isotropic-1.5/rough_sin/n37/zero":
        "bfa44b1b8aa12691749e299389fc91678d9bd1c2bffd85c837d55f4aca2a9add",
    "picard/isotropic-1.5/strong/n1/array":
        "be3d17ce45063b4b090314c22430bf66474204d01aa16f6c3497be0746064d2a",
    "picard/isotropic-1.5/strong/n1/callable":
        "31f466a44d5c173ddb37ba47e81643628ab112854a1ae2f24307f5f178779f80",
    "picard/isotropic-1.5/strong/n1/zero":
        "0f405726c4400e728d79f975ae2167f400def2564d9c0c996b5faede66b5b81d",
    "picard/isotropic-1.5/strong/n2/array":
        "321a42500773878ab8961ca63e4ae4dd18d8d0776d7cdcad630a447a00ab41a5",
    "picard/isotropic-1.5/strong/n2/callable":
        "1a60e61aa6e5236418ef6d4cb739c6d00912d565d9f22f70fa3d052f3a0784e5",
    "picard/isotropic-1.5/strong/n2/zero":
        "1d56f64f89d0c4645c15200a9ad36cc7f2a42da067cf06e130fa63151c49c521",
    "picard/isotropic-1.5/strong/n37/array":
        "6beb56e924336e9da2d2a27a9642efd05169a3575327bafb7dc4a41ff18d4658",
    "picard/isotropic-1.5/strong/n37/callable":
        "36b5ad20795d3c794cb908bf7499f9155d7ce12c89e84eca2809e989390b5dad",
    "picard/isotropic-1.5/strong/n37/zero":
        "081b4d5165851122047b8b141765cf95d7f4edddc2eb17e54bf28a9ad1318a38",
    "picard/brownian/cos/n1/array":
        "9c0cc1d62b4769be3a4a807319999ac1127708e83120694be56a5222040b370c",
    "picard/brownian/cos/n1/callable":
        "b9b6f51f7342b63ff54b85452eb0218a9e91c407151b1b1c518cd17d875509b5",
    "picard/brownian/cos/n1/zero":
        "0dada5035a419f2ab69a815eb2e9345f878e85e15269fd8267eb19c7a82b9783",
    "picard/brownian/cos/n2/array":
        "887c68a66443b129187d3a379ae8b75d2d56cfef97c29acfeeeeab2db032a62b",
    "picard/brownian/cos/n2/callable":
        "20db2bc19a7f16ce78d3cf419a905e2699530cfc1fbcd4467464344bd5185f2e",
    "picard/brownian/cos/n2/zero":
        "83036ec1f34979cc1972be593f8337ce1ccf120e6fdcef2a209c3b1f87b0c912",
    "picard/brownian/cos/n37/array":
        "6fb2da8ba14667ae03652eac50739623ea1c26ebf99e8563d0f3cda6811c6f0a",
    "picard/brownian/cos/n37/callable":
        "d6639c7dc3ed826ebf23803dbcf63e2eb51b37c26fe4fbd8fbaded776ab807c5",
    "picard/brownian/cos/n37/zero":
        "89b51a511efdeaabce3f6c91f2d708419d7fdd5c57f2a0555020423194246e47",
    "picard/brownian/cos_time/n1/array":
        "9c0cc1d62b4769be3a4a807319999ac1127708e83120694be56a5222040b370c",
    "picard/brownian/cos_time/n1/callable":
        "b9b6f51f7342b63ff54b85452eb0218a9e91c407151b1b1c518cd17d875509b5",
    "picard/brownian/cos_time/n1/zero":
        "0dada5035a419f2ab69a815eb2e9345f878e85e15269fd8267eb19c7a82b9783",
    "picard/brownian/cos_time/n2/array":
        "85aa866a96dde59273c356f5ab43e4e2ff738d4cf7f939b3496355bac4f9151f",
    "picard/brownian/cos_time/n2/callable":
        "b7d281d772036a5afca5f0923e0e972df1bc7e1bf579cc30390813538371d8d7",
    "picard/brownian/cos_time/n2/zero":
        "83036ec1f34979cc1972be593f8337ce1ccf120e6fdcef2a209c3b1f87b0c912",
    "picard/brownian/cos_time/n37/array":
        "3d570792014fd14488bbd0f26d9189fa485125f114219851444af9b04c544889",
    "picard/brownian/cos_time/n37/callable":
        "c7e047ad298ecf62350de2a1271df937d8952c55b4d6996eed99a088f8f92fa3",
    "picard/brownian/cos_time/n37/zero":
        "89b51a511efdeaabce3f6c91f2d708419d7fdd5c57f2a0555020423194246e47",
    "picard/brownian/rough_sin/n1/array":
        "a833482fa3d39c1706c1e9f5eaff6f8a3f16954072dce8c3aab39b91a92a185d",
    "picard/brownian/rough_sin/n1/callable":
        "1c58c4d10d6ed4295034f55f70b9e72f7df77035079ba41eaad5450e6e4d4737",
    "picard/brownian/rough_sin/n1/zero":
        "f9f9bfb77dded76cf4ac8efbee27a98f05383ce16c86de492989f685f4568bab",
    "picard/brownian/rough_sin/n2/array":
        "ca9e4556d531b3c477fb2f506f3f83417ccdd65915ed25eff2a502718e8ce035",
    "picard/brownian/rough_sin/n2/callable":
        "b800c2d2b35a40c55f4feda99896eb785c65c27445467c06d62ef2a57fef09fc",
    "picard/brownian/rough_sin/n2/zero":
        "9bbaccec8de09e0e35adb65d8f71461175d4e83999ade58bb27ef58b36012a79",
    "picard/brownian/rough_sin/n37/array":
        "b36de788d68d71b96f534e9612f244522a3dd317c1256261e9384f846671dcc2",
    "picard/brownian/rough_sin/n37/callable":
        "dd609da0e26dadf2665a58287038753160655dda90c24c41fee8b30af8f7e975",
    "picard/brownian/rough_sin/n37/zero":
        "cec8cbd27e9f0f3275a414271e14227a122a19591de4ed1d45778f351e0a3439",
    "picard/brownian/strong/n1/array":
        "fa82850a5b09b9ce6b05f3296bb0c839cb3f75b49ac19c7a2270f696a74e0122",
    "picard/brownian/strong/n1/callable":
        "bb817b6a143f2a93eb982ad084d8caa75553d7ca403c6c1743037006f201c31e",
    "picard/brownian/strong/n1/zero":
        "64e617db208c4246ed48be86bc56d84f755d3aff31a84ae0f6709ba36592434f",
    "picard/brownian/strong/n2/array":
        "8f56aad80ac1f3f3c8b8fa57e0cf4d04bb770d80f3c137cd9f903d335d3e1302",
    "picard/brownian/strong/n2/callable":
        "8db2b999c242075c449a383075b2789786e41b966a62c6f01e81904373f6abba",
    "picard/brownian/strong/n2/zero":
        "92966b59aca82ff95922f59e9bfc29968eaa569487823276a9649088f184af5d",
    "picard/brownian/strong/n37/array":
        "fc6debd071e85de47d5f51c886bf74ad02438498395cd008ac6bf1bb5bb0686c",
    "picard/brownian/strong/n37/callable":
        "71fdc6ae9acd839f1cb759dbf565307eea22ac75ab5245dd044238c5f35675f4",
    "picard/brownian/strong/n37/zero":
        "4c601948a0935a9b6e8f003cf7d71c97050f0ec273d115b17000e57709a49b6b",
    "picard/relativistic-1.7-1/cos/n1/array":
        "a53bb2966c57c9e5ab50cb4baf73808ccf19bbacccc31e6d4a2e3fe2fe28ce65",
    "picard/relativistic-1.7-1/cos/n1/callable":
        "23aaa17e5b34b99e5fac9f1afa65fc01cd37462a237e44321132179c0130c1a2",
    "picard/relativistic-1.7-1/cos/n1/zero":
        "f915ce5e5f23735aad58e3ab9c1f5f75ef38c66d78df7986d5080cb82b61be06",
    "picard/relativistic-1.7-1/cos/n2/array":
        "ea004752a7ed51301016f8257b6695da5adfeb0d29a4005d692912e74519382f",
    "picard/relativistic-1.7-1/cos/n2/callable":
        "c9a710ffca0b6ded031d56de092e82bdd45c9f408d2cde72532ff7b10968558c",
    "picard/relativistic-1.7-1/cos/n2/zero":
        "31ea66cee540159667c83b502fa2149f14d10b37dec4efd150072186c3d06d86",
    "picard/relativistic-1.7-1/cos/n37/array":
        "34412932c711bba35b62c16bc50e2ef211e257970da820c146ed210b4fb63991",
    "picard/relativistic-1.7-1/cos/n37/callable":
        "66175e5ef9c87719f8e9b41722f9914118a050c1d1ee455ddcbc3cf7ecf1a95d",
    "picard/relativistic-1.7-1/cos/n37/zero":
        "a6da10c1a624f1dfad2de5f99b9c07f9c9d6a5e06c2b69af60cb9aca15d624c5",
    "picard/relativistic-1.7-1/cos_time/n1/array":
        "a53bb2966c57c9e5ab50cb4baf73808ccf19bbacccc31e6d4a2e3fe2fe28ce65",
    "picard/relativistic-1.7-1/cos_time/n1/callable":
        "23aaa17e5b34b99e5fac9f1afa65fc01cd37462a237e44321132179c0130c1a2",
    "picard/relativistic-1.7-1/cos_time/n1/zero":
        "f915ce5e5f23735aad58e3ab9c1f5f75ef38c66d78df7986d5080cb82b61be06",
    "picard/relativistic-1.7-1/cos_time/n2/array":
        "877d28a64a59b9347513a8d030a188c92aa02bd25ae490c12335057a26cd3782",
    "picard/relativistic-1.7-1/cos_time/n2/callable":
        "eb1fba0c5e96baeb17c205094213daab94025afe07086e30faa23eb8cadf2a44",
    "picard/relativistic-1.7-1/cos_time/n2/zero":
        "31ea66cee540159667c83b502fa2149f14d10b37dec4efd150072186c3d06d86",
    "picard/relativistic-1.7-1/cos_time/n37/array":
        "96432213342c51c6c820b24d61e0dc8b7b5b43419db92c6fe6807d002de5e86c",
    "picard/relativistic-1.7-1/cos_time/n37/callable":
        "a3a94781d0e0616c65f8085d7476622b17b89fd58135e40f91ab616fc9a2a4cc",
    "picard/relativistic-1.7-1/cos_time/n37/zero":
        "a6da10c1a624f1dfad2de5f99b9c07f9c9d6a5e06c2b69af60cb9aca15d624c5",
    "picard/relativistic-1.7-1/rough_sin/n1/array":
        "8c34c896a0b80ee16bb759f368e539192643bf632cfd1397d70ed76855d59ae0",
    "picard/relativistic-1.7-1/rough_sin/n1/callable":
        "303d40b50a98652d570951ca137fa8acf37ce01d209e8bfdcb78b8073702a858",
    "picard/relativistic-1.7-1/rough_sin/n1/zero":
        "26a72e9e4806d1d695e042ab90dbbbca02b04bfd62d55f0f91d0754a6d0329db",
    "picard/relativistic-1.7-1/rough_sin/n2/array":
        "a7267e3451c6e3265c1fc29f7d00303898b581ee38dfb675da1283789b4c2b6c",
    "picard/relativistic-1.7-1/rough_sin/n2/callable":
        "3e8f3c8c4c89bc763aa5f7f9db4f128bb2757748b7c1ace728dc68a443f98ed6",
    "picard/relativistic-1.7-1/rough_sin/n2/zero":
        "ea5b1cb902e24f60286d4bf95628b55ba99bc20b7fd5e72d9b34bc5e617cc19d",
    "picard/relativistic-1.7-1/rough_sin/n37/array":
        "a9fa189607b81b978b8e423abd8ec3a66c1feab5e798adfa6d91eb2ae04f850a",
    "picard/relativistic-1.7-1/rough_sin/n37/callable":
        "527a4a502569fa06787718a91cf1b149bb73c1b4ff4eb311edae3ed27623e34d",
    "picard/relativistic-1.7-1/rough_sin/n37/zero":
        "780c27c2d143a16d3690c88d76efa1fff6a33f61a3725d0df42da7b80436da4f",
    "picard/relativistic-1.7-1/strong/n1/array":
        "d5534d628a732cc8ceebcb2a136158c2a13975a1cf81181cf1666bace375ceb2",
    "picard/relativistic-1.7-1/strong/n1/callable":
        "39974bb7b6364ec8eba6ff881faf0b580f5fd04241017454f56ca3f72b6da93c",
    "picard/relativistic-1.7-1/strong/n1/zero":
        "646d2655e2dd98e1b9f24051abca6d00de5c3bc0792c15381b901c9742763bf1",
    "picard/relativistic-1.7-1/strong/n2/array":
        "e8869106c0164f74b234cb0739b3ad41e48f619a9b9ed323616a1c7863d0a03b",
    "picard/relativistic-1.7-1/strong/n2/callable":
        "dd2f3bc16fdae99aa7291e6482961c1c47f3a4934e91221df3dc612a8fc5c363",
    "picard/relativistic-1.7-1/strong/n2/zero":
        "f9b6d9e691d228afa345d52aca8911bb057153233beb8066e51f41d9cbf5da09",
    "picard/relativistic-1.7-1/strong/n37/array":
        "8e372a4a55c82b3ec5487b55500bd32e675954bd7cf14f04a0845a774996c865",
    "picard/relativistic-1.7-1/strong/n37/callable":
        "a98b3f0430bcbcc47b3e2b8741c571eae758f15ecbab681ea15d76e0260b9631",
    "picard/relativistic-1.7-1/strong/n37/zero":
        "f0287298ed8d326cbd611f3726b5b87a37e4c3b23dd17cd15f7e6ed702746b44",
    "picard/tempered-1.5-1/cos/n1/array":
        "d6ec6a397a283d4b7b6bce5046564be274e35ac90e85721e5f1f18fb8d263637",
    "picard/tempered-1.5-1/cos/n1/callable":
        "e32ba39a14402a3bc769c9f547670e705ac983e92af18c2726e2088731488e11",
    "picard/tempered-1.5-1/cos/n1/zero":
        "9345d670624fceb97f7e6e3bb95bcfed90489e09162b7cc5ad78ce5685e3f9b8",
    "picard/tempered-1.5-1/cos/n2/array":
        "c15f69d610bb4099e3f8a43bf0ea045db0b1b56b0b5ffa507f1e5fa40065f981",
    "picard/tempered-1.5-1/cos/n2/callable":
        "f113b66eabfbd9696be1508d4832d739545b8529d7304b0dfb3a10074880eacc",
    "picard/tempered-1.5-1/cos/n2/zero":
        "234f46d38595d9689b332a68287da0543692d6adb545a0d2c1a7093e535a8437",
    "picard/tempered-1.5-1/cos/n37/array":
        "7cd3a590079e2a1fe8b66ac2d7e902f054d20081914eae29ed76454cc6fc1069",
    "picard/tempered-1.5-1/cos/n37/callable":
        "6674d2ded045fe506151ed813dffb936036e3a744fc8688641e7bb55615f8b23",
    "picard/tempered-1.5-1/cos/n37/zero":
        "445c93540fa76e52487ef4a599ce29ba88ef10927dceb30b3e8d4ed28ea69c75",
    "picard/tempered-1.5-1/cos_time/n1/array":
        "d6ec6a397a283d4b7b6bce5046564be274e35ac90e85721e5f1f18fb8d263637",
    "picard/tempered-1.5-1/cos_time/n1/callable":
        "e32ba39a14402a3bc769c9f547670e705ac983e92af18c2726e2088731488e11",
    "picard/tempered-1.5-1/cos_time/n1/zero":
        "9345d670624fceb97f7e6e3bb95bcfed90489e09162b7cc5ad78ce5685e3f9b8",
    "picard/tempered-1.5-1/cos_time/n2/array":
        "7877bfe5d0420859a27c2f2d0f2f7ec841c7efdfa60b1e58775f837ad2b08b01",
    "picard/tempered-1.5-1/cos_time/n2/callable":
        "7a14e0b88bc2e2f5f59a9c47d7a06207afaae9de81e3be9eb39c2df2baec33c6",
    "picard/tempered-1.5-1/cos_time/n2/zero":
        "234f46d38595d9689b332a68287da0543692d6adb545a0d2c1a7093e535a8437",
    "picard/tempered-1.5-1/cos_time/n37/array":
        "a9267cf544f858f64d1962f422a873cb08e6b77e28d93980b2e54671c748dfe9",
    "picard/tempered-1.5-1/cos_time/n37/callable":
        "c5ab6474f5d3eb1b348c2431da0d28a981aab46e8dfab2814453796a9ffc98ea",
    "picard/tempered-1.5-1/cos_time/n37/zero":
        "445c93540fa76e52487ef4a599ce29ba88ef10927dceb30b3e8d4ed28ea69c75",
    "picard/tempered-1.5-1/rough_sin/n1/array":
        "dc4415d96c582159677531a459b874754a472340655ae9e1c84bd889b3bcfc53",
    "picard/tempered-1.5-1/rough_sin/n1/callable":
        "b3177b10514e00a63ccaf5c68898476ae68d696bd6894e810da9c008660f2d7d",
    "picard/tempered-1.5-1/rough_sin/n1/zero":
        "fa23810a734c8c89b86a600b6402df0e0e2da9e638fe669156b3a79cbc3736fc",
    "picard/tempered-1.5-1/rough_sin/n2/array":
        "f6e5af09d7cda3947ef86ff117a3940aad7f39ccef450842a78a932fd527e411",
    "picard/tempered-1.5-1/rough_sin/n2/callable":
        "9c8274cea4a42ae9306f5bce828dec89b142f4f38665df4a0f85244bd953b7e5",
    "picard/tempered-1.5-1/rough_sin/n2/zero":
        "13ab4f55580009b8a58ed63480a5cb000d3b18a8f00e590acaac511ff265eac1",
    "picard/tempered-1.5-1/rough_sin/n37/array":
        "c82bb3d2fc35a340394391eb64c83b715bfe34128235e6993fce050a51ad7f8a",
    "picard/tempered-1.5-1/rough_sin/n37/callable":
        "9965748ad2191d5f2670bdce1c6aa0d70686617b0d8a30aeee435a6cfe017a18",
    "picard/tempered-1.5-1/rough_sin/n37/zero":
        "bfa44b1b8aa12691749e299389fc91678d9bd1c2bffd85c837d55f4aca2a9add",
    "picard/tempered-1.5-1/strong/n1/array":
        "88f1c2cac67eeb59cc1cfc07886565569a5a57fd408b56b87fd1b5021929a319",
    "picard/tempered-1.5-1/strong/n1/callable":
        "6a7a00b91702a11bdeda60fcc3e38b22a177f9a8893d2ea6a9fd0b6b9cc1ecef",
    "picard/tempered-1.5-1/strong/n1/zero":
        "0f405726c4400e728d79f975ae2167f400def2564d9c0c996b5faede66b5b81d",
    "picard/tempered-1.5-1/strong/n2/array":
        "a1fbdcef29478cc7f9c5dfcd2aac8bba95c3282447768927581ca6cdee8996c2",
    "picard/tempered-1.5-1/strong/n2/callable":
        "1aa2c53e2cf7ed5477cf54c0de1f6222494ae5b27f32bd16e64323e491b0bf3f",
    "picard/tempered-1.5-1/strong/n2/zero":
        "1d56f64f89d0c4645c15200a9ad36cc7f2a42da067cf06e130fa63151c49c521",
    "picard/tempered-1.5-1/strong/n37/array":
        "e421092f3544c58b0f10ae99c98d3fd485bfd90697387836174dbe85fcd7be0b",
    "picard/tempered-1.5-1/strong/n37/callable":
        "5bd07759eb679142f7269eb80b124bb3c6eb6effac37caee5fef0b7e0a32a851",
    "picard/tempered-1.5-1/strong/n37/zero":
        "081b4d5165851122047b8b141765cf95d7f4edddc2eb17e54bf28a9ad1318a38",
    "radial-q/tempered-1.5-1":
        "9447f42891e72c4de50528025cb56057f17b8ba05c68e88b9266df3e6270e437",
    "radial-q/truncated-1.5":
        "99cf024233b5e3257ec01f4b25d201aa499c00348953701fa3b8c64eeb9e1520",
    "radial-q/layered-1.5-2.5":
        "b677feae8a1b89521eb11d371f3edcd0801a4ca927b863a39e7d355b11d0f977",
    "cli/tempered-1.5-1/sample/increments.bin":
        "06849ca3f5534334fe9d2ae533c201e2444a784308d436a374ef5c4a7bfe1ae6",
    "cli/tempered-1.5-1/sample/increments.bin.csv":
        "8d372d36370c3f254eca30bb761de5caa285bc16610f2c75a7f27fbcb9da88f6",
    "cli/tempered-1.5-1/converge/report.csv":
        "2736cc4c4a83499fcd70398f601188cb4b661e54dd0de2ca117609186ea17289",
    "cli/tempered-1.5-1/converge/report.json":
        "6e9018055e74c68a07dba0dda15664a73cdaf2963482d2b07c72814cb0f7c8db",
    "cli/tempered-1.3-2/sample/increments.bin":
        "77cf052761ed4a440cfd6dbd85dd231958d315cb69e3f914aa317d385a6a58e5",
    "cli/tempered-1.3-2/sample/increments.bin.csv":
        "0dd536dc616cdb1d1aa83f38586f4ea13017497bb6534c18f61676e6732d6dbd",
    "cli/tempered-1.3-2/converge/report.csv":
        "476d81b7f1e45fc5436a981d6a2903fa831de69471230be41d2699b320111795",
    "cli/tempered-1.3-2/converge/report.json":
        "636d91129871de04f6dfa4b58d1a30070affebb1961306583a9cc565b170a74e",
    "cli/truncated-1.5/sample/increments.bin":
        "df498a3fd63c4364cb7df601a39d2a8d727ed198b49ce2a7f2b9a2c33c6ab0b1",
    "cli/truncated-1.5/sample/increments.bin.csv":
        "9213ed7e11f1400ffcb79c2592d90600ed06c3797be4d6b2db80fdfccc2707d7",
    "cli/truncated-1.5/converge/report.csv":
        "e7ce14c5853c519a7026b01ad44b41fb61c71254728db67d4c569f95c21d7fd7",
    "cli/truncated-1.5/converge/report.json":
        "7ae34c469e17a91f24ac0ddeb82d869a1065a0171da757b422d208fce9bf95f4",
    "cli/layered-1.5-2.5/sample/increments.bin":
        "f3affe9d46d66b61c5f9ad16245edde0896cee7de5597b75e705f17abc92db9e",
    "cli/layered-1.5-2.5/sample/increments.bin.csv":
        "5c94aea875472c4e2f21e97da5344c4213edb95e973142c83477721716ae8289",
    "cli/layered-1.5-2.5/converge/report.csv":
        "5e199bb57932da0b62bb4599788f11f669a75bd591a877f42f6d73007a5049c6",
    "cli/layered-1.5-2.5/converge/report.json":
        "b2638c7fe7e45549d95cc23b04da723e2e7e9c0f33058f1ad29038e2e6a323f5",
}


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(SHA256)


@pytest.mark.parametrize("key", sorted(SHA256))
def test_digest_is_pinned(key):
    assert digest(key) == SHA256[key]


if __name__ == "__main__":
    print("SHA256 = {")
    for key in CASES:
        print(f'    "{key}":\n        "{digest(key)}",')
    print("}")
