"""sha256 pins over small fixed matrices of the simulation layer, so a claim
that a change keeps every bit is checked here rather than rebuilt by hand.

Pinned: ``euler_ladder`` terminal states and sup gaps for both variants in
d = 1 and 3 on fixed noise (including no levels, a level of factor 1, step
counts below and not a multiple of the ladder's gap-buffer length);
``mc_strong_error`` means and stderrs at 300 paths (one full block and one
partial block); and ``increments`` at small ``n`` for every catalog family
that has a sampler.

Regenerate the table with

    PYTHONPATH=src python tests/test_identity.py

which prints ``SHA256`` as it should read.  A change that moves a digest on
purpose re-records its rows and lists the largest differences in CHANGES.md.
"""

import hashlib

import pytest

from levyem.engine import drift_cos, drift_cos_time, drift_rough, euler_ladder
from levyem.harness import ExperimentConfig, mc_strong_error
from levyem.models import LevyModel, SubordinatorSpec
from levyem.rng import RngStream
from levyem.samplers import increments

LADDER_DRIFTS = {"cos_time": drift_cos_time(), "rough_sin": drift_rough(0.5)}
# (n, factors): no levels, a factor-1 level, n below 16 and n not a multiple of 16
LADDER_GRIDS = ((1, ()), (15, ()), (45, ()), (1, (1,)), (15, (1, 3, 5)),
                (45, (1, 3, 5)), (8, (2, 4, 8)), (40, (8, 4, 2)), (48, (16,)),
                (64, (32, 8, 2)))
LADDER_PATHS = 5


def ladder_bytes(variant, drift, d, n, factors):
    # heavy-tailed fixed noise that does not depend on any library sampler
    gen = RngStream(31, 100 * d + n).generator()
    noise = gen.standard_cauchy((LADDER_PATHS, n, d)) * (1.0 / n) ** (1.0 / 1.5)
    x_T, sup = euler_ladder(LADDER_DRIFTS[drift], 0.3, 1.0, noise, factors, variant)
    return x_T.tobytes() + sup.tobytes()


MC_CONFIGS = {
    "stable-1.5-d1-cos-frozen": (LevyModel.isotropic_stable(1.5), drift_cos(), "frozen"),
    "stable-1.5-d1-cos_time-timeint": (LevyModel.isotropic_stable(1.5), drift_cos_time(),
                                       "timeint"),
    "stable-1.5-d3-cos-frozen": (LevyModel.isotropic_stable(1.5, dim=3), drift_cos(),
                                 "frozen"),
}


def mc_bytes(name):
    model, drift, variant = MC_CONFIGS[name]
    table = mc_strong_error(ExperimentConfig(
        model=model, drift=drift, x0=0.1, T=1.0, p=1.0, n_list=(4, 8, 16), n_ref=128,
        paths=300, seed=17, variant=variant))
    fields = table.means + table.stderrs + (table.paths, table.flagged)
    return repr([float(v).hex() for v in fields]).encode()


SAMPLER_MODELS = {
    "brownian-d1": LevyModel.brownian(),
    "brownian-d3": LevyModel.brownian(3),
    "isotropic-1.5-d1": LevyModel.isotropic_stable(1.5),
    "isotropic-1.5-d3": LevyModel.isotropic_stable(1.5, dim=3),
    "relativistic-1.5-1-d1": LevyModel.relativistic_stable(1.5, 1.0),
    "relativistic-1.5-1-d3": LevyModel.relativistic_stable(1.5, 1.0, dim=3),
    "subordinated-stable-0.75-d2": LevyModel.subordinated_bm(SubordinatorSpec.stable(0.75),
                                                             dim=2),
    "subordinated-tempered-0.6-1-d1": LevyModel.subordinated_bm(
        SubordinatorSpec.tempered(0.6, 1.0)),
    "tempered-1.5-1": LevyModel.tempered_stable(1.5, 1.0),
    "truncated-1.5": LevyModel.truncated_stable(1.5),
    "layered-1.5-2.5": LevyModel.layered_stable(1.5, 2.5),
}


def increments_bytes(name):
    return increments(SAMPLER_MODELS[name], 0.5, 16, RngStream(23, 4)).values.tobytes()


def _cases():
    cases = {}
    for variant in ("frozen", "timeint"):
        for drift in LADDER_DRIFTS:
            for d in (1, 3):
                for n, factors in LADDER_GRIDS:
                    key = f"ladder/{variant}/{drift}/d{d}/n{n}/f{','.join(map(str, factors))}"
                    cases[key] = (ladder_bytes, variant, drift, d, n, factors)
    cases.update({f"mc/{name}": (mc_bytes, name) for name in MC_CONFIGS})
    cases.update({f"increments/{name}": (increments_bytes, name) for name in SAMPLER_MODELS})
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
    "mc/stable-1.5-d1-cos-frozen":
        "42831693ec247275187f3b16abd5b8dc6d1b1589a7be171040ebe5b252a40442",
    "mc/stable-1.5-d1-cos_time-timeint":
        "eda48608528b47b29d42df27941346748173195fec47f733a7eb17624db607e1",
    "mc/stable-1.5-d3-cos-frozen":
        "791f118dd4ebcf64104cd9612b1bd87db9666a4e5989ffef44c47edb6adc5199",
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
