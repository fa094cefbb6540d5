"""The jump-decomposition families have no benchmark golden, so their
``sample`` and ``converge`` artifacts are pinned here by sha256: a change to
the decomposition sampler, the truncation threshold or the radial-density
integrals that moves a single bit fails this test."""

import hashlib

import pytest

from levyem import cli

MODELS = {
    "tempered-1.5-1": "family = tempered_stable\nalpha = 1.5\nm = 1.0\n",
    "tempered-1.3-2": "family = tempered_stable\nalpha = 1.3\nm = 2.0\n",
    "truncated-1.5": "family = truncated_stable\nalpha = 1.5\n",
    "layered-1.5-2.5": "family = layered_stable\nalpha = 1.5\nlambda_tail = 2.5\n",
}

SAMPLE = "[sample]\nt = 1.0\nn = 64\nseed = 11\ncsv = true\n"
CONVERGE = ("[drift]\nname = cos\n[experiment]\np = 1.0\nn_list = 4,8,16\n"
            "n_ref = 128\npaths = 100\nseed = 5\n")

SHA256 = {
    "tempered-1.5-1": {
        "sample/increments.bin":
            "06849ca3f5534334fe9d2ae533c201e2444a784308d436a374ef5c4a7bfe1ae6",
        "sample/increments.bin.csv":
            "8d372d36370c3f254eca30bb761de5caa285bc16610f2c75a7f27fbcb9da88f6",
        "converge/report.csv":
            "2736cc4c4a83499fcd70398f601188cb4b661e54dd0de2ca117609186ea17289",
        "converge/report.json":
            "6e9018055e74c68a07dba0dda15664a73cdaf2963482d2b07c72814cb0f7c8db",
    },
    "tempered-1.3-2": {
        "sample/increments.bin":
            "77cf052761ed4a440cfd6dbd85dd231958d315cb69e3f914aa317d385a6a58e5",
        "sample/increments.bin.csv":
            "0dd536dc616cdb1d1aa83f38586f4ea13017497bb6534c18f61676e6732d6dbd",
        "converge/report.csv":
            "476d81b7f1e45fc5436a981d6a2903fa831de69471230be41d2699b320111795",
        "converge/report.json":
            "636d91129871de04f6dfa4b58d1a30070affebb1961306583a9cc565b170a74e",
    },
    "truncated-1.5": {
        "sample/increments.bin":
            "df498a3fd63c4364cb7df601a39d2a8d727ed198b49ce2a7f2b9a2c33c6ab0b1",
        "sample/increments.bin.csv":
            "9213ed7e11f1400ffcb79c2592d90600ed06c3797be4d6b2db80fdfccc2707d7",
        "converge/report.csv":
            "e7ce14c5853c519a7026b01ad44b41fb61c71254728db67d4c569f95c21d7fd7",
        "converge/report.json":
            "7ae34c469e17a91f24ac0ddeb82d869a1065a0171da757b422d208fce9bf95f4",
    },
    "layered-1.5-2.5": {
        "sample/increments.bin":
            "f3affe9d46d66b61c5f9ad16245edde0896cee7de5597b75e705f17abc92db9e",
        "sample/increments.bin.csv":
            "5c94aea875472c4e2f21e97da5344c4213edb95e973142c83477721716ae8289",
        "converge/report.csv":
            "5e199bb57932da0b62bb4599788f11f669a75bd591a877f42f6d73007a5049c6",
        "converge/report.json":
            "b2638c7fe7e45549d95cc23b04da723e2e7e9c0f33058f1ad29038e2e6a323f5",
    },
}


def artifact_digests(tmp_path, command, text):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    out = tmp_path / command
    assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
    return {f"{command}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sample_and_converge_artifacts_are_pinned(name, tmp_path):
    model = "[model]\n" + MODELS[name]
    digests = {**artifact_digests(tmp_path, "sample", model + SAMPLE),
               **artifact_digests(tmp_path, "converge", model + CONVERGE)}
    assert digests == SHA256[name]
