"""Pinned generator output: the sha256 of the written text of every space in
the acceptance corpus and of the 12x12-grid spaces the benchmark's pipelines
grow. Any change to the generator's RNG order, tie-breaks or eligibility
rules shows up here as a changed digest."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from treegraded.experiment import acceptance_corpus
from treegraded.formats import space_to_text
from treegraded.forge import gen_random

CORPUS_SPACE_SHA256 = {
    "rand-000": "34ddf4b12910ef1e9d2be2e425b44302ab06f32c603489e08a0d8078b9dc5d99",
    "rand-001": "9523e48c568dcca7ebca114328b39b3b6e9d16b485da3ce4cf00247122a8b746",
    "rand-002": "aa2c2df95a20098477d5baaeecb3af3a07f86608e2bb3c730547f263ed223f4d",
    "rand-003": "534d66c0c350e8b6a67d76e7669693b3da957e9efab92ef626322886ff84bd0e",
    "rand-004": "b42d4bb88321e4aa68ae759d9b521f9c7b6b5abdc95579e2bfa34d164f43254f",
    "rand-005": "3a2ce8c16aa74cdeb19a03231ce6e486e985bf53b7665003f745485340ba502c",
    "rand-006": "047af1b09dfba7683f3346a6095e2959e4f755b5f5a0f40dcc70993fb95f4d45",
    "rand-007": "efac6dd1f86273e6e7b45fc499da28d45f65a098188f1bda16870d50877b9f21",
    "rand-008": "754fcfe7b138f59a1d9a997c64ec9852aeef88d0bd23fa63febec75fb5f3eb1b",
    "rand-009": "b6fd1d7d53706f18d770f369738dacab68468c99732562a03d0cc1ec1eece1ea",
    "rand-010": "ae69c1bca2904977fed5e1cdf8a9b0e26c154ed92ea8c8f582b2f2c384ee9d4d",
    "rand-011": "a9aeccd55838a52a202d92f03ad151b397650332b4ae38c62febd991c20c740a",
    "rand-012": "ca31f8e9473c6f1ed8eea070ad2d6daa4e4927005f4864e9851f8948f892978b",
    "rand-013": "5c5feec2453f96b9524b6068032eeeab6bfc9e4e2a978ff5639b7dac9e27f65c",
    "rand-014": "16f9b420cf7b8d1deb0bc3d9b2f93ae1b280347556670a0873bc23bd371483fd",
    "rand-015": "939760ea46ccc3119149f510978cd56bd7221eac3dc1e1750e9a252cee4be9d2",
    "rand-016": "cfe9bc645a01a0121ab7733de181f58b732d28349caf8f16a5dcb0910b589876",
    "rand-017": "6894aa0bebe245862ee5497f639d96c52b6119cbaa25042db765e965ca6e5251",
    "rand-018": "f4cc0faef31d41e78036ba6e96a98aa5e675a052f7d2d7c360f49ddc6da51879",
    "rand-019": "eae84d62ca812569aed9a568652c2313f7d53552992746d15183943509b73fe3",
    "rand-020": "1aff0f7cada4d9e418f962c7eb1b2ea40990f662e57ff339c877cb87a2c1f78d",
    "rand-021": "ee89b1c57fae8f96a31cecfdf83c59c71a785b5f0e09a50644a62ea53ea44edb",
    "rand-022": "bea3027f71cdad377b8e873272754c2aac471fcfcc75ba60167e82e2cefa26d4",
    "rand-023": "a6f9bae6ab0b2361c395ae4a059bcf8b2703c399e9ddfd04e9a388bf1df062b9",
    "rand-024": "92eb20047a983e07c3f0a67cfe823891c2737411ec18b1b12ba1eacb03564072",
    "rand-025": "f49257f963a8c66093ba6bc84cde0362be2c1868ddbaae353a0d6003c44a0071",
    "rand-026": "2c468191ab98c01822ac53c1b9c5c16b9227362289092ab9fa7aa71d3113eb24",
    "rand-027": "ece56bfd90b43e49b15e21b2077c51ec12c9d469b8da956a908b3f2228cbcee1",
    "rand-028": "b7ef0beaf687cabb1b112a3ebaf9491860125479c16fe4a3f02868a659801ee4",
    "rand-029": "5d43ef1b43cb8c0048c2fd1e78d34b6f927724efb4f29ea5042e57f013faccde",
    "rand-030": "3292315b013a0b169a1df79438414d9f8336cf674e452dd5b3b8c6a8cf1283cf",
    "rand-031": "4bb2906c97edb1df1047f3544ed76e4c99b966175f770b40957e9ff64d950fe5",
    "rand-032": "051d869a250c1b00e70b88925b151081666279c54ec35a41e6539597b4a1c706",
    "rand-033": "0037f018d9cf23896340e5d71b1efa9d21a8c96b74ade34ed117f8c5114f9e90",
    "rand-034": "ea27684886d3606b0fc785b0b9be79046d28ec81c327209cfa74e6df8c71a359",
    "rand-035": "7dc5602fe39160ccb1cebefaeb913776d89fc27f77035fcaf6f3fa551e3a7ae8",
    "rand-036": "a6748df30ecc9001d1b481b14308344ce56b151ae9bb0bcf1852fd83d4864a61",
    "rand-037-xl": "7689b899f46a0863c811c27570a08a2bf9abfcdf4eab8954e42643d43da60533",
    "rand-038": "ddf5f666b295c4296a163c5248b4399f0d4cda50521eac0efef1797cb0793ca9",
    "rand-039": "afc6f89e952d6bb51c8151ef656414c04f42c578a812fcc5db8786d7d2c158db",
    "rand-040": "079dff14d0c362e68ed393e88c334546e7f18fa7391d807fe2590ae5af10fb60",
    "rand-041": "b9b789154ebcc2dbd380cbf6aa59593717a52d4e2230a8be545a60a109ecfa7b",
    "rand-042": "e706856f7c68700adec674fdb4c86fbaa09c6db35041d4f678614124d36d2c16",
    "rand-043": "cd89abd40345ec7132a44ddbf9dbdb2ebc8c9e91fe347fa38f45f62494242850",
    "rand-044": "ac89affde4344d75157f19351fa156abb21ea6104374bea617126402aa27e136",
    "rand-045": "239a78e0baa33e33c8070890f26884e62a3ffdef929b1c984704b769c2f83fc7",
    "rand-046": "7fecbe6c49f47162952dc78884020391e659cb38c267058fbde484892dff0824",
    "rand-047": "eac94a3793fd92c455164cffbe3ba257eadbb5dac353f9681a2da3b2f871a276",
    "rand-048": "4ab96650630134aa6383cc6bd8ad20daed4eef678320dfeceda0ccf58ec0f4e1",
    "rand-049": "df2f61c962527db81aa9d516e342eb1e0fb0cfd12a96e6d1326870abe5c2e51f",
}
# (seed, piece budget) -> digest, for the 12x12-grid specs the benchmark's
# pipelines grow from the corpus's xl spec
GRID_SPACE_SHA256 = {
    (3, 7): "c809a15b011268417d6c4ee18251e339987d3ff487e215e81f61c3e5e3ce5148",
    (3, 20): "3c21dbe740f2fadb6670d652a6b9f77ee77a7dd607bcd1505867c7d7bcbb0234",
    (3, 34): "8bd888c29064c48d8693c7be287a4891e2cf1e52a50071d6583b8fe134097d8a",
    (3, 37): "daa745da7d61e20331efacceec14470cd45c04fa586e7f757b785faf591730b2",
    (7, 7): "99934124c7378d256121b3fe305720ddd39cb9ac4eb0a94d0f9afc2d37ddf5a5",
    (7, 20): "47a7ef16bf56f4a1cb8ac119dbc9a29f57d0e98a683aaaa4f92952947c793204",
    (7, 34): "a91d7d372b9f0730b7052fc39d866820afac61b1abb6df74e486250676356215",
    (7, 37): "74c75265b572aae6d2c3f631a7f85f352f70277a36a1a1b2e401f400815cac81",
}


def _digest(space) -> str:
    return hashlib.sha256(space_to_text(space).encode()).hexdigest()


def test_acceptance_corpus_spaces_pinned():
    got = {src.name: _digest(src.load()) for src in acceptance_corpus(50)}
    assert got == CORPUS_SPACE_SHA256


@pytest.mark.parametrize("seed", [3, 7])
def test_grid_pipeline_spaces_pinned(seed):
    # built as the benchmark builds them: the xl spec with its grid template alone
    xl = next(src.forge for src in acceptance_corpus() if src.name.endswith("-xl"))
    grid = next(t for t, _ in xl.templates if t.kind == "grid")
    spec = dataclasses.replace(xl, templates=((grid, 1),), seed=seed)
    for budget in (7, 20, 34, 37):
        space = gen_random(dataclasses.replace(spec, piece_budget=budget))
        assert _digest(space) == GRID_SPACE_SHA256[seed, budget], budget
