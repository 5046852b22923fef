"""Pinned output of the perturbation demos: destabilizer C^1 distances and
non-genericity reports.

Each instability entry is what the benchmark's perturb-demos workload
computes: `instability_demo` at the scene's first incidence with the
scene's `count` and `radius`, seed `derive_seed(seed, "instability")`,
in a context built at `derive_seed(seed, "context")`.  Each
non-genericity entry is `nongenericity_demo(scene, seed=seed)`, pinned by
its eps, its witness count and a SHA-256 digest of its JSON (floats as
their shortest round-trip repr, so the digest changes with any bit of any
witness).  The values were recorded from commit b8c7f98, where every
destabilizer was measured on the whole 10,000-point cube and every
Jacobian row went through `eigvalsh`, so a faster C^1 kernel or fold
search that moved any output shows up here.
"""

import hashlib
import json

import pytest

from strathom.experiments import instability_demo, nongenericity_demo
from strathom.gallery import gallery_entry
from strathom.seeds import derive_seed

# (seed, scene) -> ((c1_distance, distance_to_point) as float.hex, ...) per
# destabilizer map, index 1 first; every map's defect is 1
INSTABILITY = {
    (1, 'parabola-shelf'): (
        ('0x1.bfffffff8fd52p+1', '0x1.6666666666666p-1'),
        ('0x1.399999994b152p+1', '0x1.f5c28f5c28f5bp-2'),
        ('0x1.b70a3d7035ea6p+0', '0x1.5f3b645a1cabfp-2'),
        ('0x1.3353f7ce8c240p+0', '0x1.ebb98c7e2823ep-3'),
        ('0x1.ae425aedf765ap-1', '0x1.5835158b827f8p-3'),
        ('0x1.2d2e72d9c6c72p-1', '0x1.e1e3eaf6837f5p-4'),
        ('0x1.a5a76d97497d2p-2', '0x1.5152be12f5a5ep-4'),
        ('0x1.272866504d0acp-2', '0x1.d840a3b424b50p-5'),
        ('0x1.9d388f3d38a8bp-3', '0x1.4a93a5cae67ebp-5'),
        ('0x1.214131114142dp-3', '0x1.ceceb4e8dc4aep-6'),
        ('0x1.94f4de4b5b5d9p-4', '0x1.43f7183c9a347p-6'),
        ('0x1.1b783534bff4bp-4', '0x1.c58d21ee717c9p-7'),
        ('0x1.8cdb7db03ff01p-5', '0x1.3d7c648d4f70cp-7'),
        ('0x1.15ccd7fb5ff4ep-5', '0x1.bc7af32c3c044p-8'),
        ('0x1.84eb94c653239p-6', '0x1.3722dd6bc39c9p-8'),
        ('0x1.103e81be06ff4p-6', '0x1.b39735fd450e5p-9'),
        ('0x1.7d244f3d3cfefp-7', '0x1.30e9d8fe16bd3p-9'),
        ('0x1.0acc9dde1118dp-7', '0x1.aae0fc96eca27p-10'),
        ('0x1.7584dd03b1893p-8', '0x1.2ad0b0d00c0b5p-10'),
        ('0x1.05769ab5c9133p-8', '0x1.a2575df010dc9p-11'),
    ),
    (1, 'blowup'): (
        ('0x1.9c4ca0391235dp+2', '0x1.49d6e6946126cp+0'),
        ('0x1.2d33587391c58p+2', '0x1.e1ebc0b961e51p-1'),
        ('0x1.ae7b52a025b92p+1', '0x1.5862a88074676p-1'),
        ('0x1.3062399bfb653p+1', '0x1.e7038f6072918p-2'),
        ('0x1.ac3c86db61070p+0', '0x1.5696d24970327p-2'),
        ('0x1.2c7cb49baf16dp+0', '0x1.e0c7875ff6eacp-3'),
        ('0x1.a52d7408795a6p-1', '0x1.50f129a0b571ap-3'),
        ('0x1.26fe8e1846349p-1', '0x1.d7fdb0274ce72p-4'),
        ('0x1.9d1bda08c3856p-2', '0x1.4a7cae6dbbf65p-4'),
        ('0x1.2137582f79068p-2', '0x1.cebef37f9be66p-5'),
        ('0x1.94ee1cef24742p-3', '0x1.43f1b0bfa1785p-5'),
        ('0x1.1b75e4079304ap-3', '0x1.c5896cd95cc86p-6'),
        ('0x1.8cd9e6c4765cdp-4', '0x1.3d7b1f03e1610p-6'),
        ('0x1.15cc4c685dbbfp-4', '0x1.bc7a13da9edc2p-7'),
        ('0x1.84eb3506d2f78p-5', '0x1.372290d290460p-7'),
        ('0x1.103e60e693da8p-5', '0x1.b397017159a04p-8'),
        ('0x1.7d2438b5b9e37p-6', '0x1.30e9c6f81440cp-8'),
        ('0x1.0acc9623cf5c2p-6', '0x1.aae0f039b6a7cp-9'),
        ('0x1.7584d7b69bceap-7', '0x1.2ad0ac92610fap-9'),
        ('0x1.057698e44e35fp-7', '0x1.a2575b074c476p-10'),
    ),
    (2, 'parabola-shelf'): (
        ('0x1.bffffffe92b18p+1', '0x1.6666666666666p-1'),
        ('0x1.3999999899e2ap+1', '0x1.f5c28f5c28f5bp-2'),
        ('0x1.b70a3d6f3dd6dp+0', '0x1.5f3b645a1cabfp-2'),
        ('0x1.3353f7cdde7ccp+0', '0x1.ebb98c7e2823ep-3'),
        ('0x1.ae425aed04483p-1', '0x1.5835158b827f8p-3'),
        ('0x1.2d2e72d91c990p-1', '0x1.e1e3eaf6837f5p-4'),
        ('0x1.a5a76d965b3c8p-2', '0x1.5152be12f5a5ep-4'),
        ('0x1.2728664fa643fp-2', '0x1.d840a3b424b50p-5'),
        ('0x1.9d388f3c4f2bfp-3', '0x1.4a93a5cae67ebp-5'),
        ('0x1.214131109dd1ep-3', '0x1.ceceb4e8dc4aep-6'),
        ('0x1.94f4de4a768c4p-4', '0x1.43f7183c9a347p-6'),
        ('0x1.1b7835341fc89p-4', '0x1.c58d21ee717c9p-7'),
        ('0x1.8cdb7daf5fb25p-5', '0x1.3d7c648d4f70cp-7'),
        ('0x1.15ccd7fac2fcdp-5', '0x1.bc7af32c3c044p-8'),
        ('0x1.84eb94c57761fp-6', '0x1.3722dd6bc39c9p-8'),
        ('0x1.103e81bd6d2afp-6', '0x1.b39735fd450e5p-9'),
        ('0x1.7d244f3c65a27p-7', '0x1.30e9d8fe16bd3p-9'),
        ('0x1.0acc9ddd7a581p-7', '0x1.aae0fc96eca27p-10'),
        ('0x1.7584dd02de7b5p-8', '0x1.2ad0b0d00c0b5p-10'),
        ('0x1.05769ab535565p-8', '0x1.a2575df010dc9p-11'),
    ),
    (2, 'blowup'): (
        ('0x1.9c4ca038293e5p+2', '0x1.49d6e6946126cp+0'),
        ('0x1.2d335872e7949p+2', '0x1.e1ebc0b961e51p-1'),
        ('0x1.ae7b529f327bap+1', '0x1.5862a88074676p-1'),
        ('0x1.3062399b4f67ep+1', '0x1.e7038f6072918p-2'),
        ('0x1.ac3c86da6f0e3p+0', '0x1.5696d24970327p-2'),
        ('0x1.2c7cb49b054d1p+0', '0x1.e0c7875ff6eacp-3'),
        ('0x1.a52d74078b5ecp-1', '0x1.50f129a0b571ap-3'),
        ('0x1.26fe8e179f856p-1', '0x1.d7fdb0274ce72p-4'),
        ('0x1.9d1bda07da18dp-2', '0x1.4a7cae6dbbf65p-4'),
        ('0x1.2137582ed59b2p-2', '0x1.cebef37f9be66p-5'),
        ('0x1.94ee1cee3fa69p-3', '0x1.43f1b0bfa1785p-5'),
        ('0x1.1b75e406f2d9dp-3', '0x1.c5896cd95cc86p-6'),
        ('0x1.8cd9e6c3961fep-4', '0x1.3d7b1f03e1610p-6'),
        ('0x1.15cc4c67c0c43p-4', '0x1.bc7a13da9edc2p-7'),
        ('0x1.84eb3505f7360p-5', '0x1.372290d290460p-7'),
        ('0x1.103e60e5fa063p-5', '0x1.b397017159a04p-8'),
        ('0x1.7d2438b4e286fp-6', '0x1.30e9c6f81440cp-8'),
        ('0x1.0acc9623389b6p-6', '0x1.aae0f039b6a7cp-9'),
        ('0x1.7584d7b5c8c0cp-7', '0x1.2ad0ac92610fap-9'),
        ('0x1.057698e3ba791p-7', '0x1.a2575b074c476p-10'),
    ),
    (3, 'parabola-shelf'): (
        ('0x1.bffff836cd2fep+1', '0x1.6666666666666p-1'),
        ('0x1.399994265c6e4p+1', '0x1.f5c28f5c28f5bp-2'),
        ('0x1.b70a35cf4e33fp+0', '0x1.5f3b645a1cabfp-2'),
        ('0x1.3353f277838acp+0', '0x1.ebb98c7e2823ep-3'),
        ('0x1.ae4253741e8efp-1', '0x1.5835158b827f8p-3'),
        ('0x1.2d2e6d9e15642p-1', '0x1.e1e3eaf6837f5p-4'),
        ('0x1.a5a76643b78c2p-2', '0x1.5152be12f5a5ep-4'),
        ('0x1.2728612f66e21p-2', '0x1.d840a3b424b50p-5'),
        ('0x1.9d38880f29a2dp-3', '0x1.4a93a5cae67ebp-5'),
        ('0x1.21412c0a9d252p-3', '0x1.ceceb4e8dc4aep-6'),
        ('0x1.94f4d7420f340p-4', '0x1.43f7183c9a347p-6'),
        ('0x1.1b783047d7713p-4', '0x1.c58d21ee717c9p-7'),
        ('0x1.8cdb76cafa6b3p-5', '0x1.3d7c648d4f70cp-7'),
        ('0x1.15ccd327af4b1p-5', '0x1.bc7af32c3c044p-8'),
        ('0x1.84eb8e045bcf7p-6', '0x1.3722dd6bc39c9p-8'),
        ('0x1.103e7d030d113p-6', '0x1.b39735fd450e5p-9'),
        ('0x1.7d24489ddf180p-7', '0x1.30e9d8fe16bd3p-9'),
        ('0x1.0acc993b4f5d9p-7', '0x1.aae0fc96eca27p-10'),
        ('0x1.7584d6863be97p-8', '0x1.2ad0b0d00c0b5p-10'),
        ('0x1.0576962ac389cp-8', '0x1.a2575df010dc9p-11'),
    ),
    (3, 'blowup'): (
        ('0x1.9c4c990f1ca67p+2', '0x1.49d6e6946126cp+0'),
        ('0x1.2d335337ca9a5p+2', '0x1.e1ebc0b961e51p-1'),
        ('0x1.ae7b4b254f7c6p+1', '0x1.5862a88074676p-1'),
        ('0x1.306234520b8a4p+1', '0x1.e7038f6072918p-2'),
        ('0x1.ac3c7f6a878e1p+0', '0x1.5696d24970327p-2'),
        ('0x1.2c7caf6314538p+0', '0x1.e0c7875ff6eacp-3'),
        ('0x1.a52d6cb705f88p-1', '0x1.50f129a0b571ap-3'),
        ('0x1.26fe88f81a2d3p-1', '0x1.d7fdb0274ce72p-4'),
        ('0x1.9d1bd2db3431cp-2', '0x1.4a7cae6dbbf65p-4'),
        ('0x1.2137532900b60p-2', '0x1.cebef37f9be66p-5'),
        ('0x1.94ee15e5f656fp-3', '0x1.43f1b0bfa1785p-5'),
        ('0x1.1b75df1ab4cfbp-3', '0x1.c5896cd95cc86p-6'),
        ('0x1.8cd9dfdf37e9fp-4', '0x1.3d7b1f03e1610p-6'),
        ('0x1.15cc4794af7efp-4', '0x1.bc7a13da9edc2p-7'),
        ('0x1.84eb2e44dd4d4p-5', '0x1.372290d290460p-7'),
        ('0x1.103e5c2b9a7e8p-5', '0x1.b397017159a04p-8'),
        ('0x1.7d2432165c60bp-6', '0x1.30e9c6f81440cp-8'),
        ('0x1.0acc91810dc34p-6', '0x1.aae0f039b6a7cp-9'),
        ('0x1.7584d13926466p-7', '0x1.2ad0ac92610fap-9'),
        ('0x1.0576945948b49p-7', '0x1.a2575b074c476p-10'),
    ),
    (20261017, 'parabola-shelf'): (
        ('0x1.bfffff108a922p+1', '0x1.6666666666666p-1'),
        ('0x1.399998f1fa998p+1', '0x1.f5c28f5c28f5bp-2'),
        ('0x1.b70a3c85f8707p+0', '0x1.5f3b645a1cabfp-2'),
        ('0x1.3353f72a944ebp+0', '0x1.ebb98c7e2823ep-3'),
        ('0x1.ae425a08693b0p-1', '0x1.5835158b827f8p-3'),
        ('0x1.2d2e723916761p-1', '0x1.e1e3eaf6837f5p-4'),
        ('0x1.a5a76cb652a54p-2', '0x1.5152be12f5a5ep-4'),
        ('0x1.272865b2d373ap-2', '0x1.d840a3b424b50p-5'),
        ('0x1.9d388e60c1a1ep-3', '0x1.4a93a5cae67ebp-5'),
        ('0x1.21413076edf15p-3', '0x1.ceceb4e8dc4aep-6'),
        ('0x1.94f4dd734d1eap-4', '0x1.43f7183c9a347p-6'),
        ('0x1.1b78349d82c89p-4', '0x1.c58d21ee717c9p-7'),
        ('0x1.8cdb7cdc83e59p-5', '0x1.3d7c648d4f70cp-7'),
        ('0x1.15ccd7672920bp-5', '0x1.bc7af32c3c044p-8'),
        ('0x1.84eb93f6d32dcp-6', '0x1.3722dd6bc39c9p-8'),
        ('0x1.103e812cc7066p-6', '0x1.b39735fd450e5p-9'),
        ('0x1.7d244e71e36f5p-7', '0x1.30e9d8fe16bd3p-9'),
        ('0x1.0acc9d4fb8cdep-7', '0x1.aae0fc96eca27p-10'),
        ('0x1.7584dc3c69204p-8', '0x1.2ad0b0d00c0b5p-10'),
        ('0x1.05769a2a49969p-8', '0x1.a2575df010dc9p-11'),
    ),
    (20261017, 'blowup'): (
        ('0x1.9c4c9f5d190f9p+2', '0x1.49d6e6946126cp+0'),
        ('0x1.2d3357d2ded79p+2', '0x1.e1ebc0b961e51p-1'),
        ('0x1.ae7b51ba7929cp+1', '0x1.5862a88074676p-1'),
        ('0x1.306238f995b48p+1', '0x1.e7038f6072918p-2'),
        ('0x1.ac3c85f6e722fp+0', '0x1.5696d24970327p-2'),
        ('0x1.2c7cb3fb5d9a7p+0', '0x1.e0c7875ff6eacp-3'),
        ('0x1.a52d7327c3964p-1', '0x1.50f129a0b571ap-3'),
        ('0x1.26fe8d7ae2f0cp-1', '0x1.d7fdb0274ce72p-4'),
        ('0x1.9d1bd92c5bcf9p-2', '0x1.4a7cae6dbbf65p-4'),
        ('0x1.213757952af5ep-2', '0x1.cebef37f9be66p-5'),
        ('0x1.94ee1c1719cfcp-3', '0x1.43f1b0bfa1785p-5'),
        ('0x1.1b75e37057151p-3', '0x1.c5896cd95cc86p-6'),
        ('0x1.8cd9e5f0bb2b6p-4', '0x1.3d7b1f03e1610p-6'),
        ('0x1.15cc4bd427324p-4', '0x1.bc7a13da9edc2p-7'),
        ('0x1.84eb34375334cp-5', '0x1.372290d290460p-7'),
        ('0x1.103e605553f32p-5', '0x1.b397017159a04p-8'),
        ('0x1.7d2437ea605fdp-6', '0x1.30e9c6f81440cp-8'),
        ('0x1.0acc959577156p-6', '0x1.aae0f039b6a7cp-9'),
        ('0x1.7584d6ef53688p-7', '0x1.2ad0ac92610fap-9'),
        ('0x1.05769858ceba4p-7', '0x1.a2575b074c476p-10'),
    ),
}

# (seed, scene) -> (eps, witnesses, SHA-256 of the report's sorted JSON)
NONGENERICITY = {
    (1, 'circle-into-plane'): (0.05, 50, '387601507d36a43d760690d4f876a7cfbec250681eab07dda309beb20d1dfc4a'),
    (1, 'cubic-graph'): (0.05, 50, '8c23d9338a86a86afcfdcd41ec33cf2491c438dccffd66242e100fc56a2cdb20'),
    (1, 'sphere-disc'): (0.02, 50, 'bf479bc6e45f5e2da692faec6e2bb92857f9f9654ca421616b43c95f1f6bbf45'),
    (2, 'circle-into-plane'): (0.05, 50, '6ebcf6cb1c702078f92ed5a773750949a1ca9c2d0f7db4a455981ebc3979d2b0'),
    (2, 'cubic-graph'): (0.05, 50, '5de887c05f37219b203132169f2c50adca2169fc7a7462c73df82f43b2ae9a88'),
    (2, 'sphere-disc'): (0.02, 50, '552b1cada5de14eb17c32b0374f209223290d673965569da5258664fe33cd083'),
    (3, 'circle-into-plane'): (0.05, 50, '1a337b768c4eb94e51f70e42efc05535e35e4e9d81dbdce4374bc1d2d5e3bab5'),
    (3, 'cubic-graph'): (0.05, 50, '213b843fdec86e6ebcdec028b29660a8c74830b3c0bcd234b07f347de8dd2127'),
    (3, 'sphere-disc'): (0.02, 50, 'c56682d15587f36335455f04c23bbe5721aa962553fb4af2df6f2afa197c25c8'),
    (20261017, 'circle-into-plane'): (0.05, 50, '23c6daf681a7b14927fc99d89bfe6ad416215fc051ef8cb3bfe4fb1701353c3b'),
    (20261017, 'cubic-graph'): (0.05, 50, '9238884dabe9f0255593656a9d0edbc1fa871a679eaf1a171aaa8c64111e68b8'),
    (20261017, 'sphere-disc'): (0.02, 50, 'b6e95a0018bf2b1053ff6614882049a7740983a877a8de5b22cdc689f598fbfc'),
}


@pytest.mark.parametrize("seed, name", sorted(INSTABILITY), ids=lambda v: str(v))
def test_instability_rows(seed, name):
    scene = gallery_entry(name).scene()
    ctx = scene.build_context(seed=derive_seed(seed, "context"))
    exp = scene.experiments or {}
    inc = scene.prestratification.incidences[0]
    rep = instability_demo(
        ctx, inc.x, inc.y, inc.point, count=int(exp.get("count", 20)),
        radius=float(exp.get("radius", 1.0)), seed=derive_seed(seed, "instability"),
    )
    assert [r["index"] for r in rep.rows] == list(range(1, len(INSTABILITY[seed, name]) + 1))
    assert all(r["defect"] == 1 for r in rep.rows)
    got = tuple((r["c1_distance"].hex(), r["distance_to_point"].hex()) for r in rep.rows)
    assert got == INSTABILITY[seed, name]


@pytest.mark.parametrize("seed, name", sorted(NONGENERICITY), ids=lambda v: str(v))
def test_nongenericity_report(seed, name):
    out = nongenericity_demo(gallery_entry(name).scene(), seed=seed).to_json()
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert (out["eps"], len(out["witnesses"]), digest) == NONGENERICITY[seed, name]
