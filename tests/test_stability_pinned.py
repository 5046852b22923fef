"""Pinned output of the calibrated stability run on parallel-planes.

Each entry is what `strathom experiment parallel-planes --stability
--trials 50 --seed SEED` computes: one `stability_trial` call without an
eps, which calibrates, certifies at 50 trials and reports that certifying
batch, with the base map and trial stream the CLI derives from the seed.
It equals `stability_trial` at the eps `calibrate_epsilon` returns.  The eps, the base
map's margin and every trial's `min_margins` are pinned as `float.hex`.
The values were recorded from commit 6e06010, where a margin located its
nearest chart points with a routine of its own beside
`Stratum.locate_many`, so a change to the location kernel, its starts or
its step budget that moved any nearest point shows up here.
"""

import json

import pytest

from strathom.cli import main
from strathom.gallery import gallery_entry

TRIALS = 50

# seed -> (eps, base margin, (min_margins of trials 0 .. 49)), float.hex
PINNED = {
    1: (
        '0x1.16027efaaca00p+1', '0x1.99069d6509bf4p-2', (
            '0x1.894bfe5d8e7bap-3', '0x1.858607c798a67p-3', '0x1.b5f0e96b67f8cp-3',
            '0x1.09db234cd42cdp-2', '0x1.6bc74dc5518d8p-3', '0x1.b69b34dca287fp-4',
            '0x1.8cc4822ad18dep-2', '0x1.ad0b8c1f8163fp-5', '0x1.57a381639f401p-3',
            '0x1.470e5f8510b2ap-4', '0x1.e56c17ca0ab19p-3', '0x1.51d0ea3783d41p-3',
            '0x1.1d05745371398p-2', '0x1.f64fbaf0a259cp-3', '0x1.b0ad1770af37ap-3',
            '0x1.36c11590643fap-4', '0x1.f28837547c83fp-3', '0x1.08a1bd33f778bp-3',
            '0x1.8b42ce78a8263p-4', '0x1.89dd2def19295p-3', '0x1.42631055f1638p-2',
            '0x1.7a88745d55f49p-3', '0x1.9c6e784f4c94dp-3', '0x1.c0d8e8d8747c6p-3',
            '0x1.2120e07e69642p-3', '0x1.253533059da75p-3', '0x1.ead88608eab61p-3',
            '0x1.9af0baf6791b7p-3', '0x1.05f6c62aa5744p-2', '0x1.1c26726e50a04p-2',
            '0x1.b90587216577cp-5', '0x1.c0847afdbb9e3p-3', '0x1.791efdb30e956p-3',
            '0x1.c6ce51ffafbc6p-3', '0x1.3697969a33888p-3', '0x1.04effff63ffc3p-2',
            '0x1.2a9a5f812f9aep-2', '0x1.2024198be2fc6p-3', '0x1.0249ea1bd5635p-2',
            '0x1.8cd714db06f82p-3', '0x1.97be71dbf974fp-3', '0x1.9566b26edf706p-3',
            '0x1.ca7b91cc5468cp-3', '0x1.6e5f151e48f6dp-3', '0x1.c905346d8b3e2p-3',
            '0x1.b6934c9daf84ap-4', '0x1.e8c32e2c508d1p-4', '0x1.4bd611c7fffdbp-2',
            '0x1.2418bb9149833p-3', '0x1.5888d72feda5fp-3',
        ),
    ),
    2: (
        '0x1.31aa0d64de6aep-1', '0x1.b79b66add5745p-3', (
            '0x1.24fd2cb4a756cp-3', '0x1.1cae01261365ep-3', '0x1.87b9054f4baf1p-3',
            '0x1.7ab681dd98fdep-3', '0x1.7cb4b34063dfbp-3', '0x1.4d566bf022450p-3',
            '0x1.8d751dffc19e7p-3', '0x1.2c36af02e0198p-3', '0x1.3579619040d2fp-3',
            '0x1.b22938111144cp-3', '0x1.a132f3caa9185p-3', '0x1.b79b66add5745p-3',
            '0x1.8f525f99062b3p-3', '0x1.7c240da2cdc6dp-3', '0x1.ab618097709c1p-3',
            '0x1.9594873a32e4ap-3', '0x1.85c252f389cbcp-3', '0x1.92f46e167bd63p-3',
            '0x1.94e7dba03b343p-3', '0x1.7ec1de924d07dp-3', '0x1.a3048a5a2cf1ap-3',
            '0x1.5aac2b89dc371p-3', '0x1.5d97047b62da1p-3', '0x1.7828c643ff682p-3',
            '0x1.53a5045415428p-3', '0x1.ac558ff5d5c0ep-3', '0x1.3f5450c917c28p-4',
            '0x1.6048cef57549ap-3', '0x1.534b089925311p-3', '0x1.2f91db6d821a6p-3',
            '0x1.75f46a6b1cab5p-3', '0x1.60efd10bb410ep-3', '0x1.52ee3b24c5a76p-3',
            '0x1.7f7beef2897e9p-3', '0x1.9898ee1208e12p-3', '0x1.88105edb65f2fp-3',
            '0x1.8d7c3801f19ffp-3', '0x1.b79b66add5745p-3', '0x1.43e28a5802067p-3',
            '0x1.7184ffa418fd7p-3', '0x1.9696f9ecf7164p-3', '0x1.9293e3dc7560ap-4',
            '0x1.72d371ec19caep-3', '0x1.5ae534b4cf94cp-3', '0x1.f739100a41f19p-4',
            '0x1.1ac1103f1f9bep-3', '0x1.6ab4809251af3p-3', '0x1.8ff0b0c2153eep-3',
            '0x1.9e710167ef080p-3', '0x1.39416b2412d51p-3',
        ),
    ),
    3: (
        '0x1.301ac6838e46dp-2', '0x1.957908af685e7p-3', (
            '0x1.81054e6677887p-3', '0x1.858611fac99b6p-3', '0x1.7b7d9fba3366dp-3',
            '0x1.957908af685e7p-3', '0x1.64fcd62ca96d9p-3', '0x1.792f9b9f717dfp-3',
            '0x1.79c4af7310ec9p-3', '0x1.3d4d1c7be1119p-3', '0x1.5df301fef36efp-3',
            '0x1.85c46008ee789p-3', '0x1.7321079a633f9p-3', '0x1.826857682ba58p-3',
            '0x1.e455f97e7212fp-4', '0x1.77f2afa385cd9p-3', '0x1.5685e78f81edbp-3',
            '0x1.7767c096931a6p-3', '0x1.71bd826336ccbp-3', '0x1.88a28ae7a901ep-3',
            '0x1.90b69ef85337fp-3', '0x1.67a4b9c50475cp-3', '0x1.53455bc14f705p-3',
            '0x1.7ba7fcc6203b6p-3', '0x1.65948a499ccc6p-3', '0x1.6cf1f8e9d41b3p-3',
            '0x1.6c7c6178880fep-3', '0x1.663ce2f4a1283p-3', '0x1.6f46b559ad8e6p-3',
            '0x1.dd31231b6d180p-4', '0x1.7703f490d3f0cp-3', '0x1.818841ad5b3bap-3',
            '0x1.832c69e0bcd73p-3', '0x1.7e90758f9d8bep-3', '0x1.0c81e24d84d97p-3',
            '0x1.856d21fdf9632p-3', '0x1.939dd02496ec8p-3', '0x1.5d96148d9e98cp-3',
            '0x1.7ea43559721c9p-3', '0x1.117ba6fade508p-3', '0x1.6665c6dc01e53p-3',
            '0x1.87dfdbf60ad59p-3', '0x1.8709f66d4d7f1p-3', '0x1.4cd9fbef98dbdp-3',
            '0x1.63938ea7c7a62p-3', '0x1.6fe45079371cbp-3', '0x1.53c05f94c25c7p-3',
            '0x1.8402d63894553p-3', '0x1.957908af685cep-3', '0x1.6a59037c54db7p-3',
            '0x1.58904f6adda4cp-3', '0x1.942c71088ad96p-3',
        ),
    ),
    20261017: (
        '0x1.a6247b9fcc044p+0', '0x1.c9ead433d8f7ap-2', (
            '0x1.323a243635602p-2', '0x1.c9ead433d8f7ap-2', '0x1.18a540cae2883p-3',
            '0x1.9535632a78839p-2', '0x1.95d056105ffcdp-2', '0x1.0152c9adb16d8p-2',
            '0x1.c9ead433d8f7ap-2', '0x1.0c79d511f5d6ap-2', '0x1.a9a9bc76b3ab3p-5',
            '0x1.169d3c880d268p-2', '0x1.a989c66d2b3d0p-3', '0x1.802232b257cd7p-3',
            '0x1.5f412803c79d0p-2', '0x1.a2d553d1d6a60p-3', '0x1.66a25d467149fp-2',
            '0x1.fec60c0f28347p-4', '0x1.98b3a4abad2c8p-3', '0x1.c07d69f074f8fp-2',
            '0x1.c12413893cb96p-3', '0x1.f6735b02e2630p-3', '0x1.1aadae3b32bbcp-2',
            '0x1.5b813b4545a32p-2', '0x1.a463a05127386p-3', '0x1.34ab54486325ep-2',
            '0x1.829aef5e0b42bp-2', '0x1.31f6a780b60f0p-2', '0x1.96d650b5fac8fp-3',
            '0x1.4c8bb27f194f7p-2', '0x1.5bda6f96e57dfp-2', '0x1.3e9cfab0a7a91p-2',
            '0x1.80e66cbf46aedp-3', '0x1.4998bf09f01c4p-3', '0x1.8c21e8a48d103p-2',
            '0x1.09a4925eefb66p-3', '0x1.5575c685967dep-2', '0x1.55482501e4ca8p-2',
            '0x1.06ffdfda25962p-2', '0x1.774b8d0a391f6p-2', '0x1.28774958e4dfap-2',
            '0x1.f11d5e5424bdbp-3', '0x1.6c4075bd39d39p-3', '0x1.4671c47580bfep-2',
            '0x1.706ca7570f9eep-3', '0x1.640aec8c1c1cap-3', '0x1.72b7f04adb434p-2',
            '0x1.cd66726569edap-3', '0x1.07cea3afacb90p-2', '0x1.8248c5b94f9a9p-3',
            '0x1.c9ead433d8f7ap-2', '0x1.0763061fc57cbp-2',
        ),
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED), ids=str)
def test_calibrated_stability_run(seed, tmp_path, capsys):
    scene = tmp_path / "parallel-planes.json"
    scene.write_text(json.dumps(gallery_entry("parallel-planes").scene_dict))
    out = tmp_path / "stability.json"
    rc = main(["experiment", str(scene), "--stability", "--trials", str(TRIALS), "--seed", str(seed),
               "--json", str(out), "--csv", str(tmp_path / "stability.csv")])
    assert rc == 0
    report = json.loads(out.read_text())["report"]["stability"]
    eps, base_margin, min_margins = PINNED[seed]
    assert report["eps"].hex() == eps
    assert report["base_margin"].hex() == base_margin
    assert tuple(m.hex() for m in report["min_margins"]) == min_margins
    assert report["fraction"] == 1.0
