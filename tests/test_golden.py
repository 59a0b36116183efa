"""Golden reports: the timing-free JSON and text reports of the preset
pipelines are pinned by sha256, so any change that moves one byte of a
verdict, a witness, a label or a random draw fails here."""

import hashlib

import pytest

from algebroids import cli, instances

# (preset, suite) -> (all_passed, sha256 of the JSON, sha256 of the text),
# both rendered with timing=False at seed=1, trials=2
GOLDEN = {
    ("aff1-bialgebra", "all"): (
        True,
        "43706ed9246f21327a2d20d86e2b23cf5a92d91a4d48d93f35383f51a16831ff",
        "b1dbbeb3ec73e8cc7e1f5465f12bf0e0a0c2cf5c9ebd00550fbac85a80b67231"),
    ("foliation-x", "all"): (
        True,
        "f5f0d3b16a23f23f1cdcce6311c712d8be9adddd4f537ea2d67dee371a03e5a5",
        "421669f6b16c0103410510a1b77e3c8a147064d48a4036d2671c3d2438c27586"),
    ("iis-curved-negative", "all"): (
        False,
        "bdbe918a7c665770dc3687791a9f14eff9fbcf0c2aaa008d34dc4ec0915a1ccf",
        "68a1d1baa47ec608f3d2d2e057ebb4be88ec6b3d7b4d39c963afc5443d3e545b"),
    ("nonclosed-zdxdy", "all"): (
        False,
        "865074297f89cb6df35a3865e7fd9e2584408a74d95bcfd5d71965529848cdae",
        "fc3e62afaadc05eed9fa30301e2d041e614a97682834c9398e7e3800e0cdf551"),
    ("poisson-xy", "all"): (
        True,
        "06df0f6dcf0a63bef6ee6804da72b8fc08c35f4cd47447fb03235f4fb9325b35",
        "0fe62ec8e6cbe76998151cbc99a2c8e1c65a2a791dc0d277f848525c9df1f53b"),
    ("presymplectic-dxdy", "all"): (
        True,
        "5fb0f0de1478393cb7b648d3eacc0b81287a360d55d2db3ec009160ffb6ff68d",
        "d02e1a4315cc94d87cdc6edffa27ecee73c743bc3e5b6b2d28ff55f6052a0ebc"),
    ("poisson-xy", "lemmas"): (
        True,
        "24ae5521a3c829911f0c8272ed969a96d418a134736e66e02bda49d3700fe4c6",
        "f4adf63daef811dc3559add66fd72f6298db2e7834bd7e296422e7e512c4798e"),
    ("presymplectic-dxdy", "lemmas"): (
        True,
        "f3881a88343be6efe021058c2bd7526f3e99c2fda37243b5eb37541657dcc555",
        "d883cff0becf5143433364628673126c5fda04f42c5863b4d6b813007353b069"),
    ("foliation-x", "lemmas"): (
        True,
        "a07d8dac915c0edffcb4ffb0fbb13a650fe5e1217354a04895f56aa1dc0cbb25",
        "4bbbc332969fa30a90cb91ddb55f66e50c1f635d776eacc7f1988941344ba48b"),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("preset,suite", sorted(GOLDEN))
def test_golden_report(preset, suite):
    report = cli.run(preset, suite, seed=1, trials=2)
    got = (report.all_passed, _sha(report.to_json(timing=False)),
           _sha(report.to_text(timing=False)))
    assert got == GOLDEN[(preset, suite)]


# The presets are all polynomial.  This instance is genuinely rational on
# three coordinates, so its reports pin the gcd cancelling and the exact
# division in Z[x] as well: trials -> (all_passed, sha256 of the JSON,
# sha256 of the text) of `check all`, rendered with timing=False at seed=1
RATIONAL_3 = """\
[instance]
name = poisson-rational-3
kind = poisson

[patch]
coords = x, y, z

[pi]
0,1 = (x^2 + 1)/y
"""

GOLDEN_RATIONAL_3 = {
    0: (True,
        "4f972091a265f1ff0d234b082003a4006c9b19ea06edbd0bb7c3b9897c8d8861",
        "2346d36ebb1daa034bb84a10927684f484d933394c81bb3e17f6612f5ed23480"),
    1: (True,
        "bee295b0c16a8fa0fb14bfc18f6d93509b267e78f01f42b79e9f43731b782680",
        "6ed5b384f56e3f2f5c4ca1ee2cb1518ef20cb2125361923a74826784478aa7cb"),
}


@pytest.mark.parametrize("trials", sorted(GOLDEN_RATIONAL_3))
def test_golden_rational_report(trials):
    report = cli.run(instances.ingest_text(RATIONAL_3), "all", seed=1,
                     trials=trials)
    got = (report.all_passed, _sha(report.to_json(timing=False)),
           _sha(report.to_text(timing=False)))
    assert got == GOLDEN_RATIONAL_3[trials]
