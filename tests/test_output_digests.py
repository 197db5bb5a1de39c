"""Byte-identity lock: sha256 digests of `qexp_to_json` for lifts, level
change, the corrected combination and fixture builds.

The digests were taken before the four lift bodies became one kernel with
one constant-term sum and before the number-theory helpers moved to
`shimlift.arith`; any change to a coefficient, a window or the JSON text
of these outputs shows here.  Inputs have T prec^2 + 1 = 6481 terms
(prec 12, largest index 45).
"""
from __future__ import annotations

import hashlib
import json

import pytest

from shimlift import fixtures, qseries, shimura

PREC = 12
WINDOW = 45 * PREC * PREC + 1

DIGESTS = {
    "S1/cohen52": "9cb12f3f96fcfd32077fd394e57feda9da4ecff70187994da15db2b48c53b81f",
    "S1/hj4": "5fc759fe918c54e35b59fa01928823f67e23e64dc748468fdb1e0c36012aca58",
    "S1/theta_e4": "9c17e0a067d46144cc9c0cb935d0b352c16b9be154c27de8692634101ec5875f",
    "St/cohen52/1": "9cb12f3f96fcfd32077fd394e57feda9da4ecff70187994da15db2b48c53b81f",
    "St/cohen52/13": "2fc986106cb7027fa74361c76d457683be846f10ebc0adbefe9a3237c2431f09",
    "St/cohen52/5": "8bf61e04874b9b290a18c15f64f5bc6fb81c2155dda39bd525598c48c889b69b",
    "St/hj4/1": "5fc759fe918c54e35b59fa01928823f67e23e64dc748468fdb1e0c36012aca58",
    "St/hj4/13": "b9285b289d678910e2dae3a3aedde3174d4683a933dc1b903a2f46947a5a7572",
    "St/hj4/5": "acd76f47490dec11a37916f573e1191fc355416b426627d70ffe9ffe09d4c138",
    "St/theta_e4/1": "9c17e0a067d46144cc9c0cb935d0b352c16b9be154c27de8692634101ec5875f",
    "St/theta_e4/13": "0a2eb5f04c3e1fc7ebe5331dd29d4516fdd94b7342376d39175aefc98771b081",
    "St/theta_e4/5": "9ea55f00b6df169536b57b609ecf1d7393a61b79a26ff8b5076bf6f7996c07f1",
    "corrected_combination": "959715c20a68ae0b49ff3eb20876685ece074f27318a24d815638a8f8549d7db",
    "fixture/cohen72": "11ad8453fa7bf0d167de52ca930dcdf2303c99572f7c770317bb43a0b15d3f15",
    "fixture/cohen92": "4d745d64f16cb39f7f07d7846497cce2e11346509590f1b5457437ac77e2870d",
    "fixture/j": "a2d09e2e6a8b744705250981b0d0636b38df749a699d47c60bde8a54ca2d8d80",
    "general/cohen52/20": "bf2bc4a9dde8442c311f723752bfc8d8efc1e5988df704eb921281b9e9e4da42",
    "general/cohen52/4": "443e7d2ab3b213dcc4e85c1696ee0e0010ee47e2c8ad4c588824285abf44f4ef",
    "general/cohen52/45": "3c6df534eeffad69f6120c5be55b85e7bdf0662cd68d370d5c880644cfb5a201",
    "general/hj4/20": "0d22ae718328fb9f98987aba0d2f6bd8eb5446c677d6d2beb2e5cb03a29f1937",
    "general/hj4/4": "d6479da2074cf00ce51261d5d7ff587f8cde92f9891a1b7b27d153aa45196ff5",
    "general/hj4/45": "528a9b866324521f73774e46aaf33e75a81202fe0665272877c0c7978bc5ce1c",
    "general/theta_e4/20": "f4da7b4982e8de5575638d56e591495def29de474d83e83218bff960a4701472",
    "general/theta_e4/4": "3ac3295f1e4c12e07d8ba598a71b2fa5e6a44144ddb4719aeaa151d23700636f",
    "general/theta_e4/45": "64c81b5e113daeadade6a8465f78f44f775ecf53271d369079902d1ac9032037",
    "level_change_rhs/5": "6104d67a0e09f8b66da4320b2f01f0f046b37ee1b48eccada217c8a181b1914f",
    "level_change_rhs/7": "a01a6c71ba07130bfc46efb078f73dbe09475bc665dcef8c2a9a0a0034b05722",
}


def _sha(f: qseries.QExp) -> str:
    text = json.dumps(qseries.qexp_to_json(f), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs():
    return {name: fixtures.fixture(name, WINDOW) for name in ("cohen52", "theta_e4", "hj4")}


@pytest.mark.parametrize("name, k", [("cohen52", 2), ("theta_e4", 4), ("hj4", 2)])
def test_lift_digests(inputs, name, k):
    f = inputs[name]
    got = {"S1/%s" % name: _sha(shimura.shimura_S1(f, 1, k, PREC))}
    for t in (1, 5, 13):
        got["St/%s/%d" % (name, t)] = _sha(shimura.shimura_St(f, 1, k, t, 1, PREC))
    for t, s in ((1, 2), (5, 2), (5, 3)):
        got["general/%s/%d" % (name, t * s * s)] = _sha(shimura.shimura_general(f, 1, k, t, s, 1, PREC))
    assert got == {key: DIGESTS[key] for key in got}


def test_level_change_and_correction_digests(inputs):
    h = inputs["cohen52"]
    for M in (5, 7):
        assert _sha(shimura.level_change_rhs(h, 1, M, 2, 1, 1, PREC)) == DIGESTS["level_change_rhs/%d" % M], M
    got = _sha(shimura.corrected_combination(h, 1, 3, 2, 1, 1, -1, PREC))
    assert got == DIGESTS["corrected_combination"]


@pytest.mark.parametrize("name", ["cohen72", "cohen92", "j"])
def test_fixture_digests(name):
    assert _sha(fixtures.fixture(name, 1200)) == DIGESTS["fixture/%s" % name]
