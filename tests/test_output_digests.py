"""Byte-identity lock: sha256 digests of `qexp_to_json` for lifts, level
change, the corrected combination and fixture builds.

The digests were taken before the four lift bodies became one kernel with
one constant-term sum and before the number-theory helpers moved to
`shimlift.arith`; the orbit digests (a quadratic and an order-4
character, an explicit orbit, non-square-free indices of hj4) were taken
before that kernel became the Dirichlet-convolution sieve over the read
set {T m^2} with integer power sums for the constant term.  Any change to
a coefficient, a window or the JSON text of these outputs shows here.
Inputs have T prec^2 + 1 = 6481 terms (prec 12, largest index 45).

The `project` digests lock the in-process `cli.main` stdout and exit
code of the projection subcommand: both signs through --epsilon and
through --xi with --k, the mod-two projection, levels 4 and 8, and the
refusals at N = 0, at N = 2 and of --xi without --k on an --input file.
They were taken while the projections still read a context object
holding k, xi and N.

The `fixture/<name>/<prec>` digests lock the plus-space builders on
2500- and 40001-term windows; they were taken while the last theta factor
of a Cohen-Eisenstein series was still formed on all four residue classes
and while shift-add still packed slots of 9 or more bytes one at a time;
they held unchanged when shift-add was retired and the theta products
moved to libgmp or int.

The `lift/cohen52/N99995/kronecker:5` digest locks the in-process stdout of
a lift through a character with 68 544 units; it was taken while the
Kronecker table still went through the constructor's multiplicativity
check.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from shimlift import fixtures, qseries, shimura
from shimlift.cli import main
from shimlift.characters import DirichletCharacter
from shimlift.scalars import CycScalar

PREC = 12
WINDOW = 45 * PREC * PREC + 1

DIGESTS = {
    "S1/cohen52": "9cb12f3f96fcfd32077fd394e57feda9da4ecff70187994da15db2b48c53b81f",
    "S1/hj4": "5fc759fe918c54e35b59fa01928823f67e23e64dc748468fdb1e0c36012aca58",
    "S1/theta_e4": "9c17e0a067d46144cc9c0cb935d0b352c16b9be154c27de8692634101ec5875f",
    "project/cohen72/N0": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/cohen72/N0/json": "4ba5c66b784de5ff1836e1a30b61df87066db3f5b1b6c5ffb53db476df9041db",
    "project/cohen72/N0/two": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/cohen72/N0/two/json": "4ba5c66b784de5ff1836e1a30b61df87066db3f5b1b6c5ffb53db476df9041db",
    "project/cohen72/N2": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/cohen72/N2/json": "806c8bb7070dfd0b24faba0e8fd0c260c3e0357cbada80d32a1c11b15d1a5962",
    "project/cohen72/N2/two": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/cohen72/N2/two/json": "370b2d24b966e5ffc91d75f4b90a3e95ec65fedbcd94731df42229cba4a44bb1",
    "project/cohen72/N4/default": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/cohen72/N4/default/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/cohen72/N4/eps+1": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N4/eps+1/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N4/eps-1": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/cohen72/N4/eps-1/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/cohen72/N4/two": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N4/two/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N4/xi+1/k3": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/cohen72/N4/xi+1/k3/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/cohen72/N4/xi+1/k4": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N4/xi+1/k4/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N4/xi-1/k3": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N4/xi-1/k3/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N4/xi-1/k4": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/cohen72/N4/xi-1/k4/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/cohen72/N8/eps+1": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N8/eps+1/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N8/eps-1": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/cohen72/N8/eps-1/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/cohen72/N8/two": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N8/two/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N8/xi+1/k3": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/cohen72/N8/xi+1/k3/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/cohen72/N8/xi+1/k4": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N8/xi+1/k4/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N8/xi-1/k3": "c0dfd9f5ca7c056bea065cb0f9f9ccb16811c5d16dd78a43988773d6324d0b5f",
    "project/cohen72/N8/xi-1/k3/json": "88ae4f423cc085ae4f9e22057ef6c6a01614ed36347debb684677251e1620cef",
    "project/cohen72/N8/xi-1/k4": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/cohen72/N8/xi-1/k4/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/input/N4/eps-1": "28bbcca3a3f23fab5da194e1c6dee702047341409850625f25a6b1622311cb06",
    "project/input/N4/eps-1/json": "bba4f33dc1a292d3b0b25f2894c1b1ae041e144eb450aa9d285ccfefe74e58f9",
    "project/input/xi-without-k": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/input/xi-without-k/json": "9af9e9128e3872327dec1c3efb419cfdd1ed431447369795638d123b3cafb7c7",
    "project/theta_e4/N0": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/theta_e4/N0/json": "4ba5c66b784de5ff1836e1a30b61df87066db3f5b1b6c5ffb53db476df9041db",
    "project/theta_e4/N0/two": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/theta_e4/N0/two/json": "4ba5c66b784de5ff1836e1a30b61df87066db3f5b1b6c5ffb53db476df9041db",
    "project/theta_e4/N2": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/theta_e4/N2/json": "806c8bb7070dfd0b24faba0e8fd0c260c3e0357cbada80d32a1c11b15d1a5962",
    "project/theta_e4/N2/two": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "project/theta_e4/N2/two/json": "370b2d24b966e5ffc91d75f4b90a3e95ec65fedbcd94731df42229cba4a44bb1",
    "project/theta_e4/N4/default": "e0d35cc0e13f04a368b3266ff60c854437fbad17023d4cd4375efb46ecdb971c",
    "project/theta_e4/N4/default/json": "e04d61314b3ffab59ed46a34348ee5863a2981ee07d3b931fbdab028fa4e0d57",
    "project/theta_e4/N4/eps+1": "e0d35cc0e13f04a368b3266ff60c854437fbad17023d4cd4375efb46ecdb971c",
    "project/theta_e4/N4/eps+1/json": "e04d61314b3ffab59ed46a34348ee5863a2981ee07d3b931fbdab028fa4e0d57",
    "project/theta_e4/N4/eps-1": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N4/eps-1/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
    "project/theta_e4/N4/two": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N4/two/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
    "project/theta_e4/N4/xi+1/k3": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N4/xi+1/k3/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
    "project/theta_e4/N4/xi+1/k4": "e0d35cc0e13f04a368b3266ff60c854437fbad17023d4cd4375efb46ecdb971c",
    "project/theta_e4/N4/xi+1/k4/json": "e04d61314b3ffab59ed46a34348ee5863a2981ee07d3b931fbdab028fa4e0d57",
    "project/theta_e4/N4/xi-1/k3": "e0d35cc0e13f04a368b3266ff60c854437fbad17023d4cd4375efb46ecdb971c",
    "project/theta_e4/N4/xi-1/k3/json": "e04d61314b3ffab59ed46a34348ee5863a2981ee07d3b931fbdab028fa4e0d57",
    "project/theta_e4/N4/xi-1/k4": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N4/xi-1/k4/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
    "project/theta_e4/N8/eps+1": "e0d35cc0e13f04a368b3266ff60c854437fbad17023d4cd4375efb46ecdb971c",
    "project/theta_e4/N8/eps+1/json": "e04d61314b3ffab59ed46a34348ee5863a2981ee07d3b931fbdab028fa4e0d57",
    "project/theta_e4/N8/eps-1": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N8/eps-1/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
    "project/theta_e4/N8/two": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N8/two/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
    "project/theta_e4/N8/xi+1/k3": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N8/xi+1/k3/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
    "project/theta_e4/N8/xi+1/k4": "e0d35cc0e13f04a368b3266ff60c854437fbad17023d4cd4375efb46ecdb971c",
    "project/theta_e4/N8/xi+1/k4/json": "e04d61314b3ffab59ed46a34348ee5863a2981ee07d3b931fbdab028fa4e0d57",
    "project/theta_e4/N8/xi-1/k3": "e0d35cc0e13f04a368b3266ff60c854437fbad17023d4cd4375efb46ecdb971c",
    "project/theta_e4/N8/xi-1/k3/json": "e04d61314b3ffab59ed46a34348ee5863a2981ee07d3b931fbdab028fa4e0d57",
    "project/theta_e4/N8/xi-1/k4": "ff30002a4d6f9fad001ec7bcc336d07709d94eb9a4263bc3f58c2d9bbf0284e5",
    "project/theta_e4/N8/xi-1/k4/json": "55181233d3d4db4665a901b7aabfb541232a39fc8b389ce1aa1ec3bc68764fda",
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
    "cyclotomic/S1/theta_e4": "235a4a3a83b2f6f46c26198ed499fc0bf9a21dbd36e98330983eed4c52dedd94",
    "cyclotomic/general/hj4/4/-1": "bba8e93c13836803ec61dd6989a5746bf9eb0c4c98637041ed2ebe8503bf36c2",
    "cyclotomic/level_change_rhs/3/-1": "dc995ed6de856a002d81312ba86235e08821b97ff36848b29a31fd56e99d8c1a",
    "explicit/S1": "20bf9198fa653fb5c6835958e2e0700446f835425b6937feef7f6fcdc2b43ff5",
    "explicit/general/4": "440f733bc425ed72b7804eeee98b78c6cb2ce39e678b839a2ffa8a41c536be7d",
    "explicit/level_change_rhs/5": "127269d3b369115f1b801d2dade5e48d37a6f5d3ab32127fc3406db209e99622",
    "fixture/cohen52/40001": "0174a9f5ce3fa47be9e6f8f5a9a4f9cdabf81c5e7e5d7ab5849eba2d4a4ecf59",
    "fixture/cohen72": "11ad8453fa7bf0d167de52ca930dcdf2303c99572f7c770317bb43a0b15d3f15",
    "fixture/cohen72/2500": "678663fd2177a6a1fc32ef670bdfa8969264e37ed9ce2186b16ce599c0bd08ff",
    "fixture/cohen72/40001": "ae206f227b2edae0b297913c540cbed326ae384529dbbfcc8c19d2645986b96d",
    "fixture/cohen92": "4d745d64f16cb39f7f07d7846497cce2e11346509590f1b5457437ac77e2870d",
    "fixture/cohen92/2500": "890c4041dbc5a3f4753fc0d2b0a1c908068b181f8154dcb44d29bbca9557c7bc",
    "fixture/cohen92/40001": "af33bec881e123799788702a8b4b353473344b8653082130d414e3dd96e7283e",
    "fixture/j": "a2d09e2e6a8b744705250981b0d0636b38df749a699d47c60bde8a54ca2d8d80",
    "fixture/theta_e4/40001": "54707fcb4976e618e932e69d2e75658a3d055f556784f13641d03a905b259747",
    "fixture/theta_e6/40001": "31b12281365bbde83e176017930c0892e083dd163917759436de5a59909fa958",
    "general/cohen52/20": "bf2bc4a9dde8442c311f723752bfc8d8efc1e5988df704eb921281b9e9e4da42",
    "general/cohen52/4": "443e7d2ab3b213dcc4e85c1696ee0e0010ee47e2c8ad4c588824285abf44f4ef",
    "general/cohen52/45": "3c6df534eeffad69f6120c5be55b85e7bdf0662cd68d370d5c880644cfb5a201",
    "general/hj4/12/-1": "2f8cfa06f2642c99750527a48433cd613daeb859bc6d98d4c5147bdd549f51a5",
    "general/hj4/18/N4": "ecca79985e92925d8d356fc0723cf84e701c7bcfaf9142b33cc7f04600e51078",
    "general/hj4/20": "0d22ae718328fb9f98987aba0d2f6bd8eb5446c677d6d2beb2e5cb03a29f1937",
    "general/hj4/4": "d6479da2074cf00ce51261d5d7ff587f8cde92f9891a1b7b27d153aa45196ff5",
    "general/hj4/45": "528a9b866324521f73774e46aaf33e75a81202fe0665272877c0c7978bc5ce1c",
    "general/theta_e4/20": "f4da7b4982e8de5575638d56e591495def29de474d83e83218bff960a4701472",
    "general/theta_e4/4": "3ac3295f1e4c12e07d8ba598a71b2fa5e6a44144ddb4719aeaa151d23700636f",
    "general/theta_e4/45": "64c81b5e113daeadade6a8465f78f44f775ecf53271d369079902d1ac9032037",
    "lift/cohen52/N99995/kronecker:5": "9690c9e7c0ee0fdbc2baa95f5f4f09df22c2101216fdfecc8a317a491ef16386",
    "level_change_rhs/5": "6104d67a0e09f8b66da4320b2f01f0f046b37ee1b48eccada217c8a181b1914f",
    "level_change_rhs/7": "a01a6c71ba07130bfc46efb078f73dbe09475bc665dcef8c2a9a0a0034b05722",
    "quadratic/S1/cohen52": "295e18e2c800845e8eeafb5a42b964cff58bc4b2b8bf8eb1fca7ee231a3d2b47",
    "quadratic/general/cohen52/12": "1fbb380bc089f7f37268b48bee1efe37dbebd8d778f9882aa7189fbb911ebfc8",
    "quadratic/level_change_rhs/3": "d2c363ed707b4bc1bbf20fea6b7bb65451aa2e07a4f25fe98de33cb769c37b94",
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


def _orbit_lifts(inputs) -> dict:
    """Lifts through a quadratic character, an order-4 character, an
    explicit orbit with two coefficient denominators, and non-square-free
    indices of the weakly holomorphic hj4."""
    h, e4, hj4 = inputs["cohen52"], inputs["theta_e4"], inputs["hj4"]
    quad = shimura.CharacterOrbit(DirichletCharacter.from_kronecker(5, 5))
    i = CycScalar.root_of_unity(4, 1)
    cyc = shimura.CharacterOrbit(DirichletCharacter(5, {1: 1, 2: i, 4: -1, 3: -i}))
    explicit = shimura.ExplicitOrbit(3, {1: h, 2: qseries.scale(hj4, Fraction(2, 7))})
    return {
        "quadratic/S1/cohen52": shimura.shimura_S1(h, 5, 2, PREC, quad),
        "quadratic/general/cohen52/12": shimura.shimura_general(h, 5, 2, 3, 2, -1, PREC, quad),
        "quadratic/level_change_rhs/3": shimura.level_change_rhs(h, 5, 3, 2, 1, 1, PREC, quad),
        "cyclotomic/S1/theta_e4": shimura.shimura_S1(e4, 5, 4, PREC, cyc),
        "cyclotomic/general/hj4/4/-1": shimura.shimura_general(hj4, 5, 2, 1, 2, -1, PREC, cyc),
        "cyclotomic/level_change_rhs/3/-1": shimura.level_change_rhs(h, 5, 3, 2, 1, -1, PREC, cyc),
        "explicit/S1": shimura.shimura_S1(h, 3, 2, PREC, explicit),
        "explicit/general/4": shimura.shimura_general(h, 3, 2, 1, 2, 1, PREC, explicit),
        "explicit/level_change_rhs/5": shimura.level_change_rhs(h, 3, 5, 2, 1, 1, PREC, explicit),
        "general/hj4/12/-1": shimura.shimura_general(hj4, 1, 2, 3, 2, -1, PREC),
        "general/hj4/18/N4": shimura.shimura_general(hj4, 4, 2, 2, 3, 1, PREC),
    }


def test_orbit_lift_digests(inputs):
    got = {key: _sha(f) for key, f in _orbit_lifts(inputs).items()}
    assert got == {key: DIGESTS.get(key) for key in got}


def test_large_level_kronecker_lift_digest(capsys):
    argv = ["lift", "--fixture", "cohen52", "--N", "99995", "--prec", "30", "--character", "kronecker:5", "--json"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DIGESTS["lift/cohen52/N99995/kronecker:5"]


@pytest.mark.parametrize("name", ["cohen72", "cohen92", "j"])
def test_fixture_digests(name):
    assert _sha(fixtures.fixture(name, 1200)) == DIGESTS["fixture/%s" % name]


@pytest.mark.parametrize("name, prec", [
    ("cohen52", 40001), ("theta_e4", 40001), ("theta_e6", 40001),
    ("cohen72", 2500), ("cohen72", 40001), ("cohen92", 2500), ("cohen92", 40001),
])
def test_wide_fixture_digests(name, prec):
    # the plus-space builders on the windows a lift request asks for
    assert _sha(fixtures.fixture(name, prec)) == DIGESTS["fixture/%s/%d" % (name, prec)]


_PROJECT_MODES = {
    "eps+1": ("--epsilon", "1"),
    "eps-1": ("--epsilon", "-1"),
    "xi+1/k3": ("--xi", "1", "--k", "3"),
    "xi-1/k3": ("--xi", "-1", "--k", "3"),
    "xi+1/k4": ("--xi", "1", "--k", "4"),
    "xi-1/k4": ("--xi", "-1", "--k", "4"),
    "two": ("--two",),
}


def _project_cases() -> dict:
    """Digest key -> project argv after the source flags ("{input}" stands
    for the path of a cohen72 window written as JSON)."""
    cases = {}
    for name in ("cohen72", "theta_e4"):
        for N in ("4", "8"):
            for mode, flags in _PROJECT_MODES.items():
                cases["project/%s/N%s/%s" % (name, N, mode)] = ("--fixture", name, "--N", N, *flags)
        cases["project/%s/N4/default" % name] = ("--fixture", name, "--N", "4")
        for N in ("0", "2"):
            cases["project/%s/N%s" % (name, N)] = ("--fixture", name, "--N", N)
            cases["project/%s/N%s/two" % (name, N)] = ("--fixture", name, "--N", N, "--two")
    cases["project/input/N4/eps-1"] = ("--input", "{input}", "--N", "4", "--epsilon", "-1")
    cases["project/input/xi-without-k"] = ("--input", "{input}", "--N", "4", "--xi", "1")
    return cases


@pytest.mark.parametrize("key, argv", sorted(_project_cases().items()))
@pytest.mark.parametrize("json_flag", [("--json",), ()], ids=["json", "human"])
def test_project_cli_digests(capsys, tmp_path, key, argv, json_flag):
    src = tmp_path / "cohen72.json"
    src.write_text(json.dumps(qseries.qexp_to_json(fixtures.fixture("cohen72", 60))))
    argv = ["project", *(str(src) if a == "{input}" else a for a in argv), "--prec", "60", *json_flag]
    code = main(argv)
    text = "%d\n%s" % (code, capsys.readouterr().out)
    key = key + ("/json" if json_flag else "")
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[key]
