"""The CLI's error contract under malformed input: every JSON document,
however wrong, ends in exit 0, 1, 2 or 3 with no exception escaping
`main`, and under --json in exactly one JSON object on stdout.

The property feeds generated documents through `main` in-process; the
explicit tests pin the inputs that used to end in a traceback.
"""
from __future__ import annotations

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimlift.cli import main
from shimlift.fixtures import fixture
from shimlift.qseries import qexp_to_json


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    code, out, _ = _call(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    lines = out.splitlines()
    assert len(lines) == 1, (argv, out)
    payload = json.loads(lines[0])
    assert isinstance(payload, dict)
    return code, payload


# -- generated documents -------------------------------------------------
#
# A document is a well-formed series or character object, random or taken
# from a fixture, in which up to two nodes (a field, a list entry, a leaf)
# are replaced by a value of the wrong type or deleted.

_junk = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), max_size=2),
    st.builds(lambda order: {"order": order, "terms": [[1, "1"]]}, st.integers(1, 6)),
)
_rational = st.one_of(
    st.fractions(max_denominator=50).map(str),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["1/0", "x", "", "1.5", "-6/-4", " 3", "1_0", "1" + "0" * 400, "1/" + "7" * 400]),
)
_cyclotomic = st.fixed_dictionaries({
    "order": st.integers(1, 12),
    "terms": st.lists(st.tuples(st.integers(-5, 30), _rational).map(list), max_size=4),
})
_scalar = st.one_of(_rational, _rational, _rational, _cyclotomic)


@st.composite
def _random_series(draw):
    """A q-expansion object with a window of at most 200 terms and
    exponents in [-50, 200]."""
    lo = draw(st.integers(-50, 200))
    hi = lo + draw(st.integers(0, 200))
    exps = draw(st.lists(st.integers(-50, 200), max_size=30, unique=True))
    return {
        "weight": {"num": draw(st.sampled_from([-3, 1, 4, 5, 12, 10**400])),
                   "den": draw(st.sampled_from([1, 2, 2, 0, 3]))},
        "exponent_denominator": draw(st.sampled_from([1, 1, 2, 4, 0])),
        "window": [lo, hi],
        "coefficients": [[a, draw(_scalar)] for a in sorted(exps)],
        "metadata": {},
    }


_FIXTURE_DOCS = [
    qexp_to_json(fixture(name, prec))
    for name, prec in (("cohen52", 12), ("theta", 30), ("e4", 12), ("cohen72", 8), ("zero", 5))
]
_series = st.one_of(_random_series(), st.sampled_from(_FIXTURE_DOCS))
_character = st.one_of(
    st.sampled_from([{"modulus": 4, "kind": "trivial"}, {"modulus": 3, "kind": "kronecker", "t": -3}]),
    st.fixed_dictionaries({
        "modulus": st.integers(-1, 40),
        "kind": st.sampled_from(["trivial", "kronecker", "explicit", "dirichlet"]),
        "t": st.integers(-200, 200),
        "values": st.lists(st.tuples(st.integers(-5, 40), _scalar).map(list), max_size=6),
    }),
)


def _nodes(doc, path=()):
    """Paths to every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


@st.composite
def _corrupted(draw, documents):
    doc = json.loads(json.dumps(draw(documents)))  # a private copy
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_nodes(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        if draw(st.booleans()):
            parent[last] = draw(_junk)
        else:
            del parent[last]
    return doc


def _requests(path):
    series_calls = st.one_of(
        st.tuples(st.integers(1, 6), st.integers(0, 4)).map(
            lambda kp: ["lift", "--input", path, "--k", str(kp[0]), "--prec", str(kp[1]), "--json"]),
        st.sampled_from(["4", "0", "12", "24", "5/2", "-2"]).map(
            lambda w: ["verify", "--input", path, "--weight", w, "--mode", "exact", "--json"]),
        st.sampled_from([("1/2", "4"), ("4", "1"), ("3/2", "4"), ("1/2", "1"), ("1001/2", "4")]).map(
            lambda wl: ["verify", "--input", path, "--weight", wl[0], "--level", wl[1], "--json"]),
        st.just(["fixtures", "--reemit", path, "--json"]),
    )
    character_calls = st.integers(1, 4).map(
        lambda n: ["lift", "--fixture", "cohen52", "--prec", "3", "--N", str(n),
                   "--character", "json:" + path, "--json"])
    return st.one_of(
        st.tuples(_corrupted(_series), series_calls),
        st.tuples(_corrupted(_character), character_calls),
        st.tuples(_junk, st.one_of(series_calls, character_calls)),
    )


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "doc.json")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_document_meets_the_exit_contract(doc_path, data):
    doc, argv = data.draw(_requests(doc_path))
    with open(doc_path, "w") as fh:
        json.dump(doc, fh)
    _assert_contract(argv)


# -- the inputs that used to end in a traceback ----------------------------


def _series_json(coefficients, weight=(4, 1)):
    return {"weight": {"num": weight[0], "den": weight[1]}, "exponent_denominator": 1,
            "window": [0, 50], "coefficients": coefficients, "metadata": {}}


def _refusal(tmp_path, argv, doc=None, text=None):
    path = tmp_path / "doc.json"
    path.write_text(text if text is not None else json.dumps(doc))
    argv = [str(path) if a == "PATH" else "json:%s" % path if a == "json:PATH" else a for a in argv]
    code, out, err = _call(argv)
    assert code == 2 and err == "", (argv, code, err)
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("argv", [
    ["lift", "--input", "PATH", "--k", "2", "--json"],
    ["fixtures", "--reemit", "PATH", "--json"],
    ["lift", "--fixture", "cohen52", "--prec", "3", "--character", "json:PATH", "--json"],
], ids=["lift-input", "reemit", "character"])
def test_deeply_nested_json_is_a_schema_error(tmp_path, argv):
    payload = _refusal(tmp_path, argv, text="[" * 100000)
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith("input is not JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("changes, message", [
    ({"coefficients": [[True, "1"]]}, "coefficient entry must be [exponent, scalar]"),
    ({"exponent_denominator": True}, "exponent_denominator must be a positive integer"),
    ({"window": [False, True]}, "window must be [lo, hi] with integers lo <= hi"),
], ids=["exponent", "exponent-denominator", "window"])
def test_reemit_refuses_a_bool_for_an_integer(tmp_path, changes, message):
    doc = dict(_series_json([[1, "1"]]), **changes)
    payload = _refusal(tmp_path, ["fixtures", "--reemit", "PATH", "--json"], doc)
    assert payload == {"error": "SchemaError", "message": message}


def test_exact_verify_refuses_cyclotomic_coefficients(tmp_path):
    doc = _series_json([[0, "1"], [1, {"order": 3, "terms": [[1, "1"]]}]])
    payload = _refusal(tmp_path, ["verify", "--input", "PATH", "--weight", "4", "--mode", "exact", "--json"], doc)
    assert payload == {"error": "ValueError", "message": "exact decomposition needs rational coefficients"}


@pytest.mark.parametrize("weight", ["1/0", "x", "", "1e1000000000", "0.5", "5/2.0"])
def test_verify_weight_is_parsed_before_the_series_is_built(tmp_path, monkeypatch, weight):
    def no_work(*args, **kwargs):
        raise AssertionError("series built before --weight was parsed")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_work)
    payload = _refusal(tmp_path, ["verify", "--fixture", "theta", "--prec", "50", "--weight", weight,
                                  "--level", "4", "--json"])
    assert payload == {"error": "SchemaError",
                       "message": "--weight must be a rational like 4 or 5/2, got %r" % weight}


@pytest.mark.parametrize("weight, level, message", [
    ("1/3", "4", "--weight must be integral or half-integral, got '1/3'"),
    ("7/6", "4", "--weight must be integral or half-integral, got '7/6'"),
    ("1/2", "3", "--level must be a multiple of 4 for a half-integral --weight, got 3"),
    ("5/2", "6", "--level must be a multiple of 4 for a half-integral --weight, got 6"),
], ids=["third", "sixth", "level-3", "level-6"])
def test_verify_weight_and_level_are_refused_before_the_series_is_built(tmp_path, monkeypatch, weight, level,
                                                                         message):
    def no_work(*args, **kwargs):
        raise AssertionError("series built before --weight and --level were checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_work)
    payload = _refusal(tmp_path, ["verify", "--fixture", "theta", "--prec", "50", "--weight", weight,
                                  "--level", level, "--json"])
    assert payload == {"error": "SchemaError", "message": message}


@pytest.mark.parametrize("argv, doc", [
    (["verify", "--input", "PATH", "--weight", "1/2", "--level", "4", "--json"],
     _series_json([[0, "1" + "0" * 400]], weight=(1, 2))),
    (["verify", "--input", "PATH", "--weight", "1000", "--json"], _series_json([[0, "1"], [3, "2"]], (1000, 1))),
    (["verify", "--fixture", "theta", "--weight", "100000", "--level", "4", "--json"], None),
], ids=["huge-coefficient", "huge-series-weight", "huge-weight"])
def test_numeric_verify_outside_the_float_range_is_refused(tmp_path, argv, doc):
    payload = _refusal(tmp_path, argv, doc)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith("numeric check leaves the float range: ")


def test_kronecker_character_of_a_huge_index_is_decided_quickly():
    # t = 9^8 has only the prime 3, which divides the level 3: the symbol is
    # the trivial character there, found from 24 samples
    start = time.perf_counter()
    code, payload = _assert_contract(["lift", "--fixture", "cohen52", "--N", "3", "--prec", "3",
                                      "--character", "kronecker:43046721", "--json"])
    assert time.perf_counter() - start < 1.0
    plain = _assert_contract(["lift", "--fixture", "cohen52", "--N", "3", "--prec", "3", "--json"])
    assert (code, payload) == plain
