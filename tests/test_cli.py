"""Command-line interface: exit codes, JSON payloads, stdin plumbing, and
byte-stable round trips.

Everything runs in-process through main(argv) so exit codes and streams
are observable without spawning subprocesses, except the cold-start tests,
which need a fresh interpreter to see which modules a call imports.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimlift import _intpoly, cli, weilrep
from shimlift.cli import main
from shimlift.errors import HypothesisError
from shimlift.fixtures import fixture, fixture_names
from shimlift.qseries import QExp, add, mul, qexp_from_json, qexp_to_json, rescale
from shimlift.shimura import shimura_general, shimura_St
from util import perturbed_weil_S


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


def test_lift_fixture_human_output(capsys):
    code, out, err = run(capsys, "lift", "--fixture", "cohen52", "--t", "1", "--prec", "6")
    assert code == 0
    assert "case (i)" in out
    assert "-1/2880" in out


def test_lift_fixture_json_payload(capsys):
    code, payload, _ = run_json(
        capsys, "lift", "--fixture", "cohen52", "--t", "1", "--prec", "6", "--json"
    )
    assert code == 0
    assert set(payload) >= {"lift", "verdict"}
    lift = qexp_from_json(payload["lift"])
    assert lift.coeff(0) == Fraction(-1, 2880)
    assert lift.coeff(1) == Fraction(-1, 12)
    assert payload["verdict"]["case"] == "i"
    assert payload["verdict"]["level"] == 1


def test_lift_zero_fixture(capsys):
    code, payload, _ = run_json(
        capsys, "lift", "--fixture", "zero", "--prec", "5", "--json"
    )
    assert code == 0
    assert qexp_from_json(payload["lift"]).is_zero()


def test_lift_even_index_obstruction_exit_2(capsys):
    code, payload, _ = run_json(
        capsys, "lift", "--fixture", "cohen52", "--t", "2", "--prec", "5", "--json"
    )
    assert code == 2
    assert payload["error"] == "HypothesisError"
    assert payload["case"] == "vi"
    assert payload["obstruction"] == "eta-conductor-8"


@pytest.mark.parametrize("flags, t, s", [(("--s", "2"), 1, 2), (("--t", "2", "--extended"), 2, 1)],
                         ids=["s2", "extended-t2"])
def test_lift_general_route_matches_in_process_lift(capsys, flags, t, s):
    prec = 5
    code, payload, _ = run_json(capsys, "lift", "--fixture", "cohen52", *flags, "--prec", str(prec), "--json")
    assert code == 0
    f = fixture("cohen52", t * s * s * prec * prec + 1)
    assert payload["lift"] == qexp_to_json(shimura_general(f, 1, 2, t, s, 1, prec))
    if s == 1:
        # the route matters: the square-free lift refuses this index
        with pytest.raises(HypothesisError):
            shimura_St(f, 1, 2, t, 1, prec)


def test_lift_precision_exit_3(capsys, tmp_path):
    # a file input has whatever window it has; fixtures are rebuilt to order,
    # so only this path can come up short
    code, out, _ = run(capsys, "fixtures", "--name", "cohen52", "--prec", "100", "--json")
    assert code == 0
    p = tmp_path / "short.json"
    p.write_text(out)
    code2, payload, _ = run_json(
        capsys,
        "lift", "--input", str(p), "--k", "2", "--epsilon", "1", "--N", "1",
        "--prec", "50", "--json",
    )
    assert code2 == 3
    assert payload["error"] == "PrecisionError"
    assert payload["required_window"][1] == 50 * 50 + 1


def test_lift_from_stdin(capsys, monkeypatch):
    code, payload, _ = run_json(
        capsys, "fixtures", "--name", "cohen52", "--prec", "200", "--json"
    )
    assert code == 0
    blob = json.dumps(payload)
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code2, payload2, _ = run_json(
        capsys,
        "lift", "--input", "-", "--k", "2", "--epsilon", "1", "--N", "1",
        "--prec", "10", "--json",
    )
    assert code2 == 0
    assert qexp_from_json(payload2["lift"]).coeff(1) == Fraction(-1, 12)


def test_lift_composite_payload_unwraps(capsys, tmp_path):
    code, payload, _ = run_json(
        capsys, "lift", "--fixture", "cohen52", "--prec", "8", "--json"
    )
    p = tmp_path / "lifted.json"
    p.write_text(json.dumps(payload))
    # feeding a {"lift": ...} payload back in: integral weight now
    code2, payload2, _ = run_json(
        capsys,
        "verify", "--input", str(p), "--weight", "4", "--level", "1",
        "--mode", "exact", "--json",
    )
    assert code2 == 0


def test_project_requires_4n_exit_2(capsys):
    code, payload, _ = run_json(
        capsys,
        "project", "--fixture", "cohen52", "--prec", "40", "--k", "2",
        "--epsilon", "1", "--N", "1", "--json",
    )
    assert code == 2
    assert payload["error"] == "HypothesisError"
    assert "4" in payload["obstruction"]


@pytest.mark.parametrize("two", [False, True], ids=["plus", "two"])
@pytest.mark.parametrize("N", [1, 2, 3, 5, 6])
@pytest.mark.parametrize("source", [
    ["--fixture", "theta_e4", "--k", "4", "--prec", "4000000"],
    ["--input", "INPUT"],
], ids=["fixture", "input"])
def test_project_below_level_four_is_refused_before_any_work(capsys, monkeypatch, tmp_path, source, N, two):
    def no_work(*args, **kwargs):
        raise AssertionError("series built or read before 4 | N was checked")

    path = tmp_path / "theta_e4.json"
    path.write_text(json.dumps(qexp_to_json(fixture("theta_e4", 40))))
    for name in ("fixtures.fixture", "fixtures._CohenReadSet", "qseries.qexp_from_json"):
        monkeypatch.setattr("shimlift." + name, no_work)
    argv = [str(path) if a == "INPUT" else a for a in source] + ["--N", str(N)] + ["--two"] * two
    code, payload, _ = run_json(capsys, "project", *argv, "--json")
    assert code == 2
    assert payload["error"] == "HypothesisError"
    assert payload["obstruction"] == "projection-needs-4|N"
    assert payload["message"].startswith("%s projection at level N = %d:" % ("mod-two" if two else "plus", N))


@pytest.mark.parametrize("value", ["0", "-4"])
def test_project_nonpositive_level_is_schema_error(capsys, monkeypatch, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --N was checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_work)
    code, payload, _ = run_json(capsys, "project", "--fixture", "theta_e4", "--N", value, "--json")
    assert code == 2
    assert payload == {
        "error": "SchemaError",
        "message": "--N must be a positive integer, got %s" % value,
    }


def test_project_plus_and_two(capsys):
    code, payload, _ = run_json(
        capsys,
        "project", "--fixture", "cohen52", "--prec", "40", "--k", "2",
        "--epsilon", "1", "--N", "4", "--json",
    )
    assert code == 0
    proj = qexp_from_json(payload["projection"])
    assert proj.coeff(1) == Fraction(-1, 12)
    code2, payload2, _ = run_json(
        capsys,
        "project", "--fixture", "cohen52", "--prec", "40", "--k", "2",
        "--epsilon", "1", "--N", "4", "--two", "--json",
    )
    assert code2 == 0
    two = qexp_from_json(payload2["projection"])
    assert all(a % 4 in (0, 2) for a in two.coeffs)


def test_project_with_epsilon_needs_no_k(capsys, tmp_path):
    src = tmp_path / "cohen52.json"
    src.write_text(json.dumps(qexp_to_json(fixture("cohen52", 40))))
    argv = ("project", "--input", str(src), "--N", "4", "--epsilon", "1", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--k", "2")[:2] == (0, out)
    code, payload, _ = run_json(capsys, "project", "--input", str(src), "--N", "4", "--xi", "1", "--json")
    assert code == 2
    assert payload["message"] == "pass --k (not fixed by the input)"


def test_level_predict_worked_verdicts(capsys):
    code, payload, _ = run_json(
        capsys, "level-predict", "--N", "1", "--t", "1", "--plus", "--json"
    )
    v = payload["verdict"]
    assert code == 0 and v["case"] == "i" and v["level"] == 1
    code2, payload2, _ = run_json(
        capsys, "level-predict", "--N", "1", "--t", "2", "--json"
    )
    v2 = payload2["verdict"]
    assert code2 == 0 and v2["case"] == "vi" and v2["level"] == 2
    code3, payload3, _ = run_json(
        capsys, "level-predict", "--N", "2", "--M", "3", "--json"
    )
    v3 = payload3["verdict"]
    assert code3 == 0 and v3["case"] == "vii" and v3["level"] == 12


def test_level_predict_uncovered_case_viii(capsys):
    code, payload, _ = run_json(
        capsys, "level-predict", "--N", "1", "--M", "3", "--json"
    )
    assert code == 0
    v = payload["verdict"]
    assert v["case"] == "viii"
    assert v["level"] is None and v["covered"] is False


def test_verify_numeric_pass_and_fail(capsys):
    code, payload, _ = run_json(
        capsys,
        "verify", "--fixture", "theta", "--prec", "900",
        "--weight", "1/2", "--level", "4", "--json",
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["report"]["max_residual"] < 1e-9
    code2, payload2, _ = run_json(
        capsys,
        "verify", "--fixture", "theta", "--prec", "900",
        "--weight", "3/2", "--level", "4", "--json",
    )
    assert code2 == 1
    assert payload2["passed"] is False


def test_verify_exact_mode_failure_names_mismatch(capsys, tmp_path):
    bad = {"weight": {"num": 4, "den": 1}, "exponent_denominator": 1,
           "window": [0, 30], "coefficients": [[0, "1"], [1, "5"], [2, "7"]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, payload, _ = run_json(
        capsys, "verify", "--input", str(p), "--weight", "4", "--mode", "exact", "--json"
    )
    assert code == 1
    assert payload["passed"] is False
    assert "first_mismatch" in payload
    assert "exponent" in payload["first_mismatch"]


def test_verify_numeric_theta_squared_needs_its_character(capsys, tmp_path):
    # theta^2 is of weight 1 on Gamma_0(4) with the character chi_-4 only;
    # the default samples include d = -1, where that character is -1
    th = fixture("theta", 900)
    p = tmp_path / "theta2.json"
    p.write_text(json.dumps(qexp_to_json(QExp(1, 1, dict(mul(th, th).coeffs), 0, 900))))
    argv = ["verify", "--input", str(p), "--weight", "1", "--level", "4", "--json"]
    code, payload, _ = run_json(capsys, *argv)
    assert code == 1 and payload["passed"] is False
    assert payload["report"]["matrices"] == [[1, 1, 0, 1], [1, 0, 4, 1], [5, 1, 4, 1], [-1, 0, 4, -1]]
    code, payload, _ = run_json(capsys, *argv, "--character", "kronecker:-4")
    assert code == 0 and payload["report"]["max_residual"] < 1e-12


_EXACT_BUDGET = "the exact check dim(M_w)^2 x window of --weight exceeds the request budget of 4000000"


@pytest.mark.parametrize("argv, message", [
    (["--fixture", "e4", "--prec", "322", "--weight", "3840"], _EXACT_BUDGET),
    (["--fixture", "e4", "--prec", "160", "--weight", "1896"], _EXACT_BUDGET),
    (["--fixture", "e4", "--prec", "1500000", "--weight", "12"], _EXACT_BUDGET),
    (["--input", "E4", "--weight", "3840"], _EXACT_BUDGET),
    (["--fixture", "e4", "--prec", str(10**10), "--weight", "4"],
     "the --fixture window --prec exceeds the request budget of 4000000"),
], ids=["weight-3840", "weight-1896", "weight-12-window", "input", "fixture-window"])
def test_exact_verify_over_the_budget_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv, message):
    # dim(M_w)^2 x window: 159^2 x 160 is just over the budget
    p = tmp_path / "e4.json"
    p.write_text(json.dumps(qexp_to_json(fixture("e4", 322))))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the request budget was checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_work)
    monkeypatch.setattr("shimlift.verify.level1_exact_check", no_work)
    argv = [str(p) if a == "E4" else a for a in argv]
    code, out, _ = run(capsys, "verify", *argv, "--mode", "exact", "--json")
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "SchemaError", "message": message}


@pytest.mark.parametrize("weight, prec", [("1894", "159"), ("2", str(10**9)), ("3", str(10**9))])
def test_exact_verify_within_the_budget_is_admitted(capsys, monkeypatch, tmp_path, weight, prec):
    # 158^2 x 159 is the largest dim(M_w)^2 x (dim + 1) the budget admits; at
    # weight 2 (dim 0) and odd weights nothing grows with the window
    calls = []
    monkeypatch.setattr("shimlift.verify.level1_exact_check", lambda f, w: calls.append((f.hi, w)) or {})
    p = tmp_path / "sparse.json"
    p.write_text(json.dumps(qexp_to_json(QExp(int(weight), 1, {}, 0, int(prec)))))
    source = ["--fixture", "e4", "--prec", prec] if weight == "1894" else ["--input", str(p)]
    code, payload, _ = run_json(capsys, "verify", *source, "--weight", weight, "--mode", "exact", "--json")
    assert (code, payload, calls) == (0, {"passed": True, "decomposition": []}, [(int(prec), int(weight))])


def test_fixtures_reemit_reduces_each_rational(capsys, tmp_path):
    doc = {"weight": {"num": 5, "den": 2}, "exponent_denominator": 1, "window": [0, 7], "metadata": {},
           "coefficients": [[0, "6/4"], [1, "-3/-6"], [2, "0"], [3, "0/7"],
                            [4, {"order": 4, "terms": [[0, "1/2"]]}], [5, "10/5"], [6, "2/-8"]]}
    p = tmp_path / "unreduced.json"
    p.write_text(json.dumps(doc))
    code, payload, _ = run_json(capsys, "fixtures", "--reemit", str(p), "--json")
    assert code == 0
    assert payload == dict(doc, coefficients=[[0, "3/2"], [1, "1/2"], [4, "1/2"], [5, "2"], [6, "-1/4"]])


def test_weil_selftest_cli(capsys, monkeypatch):
    code, payload, _ = run_json(
        capsys, "weil-selftest", "--max-n", "4", "--words", "10", "--json"
    )
    assert code == 0
    assert payload["modules"] == 6
    assert payload["max_word_error"] < 1e-10
    monkeypatch.setattr(weilrep, "weil_S", perturbed_weil_S(weilrep.weil_S))
    code2, _, _ = run_json(
        capsys, "weil-selftest", "--max-n", "2", "--words", "5", "--json"
    )
    assert code2 == 1


def test_fixtures_list_names(capsys):
    code, out, _ = run(capsys, "fixtures", "--list")
    assert code == 0
    for name in fixture_names():
        assert name in out


def test_fixtures_emit_and_reemit_byte_identical(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures", "--name", "hj4", "--prec", "30", "--json")
    assert code == 0
    p = tmp_path / "hj4.json"
    p.write_text(out)
    code2, out2, _ = run(capsys, "fixtures", "--reemit", str(p), "--json")
    assert code2 == 0
    assert out2 == out
    # and the payload itself parses back to the same series
    f = qexp_from_json(json.loads(out))
    g = qexp_from_json(json.loads(out2))
    assert f == g


def test_fixtures_reemit_canonicalizes_key_order(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures", "--name", "e4", "--prec", "10", "--json")
    scrambled = json.dumps(json.loads(out), sort_keys=False, indent=2)
    p = tmp_path / "e4.json"
    p.write_text(scrambled)
    code2, out2, _ = run(capsys, "fixtures", "--reemit", str(p), "--json")
    assert code2 == 0
    assert out2 == out


def test_unknown_fixture_is_schema_error_exit_2(capsys):
    code, payload, _ = run_json(
        capsys, "lift", "--fixture", "nope", "--prec", "5", "--json"
    )
    assert code == 2


def test_human_error_goes_to_stderr(capsys):
    code, out, err = run(capsys, "lift", "--fixture", "cohen52", "--t", "2", "--prec", "5")
    assert code == 2
    assert not out.strip()
    assert "eta-conductor-8" in err or "conductor" in err


def _refusal(message):
    return '{"error":"SchemaError","message":"%s"}' % message


@pytest.mark.parametrize("argv, code, stream, line", [
    (["lift", "--input", "THETA_E4", "--prec", "5", "--json"], 2, "out",
     _refusal("weight parameter k is not fixed by the input; pass --k")),
    (["project", "--json"], 2, "out", _refusal("need --input PATH or --fixture NAME")),
    (["verify", "--weight", "4", "--json"], 2, "out", _refusal("need --input PATH or --fixture NAME")),
    (["fixtures", "--json"], 2, "out", _refusal("need --name, --list, or --reemit")),
    (["lift", "--fixture", "cohen52", "--prec", "5", "--character", "nonsense", "--json"], 2, "out",
     _refusal("character spec 'nonsense'; use trivial, kronecker:t, or json:PATH")),
    (["fixtures", "--name", "zero", "--prec", "3"], 0, "out", "  0"),
    (["lift", "--input", "THETA_E4", "--k", "4", "--prec", "8"], 3, "err", "required window: [0, 65)"),
], ids=["lift-no-k", "project-no-source", "verify-no-source", "fixtures-no-name", "character-spec",
        "zero-human", "precision-human"])
def test_cli_branch_prints_its_line(capsys, tmp_path, argv, code, stream, line):
    # THETA_E4 stands for a 50-term theta_e4 file
    if "THETA_E4" in argv:
        path = _theta_e4_file(capsys, tmp_path)
        argv = [path if a == "THETA_E4" else a for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert line in (out if stream == "out" else err).splitlines()


def test_character_json_with_string_residue_is_schema_error(capsys, tmp_path):
    p = tmp_path / "chi.json"
    p.write_text(json.dumps({"modulus": 5, "kind": "explicit", "values": [["1", "1"], [2, "1"]]}))
    code, out, _ = run(
        capsys, "lift", "--fixture", "cohen52", "--N", "5", "--t", "1", "--prec", "5",
        "--character", "json:%s" % p, "--json",
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert "residue" in payload["message"]


@pytest.mark.parametrize("spec", ["kronecker:x", "kronecker:", "kronecker:1.5"])
def test_lift_malformed_kronecker_character_is_schema_error(capsys, monkeypatch, spec):
    def no_build(*args, **kwargs):
        raise AssertionError("series built before the character was parsed")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_build)
    monkeypatch.setattr("shimlift.fixtures._CohenReadSet", no_build)
    code, out, _ = run(
        capsys, "lift", "--fixture", "cohen52", "--prec", "5", "--character", spec, "--json"
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith("--character ")


@pytest.mark.parametrize("args, detail", [
    (["--character", "kronecker:0"], "needs nonzero t"),
    (["--N", "3", "--character", "kronecker:5"], "not defined modulo 3"),
])
def test_lift_invalid_kronecker_character_is_schema_error(capsys, monkeypatch, args, detail):
    # well-formed kronecker:t that names no character at the level
    def no_build(*args, **kwargs):
        raise AssertionError("series built before the character was parsed")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_build)
    monkeypatch.setattr("shimlift.fixtures._CohenReadSet", no_build)
    code, out, _ = run(capsys, "lift", "--fixture", "cohen52", "--prec", "5", *args, "--json")
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith("--character kronecker:")
    assert detail in payload["message"]


@pytest.mark.parametrize("flag", ["--t", "--s", "--M", "--N"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_lift_rejects_nonpositive_index_flags(capsys, monkeypatch, flag, value):
    def no_build(*args, **kwargs):
        raise AssertionError("series built before the arguments were checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_build)
    monkeypatch.setattr("shimlift.fixtures._CohenReadSet", no_build)
    code, payload, _ = run_json(
        capsys, "lift", "--fixture", "cohen52", flag, value, "--prec", "5", "--json"
    )
    assert code == 2
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith(flag + " ")


@pytest.mark.parametrize("k", ["65", "1000"])
def test_lift_weight_beyond_bernoulli_bound_is_schema_error(capsys, monkeypatch, k):
    def no_build(*args, **kwargs):
        raise AssertionError("series built before k was checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_build)
    monkeypatch.setattr("shimlift.fixtures._CohenReadSet", no_build)
    code, out, _ = run(capsys, "lift", "--fixture", "cohen52", "--k", k, "--prec", "2", "--json")
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert "k = %s exceeds 64" % k in payload["message"]


def test_lift_weight_at_bernoulli_bound_lifts(capsys, tmp_path):
    # theta(tau) E_4(4 tau)^16, of weight 129/2 = 64 + 1/2
    f = fixture("theta", 5)
    e4 = rescale(fixture("e4", 2), 4)
    for _ in range(16):
        f = mul(f, e4)
    p = tmp_path / "theta_e4_16.json"
    p.write_text(json.dumps(qexp_to_json(f)))
    code, payload, _ = run_json(capsys, "lift", "--input", str(p), "--k", "64", "--prec", "2", "--json")
    assert code == 0
    assert payload["lift"]["weight"] == {"den": 1, "num": 128}


@pytest.mark.parametrize("source, k, weight", [
    (["--fixture", "theta_e4"], "2", "9/2"),
    (["--input", "COHEN52"], "3", "5/2"),
    (["--fixture", "cohen52"], "64", "5/2"),
], ids=["fixture", "input", "bernoulli-bound"])
def test_lift_refuses_a_k_that_contradicts_the_input_weight(capsys, monkeypatch, tmp_path, source, k, weight):
    from shimlift import shimura

    def no_lift(*args, **kwargs):
        raise AssertionError("the lift ran on an input of another weight")

    p = tmp_path / "cohen52.json"
    p.write_text(json.dumps(qexp_to_json(fixture("cohen52", 101))))
    source = [str(p) if a == "COHEN52" else a for a in source]
    monkeypatch.setattr(shimura, "_lift", no_lift)
    code, payload, _ = run_json(capsys, "lift", *source, "--k", k, "--prec", "4", "--json")
    assert code == 2
    assert payload == {
        "error": "SchemaError",
        "message": "the input has weight %s, but --k %s asks for weight %d/2" % (weight, k, 2 * int(k) + 1),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["fixtures", "--name", "cohen72"],
        ["project", "--fixture", "cohen52", "--k", "2"],
        ["verify", "--fixture", "theta", "--weight", "1/2", "--level", "4"],
    ],
    ids=["fixtures", "project", "verify"],
)
def test_negative_prec_is_schema_error(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("series built before --prec was checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_build)
    code, out, _ = run(capsys, *argv, "--prec", "-1", "--json")
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith("--prec ")


@pytest.mark.parametrize("name", ["e4", "delta", "theta", "theta0", "theta_e6"])
def test_zero_prec_fixture_exits_0_with_empty_window(capsys, name):
    code, payload, _ = run_json(capsys, "fixtures", "--name", name, "--prec", "0", "--json")
    assert code == 0
    assert payload["window"] == [0, 0]
    assert payload["coefficients"] == []


@pytest.mark.parametrize(
    "argv, flag, builder",
    [
        (["weil-selftest", "--max-n", "2", "--words", "-1"], "--words", "shimlift.weilrep.weil_selftest"),
        (["verify", "--fixture", "theta", "--weight", "1/2", "--level", "0"], "--level", "shimlift.fixtures.fixture"),
        (["verify", "--fixture", "theta", "--weight", "1/2", "--level", "-3"], "--level", "shimlift.fixtures.fixture"),
    ],
    ids=["words", "level-0", "level-negative"],
)
def test_out_of_range_flags_are_schema_errors(capsys, monkeypatch, argv, flag, builder):
    def no_build(*args, **kwargs):
        raise AssertionError("work started before %s was checked" % flag)

    monkeypatch.setattr(builder, no_build)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith(flag + " ")


_MODULUS_FLAGS = "--M, --N, --t and --s"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["lift", "--fixture", "cohen52", "--t", "9" * 29, "--prec", "3"], _MODULUS_FLAGS),
        (["lift", "--fixture", "cohen52", "--t", "100000001", "--prec", "0"], _MODULUS_FLAGS),
        (["lift", "--input", "-", "--k", "2", "--t", "100000001", "--prec", "0"], _MODULUS_FLAGS),
        (["lift", "--fixture", "cohen52", "--N", "5", "--t", "1000", "--prec", "1000",
          "--character", "kronecker:5"], "--t, --s and --prec"),
        (["level-predict", "--N", "1", "--t", str(10**60 + 1)], "--t"),
        (["level-predict", "--N", "1", "--M", str(10**60)], "--M"),
        (["verify", "--fixture", "theta", "--prec", str(10**10), "--weight", "1/2", "--level", "4"], "--prec"),
        (["fixtures", "--name", "cohen52", "--prec", str(10**10)], "--prec"),
    ],
    ids=["huge-t", "modulus", "modulus-input", "window", "trial-t", "trial-M", "verify-window",
         "fixtures-window"],
)
def test_requests_over_the_budget_are_refused_before_any_work(capsys, monkeypatch, argv, flags):
    from shimlift.characters import DirichletCharacter

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the request budget was checked")

    for name in ("fixtures.fixture", "fixtures._CohenReadSet", "qseries.qexp_from_json",
                 "level.predict_level", "characters.character_from_json"):
        monkeypatch.setattr("shimlift." + name, no_work)
    monkeypatch.setattr(DirichletCharacter, "from_kronecker", no_work)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert flags in payload["message"]
    assert payload["message"].endswith(" exceeds the request budget of 4000000")


def test_lift_output_length_over_the_budget_is_refused_before_the_lift(capsys, monkeypatch, tmp_path):
    # a sparse --input series may end anywhere, so its window budgets
    # nothing; the prec + 1 coefficients of the lift itself are budgeted
    from shimlift import shimura

    def no_lift(*args, **kwargs):
        raise AssertionError("the lift started before its length was checked")

    monkeypatch.setattr(shimura, "_lift", no_lift)
    p = tmp_path / "sparse.json"
    p.write_text(json.dumps(qexp_to_json(QExp(Fraction(5, 2), 1, {0: 1, 3: 2}, 0, 10**19))))
    code, out, _ = run(capsys, "lift", "--input", str(p), "--k", "2", "--prec", str(10**9), "--json")
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "SchemaError",
        "message": "the lift's length prec + 1 of --prec exceeds the request budget of 4000000"}


def test_kronecker_character_modulus_over_the_budget_is_refused_before_the_scan(capsys, monkeypatch):
    from shimlift.characters import DirichletCharacter

    def no_scan(*args, **kwargs):
        raise AssertionError("character scanned before the request budget was checked")

    monkeypatch.setattr(DirichletCharacter, "from_kronecker", no_scan)
    code, payload, _ = run_json(capsys, "verify", "--fixture", "theta", "--prec", "50", "--weight", "1/2",
                                "--level", str(10**10), "--character", "kronecker:5", "--json")
    assert code == 2
    assert payload == {"error": "SchemaError",
                       "message": "the modulus of --character kronecker:t exceeds the request budget of 4000000"}


def test_zero_prec_fixture_is_empty_window(capsys):
    code, payload, _ = run_json(capsys, "fixtures", "--name", "cohen72", "--prec", "0", "--json")
    assert code == 0
    assert payload["window"] == [0, 0]
    assert payload["coefficients"] == []


# Runs main(argv) in a fresh interpreter, then reports on stderr whether
# numpy, dataclasses and inspect were imported and, on the next line, which
# shimlift modules were.  With --json, the command's own output is on stdout.
_COLD_START = """
import sys
from shimlift.cli import main
code = main(sys.argv[1:])
seen = tuple(m in sys.modules for m in ("numpy", "dataclasses", "inspect"))
loaded = sorted(m[len("shimlift."):] for m in sys.modules if m.startswith("shimlift."))
sys.stderr.write("numpy=%s dataclasses=%s inspect=%s exit=%d\\n%s\\n" % (*seen, code, ",".join(loaded)))
"""


def _fresh_python(code, *argv, flags=()):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def _cold_start(*argv):
    """(status line, set of shimlift modules loaded, stdout) of one call."""
    proc = _fresh_python(_COLD_START, *argv)
    status, loaded = proc.stderr.strip().splitlines()[-2:]
    return status, set(loaded.split(",")), proc.stdout


def _theta_e4_file(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures", "--name", "theta_e4", "--prec", "50", "--json")
    assert code == 0
    src = tmp_path / "theta_e4.json"
    src.write_text(out)
    return str(src)


def test_import_does_not_load_numpy():
    proc = _fresh_python("import sys, shimlift; print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


def test_bare_import_loads_no_submodule():
    proc = _fresh_python("import sys, shimlift; print(sorted(m for m in sys.modules if 'shimlift' in m))")
    assert proc.stdout.strip() == "['shimlift']", proc.stderr


def test_every_public_name_resolves_lazily():
    # a fresh interpreter, so that no earlier test has imported a submodule
    proc = _fresh_python(
        "import shimlift\n"
        "missing = [n for n in shimlift.__all__ if n not in dir(shimlift)]\n"
        "values = [getattr(shimlift, n) for n in shimlift.__all__]\n"
        "print(missing, len(values))"
    )
    assert proc.stdout.strip() == "[] 53", proc.stderr


# each call may load at most the modules listed with it, and exits with
# the code given; level-predict loads exactly those.  Only a call that
# forms a product loads `_intpoly`: neither a numeric verify nor a lift
# refused by its gate does.  Neither a projection refused at its level nor
# the Weil self-test loads `qseries`
_ALL_MODULES = {"_intpoly", "_record", "arith", "characters", "cli", "errors", "fixtures", "level",
                "plusspace", "qseries", "scalars", "shimura", "verify", "weilrep"}


@pytest.mark.parametrize(
    "argv, allowed, code",
    [
        (["level-predict", "--N", "3", "--t", "5", "--M", "4"],
         {"cli", "errors", "_record", "arith", "level"}, 0),
        (["fixtures", "--reemit", "THETA_E4"],
         _ALL_MODULES - {"_intpoly", "_record", "shimura", "characters", "plusspace", "fixtures",
                         "verify", "weilrep"}, 0),
        (["lift", "--input", "THETA_E4", "--k", "4", "--prec", "6"],
         _ALL_MODULES - {"_intpoly", "fixtures", "verify", "weilrep"}, 0),
        (["project", "--fixture", "theta_e4", "--N", "4", "--prec", "40"],
         _ALL_MODULES - {"shimura", "characters", "verify"}, 0),
        (["project", "--fixture", "theta_e4", "--N", "3", "--k", "4", "--prec", "100"],
         {"cli", "errors", "plusspace"}, 2),
        (["weil-selftest", "--max-n", "3", "--words", "5"], {"cli", "errors", "weilrep", "scalars", "arith"}, 0),
        (["verify", "--fixture", "e4", "--prec", "20", "--weight", "4", "--mode", "exact"],
         _ALL_MODULES - {"shimura", "characters", "plusspace", "weilrep"}, 0),
        (["verify", "--fixture", "theta", "--weight", "1/2", "--level", "4"],
         _ALL_MODULES - {"_intpoly", "shimura", "characters", "plusspace", "weilrep"}, 0),
        (["lift", "--fixture", "cohen52", "--t", "2"],
         _ALL_MODULES - {"_intpoly", "verify", "weilrep"}, 2),
    ],
    ids=["level-predict", "fixtures-reemit", "lift-input", "project", "project-refused", "weil-selftest",
         "verify-exact",
         "verify-numeric-half", "lift-fixture-refused"],
)
def test_cli_commands_load_only_what_they_run(capsys, tmp_path, argv, allowed, code):
    if "THETA_E4" in argv:
        path = _theta_e4_file(capsys, tmp_path)
        argv = [path if a == "THETA_E4" else a for a in argv]
    status, loaded, out = _cold_start(*argv, "--json")
    assert status.endswith(" exit=%d" % code), out
    assert {"cli", "errors"} <= loaded <= allowed, sorted(loaded - allowed)
    # numpy imports inspect, so only weil-selftest may load it
    if argv[0] != "weil-selftest":
        assert "dataclasses=False inspect=False" in status
    if argv[0] == "level-predict":
        assert loaded == allowed


def test_closed_stdout_exits_141_with_nothing_on_stderr():
    # a reader that closes stdout (`shimlift ... | head -c 1`) gets the
    # shell's SIGPIPE status and no traceback, neither from the output nor
    # from the error report nor from the flush at exit
    read, write = os.pipe()
    os.close(read)
    try:
        for argv in (["fixtures", "--name", "theta_e4", "--prec", "50", "--json"],
                     ["lift", "--fixture", "cohen52", "--t", "2", "--json"]):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from shimlift.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            )
            assert (proc.returncode, proc.stderr) == (141, ""), argv
    finally:
        os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
@pytest.mark.parametrize("prec", [3, 2000], ids=["buffered", "written"])
@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "text"])
def test_full_stdout_exits_2_with_one_error_line(prec, json_flag):
    # a stdout that refuses its bytes (ENOSPC) is reported once on stderr
    # with exit 2, not as a traceback with exit 1, whether the output
    # fails while it is written or only at the final flush
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from shimlift.cli import main; sys.exit(main(sys.argv[1:]))",
             "fixtures", "--name", "theta_e4", "--prec", str(prec), *json_flag],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "No space left on device" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--fixture", "cohen52", "--t", "1", "--prec", "6"],
        ["project", "--fixture", "cohen52", "--prec", "40", "--k", "2", "--epsilon", "1", "--N", "4"],
        ["verify", "--fixture", "e4", "--prec", "20", "--weight", "4", "--mode", "exact"],
        ["level-predict", "--N", "1", "--t", "1", "--plus"],
        ["fixtures", "--reemit", "REEMIT"],
    ],
    ids=["lift", "project", "verify-exact", "level-predict", "fixtures-reemit"],
)
def test_cli_commands_do_not_load_numpy(capsys, tmp_path, argv):
    if "REEMIT" in argv:
        path = _theta_e4_file(capsys, tmp_path)
        argv = [path if a == "REEMIT" else a for a in argv]
    status, _, out = _cold_start(*argv, "--json")
    assert status == "numpy=False dataclasses=False inspect=False exit=0", out
    assert len(out.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["level-predict", "--N", "1", "--t", "1", "--plus"],
        ["lift", "--input", "THETA_E4", "--k", "4", "--prec", "7"],
        ["fixtures", "--reemit", "THETA_E4"],
        ["lift", "--fixture", "cohen52", "--t", "5", "--prec", "6"],
        ["verify", "--input", "THETA_E6_LIFT", "--weight", "12", "--mode", "exact"],
    ],
    ids=["level-predict", "lift-input", "fixtures-reemit", "lift-fixture", "verify-exact"],
)
def test_cli_commands_do_not_load_ctypes(capsys, tmp_path, argv):
    # libgmp is loaded through ctypes only by a product whose slot bits
    # times shorter length reach _intpoly._LIBGMP_BITS, which none of these
    # requests reaches; the largest, the exact check of the weight 12 lift
    # of theta E6(4 tau) at prec 70 (the largest lift the benchmark's
    # command-line workload checks), multiplies 71 x 71 terms on 88-bit
    # slots, 6 248 bits times the shorter length
    assert _ctypes_status(capsys, tmp_path, argv) == "ctypes=False exit=0"


def test_cli_project_of_a_long_theta_window_loads_ctypes(capsys, tmp_path):
    # the theta products of a 4000-term theta E4(4 tau) window pass
    # _intpoly._LIBGMP_BITS (theta windows do from about 630 to 1390 terms
    # on), so without gmpy2 they import ctypes to load libgmp, whether or
    # not it loads; with gmpy2 they multiply there instead
    argv = ["project", "--fixture", "theta_e4", "--N", "4", "--k", "4", "--prec", "4000"]
    loaded = not _intpoly._HAVE_GMPY2
    assert _ctypes_status(capsys, tmp_path, argv) == "ctypes=%s exit=0" % loaded


def _ctypes_status(capsys, tmp_path, argv):
    """'ctypes=<loaded> exit=<code>' of argv run with --json by `main` in a
    fresh interpreter."""
    if "THETA_E4" in argv:
        path = _theta_e4_file(capsys, tmp_path)
        argv = [path if a == "THETA_E4" else a for a in argv]
    if "THETA_E6_LIFT" in argv:
        path = tmp_path / "theta_e6_lift.json"
        lift = shimura_St(fixture("theta_e6", 70 * 70 + 1), 1, 6, 1, 1, 70)
        path.write_text(json.dumps({"lift": qexp_to_json(lift)}))
        argv = [str(path) if a == "THETA_E6_LIFT" else a for a in argv]
    proc = _fresh_python(
        "import sys\n"
        "from shimlift.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write('ctypes=%s exit=%d\\n' % ('ctypes' in sys.modules, code))",
        *argv, "--json")
    return proc.stderr.strip().splitlines()[-1]


def test_lift_request_scans_the_plus_space_classes_once(monkeypatch, capsys):
    # the index gate and the verdict both ask whether the input lies in the
    # plus space; a window (hj4) keeps its exponent classes mod 4 from the
    # first scan, and a read-set source (a Cohen-Eisenstein series, theta_e4
    # = 240 H_(9/2), or theta_e6 with its cusp part) knows them without one
    from shimlift import shimura

    asked, scans = [], []
    is_plus_space, scan = shimura.is_plus_space, QExp._scan_mod4
    monkeypatch.setattr(shimura, "is_plus_space", lambda f, eps: asked.append(eps) or is_plus_space(f, eps))
    monkeypatch.setattr(QExp, "_scan_mod4", lambda f: scans.append(f.hi) or scan(f))
    for name, windows in (("hj4", 1), ("theta_e6", 0), ("theta_e4", 0), ("cohen52", 0)):
        for t in (1, 5):
            asked.clear()
            scans.clear()
            code, payload, _ = run_json(capsys, "lift", "--fixture", name, "--t", str(t), "--prec", "6", "--json")
            assert code == 0 and "lift" in payload
            assert asked == [1, 1] and scans == [t * 36 + 1] * windows, (name, t, asked, scans)


# sha256 of the stdout of `lift --fixture cohen72 --t 3 --prec 200 --json`,
# taken while that lift still built the 120001-term window
_COHEN72_T3_PREC200 = "acf0a89064edd03d61848ba9a41d302fcb9ac6d1c089768ca9c8b485a07ed3ac"


def test_cohen_lift_builds_no_window(capsys, monkeypatch):
    from shimlift import fixtures

    def no_window(*args, **kwargs):
        raise AssertionError("the lift built a Cohen-Eisenstein window")

    monkeypatch.setattr(fixtures, "cohen_eisenstein", no_window)
    code, out, _ = run(capsys, "lift", "--fixture", "cohen72", "--t", "3", "--prec", "200", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _COHEN72_T3_PREC200


# sha256 of the stdout of these lifts, taken while the Cohen read sets still
# summed over the divisors of each f and the partial-zeta sums combined
# their power sums in Fractions
_COHEN_READ_SET_PAYLOADS = [
    (("cohen72", "--t", "3", "--prec", "1000"),
     "cb4715c1e7927bd90275353ac7f2f515060be271b8dfc620b73b457163429505"),
    (("cohen92", "--t", "1", "--prec", "1999"),
     "2112063f91bd69800160eab6313e812c36ca443157cefd0310f5ae638a13c01d"),
    (("cohen52", "--t", "5", "--s", "3", "--prec", "100"),
     "9cfd958240d7784202d658b6d648d7666b9742d4185634ac05aa33df02b19356"),
]


@pytest.mark.parametrize("argv, digest", _COHEN_READ_SET_PAYLOADS, ids=["cohen72", "cohen92", "cohen52"])
def test_cohen_read_set_lift_prints_the_pinned_bytes(capsys, monkeypatch, argv, digest):
    from shimlift import fixtures

    def no_window(*args, **kwargs):
        raise AssertionError("the lift built a Cohen-Eisenstein window")

    monkeypatch.setattr(fixtures, "cohen_eisenstein", no_window)
    code, out, _ = run(capsys, "lift", "--fixture", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `lift --fixture theta_e4 ... --json`, taken while
# that lift still built the window theta(tau) E_4(4 tau) through
# `plus_product`
_THETA_E4_PAYLOADS = [
    (("--t", "1", "--prec", "200"), "dba45eef079f0dc7bef9d3512c6352b9fc1777e81df6410bfe18372a8996dff4"),
    (("--t", "5", "--prec", "89"), "85e2e38b16d442ae53596800d0f11eec5adab716cafbc29dd329d75303f22256"),
    (("--t", "13", "--prec", "55"), "9247c72ff9624fbcb57d2900551c0327a2c850857a59fc39efa62d9fadbb9ee6"),
    (("--t", "1", "--prec", "1999"), "0e89863224c98adbe056a9a80ca85b0c0aba594ea6b9d6e8824b05028cba6b38"),
    (("--t", "5", "--prec", "400"), "8af6b7bdc3839e84f27e29c76104ca6cb6d1c62dc33f533cad6c8ce9938a46ce"),
    (("--t", "1", "--s", "2", "--prec", "300"), "ebb8ab6abc10cd4a6eb694551ec9f8d1ad966048e3cfa4eea412801cb416ef32"),
]


@pytest.mark.parametrize("argv, digest", _THETA_E4_PAYLOADS,
                         ids=["t1-prec200", "t5-prec89", "t13-prec55", "t1-prec1999", "t5-prec400", "t1-s2-prec300"])
def test_theta_e4_read_set_lift_prints_the_pinned_bytes(capsys, monkeypatch, argv, digest):
    from shimlift import fixtures

    def no_window(*args, **kwargs):
        raise AssertionError("the lift built the theta_e4 window")

    monkeypatch.setattr(fixtures, "plus_product", no_window)
    code, out, _ = run(capsys, "lift", "--fixture", "theta_e4", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `lift --fixture theta_e6 ... --json`, taken while
# that lift still built the window theta(tau) E_6(4 tau) through
# `plus_product`
_THETA_E6_PAYLOADS = [
    (("--t", "1", "--prec", "200"), "4d5b99905f128e50f6376307da2fca29afae263d877e1eb36850fb73b2a4e324"),
    (("--t", "5", "--prec", "89"), "327e2162c0a0c6c2c8f3e475d7d2a80d6a2fe8ed2d9f4d6a811c45b8fe58e608"),
    (("--t", "13", "--prec", "55"), "de70ebcdd52645209e4216984a675d335fb7883c548a21a582e088d5998ef365"),
    (("--t", "1", "--s", "2", "--prec", "100"), "ecb946d54c81ddc589a969886edec1e94c095a37512336981e3d7f5eb96450d5"),
    (("--t", "1", "--prec", "1999"), "43993de6238f7d73338d91ea021f951eab5c8077a5e9d1adc0a0b1d80e6f67c7"),
    (("--t", "3", "--prec", "60", "--extended"), "a095e82e74e682585f768f429fdbaaca3c601d7b610f62d514b663033816e075"),
]


@pytest.mark.parametrize("argv, digest", _THETA_E6_PAYLOADS,
                         ids=["t1-prec200", "t5-prec89", "t13-prec55", "t1-s2-prec100", "t1-prec1999",
                              "t3-prec60-extended"])
def test_theta_e6_read_set_lift_prints_the_pinned_bytes(capsys, monkeypatch, argv, digest):
    from shimlift import fixtures

    def no_window(*args, **kwargs):
        raise AssertionError("the lift built the theta_e6 window")

    monkeypatch.setattr(fixtures, "plus_product", no_window)
    code, out, _ = run(capsys, "lift", "--fixture", "theta_e6", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_theta_e6_read_set_checks_its_cusp_part_against_the_theta_sum(capsys, monkeypatch):
    # tau(2) off by one: every c(m^2) with m even moves, and the read set's
    # one re-check, at c(4) (m = 2, the least m with f > 1), catches it
    from shimlift import fixtures

    delta = fixtures.delta

    def wrong_delta(prec):
        d = delta(prec)
        return add(d, QExp(d.weight, 1, {2: 1}, 0, d.hi))

    monkeypatch.setattr(fixtures, "delta", wrong_delta)
    code, payload, _ = run_json(capsys, "lift", "--fixture", "theta_e6", "--t", "1", "--prec", "10", "--json")
    assert code == 1
    assert payload["error"] == "VerificationFailure"
    assert "q^4" in payload["message"]


@pytest.mark.parametrize("n", [5, 20], ids=["D0", "recheck"])
def test_theta_e4_read_set_checks_its_identity_against_the_theta_sum(capsys, monkeypatch, n):
    # theta E_4(4 tau) = H_(9/2) / zeta(-7), since S_8 = 0: at t = 5 a theta
    # sum off by one at |D0| = 5 leaves a cusp coefficient that must be 0,
    # and one off at c(20) (m = 2, the least m with f > 1) fails the re-check
    from shimlift import fixtures

    theta_e_value = fixtures._theta_e_value
    monkeypatch.setattr(fixtures, "_theta_e_value", lambda w, m: theta_e_value(w, m) + (m == n))
    code, payload, _ = run_json(capsys, "lift", "--fixture", "theta_e4", "--t", "5", "--prec", "10", "--json")
    assert code == 1
    assert payload["error"] == "VerificationFailure"
    assert re.search(r"q\^%d\b" % n, payload["message"]), payload["message"]


@pytest.mark.parametrize("command", [
    ("lift", "--fixture", "cohen52", "--t", "5", "--prec", "40"),
    ("project", "--fixture", "theta_e4", "--N", "4", "--prec", "50"),
])
def test_json_output_builds_no_human_text(capsys, monkeypatch, command):
    def no_text(*args, **kwargs):
        raise AssertionError("the human-readable text was built under --json")

    code, want, _ = run(capsys, *command, "--json")
    monkeypatch.setattr(cli, "_series_human", no_text)
    code2, got, _ = run(capsys, *command, "--json")
    assert (code, code2) == (0, 0) and got == want


@pytest.mark.parametrize("name, k, eps, t, s, prec", [
    ("cohen52", 2, 1, 5, 1, 30),
    ("cohen72", 3, -1, 3, 2, 20),
    ("cohen92", 4, 1, 1, 3, 25),
    ("theta_e4", 4, 1, 5, 1, 30),
    ("theta_e6", 6, 1, 1, 2, 25),
])
def test_cohen_lift_prints_the_bytes_of_the_lift_of_its_window_file(capsys, tmp_path, name, k, eps, t, s, prec):
    hi = t * s * s * prec * prec + 1
    code, window, _ = run(capsys, "fixtures", "--name", name, "--prec", str(hi), "--json")
    assert code == 0
    path = tmp_path / ("%s.json" % name)
    path.write_text(window)
    flags = ["--t", str(t), "--s", str(s), "--prec", str(prec), "--json"]
    want = run(capsys, "lift", "--input", str(path), "--k", str(k), "--epsilon", str(eps), *flags)
    got = run(capsys, "lift", "--fixture", name, *flags)
    assert got == want and got[0] == 0


def _kronecker_defined(d: int, modulus: int) -> bool:
    from shimlift.characters import DirichletCharacter

    try:
        DirichletCharacter.from_kronecker(d, modulus)
    except ValueError:
        return False
    return True


# 167 examples over five names: each keeps the share of 100 over three
@settings(deadline=None, max_examples=167)
@given(name=st.sampled_from(["cohen52", "cohen72", "cohen92", "theta_e4", "theta_e6"]),
       t=st.integers(1, 15), s=st.integers(1, 3),
       M=st.integers(1, 8), prec=st.integers(0, 60), extended=st.booleans(), data=st.data())
def test_cohen_read_set_lift_is_the_lift_of_the_window(name, t, s, M, prec, extended, data):
    # the lift of the read-set source against the lift of
    # fixture(name, t s^2 prec^2 + 1), refusals included: same exit code,
    # same payload; the source side may not build a window, neither a
    # Cohen-Eisenstein one nor a theta E_w(4 tau) one
    from shimlift import fixtures

    argv = ["lift", "--fixture", name, "--t", str(t), "--s", str(s), "--M", str(M), "--prec", str(prec)]
    if extended:
        argv.append("--extended")
    chars = [d for d in (t, -1, -4, 5, 8) if _kronecker_defined(d, M)]
    d = data.draw(st.sampled_from([None] + chars))
    if d is not None:
        argv += ["--character", "kronecker:%d" % d]
    argv.append("--json")

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue()

    with mock.patch.object(fixtures, "cohen_eisenstein", side_effect=AssertionError("window built")), \
            mock.patch.object(fixtures, "plus_product", side_effect=AssertionError("window built")):
        got = call()
    with mock.patch.dict(fixtures._READ_SETS, clear=True):
        want = call()
    assert got == want


def test_project_help_says_k_needs_xi(capsys):
    with pytest.raises(SystemExit):
        main(["project", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "read only with --xi" in text and "without --xi it has no effect" in text


def test_weil_selftest_loads_numpy_and_passes():
    status, _, out = _cold_start("weil-selftest", "--max-n", "3", "--words", "5", "--json")
    assert status.startswith("numpy=True ") and status.endswith(" exit=0"), out
    assert json.loads(out)["modules"] == 5


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_terms_below_one_is_schema_error(capsys, monkeypatch, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --terms was checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_work)
    monkeypatch.setattr("shimlift.verify.modularity_residual", no_work)
    code, out, _ = run(
        capsys, "verify", "--fixture", "theta", "--weight", "1/2", "--level", "4",
        "--terms", value, "--json",
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert payload["message"] == "--terms must be a positive integer, got %s" % value


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_verify_tol_outside_the_positive_finite_numbers_is_schema_error(capsys, monkeypatch, value):
    # nan would fail every check and inf pass every one; -1 and 0 would
    # surface as a TailBoundError
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --tol was checked")

    monkeypatch.setattr("shimlift.fixtures.fixture", no_work)
    monkeypatch.setattr("shimlift.verify.modularity_residual", no_work)
    code, out, _ = run(
        capsys, "verify", "--fixture", "theta", "--weight", "1/2", "--level", "4",
        "--tol", value, "--json",
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SchemaError"
    assert payload["message"] == "--tol must be a positive finite number, got %s" % float(value)


@pytest.mark.parametrize("value", ["-1", "-2"])
def test_weil_selftest_negative_max_n_is_schema_error(capsys, monkeypatch, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --max-n was checked")

    monkeypatch.setattr("shimlift.weilrep.weil_selftest", no_work)
    code, payload, _ = run_json(capsys, "weil-selftest", "--max-n", value, "--json")
    assert code == 2
    assert payload == {
        "error": "SchemaError",
        "message": "--max-n must be a nonnegative integer, got %s" % value,
    }


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--max-n", "20"], "the 7 (2 max_n^2)^2 Weil matrix entries held at once of --max-n"),
        (["--words", "4000001"], "the word count --words"),
    ],
    ids=["max-n", "words"],
)
def test_weil_selftest_over_the_budget_is_refused_before_any_work(capsys, monkeypatch, argv, what):
    # the largest module has 2 max_n^2 elements and the relation checks
    # hold seven matrices of its size at once, so 7 x 800^2 at --max-n 20
    # is the first request over the budget
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the request budget was checked")

    monkeypatch.setattr("shimlift.weilrep.weil_selftest", no_work)
    code, payload, _ = run_json(capsys, "weil-selftest", *argv, "--json")
    assert code == 2
    assert payload == {"error": "SchemaError",
                       "message": "%s exceeds the request budget of 4000000" % what}


def test_weil_selftest_budget_refusal_imports_no_weilrep():
    # weilrep is made unimportable in the child, so a call that imported it
    # before the budget check fails with ImportError instead of refusing,
    # and a call that skipped the check cannot build the matrices
    proc = _fresh_python("import sys\nsys.modules['shimlift.weilrep'] = None" + _COLD_START,
                         "weil-selftest", "--max-n", "100", "--json")
    status = proc.stderr.strip().splitlines()[-2]
    assert status == "numpy=False dataclasses=False inspect=False exit=2", proc.stderr
    assert json.loads(proc.stdout)["error"] == "SchemaError"


def test_weil_selftest_largest_admitted_max_n_runs(capsys):
    # 7 x 722^2 at --max-n 19 is the largest request within the budget
    code, payload, _ = run_json(capsys, "weil-selftest", "--max-n", "19", "--words", "0", "--json")
    assert code == 0
    assert payload["modules"] == 21 and payload["max_relation_error"] < 1e-12


def test_weil_selftest_default_request_is_within_the_budget(capsys):
    code, payload, _ = run_json(capsys, "weil-selftest", "--json")
    assert code == 0
    assert payload["modules"] == 14 and payload["words"] == 100


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse usage errors
        code = ("exit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser_with_fresh_parser_results(capsys):
    import shimlift.cli as cli

    calls = [
        ["level-predict", "--N", "3", "--t", "2", "--json"],
        ["lift", "--fixture", "cohen52", "--prec", "4", "--json"],
        ["lift", "--fixture", "cohen52", "--t", "x"],  # usage error, exit 2
        ["fixtures", "--name", "theta", "--prec", "10", "--json"],
        ["lift", "--fixture", "cohen52", "--t", "0", "--json"],  # SchemaError
        ["level-predict", "--N", "4"],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._build_parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in calls]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert reused == fresh
    assert fresh[2][0] == ("exit", 2) and "usage: shimlift lift" in fresh[2][2]
    assert [r[0] for r in fresh] == [0, 0, ("exit", 2), 0, 2, 0]
