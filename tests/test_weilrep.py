"""Finite quadratic modules and the attached metaplectic representation."""
from __future__ import annotations

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimlift import weilrep
from shimlift.errors import VerificationFailure
from shimlift.qseries import QExp
from shimlift.weilrep import (
    FqModule,
    VVQExp,
    psi_char,
    random_gamma04,
    rho1_gamma04,
    sl2_word,
    vv_support_check,
    weil_S,
    weil_T,
    weil_selftest,
    weil_word,
)
from util import numeric_weil_branch, perturbed_weil_S


def test_d1_shape():
    m = FqModule.d1()
    assert m.orders == (2,)
    assert m.q((1,)) == Fraction(1, 4)
    assert m.signature_mod_8 == 1


def test_d1_minus_is_the_negated_form():
    m = FqModule.d1_minus()
    assert m.q((1,)) == Fraction(3, 4)
    assert m.signature_mod_8 == 7


def test_rescaled_plane_and_direct_sum():
    b = FqModule.d_b(3)
    assert b.size == 9
    assert b.q((1, 2)) == Fraction(2, 3)
    assert b.signature_mod_8 == 0
    m = FqModule.d1_n(3)
    assert m.orders == (2, 3, 3)
    assert m.q((1, 1, 1)) == (Fraction(1, 4) + Fraction(1, 3)) % 1


def test_milgram_gate_rejects_wrong_signature():
    with pytest.raises(ValueError):
        FqModule((2,), {(0,): Fraction(0), (1,): Fraction(1, 4)}, 3)


def test_q_values_must_cover_group():
    with pytest.raises(ValueError):
        FqModule((2,), {(0,): Fraction(0)}, 1)


def test_bilinear_pairing_values():
    m = FqModule.d1_n(2)
    a = (1, 0, 0)
    b = (0, 1, 1)
    assert m.bilinear(a, b) == (m.q(m.add(a, b)) - m.q(a) - m.q(b)) % 1
    # pairing with zero vanishes
    zero = (0, 0, 0)
    for g in m.elements():
        assert m.bilinear(g, zero) == 0


def test_weil_T_is_diagonal_phase():
    m = FqModule.d1()
    T = weil_T(m)
    assert abs(T[0, 0] - 1) < 1e-14
    assert abs(T[1, 1] - cmath.exp(2j * cmath.pi / 4)) < 1e-14
    assert abs(T[0, 1]) == 0


def test_weil_S_symmetric_and_unitary():
    for m in (FqModule.d1(), FqModule.d1_minus(), FqModule.d1_n(5)):
        S = weil_S(m)
        assert np.abs(S - S.T).max() < 1e-12
        assert np.abs(S @ S.conj().T - np.eye(m.size)).max() < 1e-12


def test_weil_word_empty_is_identity():
    m = FqModule.d1()
    rho, mat, branch = weil_word(m, [])
    assert mat == (1, 0, 0, 1)
    assert branch == 1
    assert np.abs(rho - np.eye(2)).max() == 0


def test_weil_word_single_generators():
    m = FqModule.d1_n(2)
    rho_t, mat_t, _ = weil_word(m, ["T"])
    assert mat_t == (1, 1, 0, 1)
    assert np.abs(rho_t - weil_T(m)).max() < 1e-14
    rho_s, mat_s, _ = weil_word(m, ["S"])
    assert mat_s == (0, -1, 1, 0)
    assert np.abs(rho_s - weil_S(m)).max() < 1e-14


def test_sl2_word_reconstructs_random_matrices():
    rng = random.Random(1718)
    gens = {"S": (0, -1, 1, 0), "T": (1, 1, 0, 1), "Ti": (1, -1, 0, 1)}
    for _ in range(200):
        # random word gives a random matrix; decompose and remultiply
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randrange(0, 12)):
            ga, gb, gc, gd = gens[rng.choice(["S", "T", "Ti"])]
            a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
        word = sl2_word((a, b, c, d))
        x = (1, 0, 0, 1)
        for tok in word:
            ga, gb, gc, gd = gens[tok]
            x = (
                x[0] * ga + x[1] * gc,
                x[0] * gb + x[1] * gd,
                x[2] * ga + x[3] * gc,
                x[2] * gb + x[3] * gd,
            )
        assert x == (a, b, c, d)


def test_sl2_word_rejects_non_unimodular():
    with pytest.raises(ValueError):
        sl2_word((1, 0, 0, 2))


def test_random_gamma04_stays_in_subgroup():
    rng = random.Random(9)
    for _ in range(50):
        a, b, c, d = random_gamma04(rng)
        assert a * d - b * c == 1
        assert c % 4 == 0


def test_psi_char_requirements():
    with pytest.raises(ValueError):
        psi_char(1, 0, 2, 1)
    with pytest.raises(ValueError):
        psi_char(1, 0, 4, 2)
    assert psi_char(1, 0, 0, 1) == 1


def test_closed_form_matches_representation_on_sample_words():
    m = FqModule.d1()
    for word in (["T"], ["T", "T"], ["S", "S"], ["T", "S", "S", "Ti"]):
        rho, mat, branch = weil_word(m, word)
        if mat[2] % 4 or mat[3] % 2 == 0:
            continue
        closed = rho1_gamma04(*mat, branch=branch)
        assert np.abs(rho - closed).max() < 1e-10, word


gamma04_words = st.integers(0, 2**32).map(lambda seed: sl2_word(random_gamma04(random.Random(seed))))
free_words = st.lists(st.sampled_from(["S", "T", "Ti"]), max_size=24)


@settings(max_examples=300, deadline=None)
@given(word=st.one_of(gamma04_words, free_words))
def test_weil_word_branch_matches_numeric_tracking(word):
    # the integer branch test against the cocycle evaluated at tau = i
    _, mat, branch = weil_word(FqModule.d1(), word)
    assert (mat, branch) == numeric_weil_branch(word)


def test_dual_module_takes_conjugate_closed_form():
    rng = random.Random(42)
    dual = FqModule.d1_minus()
    for _ in range(30):
        mat = random_gamma04(rng)
        rho, got, branch = weil_word(dual, sl2_word(mat))
        assert got == mat
        closed = rho1_gamma04(*mat, branch=branch, dual=True)
        assert np.abs(rho - closed).max() < 1e-10, mat


def test_vv_support_law_enforced():
    m = FqModule.d1()
    good = VVQExp(m, Fraction(5, 2), {
        (0,): QExp(Fraction(5, 2), 1, {0: 1, 1: 0}, 0, 3),
        (1,): QExp(Fraction(5, 2), 4, {1: 2}, 0, 8),
    })
    vv_support_check(good)  # no raise
    with pytest.raises(VerificationFailure):
        VVQExp(m, Fraction(5, 2), {(1,): QExp(Fraction(5, 2), 4, {2: 1}, 0, 8)})


def test_vv_component_reduces_labels():
    m = FqModule.d1()
    vv = VVQExp(m, Fraction(1, 2), {(0,): QExp(Fraction(1, 2), 1, {0: 1}, 0, 2)})
    assert vv.component((2,)) is vv.component((0,))


def test_selftest_clean_run_and_negative_control(monkeypatch):
    report = weil_selftest(max_n=6, words=25, seed=5)
    assert report["modules"] == 8
    assert report["max_relation_error"] < 1e-12
    assert report["max_word_error"] < 1e-10
    monkeypatch.setattr(weilrep, "weil_S", perturbed_weil_S(weilrep.weil_S))
    with pytest.raises(VerificationFailure):
        weil_selftest(max_n=2, words=5)


def test_selftest_checks_each_module_before_building_the_next(monkeypatch):
    # only one module of the family d1_n is held at a time
    events = []
    build, weil_S = weilrep.FqModule.d1_n, weilrep.weil_S

    def logged_build(n):
        events.append(("build", n))
        return build(n)

    def logged_S(mod):
        events.append(("S", len(mod.orders)))
        return weil_S(mod)

    monkeypatch.setattr(weilrep.FqModule, "d1_n", logged_build)
    monkeypatch.setattr(weilrep, "weil_S", logged_S)
    report = weil_selftest(max_n=3, words=0)
    assert report["modules"] == 5
    builds = [i for i, e in enumerate(events) if e[0] == "build"]
    assert [events[i + 1][0] for i in builds] == ["S", "S", "S"]
