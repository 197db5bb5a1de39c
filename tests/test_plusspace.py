"""Plus-space support tests, projections, and the two-component
vector-valued correspondence."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

import util
from shimlift.errors import HypothesisError
from shimlift.fixtures import fixture
from shimlift.plusspace import (
    epsilon_for,
    is_plus_space,
    lift_L,
    lift_L_inverse,
    project_plus,
    project_two,
)
from shimlift.qseries import QExp
from shimlift.weilrep import VVQExp, vv_support_check


def test_epsilon_for_parity_rule():
    assert epsilon_for(2, 1) == 1
    assert epsilon_for(2, -1) == -1
    assert epsilon_for(3, 1) == -1
    assert epsilon_for(3, -1) == 1
    with pytest.raises(ValueError):
        epsilon_for(2, 0)


def test_sign_and_level_arguments_are_checked():
    # xi -> (-1)^k xi is its own inverse, so it also takes eps back to xi
    for k in range(1, 6):
        for eps in (1, -1):
            assert epsilon_for(k, epsilon_for(k, eps)) == eps
    f = QExp(Fraction(5, 2), 1, {n: 1 for n in range(8)}, 0, 8)
    for call in (lambda: is_plus_space(f, 0), lambda: project_plus(f, 3, 4), lambda: lift_L(f, 2)):
        with pytest.raises(ValueError, match="^eps must be \\+1 or -1$"):
            call()
    for call in (lambda: project_plus(f, 1, 0), lambda: project_two(f, -4)):
        with pytest.raises(ValueError, match="^N must be positive$"):
            call()


def test_is_plus_space_reads_the_sign():
    f = QExp(Fraction(5, 2), 1, {0: 1, 1: 2, 4: 3, 5: 4}, 0, 8)
    assert is_plus_space(f, 1)
    assert not is_plus_space(f, -1)
    g = QExp(Fraction(7, 2), 1, {0: 1, 3: 2}, 0, 8)
    assert is_plus_space(g, -1)
    assert not is_plus_space(g, 1)
    with pytest.raises(ValueError):
        is_plus_space(QExp(0, 2, {1: 1}, 0, 4), 1)
    with pytest.raises(ValueError):
        is_plus_space(f, 3)


def test_fixture_forms_satisfy_their_support_condition():
    from shimlift.fixtures import fixture_defaults

    for name in ("theta", "cohen52", "cohen72", "cohen92", "theta_e4", "theta_e6"):
        f = fixture(name, 200)
        eps = fixture_defaults(name)["eps"]
        assert is_plus_space(f, eps), name


def test_weakly_holomorphic_fixture_is_plus():
    hj = fixture("hj4", 60)
    assert hj.lo < 0
    assert is_plus_space(hj, 1)


def test_projections_need_level_divisible_by_four():
    f = QExp(Fraction(5, 2), 1, {n: 1 for n in range(8)}, 0, 8)
    with pytest.raises(HypothesisError) as exc:
        project_plus(f, 1, 1)
    assert exc.value.obstruction == "projection-needs-4|N"
    with pytest.raises(HypothesisError):
        project_two(f, 2)


def test_project_plus_keeps_allowed_residues():
    f = QExp(Fraction(5, 2), 1, {n: n + 1 for n in range(12)}, 0, 12)
    p = project_plus(f, 1, 4)
    assert p.support() == [0, 1, 4, 5, 8, 9]
    m = project_plus(f, -1, 4)
    assert m.support() == [0, 3, 4, 7, 8, 11]
    two = project_two(f, 4)
    assert two.support() == [0, 2, 4, 6, 8, 10]


def test_project_plus_fixes_members():
    rng = random.Random(61)
    for _ in range(10):
        f = util.random_plus_series(rng, 1, 40)
        assert project_plus(f, 1, 4) == f


def test_projection_is_idempotent():
    rng = random.Random(62)
    for _ in range(10):
        f = util.random_qexp(rng, 0, 30, weight=Fraction(7, 2), density=0.8)
        p = project_plus(f, -1, 8)
        assert project_plus(p, -1, 8) == p


def test_lift_L_component_exponent_classes():
    # e_0 exponents are integers, e_1 exponents sit in eps/4 + Z
    rng = random.Random(63)
    for eps in (1, -1):
        f = util.random_plus_series(rng, eps, 50)
        vv = lift_L(f, eps)
        vv_support_check(vv)
        c0 = vv.component((0,))
        c1 = vv.component((1,))
        if c0 is not None:
            for a in c0.coeffs:
                assert (Fraction(a, c0.denom)).denominator == 1
        if c1 is not None:
            r = eps % 4
            for a in c1.coeffs:
                frac = Fraction(a, c1.denom) % 1
                assert frac == Fraction(r, 4), (eps, a)


def test_lift_L_target_module_tracks_sign():
    rng = random.Random(64)
    plus = lift_L(util.random_plus_series(rng, 1, 30), 1)
    minus = lift_L(util.random_plus_series(rng, -1, 30), -1)
    assert plus.module.q_values[(1,)] == Fraction(1, 4)
    assert minus.module.q_values[(1,)] == Fraction(3, 4)


def test_lift_L_rejects_non_plus_input():
    f = QExp(Fraction(5, 2), 1, {2: 1}, 0, 8)
    with pytest.raises(HypothesisError) as exc:
        lift_L(f, 1)
    assert exc.value.obstruction == "not-plus-space"


def test_round_trip_random_series_both_signs():
    rng = random.Random(65)
    for eps in (1, -1):
        for _ in range(10):
            f = util.random_plus_series(rng, eps, 60)
            back = lift_L_inverse(lift_L(f, eps))
            assert back == f, eps


def test_inverse_rejects_wrong_module_shape():
    from shimlift.weilrep import FqModule

    m = FqModule.d1_n(1)
    vv = VVQExp(m, Fraction(1, 2), {(0, 0, 0): QExp(Fraction(1, 2), 1, {0: 1}, 0, 4)})
    with pytest.raises(ValueError):
        lift_L_inverse(vv)


def test_round_trip_other_direction_on_vector_side():
    # starting from a vector-valued form with the right support
    f0 = QExp(Fraction(5, 2), 1, {0: 2, 3: -1}, 0, 10)
    f1 = QExp(Fraction(5, 2), 4, {1: 5, 9: 7}, 0, 40)
    from shimlift.weilrep import FqModule

    vv = VVQExp(FqModule.d1(), Fraction(5, 2), {(0,): f0, (1,): f1})
    back = lift_L(lift_L_inverse(vv), 1)
    assert back.component((0,)) == f0
    assert back.component((1,)) == f1
