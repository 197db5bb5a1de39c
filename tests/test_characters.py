"""Dirichlet characters: constructors, validation, the theta-multiplier
companion, and the rescaling-sign character with its obstruction cases."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimlift import characters
from shimlift.characters import (
    DirichletCharacter,
    character_from_json,
    character_to_json,
    chi_t,
    eta_char,
    kronecker_is_character,
    omega_chi,
)
from shimlift.errors import REQUEST_BUDGET, HypothesisError, SchemaError
from shimlift.scalars import CycScalar, as_exact, kronecker
from util import eta_char_scan, exact_eq, omega_chi_scan


def _chi5_order4() -> DirichletCharacter:
    i = CycScalar.root_of_unity(4, 1)
    return DirichletCharacter(5, {1: 1, 2: i, 3: -i, 4: -1})


def test_trivial_character_values():
    chi = DirichletCharacter.trivial(6)
    assert chi(1) == 1 and chi(5) == 1
    assert chi(2) == 0 and chi(3) == 0 and chi(4) == 0
    assert chi.is_trivial()
    assert chi.parity() == 1


def test_explicit_table_validation():
    with pytest.raises(ValueError):
        DirichletCharacter(5, {1: 1, 2: 1, 3: 1})  # misses 4
    with pytest.raises(ValueError):
        DirichletCharacter(4, {1: 1, 2: 1, 3: 1})  # 2 is not a unit
    with pytest.raises(ValueError):
        DirichletCharacter(5, {1: 1, 2: 1, 3: 1, 4: -1})  # not multiplicative
    with pytest.raises(ValueError):
        DirichletCharacter(3, {1: -1, 2: 1})  # chi(1) != 1


@pytest.mark.parametrize("modulus", range(1, 25))
def test_generator_check_agrees_with_all_pairs(modulus):
    """The constructor checks chi(a g) = chi(a) chi(g) only for g in a
    generating set of the units; on every table with at most two -1 values
    it accepts exactly what the check over all pairs accepts."""
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    rest = [r for r in units if r != 1 % modulus]
    for flips in [()] + [(u,) for u in rest] + list(itertools.combinations(rest, 2)):
        table = {r: -1 if r in flips else 1 for r in units}
        if all(table[a] * table[b] == table[a * b % modulus] for a in units for b in units):
            assert DirichletCharacter(modulus, table).values == table
        else:
            with pytest.raises(ValueError, match="not multiplicative"):
                DirichletCharacter(modulus, table)


def test_order_four_character_mod_5():
    chi = _chi5_order4()
    assert chi.parity() == -1
    assert exact_eq(chi(2 * 3), Fraction(1))
    assert exact_eq(chi(7), chi(2))


def test_from_kronecker_values_match_symbol():
    for t in (-4, -3, 5, 8, 12):
        chi = DirichletCharacter.from_kronecker(t, 4 * abs(t))
        for d in range(1, 4 * abs(t) + 1):
            if math.gcd(d, 4 * abs(t)) == 1:
                assert exact_eq(chi(d), Fraction(kronecker(t, d))), (t, d)


def test_from_kronecker_rejects_incompatible_modulus():
    # kronecker(2, .) has conductor 8; modulus 2 cannot carry it
    with pytest.raises(ValueError):
        DirichletCharacter.from_kronecker(2, 2)


def test_from_function_detects_non_descending_function():
    with pytest.raises(ValueError):
        DirichletCharacter.from_function(4, lambda d: kronecker(2, d), 8)


def test_product_lands_at_lcm_modulus():
    a = DirichletCharacter.from_kronecker(-4, 4)
    b = DirichletCharacter.from_kronecker(-3, 3)
    c = a * b
    assert c.modulus == 12
    for d in (1, 5, 7, 11):
        assert exact_eq(c(d), Fraction(kronecker(-4, d) * kronecker(-3, d)))
    assert c.parity() == 1


def test_square_of_quartic_character_is_quadratic():
    chi = _chi5_order4()
    sq = chi * chi
    assert sq.modulus == 5
    for d in (1, 2, 3, 4):
        assert exact_eq(sq(d), Fraction(kronecker(5, d)))


def test_character_from_json_dispatch():
    assert character_from_json({"modulus": 7, "kind": "trivial"}).is_trivial()
    k = character_from_json({"modulus": 12, "kind": "kronecker", "t": 12})
    assert all(k(d) == kronecker(12, d) for d in range(24))
    e = character_from_json({"modulus": 5, "kind": "explicit", "values": [[1, "1"], [2, "-1"], [3, "-1"], [4, "1"]]})
    assert exact_eq(e(3), Fraction(-1))
    with pytest.raises(SchemaError):
        character_from_json({"modulus": 5, "kind": "nonsense"})


# -- omega_chi -----------------------------------------------------------


def test_omega_of_trivial_character():
    om = omega_chi(DirichletCharacter.trivial(1))
    assert om.modulus == 4
    assert om(1) == 1 and exact_eq(om(3), Fraction(1))
    assert om.parity() == 1


def test_omega_absorbs_parity():
    # chi odd: omega picks up kronecker(-4, .) and comes out even
    chi = DirichletCharacter.from_kronecker(-4, 4)
    om = omega_chi(chi)
    assert om.modulus == 16
    assert om.parity() == 1
    for d in (1, 3, 5, 7, 9, 11, 13, 15):
        assert exact_eq(om(d), Fraction(kronecker(-4, d) ** 2)), d


def test_omega_is_always_even():
    for chi in (
        DirichletCharacter.trivial(3),
        DirichletCharacter.from_kronecker(-3, 3),
        _chi5_order4(),
    ):
        assert omega_chi(chi).parity() == 1


# -- chi_t and eta_char --------------------------------------------------


def test_chi_t_modulus_and_values():
    c = chi_t(6)
    assert c.modulus == 8 * 3
    for d in range(1, 25):
        if math.gcd(d, 24) == 1:
            assert exact_eq(c(d), Fraction(kronecker(6, d)))
    assert chi_t(1).is_trivial()
    with pytest.raises(ValueError):
        chi_t(0)


def test_chi_t_even_for_every_t():
    for t in (1, 2, 3, 5, 6, 7, 10):
        assert chi_t(t).parity() == 1


def test_valid_eta_classification():
    # the classification valid_eta gave, read from kronecker_is_character:
    # some sign admits eta unless t = 2 mod 4 and 4 does not divide N
    def some_sign(N, t):
        return any(kronecker_is_character(N, t, eps) for eps in (1, -1))

    assert some_sign(4, 2)
    assert some_sign(8, 6)
    assert some_sign(1, 3)
    assert some_sign(3, 4)
    assert not some_sign(1, 2)
    assert not some_sign(2, 6)
    assert not some_sign(6, 2)


def test_kronecker_is_character_decides_the_eta_scan():
    # the predicate holds exactly where the class-constancy scan over
    # residues mod N t succeeds
    for N in range(1, 13):
        for t in range(1, 31):
            for eps in (1, -1):
                if kronecker_is_character(N, t, eps):
                    assert eta_char(DirichletCharacter.trivial(N), t, eps).modulus == N * t
                    continue
                with pytest.raises(HypothesisError):
                    eta_char(DirichletCharacter.trivial(N), t, eps)
                with pytest.raises(ValueError, match="not defined modulo"):
                    DirichletCharacter.from_function(
                        N * t, lambda d: kronecker(eps * t, d), math.lcm(N * t, 8 * t)
                    )


def test_eta_char_odd_t_matching_sign():
    chi = DirichletCharacter.trivial(1)
    eta = eta_char(chi, 3, -1)  # kronecker(-3, .) is defined mod 3
    assert eta.modulus == 3
    assert exact_eq(eta(2), Fraction(kronecker(-3, 2)))


def test_eta_char_sign_mismatch_needs_4_in_level():
    chi1 = DirichletCharacter.trivial(1)
    with pytest.raises(HypothesisError) as exc:
        eta_char(chi1, 3, 1)  # kronecker(3, .) has conductor 12, not 3
    assert exc.value.obstruction == "sign-vs-index"
    chi4 = DirichletCharacter.trivial(4)
    eta = eta_char(chi4, 3, 1)
    assert eta.modulus == 12
    for d in (1, 5, 7, 11):
        assert exact_eq(eta(d), Fraction(kronecker(3, d)))


def test_eta_char_t_two_mod_four_obstruction():
    chi = DirichletCharacter.trivial(2)
    with pytest.raises(HypothesisError) as exc:
        eta_char(chi, 2, 1)
    assert (exc.value.obstruction, exc.value.case) == ("eta-conductor-8", "vi")
    # 4 | N absorbs the conductor
    eta = eta_char(DirichletCharacter.trivial(4), 2, 1)
    assert eta.modulus == 8
    for d in (1, 3, 5, 7):
        assert exact_eq(eta(d), Fraction(kronecker(2, d)))


_CHARACTERS = [DirichletCharacter.trivial(n) for n in range(1, 13)] + [
    DirichletCharacter.from_kronecker(t, m)
    for t, m in ((-4, 4), (-3, 3), (5, 5), (8, 8), (-8, 8), (12, 12), (-7, 7), (13, 13), (-3, 6))
] + [_chi5_order4()]


def test_eta_char_and_omega_chi_equal_the_scan_definitions():
    # the products of chi with a Kronecker character, against one scan of
    # d -> kronecker(., d) chi(d) over the residues of the period
    for chi in _CHARACTERS:
        assert omega_chi(chi) == omega_chi_scan(chi)
        for t in range(1, 31):
            for eps in (1, -1):
                if kronecker_is_character(chi.modulus, t, eps):
                    assert eta_char(chi, t, eps) == eta_char_scan(chi, t, eps), (chi, t, eps)


def test_eta_char_four_divides_t():
    eta = eta_char(DirichletCharacter.trivial(1), 4, 1)
    assert eta.modulus == 4
    assert exact_eq(eta(3), Fraction(kronecker(4, 3)))


# -- JSON ----------------------------------------------------------------


def test_character_json_modulus_above_the_budget_is_refused(monkeypatch):
    import shimlift.characters as characters

    def no_scan(*args, **kwargs):
        raise AssertionError("units enumerated before the modulus was checked")

    monkeypatch.setattr(characters, "units", no_scan)
    with pytest.raises(SchemaError, match="^the character modulus exceeds the request budget of 4000000$"):
        character_from_json({"modulus": REQUEST_BUDGET + 1, "kind": "trivial"})


def test_character_json_writes_the_value_table():
    assert character_to_json(DirichletCharacter.from_kronecker(-4, 4)) == {
        "modulus": 4, "kind": "explicit", "values": [[1, "1"], [3, "-1"]],
    }


def test_character_json_round_trip():
    for chi in (
        DirichletCharacter.trivial(6),
        DirichletCharacter.from_kronecker(12, 12),
        _chi5_order4(),
    ):
        back = character_from_json(character_to_json(chi))
        assert back == chi
        assert back.modulus == chi.modulus


def test_character_json_rejects_malformed():
    with pytest.raises(SchemaError):
        character_from_json({"modulus": 5})
    with pytest.raises(SchemaError):
        character_from_json("trivial")


@pytest.mark.parametrize("obj, message", [
    ({"modulus": 5}, "character object needs 'modulus' and 'kind'"),
    ({"modulus": 0, "kind": "trivial"}, "character modulus must be a positive integer"),
    ({"modulus": 5, "kind": "nonsense"}, "unknown character kind 'nonsense'"),
    ({"modulus": 5, "kind": ["x"]}, "unknown character kind ['x']"),
    ({"modulus": 5, "kind": "kronecker"}, "invalid character: kronecker character needs integer 't'"),
    ({"modulus": 5, "kind": "kronecker", "t": "5"}, "invalid character: kronecker character needs integer 't'"),
    ({"modulus": 5, "kind": "kronecker", "t": 0}, "invalid character: kronecker character needs nonzero t"),
    ({"modulus": 6, "kind": "kronecker", "t": 5},
     "invalid character: function is not defined modulo 6: kronecker(5, .) vanishes at the unit 5"),
    ({"modulus": 5, "kind": "explicit"}, "invalid character: explicit character needs 'values'"),
    ({"modulus": 5, "kind": "explicit", "values": [[True, "1"]]},
     "invalid character: explicit character value must be [residue, scalar] with an integer residue"),
    ({"modulus": 5, "kind": "explicit", "values": [[1, "x"]]}, "invalid character: bad rational 'x'"),
    ({"modulus": 5, "kind": "explicit", "values": [[1, "1"], [2, "1"]]},
     "invalid character: value table misses units [3, 4] mod 5"),
    ({"modulus": 5, "kind": "explicit", "values": [[1, "1"], [2, "-1"], [3, "-1"], [4, "-1"]]},
     "invalid character: table is not multiplicative: chi(2)chi(2) != chi(4)"),
    ({"modulus": True, "kind": "trivial"}, "character modulus must be a positive integer"),
    ({"modulus": 5, "kind": "kronecker", "t": True}, "invalid character: kronecker character needs integer 't'"),
    ({"modulus": 1, "kind": "kronecker", "t": 1009},
     "invalid character: function is not defined modulo 1: kronecker(1009, .) vanishes at the unit 1009"),
])
def test_character_json_error_messages(obj, message):
    with pytest.raises(SchemaError) as exc:
        character_from_json(obj)
    assert str(exc.value) == message


def _scan_from_kronecker(t, modulus):
    """The unbounded scan from_kronecker replaced: every class sampled over
    lcm(modulus, 8|t|)."""
    return DirichletCharacter.from_function(modulus, lambda d: kronecker(t, d), math.lcm(modulus, 8 * abs(t)))


def test_from_kronecker_agrees_with_the_full_period_scan():
    for modulus in range(1, 41):
        for t in itertools.chain(range(-200, 0), range(1, 201)):
            outcomes = []
            for build in (DirichletCharacter.from_kronecker, _scan_from_kronecker):
                try:
                    outcomes.append(build(t, modulus))
                except ValueError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1], (t, modulus)


@settings(max_examples=300, deadline=None)
@given(t=st.integers(-200, 200).filter(bool), m=st.integers(1, 500), multiple=st.booleans())
def test_conductor_rule_agrees_with_the_full_period_scan(t, m, multiple):
    # half the draws take a multiple of |t|, where every prime of t divides
    # the modulus and the power of 2 in the conductor decides
    if multiple and abs(t) <= m:
        m -= m % abs(t)
    outcomes = []
    for build in (DirichletCharacter.from_kronecker, _scan_from_kronecker):
        try:
            outcomes.append(build(t, m))
        except ValueError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


def test_kronecker_is_character_is_the_mod_4_rule_at_the_lift():
    for N in range(1, 41):
        for T in range(1, 121):
            for eps in (1, -1):
                want = (eps * T) % 4 in (0, 1) or N % 4 == 0
                assert kronecker_is_character(N, T, eps) == want, (N, T, eps)


def test_kronecker_characters_are_built_without_a_scan(monkeypatch):
    want = [_scan_from_kronecker(-3, 6), _scan_from_kronecker(5, 40),
            omega_chi_scan(DirichletCharacter.trivial(3)),
            eta_char_scan(DirichletCharacter.trivial(4), 3, 1)]

    def no_scan(*args, **kwargs):
        raise AssertionError("a Kronecker character was built by a scan")

    monkeypatch.setattr(DirichletCharacter, "from_function", no_scan)
    got = [DirichletCharacter.from_kronecker(-3, 6), chi_t(5),
           omega_chi(DirichletCharacter.trivial(3)), eta_char(DirichletCharacter.trivial(4), 3, 1)]
    assert got == want
    with pytest.raises(ValueError, match="^function is not defined modulo 6: kronecker[(]3, [.][)] has conductor divisible by 4$"):
        DirichletCharacter.from_kronecker(3, 6)


def test_from_kronecker_scan_is_bounded_by_the_modulus():
    # t = 9^8: all primes of t divide 3, so 24 samples decide; a scan over
    # the period 8 |t| took more than 15 s
    chi = DirichletCharacter.from_kronecker(9**8, 3)
    assert chi == DirichletCharacter.trivial(3)
    # kronecker(1009, d) = 1 for d = 1 .. 8, yet it vanishes at the unit 1009
    with pytest.raises(ValueError, match=r"^function is not defined modulo 1: .* vanishes at the unit 1009$"):
        DirichletCharacter.from_kronecker(1009, 1)


def test_parity_is_the_sign_at_minus_one():
    # chi(1) = 1 and multiplicativity give chi(-1)^2 = 1
    chars = [_chi5_order4(), _chi5_order4() * _chi5_order4()]
    chars += [chi_t(t) for t in range(1, 30)]
    chars += [DirichletCharacter.from_kronecker(t, 4 * abs(t)) for t in range(-30, 0)]
    for chi in chars:
        assert chi(-1) * chi(-1) == 1
        assert chi.parity() == chi(-1)


def test_values_given_at_mixed_cyclotomic_orders_make_a_character():
    # chi(3) = zeta_6 generates the units mod 7; chi(2) = chi(3)^2 = zeta_3
    # is given at order 3, and products at order 6 must still compare equal
    vals = {pow(3, k, 7): CycScalar.root_of_unity(6, k) for k in range(6)}
    vals[2] = CycScalar.root_of_unity(3, 1)
    chi = DirichletCharacter(7, vals)
    assert chi.parity() == -1
    assert chi(2) == CycScalar.root_of_unity(6, 2)


@pytest.mark.parametrize("build, args", [
    (DirichletCharacter.from_kronecker, (1, 0)),
    (DirichletCharacter.from_kronecker, (1, -5)),
    (DirichletCharacter.from_kronecker, (5, -5)),
    (DirichletCharacter.trivial, (0,)),
])
def test_kronecker_and_trivial_refuse_a_modulus_below_one(build, args):
    # the conductor rule refuses it before any table is built
    with pytest.raises(ValueError, match="^modulus must be positive$"):
        build(*args)


def test_derived_characters_skip_the_table_check_and_pass_it(monkeypatch):
    """from_kronecker, trivial and products store the tables their
    construction proves without the constructor's check; rebuilt through
    that check, each is the same character, its values already exact."""
    quartic = _chi5_order4()

    def no_check(*args):
        raise AssertionError("a derived character reached the table check")

    with monkeypatch.context() as patch:
        patch.setattr(characters, "_unit_generators", no_check)
        kron = [DirichletCharacter.from_kronecker(t, m) for t in range(-60, 61) for m in range(1, 241)
                if t and characters._kronecker_character(t, m) is None]
        small = [chi for chi in kron if chi.modulus <= 24]
        trivial = [DirichletCharacter.trivial(m) for m in range(1, 241)]
        derived = kron + trivial + [chi_t(t) for t in range(1, 61)]
        derived += [a * b for a, b in zip(small, reversed(small))] + [quartic * chi for chi in small + [quartic]]
        derived += [omega_chi(chi) for chi in small + trivial[:40] + [quartic]]
        for chi in trivial[:12] + [quartic]:
            for t in range(1, 13):
                for eps in (1, -1):
                    try:
                        derived.append(eta_char(chi, t, eps))
                    except HypothesisError:
                        pass
    assert len(kron) == 2014
    for chi in derived:
        assert all(as_exact(v) is v for v in chi.values.values()), chi
        assert DirichletCharacter(chi.modulus, dict(chi.values)) == chi
