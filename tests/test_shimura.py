"""The lift operators: coefficient formula, constant terms, gating,
diamond orbits, level change, the corrected combination, and level
prediction.

Two structural comparisons carry most of the weight here. The index
refactoring route (full index in one step vs square-free lift at raised
level followed by coefficient extraction) checks the coefficient formula
against itself at two levels, and the constant term is compared with the
two sums it replaced (residue double sum at modulus N t, single sum at
modulus 4 N T), kept as independent references in `util`.  The sieve over
the read set {T m^2} is compared with the divisor-sum loop it replaced
(`util.reference_lift`) on random rational and cyclotomic inputs through
all three orbit kinds.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from shimlift.arith import power
from shimlift.characters import DirichletCharacter, eta_char
from shimlift.errors import HypothesisError, PrecisionError, SchemaError
from shimlift.fixtures import cohen_eisenstein, eisenstein, fixture, theta
from shimlift.plusspace import is_plus_space
from shimlift.qseries import QExp, add, mul, rescale, scale, u_op
from shimlift.scalars import CycScalar, kronecker
from shimlift.shimura import (
    CharacterOrbit,
    ExplicitOrbit,
    LevelVerdict,
    corrected_combination,
    diamond,
    level_change_rhs,
    matches_plus_space,
    predict_level,
    shimura_S1,
    shimura_St,
    shimura_general,
    split_square,
)


def _random_4n_input(rng: random.Random, hi: int, weight=Fraction(5, 2)) -> QExp:
    """Integer-exponent series with unrestricted support, for 4 | N runs
    where no plus condition applies."""
    return util.random_qexp(rng, 0, hi, weight=weight, density=0.6, max_den=5)


def test_split_square_examples():
    assert split_square(1) == (1, 1)
    assert split_square(4) == (1, 2)
    assert split_square(45) == (5, 3)
    assert split_square(50) == (2, 5)
    assert split_square(49) == (1, 7)
    assert split_square(12) == (3, 2)
    with pytest.raises(ValueError):
        split_square(0)


def test_s1_lift_of_cohen_is_eisenstein_multiple_short():
    h = cohen_eisenstein(2, 150)
    lift = shimura_S1(h, N=1, k=2, prec=12)
    e4 = eisenstein(4, 13)
    assert lift == scale(e4, Fraction(-1, 2880))
    assert lift.weight == 4


def test_s1_constant_term_sign_pinned_by_both_classical_fixtures():
    h = cohen_eisenstein(2, 150)
    lift_h = shimura_S1(h, N=1, k=2, prec=10)
    assert lift_h.coeff(0) == Fraction(-1, 2880)
    te4 = fixture("theta_e4", 150)
    lift_t = shimura_S1(te4, N=1, k=4, prec=10)
    assert lift_t.coeff(0) == Fraction(1, 240)
    assert lift_t.coeff(1) == 2
    assert lift_t.coeff(2) == 258


def test_lift_weight_window_and_lattice():
    h = cohen_eisenstein(2, 200)
    lift = shimura_S1(h, N=1, k=2, prec=14)
    assert lift.weight == 4
    assert lift.denom == 1
    assert (lift.lo, lift.hi) == (0, 15)


def test_precision_contract_reports_needed_window():
    h = cohen_eisenstein(2, 100)
    with pytest.raises(PrecisionError) as exc:
        shimura_S1(h, N=1, k=2, prec=10)  # needs hi >= 101
    assert exc.value.required_window[1] == 101
    with pytest.raises(PrecisionError) as exc2:
        shimura_St(h, N=4, k=2, t=5, eps=1, prec=5)  # needs 5 * 25 + 1
    assert exc2.value.required_window[1] == 126


def test_gate_runs_before_precision_check():
    h = cohen_eisenstein(2, 10)  # far too short for the lift below
    with pytest.raises(HypothesisError):
        shimura_St(h, N=1, k=2, t=2, eps=1, prec=50)


def test_even_index_obstruction_names_case_vi():
    h = cohen_eisenstein(2, 600)
    with pytest.raises(HypothesisError) as exc:
        shimura_St(h, N=1, k=2, t=2, eps=1, prec=5)
    assert exc.value.obstruction == "eta-conductor-8"
    assert exc.value.case == "vi"


def test_odd_index_sign_mismatch_gate():
    h = cohen_eisenstein(2, 600)
    # kronecker(-1, 3) = -1, so eps = +1 clashes at index 3
    with pytest.raises(HypothesisError) as exc:
        shimura_St(h, N=1, k=2, t=3, eps=1, prec=5)
    assert exc.value.obstruction == "sign-vs-index"
    # matching sign at index 5: kronecker(-1, 5) = +1
    out = shimura_St(h, N=1, k=2, t=5, eps=1, prec=5)
    assert out.coeff(0) == Fraction(-1, 600)


def _refusal(call):
    """(obstruction, text, case) of the HypothesisError call raises, or None."""
    try:
        call()
    except HypothesisError as e:
        return e.obstruction, str(e), e.case
    return None


@settings(max_examples=150, deadline=None)
@given(N=st.integers(1, 12), t=st.sampled_from([t for t in range(1, 31) if split_square(t)[1] == 1]),
       eps=st.sampled_from([1, -1]))
def test_gate_and_eta_char_share_one_obstruction(N, t, eps):
    # a constant is in both plus spaces, so only the index and sign gate can
    # refuse the lift
    f = QExp(Fraction(5, 2), 1, {0: 1}, 0, t + 1)
    lift = _refusal(lambda: shimura_St(f, N, 2, t, eps, 1))
    eta = _refusal(lambda: eta_char(DirichletCharacter.trivial(N), t, eps))
    assert lift == eta


def test_non_plus_input_gate_at_odd_level():
    rng = random.Random(12)
    f = util.random_qexp(rng, 0, 200, weight=Fraction(5, 2), density=0.9)
    assert not all(a % 4 in (0, 1) for a in f.coeffs)
    with pytest.raises(HypothesisError) as exc:
        shimura_St(f, N=1, k=2, t=1, eps=1, prec=10)
    assert exc.value.obstruction == "not-plus-space"


def test_level_divisible_by_four_lifts_anything():
    rng = random.Random(13)
    f = _random_4n_input(rng, 300)
    for t in (1, 2, 3, 6):
        out = shimura_St(f, N=4, k=2, t=t, eps=1, prec=7)
        assert out.weight == 4
    out_minus = shimura_St(f, N=4, k=2, t=3, eps=-1, prec=7)
    assert out_minus.weight == 4


def test_lift_rejects_bad_parameters():
    h = cohen_eisenstein(2, 50)
    with pytest.raises(SchemaError):
        shimura_St(h, N=1, k=2, t=1, eps=2, prec=3)
    with pytest.raises(SchemaError):
        shimura_general(h, N=1, k=2, t=1, s=0, eps=1, prec=3)
    half = QExp(Fraction(5, 2), 2, {1: 1}, 0, 300)
    with pytest.raises(SchemaError):
        shimura_St(half, N=4, k=2, t=1, eps=1, prec=2)


@pytest.mark.parametrize("t", [0, -1])
def test_general_rejects_nonpositive_t(t):
    # a one-term window: the argument check comes before the window check
    h = cohen_eisenstein(2, 1)
    with pytest.raises(SchemaError, match="t must be positive"):
        shimura_general(h, N=1, k=2, t=t, s=1, eps=1, prec=4)


@pytest.mark.parametrize("entry, kwargs, message", [
    (level_change_rhs, dict(N=1, M=1, k=2, t=0, eps=1, prec=3), "t must be positive"),
    (level_change_rhs, dict(N=1, M=1, k=2, t=-1, eps=1, prec=3), "t must be positive"),
    (level_change_rhs, dict(N=1, M=1, k=2, t=1, eps=5, prec=3), "eps must be"),
    (corrected_combination, dict(N=1, M=3, k=2, t=-1, s=1, eps=1, prec=3), "t must be positive"),
    (corrected_combination, dict(N=1, M=3, k=2, t=1, s=0, eps=1, prec=3), "s must be positive"),
    (shimura_St, dict(N=1, k=2, t=0, eps=1, prec=3), "t must be positive"),
    (shimura_S1, dict(N=0, k=2, prec=3), "^level must be positive$"),
    (level_change_rhs, dict(N=1, M=0, k=2, t=1, eps=1, prec=3), "^M must be positive$"),
    (shimura_general, dict(N=1, k=0, t=1, s=1, eps=1, prec=3),
     "^the integer weight parameter k must be positive$"),
    (corrected_combination, dict(N=1, M=3, k=2, t=1, s=1, eps=-1, prec=-1),
     "^requested precision must be nonnegative$"),
])
def test_argument_check_precedes_any_lift(monkeypatch, entry, kwargs, message):
    import shimlift.shimura as shimura

    def no_lift(*args):
        raise AssertionError("a lift ran before the argument check")

    monkeypatch.setattr(shimura, "_lift", no_lift)
    with pytest.raises(SchemaError, match=message):
        entry(cohen_eisenstein(2, 50), **kwargs)


def test_matches_plus_space_reads_the_square_free_part():
    rng = random.Random(22)
    inputs = [
        util.random_plus_series(rng, 1, 60, weight=Fraction(5, 2)),
        util.random_plus_series(rng, -1, 60, weight=Fraction(5, 2)),
        util.random_qexp(rng, 0, 60, weight=Fraction(5, 2), density=0.9),
        QExp(Fraction(5, 2), 2, {1: 1}, 0, 60),
    ]
    for f in inputs:
        for T in range(1, 41):
            t0, _ = split_square(T)
            for eps in (1, -1):
                want = (t0 % 2 == 1 and f.denom == 1 and eps == kronecker(-1, t0)
                        and is_plus_space(f, eps))
                assert matches_plus_space(f, T, eps) == want, (T, eps)


def test_general_equals_st_at_square_free_index():
    rng = random.Random(14)
    for N in (4, 8, 12):
        for t in (1, 2, 3, 5, 6):
            for eps in (1, -1):
                f = _random_4n_input(rng, t * 36 + 1)
                a = shimura_St(f, N=N, k=2, t=t, eps=eps, prec=6)
                b = shimura_general(f, N=N, k=2, t=t, s=1, eps=eps, prec=6)
                assert a == b, (N, t, eps)


def test_constant_term_sums_agree_on_classical_inputs():
    # squarefree route (residue double sum) vs extended modulus-4NT sum,
    # on genuinely half-integral inputs rather than random noise
    h = cohen_eisenstein(2, 1000)
    for t in (1, 5, 13):
        a = shimura_St(h, N=1, k=2, t=t, eps=1, prec=2)
        b = shimura_general(h, N=1, k=2, t=t, s=1, eps=1, prec=2)
        assert a.coeff(0) == b.coeff(0), t


def test_index_refactoring_routes_agree():
    # full index T = t s^2 in one step vs square-free lift at level N s
    # then extraction of every s-th coefficient
    rng = random.Random(15)
    for (t, s) in ((1, 2), (5, 2), (1, 3), (3, 2), (2, 3)):
        T = t * s * s
        f = _random_4n_input(rng, T * 25 + 1)
        direct = shimura_general(f, N=4, k=2, t=t, s=s, eps=1, prec=4)
        inner = shimura_St(f, N=4 * s, k=2, t=t, eps=1, prec=4 * s)
        routed = u_op(inner, s).truncate(5)
        assert direct == routed, (t, s)


def test_st_routes_non_square_free_index_to_general():
    rng = random.Random(16)
    f = _random_4n_input(rng, 20 * 16 + 1)
    via_st = shimura_St(f, N=4, k=3, t=20, eps=1, prec=4)
    via_general = shimura_general(f, N=4, k=3, t=5, s=2, eps=1, prec=4)
    assert via_st == via_general


def test_eps_flip_equals_twist_by_chi_minus_four():
    rng = random.Random(17)
    chi4 = DirichletCharacter.from_kronecker(-4, 4)
    f = _random_4n_input(rng, 3 * 49 + 1)
    for t in (1, 3):
        plus = shimura_St(f, N=4, k=2, t=t, eps=1, orbit=CharacterOrbit(chi4), prec=6)
        minus = shimura_St(f, N=4, k=2, t=t, eps=-1, prec=6)
        assert plus == minus, t


def test_s1_has_no_support_gate():
    rng = random.Random(18)
    f = util.random_qexp(rng, 0, 150, weight=Fraction(5, 2), density=0.9)
    out = shimura_S1(f, N=1, k=2, prec=12)
    assert out.weight == 4


def _orbits_at(N: int, f: QExp, rng: random.Random):
    """The trivial orbit, every quadratic character orbit of a small
    discriminant defined mod N, and an explicit orbit with random entries."""
    yield CharacterOrbit(DirichletCharacter.trivial(N))
    for D in (-4, -3, 5, 8, -8, 12):
        try:
            yield CharacterOrbit(DirichletCharacter.from_kronecker(D, N))
        except ValueError:
            pass
    table = {d: f if d == 1 % N else util.random_qexp(rng, 0, f.hi, weight=f.weight, density=1.0)
             for d in range(N) if math.gcd(d, N) == 1}
    yield ExplicitOrbit(N, table)


def test_constant_term_matches_both_reference_sums():
    # production constant (a prec-0 lift) against the modulus-4NT sum
    # everywhere, and against the residue double sum at modulus N t
    # wherever that one applies: square-free t with kronecker(eps t, .)
    # periodic mod N t
    rng = random.Random(22)
    checked_nt = 0
    for N in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12):
        f = QExp(Fraction(5, 2), 1, {0: Fraction(rng.randint(1, 9), rng.randint(1, 5))}, 0, 1)
        for orbit in _orbits_at(N, f, rng):
            read = lambda d, n, orbit=orbit: util.orbit_coefficient(orbit, f, d, n)  # noqa: E731
            for T in (1, 2, 3, 4, 5, 6, 8, 9, 12, 18):
                t, s = split_square(T)
                for eps in (1, -1):
                    k = 1 + (N + T) % 3
                    got = shimura_general(f, N=N, k=k, t=t, s=s, eps=eps, prec=0, orbit=orbit).coeff(0)
                    assert got == util._constant_extended(read, N, k, T, eps), (N, orbit, T, eps)
                    if s == 1 and ((eps * t) % 4 in (0, 1) or N % 4 == 0):
                        assert got == util._constant_squarefree(read, N, k, t, eps), (N, orbit, t, eps)
                        checked_nt += 1
    assert checked_nt > 100


def _theta5(prec: int) -> QExp:
    """theta^5: weight 5/2, not in a plus space, level 1 in this lift's
    convention."""
    return power(theta(prec), 5, mul)


def test_level_change_constant_matches_lift_outside_gated_domain():
    # kronecker(eps t, .) with eps t = 2 mod 4 is not periodic mod N t at
    # N = 1: the constant term needs modulus 4 N t there
    f = _theta5(6 * 16 + 1)
    rhs = level_change_rhs(f, N=1, M=1, k=2, t=2, eps=1, prec=4)
    assert rhs == shimura_general(f, N=1, k=2, t=2, s=1, eps=1, prec=4)
    assert rhs.coeff(0) == Fraction(-1, 2)
    for t, constant in ((2, Fraction(-1, 2)), (6, Fraction(-3))):
        rhs = level_change_rhs(f, N=1, M=4, k=2, t=t, eps=1, prec=4)
        assert rhs == shimura_St(f, N=4, k=2, t=t, eps=1, prec=4), t
        assert rhs.coeff(0) == constant, t


@settings(deadline=None, max_examples=60)
@given(which=st.sampled_from(["S1", "St", "general"]), seed=st.integers(0, 2**32),
       prec=st.integers(0, 5), extra=st.integers(1, 30))
def test_lift_reads_exactly_its_window(which, seed, prec, extra):
    # an input ending at T prec^2 + 1 lifts as a longer one does; one term
    # fewer is refused with that window
    rng = random.Random(seed)
    eps = rng.choice((1, -1))
    if which == "S1":
        N, T = rng.randint(1, 6), 1
        lift = lambda g: shimura_S1(g, N=N, k=2, prec=prec)  # noqa: E731
    elif which == "St":
        N, T = rng.choice((4, 8, 12)), rng.choice((1, 2, 3, 5, 6, 7))
        lift = lambda g: shimura_St(g, N=N, k=2, t=T, eps=eps, prec=prec)  # noqa: E731
    else:
        N, t, s = rng.randint(1, 6), rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3))
        T = t * s * s
        lift = lambda g: shimura_general(g, N=N, k=3, t=t, s=s, eps=eps, prec=prec)  # noqa: E731
    needed = T * prec * prec + 1
    longer = _random_4n_input(rng, needed + extra)
    assert lift(longer.truncate(needed)) == lift(longer)
    with pytest.raises(PrecisionError) as exc:
        lift(longer.truncate(needed - 1))
    assert exc.value.required_window[1] == needed


# -- diamond orbits ------------------------------------------------------


def test_character_orbit_twist_and_series():
    chi = DirichletCharacter.from_kronecker(-4, 4)
    orbit = CharacterOrbit(chi)
    f = QExp(Fraction(5, 2), 1, {0: 1, 1: 2, 4: 3}, 0, 6)
    assert diamond(f, orbit, 3) == scale(f, chi(3))
    g, orb2 = orbit.twist(f, 3)
    assert g == scale(f, chi(3))
    assert orb2 is orbit


def test_diamond_reads_every_unit_and_refuses_non_units():
    rng = random.Random(23)
    f = util.random_qexp(rng, 0, 12, weight=Fraction(5, 2), density=1.0)
    i = CycScalar.root_of_unity(4, 1)
    characters = [
        DirichletCharacter.from_kronecker(-4, 4),
        DirichletCharacter(5, {1: 1, 2: i, 4: -1, 3: -i}),
        DirichletCharacter.trivial(1),
    ]
    table = {d: util.random_qexp(rng, 0, 12, weight=f.weight, density=1.0) for d in (2, 3, 4)}
    orbits = [CharacterOrbit(chi) for chi in characters] + [ExplicitOrbit(5, {1: f, **table})]
    for orbit in orbits:
        modulus = orbit.chi.modulus if isinstance(orbit, CharacterOrbit) else orbit.modulus
        for d in range(-12, 13):
            if math.gcd(d, modulus) != 1:
                with pytest.raises(ValueError, match="is not a unit mod"):
                    diamond(f, orbit, d)
            elif isinstance(orbit, CharacterOrbit):
                assert diamond(f, orbit, d) == scale(f, orbit.chi(d)), (modulus, d)
            else:
                assert diamond(f, orbit, d) is orbit.table[d % 5], d


def test_character_orbit_modulus_must_divide_level():
    chi = DirichletCharacter.from_kronecker(-3, 3)
    h = cohen_eisenstein(2, 200)
    with pytest.raises(SchemaError, match="^orbit modulus 3 does not divide the level 1$"):
        shimura_St(h, N=1, k=2, t=1, eps=1, orbit=CharacterOrbit(chi), prec=3)
    # N = 3 is fine; input must be plus (it is), index odd sign ok
    out = shimura_St(h, N=3, k=2, t=1, eps=1, orbit=CharacterOrbit(chi), prec=3)
    assert out.weight == 4


def test_explicit_orbit_reproduces_character_orbit():
    chi = DirichletCharacter.from_kronecker(-4, 4)
    rng = random.Random(19)
    f = _random_4n_input(rng, 145)
    table = {d: scale(f, chi(d)) for d in (1, 3)}
    explicit = ExplicitOrbit(4, table)
    implicit = CharacterOrbit(chi)
    a = shimura_St(f, N=4, k=2, t=1, eps=1, orbit=explicit, prec=12)
    b = shimura_St(f, N=4, k=2, t=1, eps=1, orbit=implicit, prec=12)
    assert a == b


def test_explicit_orbit_construction_rejects_bad_tables():
    f = QExp(Fraction(5, 2), 1, {0: 1}, 0, 10)
    with pytest.raises(ValueError):
        ExplicitOrbit(4, {1: f})  # misses d = 3
    with pytest.raises(ValueError):
        ExplicitOrbit(4, {1: f, 2: f, 3: f})  # 2 is not a unit
    with pytest.raises(TypeError):
        ExplicitOrbit(4, {1: f, 3: "series"})


def test_explicit_orbit_validate_for_checks_base_and_lattice():
    f = QExp(Fraction(5, 2), 1, {0: 1}, 0, 200)
    other = scale(f, 2)
    orbit = ExplicitOrbit(4, {1: other, 3: other})
    with pytest.raises(SchemaError):
        shimura_St(f, N=4, k=2, t=1, eps=1, orbit=orbit, prec=3)
    half = QExp(Fraction(5, 2), 2, {0: 1}, 0, 200)
    orbit2 = ExplicitOrbit(4, {1: half, 3: half})
    with pytest.raises(SchemaError):
        orbit2.validate_for(half, 4)
    # modulus must divide the level
    good = ExplicitOrbit(4, {1: f, 3: f})
    with pytest.raises(SchemaError):
        good.validate_for(f, 2)


def test_explicit_orbit_refusal_reports_the_first_short_translate():
    # prec 5 reads c(m^2) up to 25 from every translate, in table order;
    # the first window that ends before 26 raises, with its own lo
    w = Fraction(5, 2)
    f = QExp(w, 1, {0: 1, 1: 2, 4: 3, 25: 5}, 0, 30)
    g = QExp(w, 1, {-2: 1, 0: 2, 9: -1}, -2, 20)
    for table, window in (({1: f, 3: g}, (-2, 26)), ({1: f.truncate(20), 3: g}, (0, 26))):
        with pytest.raises(PrecisionError) as exc:
            shimura_S1(table[1], 4, 2, 5, ExplicitOrbit(4, table))
        assert exc.value.required_window == window


def test_general_lift_refuses_fractional_exponents():
    h = QExp(Fraction(5, 2), 4, {0: 1, 1: 1}, 0, 40)
    with pytest.raises(SchemaError, match="lift input needs integer exponents"):
        shimura_general(h, 1, 2, 1, 1, 1, 3)


def test_explicit_orbit_twist_shifts_table():
    f = QExp(Fraction(5, 2), 1, {0: 1, 1: 4}, 0, 10)
    g = QExp(Fraction(5, 2), 1, {0: 2, 1: -4}, 0, 10)
    orbit = ExplicitOrbit(4, {1: f, 3: g})
    tw, orb2 = orbit.twist(f, 3)
    assert tw == g
    back, _ = orb2.twist(tw, 3)
    assert back == f  # 3 * 3 = 9 = 1 mod 4


# -- the sieve against the divisor-sum reference --------------------------


def _random_read_series(rng: random.Random, lo: int, hi: int, T: int, prec: int, cyclotomic: bool) -> QExp:
    """A series on [lo, hi) with random values on its principal part, on
    every exponent below 4 T prec and on the read set {T m^2}; rational
    with a random denominator, or with some cyclotomic values."""
    den = rng.randint(1, 9)
    exponents = set(range(lo, min(hi, 4 * T * prec + 1))) | {T * m * m for m in range(prec + 1)}
    coeffs = {}
    for a in exponents:
        if rng.random() < 0.8:
            c = Fraction(rng.randint(-20, 20), den * rng.randint(1, 3))
            if cyclotomic and rng.random() < 0.3:
                c = c * CycScalar.root_of_unity(rng.choice((3, 4, 5)), rng.randint(1, 4))
            coeffs[a] = c
    return QExp(Fraction(5, 2), 1, coeffs, lo, hi)


def _cyclic_character(p: int, g: int, j: int) -> DirichletCharacter:
    """The character mod p (cyclic unit group generated by g) sending g
    to zeta^j, zeta a primitive phi(p)-th root of unity."""
    order = sum(1 for r in range(1, p) if math.gcd(r, p) == 1)
    return DirichletCharacter(p, {pow(g, e, p): CycScalar.root_of_unity(order, j * e) for e in range(order)})


def _random_character(rng: random.Random, N: int) -> DirichletCharacter:
    """A quadratic or higher-order character whose modulus divides N."""
    choices = [DirichletCharacter.trivial(N)]
    for D in (-3, -4, 5, -7, 8, -8, 12):
        if N % abs(D) == 0:
            choices.append(DirichletCharacter.from_kronecker(D, abs(D)))
    for p, g in ((5, 2), (7, 3), (9, 2), (11, 2)):
        if N % p == 0:
            choices.append(_cyclic_character(p, g, rng.randint(1, 10)))
    return rng.choice(choices)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), N=st.integers(1, 12), k=st.integers(1, 6), T=st.integers(1, 12),
       eps=st.sampled_from([1, -1]), prec=st.integers(0, 40),
       kind=st.sampled_from(["default", "character", "explicit"]), cyclotomic=st.booleans())
def test_sieve_equals_divisor_sum_reference(seed, N, k, T, eps, prec, kind, cyclotomic):
    rng = random.Random(seed)
    hi = T * prec * prec + 1 + rng.randint(0, 3)
    lo = -rng.randint(0, 4)
    f = _random_read_series(rng, lo, hi, T, prec, cyclotomic)
    if kind == "default":
        orbit = None
        reference_orbit = CharacterOrbit(DirichletCharacter.trivial(1))
    elif kind == "character":
        orbit = reference_orbit = CharacterOrbit(_random_character(rng, N))
    else:
        m = rng.choice([m for m in range(1, N + 1) if N % m == 0])
        table = {r: f if r == 1 % m else _random_read_series(rng, lo, hi, T, prec, rng.random() < 0.3)
                 for r in range(m) if math.gcd(r, m) == 1}
        orbit = reference_orbit = ExplicitOrbit(m, table)
    t, s = split_square(T)
    got = shimura_general(f, N=N, k=k, t=t, s=s, eps=eps, prec=prec, orbit=orbit)
    assert got == util.reference_lift(f, N, k, T, eps, prec, reference_orbit)


# -- level change --------------------------------------------------------


def test_level_change_with_trivial_extension_is_plain_lift():
    h = cohen_eisenstein(2, 150)
    plain = shimura_S1(h, N=1, k=2, prec=10)
    rhs = level_change_rhs(h, N=1, M=1, k=2, t=1, eps=1, prec=10)
    assert rhs == plain


def test_level_change_skips_primes_dividing_index():
    h = cohen_eisenstein(2, 1000)
    rhs = level_change_rhs(h, N=1, M=5, k=2, t=5, eps=1, prec=4)
    plain = shimura_St(h, N=1, k=2, t=5, eps=1, prec=4)
    assert rhs == plain


def test_level_change_identity_at_m_five():
    h = cohen_eisenstein(2, 5000)
    lhs = shimura_St(h, N=5, k=2, t=1, eps=1, prec=30)
    rhs = level_change_rhs(h, N=1, M=5, k=2, t=1, eps=1, prec=30).truncate(31)
    assert lhs == rhs


def test_level_change_composite_m_uses_inclusion_exclusion():
    h = cohen_eisenstein(2, 3000)
    lhs = shimura_St(h, N=15, k=2, t=1, eps=1, prec=10)
    rhs = level_change_rhs(h, N=1, M=15, k=2, t=1, eps=1, prec=10).truncate(11)
    assert lhs == rhs


def test_level_change_refuses_constant_term_domain_before_any_lift():
    # 2 new to N t = 3 and eps t = 3 mod 4; a 5-term window would make any
    # lift raise PrecisionError, so the refusal comes first
    with pytest.raises(HypothesisError) as exc:
        level_change_rhs(_theta5(5), N=1, M=4, k=2, t=3, eps=1, prec=4)
    assert exc.value.obstruction == "level-change-constant-at-2"


def test_level_change_at_m_two_outside_refused_domain():
    h = cohen_eisenstein(2, 200)
    rhs = level_change_rhs(h, N=1, M=2, k=2, t=1, eps=1, prec=6).truncate(7)
    assert rhs == shimura_St(h, N=2, k=2, t=1, eps=1, prec=6)


def test_level_change_refuses_exactly_where_the_constant_term_differs():
    # outside the refused domain the combination is the level-M N lift
    prec = 3
    inputs = (cohen_eisenstein(2, 7 * prec * prec + 1), _theta5(7 * prec * prec + 1))
    for f in inputs:
        for N in (1, 3, 5):
            for t in (1, 3, 5, 7):
                for eps in (1, -1):
                    for M in (2, 4, 6, 10):
                        if (eps * t) % 4 == 3:
                            with pytest.raises(HypothesisError):
                                level_change_rhs(f, N, M, 2, t, eps, prec)
                            continue
                        rhs = level_change_rhs(f, N, M, 2, t, eps, prec).truncate(prec + 1)
                        assert rhs == shimura_general(f, M * N, 2, t, 1, eps, prec), (N, t, eps, M)


# -- corrected combination ----------------------------------------------


def test_corrected_combination_requires_odd_data():
    h = cohen_eisenstein(2, 200)
    with pytest.raises(HypothesisError) as exc:
        corrected_combination(h, N=2, M=1, k=2, t=1, s=1, eps=1, prec=3)
    assert exc.value.case == "viii"
    with pytest.raises(HypothesisError):
        corrected_combination(h, N=1, M=1, k=2, t=2, s=1, eps=1, prec=3)


def test_corrected_combination_rejects_matching_plus_input():
    h = cohen_eisenstein(2, 200)
    with pytest.raises(HypothesisError) as exc:
        corrected_combination(h, N=1, M=3, k=2, t=1, s=1, eps=1, prec=3)
    assert exc.value.obstruction == "plus-space-needs-no-correction"


def test_corrected_combination_runs_on_mismatched_sign():
    rng = random.Random(20)
    # eps = -1 with t0 = 1 is a sign mismatch, so the correction applies
    f = util.random_plus_series(rng, -1, 1000, weight=Fraction(5, 2))
    out = corrected_combination(f, N=1, M=3, k=2, t=1, s=1, eps=-1, prec=8)
    assert out.weight == 4
    assert out.hi >= 9


def test_corrected_combination_matches_hand_assembled_terms():
    rng = random.Random(21)
    f = util.random_qexp(rng, 0, 2000, weight=Fraction(5, 2), density=0.8)
    out = corrected_combination(f, N=1, M=1, k=2, t=3, s=1, eps=1, prec=6)
    main = shimura_general(f, N=1, k=2, t=3, s=1, eps=1, prec=6)
    twisted = shimura_general(f, N=1, k=2, t=3, s=1, eps=1, prec=6)
    corr = scale(rescale(twisted, 2), Fraction(-(2 ** 1) * -1))  # kronecker(2,3) = -1
    assert out == add(main, corr).truncate(out.hi)


# -- level prediction ----------------------------------------------------


def test_predict_level_worked_verdicts():
    v1 = predict_level(1, 1, 1, 1, plus_space_matching_eps=True)
    assert (v1.case_tag, v1.level, v1.needs_correction) == ("i", 1, False)
    v2 = predict_level(1, 2, 1, 1, plus_space_matching_eps=False)
    assert (v2.case_tag, v2.level) == ("vi", 2)
    v3 = predict_level(2, 1, 1, 3, plus_space_matching_eps=False)
    assert (v3.case_tag, v3.level) == ("vii", 12)
    assert v3.p_J == 3 and v3.factor == 2


def test_predict_level_case_order_first_match_wins():
    # plus space with odd t beats everything
    v = predict_level(4, 1, 1, 1, plus_space_matching_eps=True)
    assert v.case_tag == "i"
    # 4 | N
    assert predict_level(4, 2, 1, 1, plus_space_matching_eps=False).case_tag == "ii"
    # N t odd, M even
    assert predict_level(1, 3, 1, 2, plus_space_matching_eps=False).case_tag == "iii"
    # 4 | s
    assert predict_level(2, 2, 4, 1, plus_space_matching_eps=False).case_tag == "iv"
    # N odd, s even
    assert predict_level(3, 3, 2, 1, plus_space_matching_eps=False).case_tag == "v"
    # N s odd, t even
    assert predict_level(1, 2, 1, 1, plus_space_matching_eps=False).case_tag == "vi"
    # N = 2 mod 4
    assert predict_level(2, 1, 1, 1, plus_space_matching_eps=False).case_tag == "vii"


def test_predict_level_refactors_index_first():
    # t = 45 = 5 * 3^2 becomes t = 5, s = 3
    v = predict_level(1, 45, 1, 1, plus_space_matching_eps=True)
    assert v.case_tag == "i"
    assert v.lcm_ns == 3
    assert v.level == 3


def test_predict_level_level_formula_components():
    # M = 35 at N = 3, t = 5, s = 7: p = 5 divides t (excluded from I),
    # p = 7 divides s (in I but not J)
    v = predict_level(3, 5, 7, 35, plus_space_matching_eps=True)
    assert v.p_J == 1
    assert v.lcm_ns == 21
    assert v.level == 21


def test_predict_level_case_viii_both_arms():
    known = predict_level(1, 1, 1, 3, plus_space_matching_eps=False, psi_subspace_known=True)
    assert known.case_tag == "viii"
    assert known.needs_correction and known.covered
    assert known.level == 2 * 3
    unknown = predict_level(1, 1, 1, 3, plus_space_matching_eps=False)
    assert unknown.case_tag == "viii"
    assert unknown.level is None and not unknown.covered


def test_predict_level_json_shape():
    v = predict_level(2, 1, 1, 3, plus_space_matching_eps=False)
    js = v.to_json()
    assert js["case"] == "vii"
    assert js["level"] == 12
    assert js["p_J"] == 3 and js["lcm_N_s"] == 2 and js["factor"] == 2
    assert js["covered"] is True


def test_predict_level_rejects_nonpositive():
    with pytest.raises(SchemaError):
        predict_level(0, 1, 1, 1, plus_space_matching_eps=False)


def test_predict_level_case_viii_is_the_all_odd_remainder():
    # cases ii-vii each need an even parameter and cover every even
    # combination once case i fails, so the fall-through is all-odd
    for N in range(1, 33):
        for t in range(1, 33):
            for s in range(1, 9):
                for M in range(1, 9):
                    odd = (M * N * s * t) % 2 == 1
                    for plus in (False, True):
                        v = predict_level(N, t, s, M, plus_space_matching_eps=plus)
                        assert (v.case_tag == "viii") == (odd and not plus), (N, t, s, M, plus)
