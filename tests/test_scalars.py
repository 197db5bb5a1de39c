"""Exact scalar layer: Kronecker symbols, Bernoulli machinery, partial zeta
values, cyclotomic arithmetic, JSON codecs."""
from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from shimlift.characters import DirichletCharacter
from shimlift.errors import SchemaError
from shimlift.scalars import (
    BERNOULLI_BOUND,
    CycScalar,
    _cyclotomic,
    _kronecker_table,
    _partial_zeta_sum,
    as_exact,
    bernoulli_number,
    bernoulli_poly,
    dirichlet_L_neg,
    eps_d,
    kronecker,
    partial_zeta_neg,
    quadratic_L_neg,
    rational_from_str,
    scalar_from_json,
    scalar_to_json,
)
from util import exact_add, exact_eq, exact_is_zero, exact_mul, exact_to_complex


# -- kronecker -----------------------------------------------------------


def test_kronecker_pinned_values():
    assert kronecker(-1, 3) == -1
    assert kronecker(-1, 5) == 1
    assert kronecker(2, 7) == 1
    assert kronecker(2, 3) == -1
    assert kronecker(3, 2) == -1
    assert kronecker(5, 2) == -1
    assert kronecker(12, 2) == 0
    assert kronecker(7, 1) == 1
    assert kronecker(4, 9) == 1
    assert kronecker(-4, 21) == 1


def test_kronecker_matches_brute_jacobi_for_odd_bottom():
    for n in range(1, 60, 2):
        for a in range(-25, 26):
            assert kronecker(a, n) == util.brute_jacobi(a, n), (a, n)


def test_kronecker_completely_multiplicative_in_both_slots():
    for a in range(-10, 11):
        for b in range(-10, 11):
            for n in range(1, 16):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for a in range(-10, 11):
        for m in range(1, 13):
            for n in range(1, 13):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_at_negative_bottom_and_zero():
    assert kronecker(3, -1) == 1
    assert kronecker(-3, -1) == -1
    assert kronecker(5, 0) == 0
    assert kronecker(1, 0) == 1
    for a in range(2, 20):
        assert kronecker(a, 0) == 0


# -- bernoulli -----------------------------------------------------------


def test_bernoulli_numbers_against_independent_recurrence():
    for k in range(0, 20):
        assert bernoulli_number(k) == util._bern(k), k


def test_bernoulli_poly_difference_identity():
    # B_k(x+1) - B_k(x) = k x^(k-1)
    for k in range(1, 9):
        for x in (Fraction(0), Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)):
            lhs = bernoulli_poly(k, x + 1) - bernoulli_poly(k, x)
            rhs = k * x ** (k - 1)
            assert lhs == rhs, (k, x)


def test_bernoulli_poly_at_zero_is_bernoulli_number():
    for k in range(0, 12):
        assert bernoulli_poly(k, Fraction(0)) == bernoulli_number(k)


# -- partial zeta --------------------------------------------------------


def test_partial_zeta_pinned_values():
    assert partial_zeta_neg(1, 1, 2) == Fraction(-1, 12)
    assert partial_zeta_neg(2, 1, 2) == Fraction(1, 12)
    assert partial_zeta_neg(1, 1, 1) == Fraction(-1, 2)
    assert partial_zeta_neg(1, 1, 4) == Fraction(1, 120)


def test_partial_zeta_against_euler_maclaurin_float_oracle():
    for N in range(1, 7):
        for d in range(1, N + 1):
            for k in range(1, 6):
                exact = float(partial_zeta_neg(N, d, k))
                approx = util.partial_zeta_float(N, d, k)
                assert math.isclose(exact, approx, rel_tol=1e-8, abs_tol=1e-8), (N, d, k)


def test_partial_zeta_splitting_identity_exact():
    # zeta_N^(d) = sum over m of zeta_{N t}^(d + N m)
    for N in range(1, 7):
        for t in range(1, 7):
            for k in range(1, 6):
                for d in range(1, N + 1):
                    whole = partial_zeta_neg(N, d, k)
                    parts = sum(
                        partial_zeta_neg(N * t, d + N * m, k) for m in range(t)
                    )
                    assert whole == parts, (N, t, k, d)


def test_partial_zeta_rejects_out_of_range_residues():
    with pytest.raises(ValueError):
        partial_zeta_neg(5, 7, 3)
    with pytest.raises(ValueError):
        partial_zeta_neg(4, 0, 2)
    with pytest.raises(ValueError):
        partial_zeta_neg(0, 1, 2)


def test_full_zeta_as_sum_of_residue_classes():
    for N in (2, 3, 4, 6):
        for k in (2, 4):
            total = sum(partial_zeta_neg(N, d, k) for d in range(1, N + 1))
            assert total == partial_zeta_neg(1, 1, k)


# -- L values ------------------------------------------------------------


def test_quadratic_L_pinned_values():
    assert quadratic_L_neg(1, 2) == Fraction(-1, 12)
    assert quadratic_L_neg(1, 4) == Fraction(1, 120)
    assert quadratic_L_neg(-4, 1) == Fraction(1, 2)


def test_quadratic_L_parity_vanishing():
    # an odd character kills even k and vice versa (D = 1 excepted)
    for D in (-4, -3, -8):
        for k in (2, 4):
            assert quadratic_L_neg(D, k) == 0, (D, k)
    for D in (5, 8, 12):
        for k in (1, 3):
            assert quadratic_L_neg(D, k) == 0, (D, k)


def test_quadratic_L_assembled_from_partial_zetas():
    # L(1-k, chi_D) = sum over d mod |D| of chi_D(d) zeta_|D|^(d)(1-k)
    for D in (-4, -3, 5, 8, -8, 12, -7):
        mod = abs(D)
        for k in range(1, 5):
            assembled = sum(
                Fraction(kronecker(D, d)) * partial_zeta_neg(mod, d, k)
                for d in range(1, mod + 1)
            )
            assert quadratic_L_neg(D, k) == assembled, (D, k)


def test_kronecker_table_is_the_symbol():
    # one kronecker per prime, products elsewhere: every t with 0 < |t| <=
    # 200 covers each class mod 8 and t with square factors, d = 0 included
    for t in itertools.chain(range(-200, 0), range(1, 201)):
        assert _kronecker_table(t, 2001) == [kronecker(t, d) for d in range(2001)], t
    assert _kronecker_table(5, 0) == [] and _kronecker_table(-4, 1) == [0]


def _is_fundamental(D):
    # D = 1 mod 4 square-free, or D = 4m with m = 2 or 3 mod 4 square-free
    if D % 4 == 1:
        return util.mobius(abs(D)) != 0
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and util.mobius(abs(D // 4)) != 0


_FUNDAMENTAL = [D for D in range(-10**4, 10**4 + 1) if D and _is_fundamental(D)]


@settings(max_examples=60, deadline=None)
@given(D=st.sampled_from(_FUNDAMENTAL), k=st.integers(1, 16))
def test_quadratic_L_from_the_character_sieve_is_the_residue_sum(D, k):
    # the sieved characters against one kronecker per residue, through
    # the cache and past it
    F = abs(D)
    want = _partial_zeta_sum(F, k, ((a, kronecker(D, a)) for a in range(1, F + 1)))
    assert quadratic_L_neg.__wrapped__(D, k) == want, (D, k)
    assert quadratic_L_neg(D, k) == want == quadratic_L_neg(D, k), (D, k)


def test_dirichlet_L_matches_quadratic_for_kronecker_characters():
    from shimlift.characters import DirichletCharacter

    for D in (-4, -3, 5, 8, -8, 12):
        mod = abs(D)
        chi = DirichletCharacter.from_kronecker(D, mod)
        for k in range(1, 5):
            if (-1) ** k * (1 if D > 0 else -1) > 0:
                continue  # wrong parity, trivially zero on both sides
            assert dirichlet_L_neg(chi, k) == quadratic_L_neg(D, k), (D, k)


def test_dirichlet_L_via_partial_zeta_decomposition():
    from shimlift.characters import DirichletCharacter

    chi = DirichletCharacter.from_kronecker(-4, 4)
    for k in (1, 3):
        direct = dirichlet_L_neg(chi, k)
        assembled = sum(
            Fraction(kronecker(-4, d)) * partial_zeta_neg(4, d, k) for d in (1, 3)
        )
        assert exact_eq(direct, assembled)


# -- fourth roots and cyclotomics ---------------------------------------


def test_eps_d_values_and_conjugation():
    assert complex(eps_d(1)) == 1
    assert complex(eps_d(3)) == 1j
    assert complex(eps_d(5)) == 1
    assert complex(eps_d(7)) == 1j
    assert complex(eps_d(3).conjugate()) == -1j
    with pytest.raises(ValueError):
        eps_d(2)


def test_cyc_fourth_root_squares_to_minus_one():
    i = CycScalar.root_of_unity(4, 1)
    sq = exact_mul(i, i)
    assert exact_eq(sq, Fraction(-1))


def test_cyc_cross_order_promotion():
    z8 = CycScalar.root_of_unity(8, 1)
    z4 = CycScalar.root_of_unity(4, 1)
    assert exact_eq(exact_mul(z8, z8), z4)
    # zeta_8 * zeta_8^7 = 1
    assert exact_eq(exact_mul(z8, CycScalar.root_of_unity(8, 7)), Fraction(1))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_m_minus_one():
    # x^m - 1 is the product of Phi_d over d | m, so every division in
    # _cyclotomic is exact
    for m in range(1, 300):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _poly_mul(prod, list(_cyclotomic(d)))
        assert prod == [-1] + [0] * (m - 1) + [1], m


def test_cyc_arithmetic_across_orders_matches_the_complex_values():
    # operands of orders a and b are promoted to lcm(a, b)
    for a, b in itertools.product((1, 2, 3, 4, 6, 8, 12), repeat=2):
        for i, j in ((1, 1), (a - 1, 1), (1, b - 1)):
            x = exact_add(CycScalar.root_of_unity(a, i), Fraction(1, 3))
            y = CycScalar.root_of_unity(b, j)
            zx, zy = cmath.exp(2j * cmath.pi * i / a) + 1 / 3, cmath.exp(2j * cmath.pi * j / b)
            assert abs(complex(x + y) - (zx + zy)) < 1e-12
            assert abs(complex(x * y) - zx * zy) < 1e-12
            assert x == x + y - y


def test_cyc_vanishing_sum_collapses_to_rational_zero():
    z3 = CycScalar.root_of_unity(3, 1)
    total = exact_add(exact_add(z3, exact_mul(z3, z3)), Fraction(1))
    assert exact_is_zero(total)


def test_cyc_complex_embedding_matches_cmath():
    for m in (3, 5, 8, 12):
        for e in range(m):
            z = CycScalar.root_of_unity(m, e)
            want = cmath.exp(2j * cmath.pi * e / m)
            assert abs(exact_to_complex(z) - want) < 1e-12, (m, e)


def test_as_exact_accepts_ints_fractions_and_cyc():
    assert as_exact(3) == Fraction(3)
    assert as_exact(Fraction(2, 7)) == Fraction(2, 7)
    z = CycScalar.root_of_unity(5, 2)
    assert exact_eq(as_exact(z), z)
    with pytest.raises(TypeError):
        as_exact(0.5)


def test_eps_d_is_a_python_complex():
    assert type(eps_d(1)) is complex and eps_d(1) == 1
    assert type(eps_d(-1)) is complex and eps_d(-1) == 1j


# -- the operators against the reference dispatch -------------------------

_small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_roots = st.builds(CycScalar.root_of_unity, st.integers(1, 12), st.integers(0, 11))


def _sum(values):
    total = Fraction(0)
    for v in values:
        total = exact_add(total, v)
    return total


# one- to three-term combinations r zeta_m^e, canonicalised by the reference
_combinations = st.lists(st.tuples(_small_fractions, _roots), min_size=1, max_size=3).map(
    lambda pairs: _sum(exact_mul(r, z) for r, z in pairs))
_exact_scalars = st.one_of(st.integers(-5, 5), _small_fractions, _roots, _combinations)


@st.composite
def _complementary(draw):
    """Two sums of m-th roots over complementary exponent sets, so that
    a + b = sum of all m-th roots = 0 (1 + zeta_3 + zeta_3^2 among them),
    plus a rational shift on one side."""
    m = draw(st.integers(2, 12))
    part = draw(st.sets(st.integers(0, m - 1)))
    a = _sum(CycScalar.root_of_unity(m, e) for e in part)
    b = _sum(CycScalar.root_of_unity(m, e) for e in range(m) if e not in part)
    return exact_add(a, draw(_small_fractions)), b


@settings(max_examples=300, deadline=None)
@given(pair=st.one_of(st.tuples(_exact_scalars, _exact_scalars), _complementary()))
def test_operators_match_reference_helpers(pair):
    a, b = pair
    minus_one = Fraction(-1)
    cases = [  # (result, reference, operands)
        (a + b, exact_add(a, b), (a, b)),
        (b + a, exact_add(b, a), (a, b)),
        (a - b, exact_add(a, exact_mul(minus_one, b)), (a, b)),
        (b - a, exact_add(b, exact_mul(minus_one, a)), (a, b)),
        (a * b, exact_mul(a, b), (a, b)),
        (b * a, exact_mul(b, a), (a, b)),
        (-a, exact_mul(minus_one, a), (a,)),
        (a.conjugate(), as_exact(a.conjugate()), (a,)),
    ]
    for got, want, operands in cases:
        assert exact_eq(got, want), (a, b, got, want)
        # a rational value comes back as a Fraction, or as an int from ints
        if all(type(x) is int for x in operands):
            assert type(got) is int
        else:
            assert isinstance(got, Fraction) == isinstance(want, Fraction), (a, b, got, want)
        assert complex(got) == exact_to_complex(want)
        assert bool(got) == (not exact_is_zero(want))
    assert (a == b) == exact_eq(a, b) and (b == a) == exact_eq(a, b)
    assert (a != b) == (not exact_eq(a, b))
    assert bool(a) == (not exact_is_zero(a))
    assert complex(a) == exact_to_complex(a)
    assert abs(complex(a.conjugate()) - complex(a).conjugate()) < 1e-9


# -- the power-sum form of a weighted partial-zeta sum -------------------


@st.composite
def _weighted_residues(draw):
    """A modulus P <= 10 000 and weights on some residues 1..P, all of one
    kind: int, Fraction, or rational multiples of m-th roots of unity for
    one m (mixed orders would promote every sum to their lcm)."""
    P = draw(st.integers(1, 10_000))
    m = draw(st.sampled_from([3, 4, 5, 8, 12]))
    cyclotomic = st.builds(lambda r, e: r * CycScalar.root_of_unity(m, e), _small_fractions, st.integers(0, m - 1))
    kind = draw(st.sampled_from([st.integers(-9, 9), _small_fractions, cyclotomic]))
    residues = draw(st.lists(st.integers(1, P), max_size=12, unique=True))
    return P, [(h, draw(kind)) for h in residues]


@settings(max_examples=200, deadline=None)
@given(case=_weighted_residues(), k=st.integers(1, BERNOULLI_BOUND))
def test_partial_zeta_sum_matches_one_value_per_residue(case, k):
    # up to the bound, where the common denominator Q of B_0 .. B_k is
    # largest
    P, weights = case
    want = Fraction(0)
    for h, w in weights:
        want = exact_add(want, exact_mul(as_exact(w), partial_zeta_neg(P, h, k)))
    got = _partial_zeta_sum(P, k, weights)
    assert exact_eq(got, want), (P, k, weights)
    assert isinstance(got, Fraction) == isinstance(want, Fraction)


@pytest.mark.parametrize("call", [
    lambda k: _partial_zeta_sum(5, k, [(1, 1)]),
    lambda k: quadratic_L_neg(-3, k),
    lambda k: dirichlet_L_neg(DirichletCharacter.trivial(3), k),
])
def test_partial_zeta_sum_bounds_the_degree(call):
    # beyond the bound bernoulli_number would recurse past the interpreter's
    # limit for large k; the sum refuses with a ValueError instead
    assert call(64) is not None
    for k in (0, 65, 5000):
        with pytest.raises(ValueError, match="Bernoulli degree"):
            call(k)


# -- string and JSON forms ----------------------------------------------


def test_rational_string_round_trip():
    for r in (Fraction(0), Fraction(-7, 3), Fraction(22), Fraction(1, 1000000)):
        assert rational_from_str(str(r)) == r
    assert scalar_to_json(Fraction(5)) == "5"
    assert scalar_to_json(Fraction(-1, 2)) == "-1/2"


def test_rational_from_str_rejects_junk():
    for bad in ("", "1/", "/2", "a/b", "1.5", "1/0"):
        with pytest.raises((SchemaError, ValueError, ZeroDivisionError)):
            rational_from_str(bad)


def test_scalar_json_round_trip_rational_and_cyclotomic():
    vals = [
        Fraction(-3, 8),
        Fraction(17),
        CycScalar.root_of_unity(8, 3),
        exact_add(CycScalar.root_of_unity(12, 1), Fraction(1, 2)),
    ]
    for v in vals:
        back = scalar_from_json(scalar_to_json(v))
        assert exact_eq(back, v), v


def test_scalar_json_rejects_malformed_payloads():
    with pytest.raises(SchemaError):
        scalar_from_json({"order": 4})
    with pytest.raises(SchemaError):
        scalar_from_json([1, 2])


@pytest.mark.parametrize("obj, message", [
    ({"order": True, "terms": [[1, "1"]]}, "cyclotomic scalar needs integer 'order' and list 'terms'"),
    ({"order": 4, "terms": [[True, "1"]]}, "cyclotomic term must be [exponent, rational]"),
], ids=["order", "term-exponent"])
def test_scalar_json_refuses_a_bool_for_an_integer(obj, message):
    with pytest.raises(SchemaError) as exc:
        scalar_from_json(obj)
    assert str(exc.value) == message


def _reference_rational_from_str(s) -> Fraction:
    # the two-step reader (split on the first slash, then int() and
    # Fraction), kept as the reference for the one-pass reader
    if not isinstance(s, str):
        raise SchemaError("rational must be a string, got %r" % (s,))
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError("bad rational %r" % s) from exc


def _read(reader, s):
    try:
        return reader(s)
    except SchemaError as exc:
        return "SchemaError: %s" % exc


def test_noncanonical_rational_strings_parse_to_the_reduced_value():
    cases = {"2/4": Fraction(1, 2), "-3/-6": Fraction(1, 2), "+5": Fraction(5),
             "0/7": Fraction(0), "-0": Fraction(0), "6/-4": Fraction(-3, 2), " 3 ": Fraction(3)}
    for s, want in cases.items():
        got = rational_from_str(s)
        assert type(got) is Fraction and got == want == _reference_rational_from_str(s), s
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_malformed_rationals_raise_the_same_schema_error():
    for bad in ("1/0", "a", "1/2/3", "", "1/", "/2", "/", "1.5", "a/b", 7, None, Fraction(1, 2)):
        msg = _read(rational_from_str, bad)
        assert msg.startswith("SchemaError: ") and msg == _read(_reference_rational_from_str, bad), bad
    assert _read(rational_from_str, "1/2/3") == "SchemaError: bad rational '1/2/3'"
    assert _read(rational_from_str, 7) == "SchemaError: rational must be a string, got 7"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/-+ _a", max_size=10))
def test_rational_reader_agrees_with_reference_on_any_string(s):
    assert _read(rational_from_str, s) == _read(_reference_rational_from_str, s)


@settings(max_examples=200, deadline=None)
@given(st.fractions(max_denominator=10**30))
def test_scalar_to_json_of_a_fraction_is_p_or_p_over_q(r):
    want = str(r.numerator) if r.denominator == 1 else "%d/%d" % (r.numerator, r.denominator)
    assert scalar_to_json(r) == want
    assert rational_from_str(scalar_to_json(r)) == r
