"""Windowed q-expansion arithmetic.

The window contract is the load-bearing part: every operation must claim
exactly the coefficients it can know, never more. The brute-force checks
build the truth from untruncated series and compare against the claims.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from shimlift import _intpoly, qseries
from shimlift.errors import PrecisionError, SchemaError
from shimlift.plusspace import is_plus_space
from shimlift.qseries import (
    QExp,
    add,
    decompose_mod4,
    filter_residues,
    invert_unit,
    mul,
    qexp_from_json,
    qexp_to_json,
    rescale,
    scale,
    u_op,
)
from shimlift.scalars import CycScalar
from util import exact_eq


def test_construction_drops_zeros_and_validates_window():
    f = QExp(2, 1, {0: 1, 3: 0, 5: Fraction(1, 2)}, 0, 10)
    assert f.support() == [0, 5]
    with pytest.raises(ValueError):
        QExp(2, 1, {12: 1}, 0, 10)
    with pytest.raises(ValueError):
        QExp(2, 1, {}, 5, 3)
    with pytest.raises(ValueError):
        QExp(2, 0, {}, 0, 3)


def test_from_numerators_refuses_an_inverted_window():
    # refused as QExp() refuses it
    with pytest.raises(ValueError, match=r"window \[0, -3\) is inverted"):
        QExp.from_numerators(2, 1, {}, 1, 0, -3)


@pytest.mark.parametrize("denom, cden, message", [
    (0, 1, "exponent denominator must be positive"),
    (-1, 1, "exponent denominator must be positive"),
    (1, 0, "coefficient denominator must be positive"),
    (1, -2, "coefficient denominator must be positive"),
])
def test_from_numerators_refuses_a_denominator_below_one(denom, cden, message):
    # no series is built on the lattice (1/0)Z, and no c(0) reads as 1/0
    # or -1/2 from the numerator 1
    with pytest.raises(ValueError, match="^%s$" % message):
        QExp.from_numerators(0, denom, {0: 1}, cden, 0, 2)


def test_coeff_contract_zero_below_window_error_above():
    f = QExp(0, 1, {2: 7}, 1, 6)
    assert f.coeff(0) == 0
    assert f.coeff(-5) == 0
    assert f.coeff(2) == 7
    assert f.coeff(5) == 0
    with pytest.raises(PrecisionError) as exc:
        f.coeff(6)
    assert exc.value.required_window[1] == 7


def test_coeff_exponent_off_lattice_is_zero():
    f = QExp(Fraction(1, 2), 4, {1: 2, 4: 3}, 0, 8)
    assert f.coeff_exponent(Fraction(1, 4)) == 2
    assert f.coeff_exponent(1) == 3
    assert f.coeff_exponent(Fraction(1, 3)) == 0


def test_equality_promotes_lattices():
    a = QExp(0, 1, {1: 5}, 0, 4)
    b = QExp(0, 2, {2: 5}, 0, 8)
    assert a == b
    assert not (a == QExp(0, 2, {1: 5}, 0, 8))
    assert not (a == QExp(1, 1, {1: 5}, 0, 4))


def test_add_window_is_min_hi():
    a = QExp(3, 1, {0: 1, 9: 4}, 0, 10)
    b = QExp(3, 1, {1: 2}, 0, 5)
    s = add(a, b)
    assert (s.lo, s.hi) == (0, 5)
    assert s.coeff(1) == 2
    with pytest.raises(ValueError):
        add(a, QExp(2, 1, {0: 1}, 0, 5))


def test_add_keeps_coefficients_below_the_other_lo():
    # below the larger lo the other series is known to vanish
    a = QExp(0, 1, {-3: 1}, -3, 8)
    b = QExp(0, 1, {2: 5}, 0, 8)
    s = add(a, b)
    assert s.lo == -3
    assert s.coeff(-3) == 1 and s.coeff(2) == 5


def test_mul_window_never_optimistic_randomized():
    rng = random.Random(411)
    for _ in range(100):
        full_a = util.random_qexp(rng, 0, 60, weight=2)
        full_b = util.random_qexp(rng, 0, 60, weight=3)
        ha = rng.randint(1, 40)
        hb = rng.randint(1, 40)
        prod = mul(full_a.truncate(ha), full_b.truncate(hb))
        truth = util.brute_convolve(full_a.coeffs, full_b.coeffs, prod.hi)
        for n in range(prod.lo, prod.hi):
            assert prod.coeff(n) == truth.get(n, Fraction(0)), (ha, hb, n)


def test_mul_uses_min_support_to_extend_window():
    # a starts at q^5, so b's window reaches 5 further in the product
    a = QExp(0, 1, {5: 1}, 0, 30)
    b = QExp(0, 1, {0: 1, 1: 1}, 0, 10)
    p = mul(a, b)
    assert p.hi == 15
    assert p.coeff(6) == 1


def test_mul_empty_factor_keeps_sound_window():
    a = QExp(0, 1, {}, 0, 10)
    b = QExp(0, 1, {0: 1, 2: 3}, 0, 20)
    p = mul(a, b)
    # a could begin at q^10 at the earliest, so nothing below 10 is claimed
    assert p.lo >= 10
    assert p.is_zero()


def test_ring_laws_on_random_windows():
    rng = random.Random(905)
    for _ in range(100):
        f = util.random_qexp(rng, 0, 30, weight=1)
        g = util.random_qexp(rng, 0, 30, weight=1)
        h = util.random_qexp(rng, 0, 30, weight=2)
        assert add(f, g) == add(g, f)
        assert mul(f, h) == mul(h, f)
        lhs = mul(add(f, g), h)
        rhs = add(mul(f, h), mul(g, h))
        assert lhs.agrees_with(rhs)
        assoc_l = mul(mul(f, g), h)
        assoc_r = mul(f, mul(g, h))
        assert assoc_l.agrees_with(assoc_r)


def test_scale_and_weight_preserved():
    f = QExp(4, 1, {1: Fraction(3, 2), 4: -2}, 0, 6)
    g = scale(f, Fraction(-2, 3))
    assert g.coeff(1) == -1 and g.coeff(4) == Fraction(4, 3)
    assert g.weight == 4 and (g.lo, g.hi) == (0, 6)


def test_rescale_stretches_exponents_and_window():
    f = QExp(Fraction(1, 2), 1, {0: 1, 2: 5}, 0, 7)
    g = rescale(f, 4)
    assert g.coeff_exponent(8) == 5
    assert g.hi == 28 and g.denom == 1
    with pytest.raises(ValueError):
        rescale(f, 0)


def test_rescale_composes_multiplicatively():
    rng = random.Random(77)
    f = util.random_qexp(rng, 0, 25, weight=2, denom=2, density=0.5)
    for s in range(1, 7):
        for t in range(1, 7):
            assert rescale(f, s * t) == rescale(rescale(f, s), t), (s, t)


def test_rescale_reduces_lattice_against_denominator():
    f = QExp(0, 4, {1: 1, 5: 2}, 0, 9)
    g = rescale(f, 4)
    assert g.denom == 1
    assert g.coeff(1) == 1 and g.coeff(5) == 2
    assert g.hi == 9


def test_rescale_carries_metadata_unchanged():
    f = QExp(0, 1, {1: 1}, 0, 5, metadata={"level": 4, "name": "x"})
    g = rescale(f, 3)
    assert g.metadata == {"level": 4, "name": "x"}


def test_u_op_inverts_rescale():
    rng = random.Random(31)
    for s in range(1, 7):
        f = util.random_qexp(rng, -4, 20, weight=3, density=0.5)
        assert u_op(rescale(f, s), s) == f, s


def test_u_op_window_rounds_up():
    f = QExp(0, 1, {0: 1, 3: 4, 6: 9}, 0, 8)
    g = u_op(f, 3)
    assert g.support() == [0, 1, 2]
    assert g.hi == 3  # ceil(8 / 3)


def test_filter_residues_keeps_only_allowed_classes():
    f = QExp(0, 1, {n: n + 1 for n in range(12)}, 0, 12)
    g = filter_residues(f, 4, (0, 1))
    assert g.support() == [0, 1, 4, 5, 8, 9]
    assert (g.lo, g.hi) == (0, 12)
    with pytest.raises(ValueError):
        filter_residues(QExp(0, 2, {1: 1}, 0, 4), 4, (0,))


def test_decompose_mod4_recomposes():
    rng = random.Random(1203)
    for _ in range(20):
        f = util.random_qexp(rng, -8, 40, weight=Fraction(5, 2), density=0.6)
        parts = decompose_mod4(f)
        assert len(parts) == 4
        total = None
        for p in parts:
            r = rescale(p, 4)
            total = r if total is None else add(total, r)
        assert total == f


def test_decompose_mod4_piece_lattices():
    f = QExp(0, 1, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, 0, 8)
    p0, p1, p2, p3 = decompose_mod4(f)
    assert p0.denom == 1 and p0.support() == [0, 1]
    assert p2.denom == 2 and p2.coeff(1) == 3
    assert p1.denom == 4 and p1.coeff(1) == 2 and p1.coeff(5) == 0
    assert p3.denom == 4 and p3.coeff(3) == 4


def test_invert_unit_newton_matches_direct_product():
    rng = random.Random(555)
    f = util.random_qexp(rng, 1, 40, weight=0, density=0.7)
    f = add(f, QExp(0, 1, {0: Fraction(3, 2)}, 0, 40))
    inv = invert_unit(f)
    one = mul(f, inv)
    assert one.coeff(0) == 1
    for n in range(1, one.hi):
        assert one.coeff(n) == 0, n


rational = st.fractions(min_value=-50, max_value=50, max_denominator=12)
unit = rational.filter(lambda c: c != 0 and c != 1)


@settings(max_examples=60, deadline=None)
@given(c0=unit, rest=st.lists(rational, min_size=1, max_size=30))
def test_invert_unit_is_inverse_for_rational_units(c0, rest):
    # a constant term other than 1 and non-integral coefficients: the inverse
    # carries powers of the constant term in its denominators
    coeffs = {0: c0}
    coeffs.update((a, c) for a, c in enumerate(rest, 1) if c)
    coeffs[1] = coeffs.get(1, Fraction(0)) + Fraction(1, 3)
    f = QExp(Fraction(1, 2), 1, coeffs, 0, len(rest) + 1)
    inv = invert_unit(f)
    assert (inv.lo, inv.hi, inv.weight) == (0, f.hi, Fraction(-1, 2))
    one = mul(f, inv)
    assert one.hi == f.hi
    assert one.coeff(0) == 1
    assert all(one.coeff(n) == 0 for n in range(1, one.hi))


@settings(max_examples=40, deadline=None)
@given(c0=unit, rest=st.lists(rational, max_size=30), data=st.data())
def test_invert_unit_window_is_sound(c0, rest, data):
    # inverting a truncated input agrees with inverting the full input
    # inside the truncated window
    coeffs = {0: c0}
    coeffs.update((a, c) for a, c in enumerate(rest, 1) if c)
    f = QExp(0, 1, coeffs, 0, len(rest) + 1)
    h = data.draw(st.integers(1, f.hi))
    full = invert_unit(f)
    short = invert_unit(f.truncate(h))
    assert (short.lo, short.hi) == (0, h)
    assert short == full.truncate(h)


def test_invert_unit_rejects_non_units():
    with pytest.raises(ValueError):
        invert_unit(QExp(0, 1, {1: 1}, 0, 5))
    with pytest.raises(ValueError):
        invert_unit(QExp(0, 2, {0: 1}, 0, 5))
    with pytest.raises(ValueError):
        invert_unit(QExp(0, 1, {-1: 1, 0: 1}, -1, 5))
    # a rational unit with a cyclotomic coefficient: refused by the division
    with pytest.raises(ValueError, match="rational coefficients only"):
        invert_unit(QExp(0, 1, {0: 1, 1: CycScalar.root_of_unity(4, 1)}, 0, 5))


def test_truncate_and_normalized():
    f = QExp(0, 6, {0: 1, 2: 3, 4: 5}, 0, 12)
    t = f.truncate(3)
    assert t.support() == [0, 2] and t.hi == 3
    n = f.normalized()
    assert n.denom == 3 and n.support() == [0, 1, 2]


def test_lattice_reductions_keep_every_coefficient():
    # normalized() divides by the gcd of the stored numerators and
    # decompose_mod4 by a divisor of each piece's residue, so the stored
    # exponents stay integral and each coefficient keeps its exponent value
    rng = random.Random(2024)
    for _ in range(40):
        f = util.random_qexp(rng, -8, 40, weight=Fraction(5, 2), denom=rng.choice((1, 2, 4, 6, 12)), density=0.3)
        n = f.normalized()
        assert f.denom % n.denom == 0
        assert {Fraction(a, n.denom): v for a, v in n.coeffs.items()} == \
            {Fraction(a, f.denom): v for a, v in f.coeffs.items()}
        if f.denom == 1:
            for j, piece in enumerate(decompose_mod4(f)):
                assert piece.denom == 4 // math.gcd(j, 4)
                assert {Fraction(4 * a, piece.denom): v for a, v in piece.coeffs.items()} == \
                    {Fraction(a): v for a, v in f.coeffs.items() if a % 4 == j}


def test_agrees_with_on_overlap_only():
    a = QExp(0, 1, {1: 1, 3: 9}, 0, 4)
    b = QExp(0, 1, {1: 1, 5: 7}, 0, 8)
    assert a.agrees_with(b) is False  # 3 is inside the overlap, values differ
    c = QExp(0, 1, {1: 1, 3: 9, 5: 0}, 0, 8)
    assert a.agrees_with(c)


def test_json_round_trip_preserves_everything():
    rng = random.Random(808)
    for _ in range(10):
        f = util.random_qexp(rng, -6, 25, weight=Fraction(7, 2), denom=4, density=0.4)
        f.metadata["tag"] = "round-trip"
        g = qexp_from_json(qexp_to_json(f))
        assert g == f
        assert g.weight == f.weight and g.denom == f.denom
        assert g.metadata == f.metadata


def test_json_rejects_malformed():
    with pytest.raises(SchemaError):
        qexp_from_json({"weight": "2"})
    with pytest.raises(SchemaError):
        qexp_from_json([])


def _series_doc(**changes):
    doc = {"weight": {"num": 5, "den": 2}, "exponent_denominator": 1, "window": [0, 5],
           "coefficients": [[1, "1"]], "metadata": {}}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, message", [
    (_series_doc(weight={"num": True, "den": 2}), "weight must be {num, den} with integers"),
    (_series_doc(weight={"num": 5, "den": True}), "weight must be {num, den} with integers"),
    (_series_doc(exponent_denominator=True), "exponent_denominator must be a positive integer"),
    (_series_doc(window=[False, 5]), "window must be [lo, hi] with integers lo <= hi"),
    (_series_doc(window=[0, True]), "window must be [lo, hi] with integers lo <= hi"),
    (_series_doc(coefficients=[[True, "1"]]), "coefficient entry must be [exponent, scalar]"),
], ids=["weight-num", "weight-den", "exponent-denominator", "window-lo", "window-hi", "exponent"])
def test_json_refuses_a_bool_for_an_integer(doc, message):
    # a JSON true is a Python bool, an int subclass, and must not pass for 1
    assert qexp_from_json(_series_doc()).coeff(1) == 1
    with pytest.raises(SchemaError) as exc:
        qexp_from_json(doc)
    assert str(exc.value) == message


def test_json_reduces_each_rational_and_drops_zeros():
    # unreduced texts, a sign in the denominator, zero numerators and a
    # cyclotomic object of rational value land in one canonical table
    rational_object = {"order": 4, "terms": [[0, "1/2"]]}
    doc = _series_doc(window=[0, 7], coefficients=[
        [0, "6/4"], [1, "-3/-6"], [2, "0"], [3, "0/7"], [4, rational_object], [5, "10/5"], [6, "2/-8"]])
    f = qexp_from_json(doc)
    assert f.cden == 4
    assert dict(f.numerators) == {0: 6, 1: 2, 4: 2, 5: 8, 6: -1}
    want = {0: Fraction(3, 2), 1: Fraction(1, 2), 4: Fraction(1, 2), 5: 2, 6: Fraction(-1, 4)}
    assert f == QExp(Fraction(5, 2), 1, want, 0, 7)
    assert [t for _, t in qexp_to_json(f)["coefficients"]] == ["3/2", "1/2", "1/2", "2", "-1/4"]


def test_json_refuses_a_duplicate_of_a_zero_coefficient():
    # zero numerators are dropped only after the duplicate check
    with pytest.raises(SchemaError) as exc:
        qexp_from_json(_series_doc(coefficients=[[1, "0"], [1, "2"]]))
    assert str(exc.value) == "duplicate coefficient at exponent 1"


def test_construction_canonicalises_non_fraction_coefficients():
    i = CycScalar.root_of_unity(4, 1)
    f = QExp(0, 1, {
        0: 3,
        1: CycScalar.from_rational(Fraction(1, 2)),
        2: CycScalar.root_of_unity(4, 2),
        3: CycScalar.root_of_unity(4, 1),
        4: i,
        5: 0,
        6: Fraction(0),
        7: CycScalar(3, {}),
        8: CycScalar.root_of_unity(4, 4),
    }, 0, 9)
    assert f.support() == [0, 1, 2, 3, 4, 8]
    for a, want in ((0, Fraction(3)), (1, Fraction(1, 2)), (2, Fraction(-1)), (8, Fraction(1))):
        assert type(f.coeffs[a]) is Fraction and f.coeffs[a] == want, a
    for a in (3, 4):
        assert isinstance(f.coeffs[a], CycScalar) and exact_eq(f.coeffs[a], i), a


coefficient = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**12))


@settings(max_examples=100, deadline=None)
@given(coeffs=st.dictionaries(st.integers(-5, 60), coefficient, max_size=40))
def test_json_emits_str_of_each_fraction_and_round_trips_with_zeros(coeffs):
    f = QExp(Fraction(5, 2), 1, coeffs, -5, 61)
    nonzero = {a: c for a, c in coeffs.items() if c}
    doc = qexp_to_json(f)
    assert doc["coefficients"] == [[a, str(c)] for a, c in sorted(nonzero.items())]
    g = qexp_from_json(doc)
    assert g == f and g.coeffs == nonzero
    assert all(type(c) is Fraction for c in g.coeffs.values())


def test_sparse_rational_product_skips_the_packed_multiplier(monkeypatch):
    # a gap of 10^5 would pack 2 * 10^5 slots for 9 term products
    a = QExp(0, 1, {0: 1, 1: Fraction(-1, 2), 10**5: 3}, 0, 2 * 10**5)
    b = QExp(0, 1, {0: Fraction(2, 3), 1: 5, 7: -1}, 0, 2 * 10**5)
    with monkeypatch.context() as m:
        m.setattr(qseries, "_SPARSE_FACTOR", 0)  # force the packed route
        packed = mul(a, b)

    def refuse(*args, **kwargs):
        raise AssertionError("packed multiplier called for a sparse product")

    monkeypatch.setattr(_intpoly, "convolve", refuse)
    prod = mul(a, b)
    assert prod == packed
    assert prod.coeffs == packed.coeffs == util.brute_convolve(a.coeffs, b.coeffs, prod.hi)
    # a dense product of the same length still takes the packed route
    dense = QExp(0, 1, {n: n + 1 for n in range(40)}, 0, 40)
    with pytest.raises(AssertionError, match="packed multiplier"):
        mul(dense, dense)


@pytest.mark.parametrize("lo", [0, 3])
@pytest.mark.parametrize("stride", [1, 4])
def test_square_reaches_convolve_as_one_array(monkeypatch, lo, stride):
    # mul(f, f) hands the packed multiplier one array as both operands, so
    # it is packed once and squared; a product with a copy of f gives the
    # same series through two arrays.  The product's window ends at
    # hi + lo, below the square of the support's end, so the cap cuts it
    rng = random.Random(17 * lo + stride)
    coeffs = {lo + stride * i: Fraction(rng.randrange(-10**6, 10**6), rng.choice([1, 3, 4]))
              for i in range(300)}
    seen = []
    convolve = _intpoly.convolve

    def record(a, b, n=None):
        seen.append(b is a)
        return convolve(a, b, n)

    monkeypatch.setattr(_intpoly, "convolve", record)
    for hi in (lo + stride * 300, lo + stride * 170):
        table = {a: c for a, c in coeffs.items() if a < hi}
        f = QExp(0, 1, table, lo, hi)
        square = mul(f, f)
        assert seen[-1] is True
        twin = mul(f, QExp(0, 1, dict(table), lo, hi))
        assert seen[-1] is False
        assert square == twin and square.coeffs == twin.coeffs
        assert square.coeffs == util.brute_convolve(f.coeffs, f.coeffs, square.hi)


# -- storage: integer numerators over one coefficient denominator ----------
#
# Every series below is also kept as a plain reference: (weight, denom, lo,
# hi, {exponent numerator: reduced Fraction}).  The reference operations are
# written out on those dicts, independently of qseries.

scalar_value = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(max_denominator=10**9),
)


@st.composite
def series_with_reference(draw, denoms=(1, 2, 4), lo=None, max_len=30):
    denom = draw(st.sampled_from(denoms))
    lo = draw(st.integers(-6, 4)) if lo is None else lo
    hi = lo + draw(st.integers(0, max_len))
    weight = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3)]))
    raw = {}
    if hi > lo:
        raw = draw(st.dictionaries(st.integers(lo, hi - 1), scalar_value, max_size=25))
    ref = (weight, denom, lo, hi, {a: Fraction(c) for a, c in raw.items() if c})
    return QExp(weight, denom, raw, lo, hi), ref


def _ref(f):
    return (f.weight, f.denom, f.lo, f.hi, dict(f.coeffs))


def _cdiv(a, b):
    return -((-a) // b)


def _ref_promote(r, m):
    w, d, lo, hi, t = r
    q = m // d
    return (w, m, lo * q, hi * q, {a * q: c for a, c in t.items()})


def _ref_add(r, s):
    m = r[1] * s[1] // math.gcd(r[1], s[1])
    (w, _, lo1, hi1, t1), (_, _, lo2, hi2, t2) = _ref_promote(r, m), _ref_promote(s, m)
    lo = min(lo1, lo2)
    hi = max(lo, min(hi1, hi2))
    out = {}
    for t in (t1, t2):
        for a, c in t.items():
            if a < hi:
                out[a] = out.get(a, Fraction(0)) + c
    return (w, m, lo, hi, {a: c for a, c in out.items() if c})


def _ref_scale(r, c):
    w, d, lo, hi, t = r
    return (w, d, lo, hi, {a: v * c for a, v in t.items() if v * c})


def _ref_mul(r, s):
    m = r[1] * s[1] // math.gcd(r[1], s[1])
    (w1, _, lo1, hi1, t1), (w2, _, lo2, hi2, t2) = _ref_promote(r, m), _ref_promote(s, m)
    S1 = min(t1) if t1 else hi1
    S2 = min(t2) if t2 else hi2
    lo = S1 + S2
    hi = max(lo, min(hi1 + S2, hi2 + S1))
    return (w1 + w2, m, lo, hi, util.brute_convolve(t1, t2, hi))


def _ref_rescale(r, t):
    w, d, lo, hi, tab = r
    g = math.gcd(t, d)
    return (w, d // g, lo * t // g, hi * t // g, {a * t // g: c for a, c in tab.items()})


def _ref_u_op(r, s):
    w, d, lo, hi, t = r
    return (w, d, _cdiv(lo, s), _cdiv(hi, s), {a // s: c for a, c in t.items() if a % s == 0})


def _ref_truncate(r, h):
    w, d, lo, hi, t = r
    h = max(lo, min(h, hi))
    return (w, d, lo, h, {a: c for a, c in t.items() if a < h})


def _ref_filter(r, modulus, allowed):
    w, d, lo, hi, t = r
    keep = {x % modulus for x in allowed}
    return (w, d, lo, hi, {a: c for a, c in t.items() if a % modulus in keep})


def _ref_decompose(r):
    w, d, lo, hi, t = r
    out = []
    for j in range(4):
        g = 4 if j == 0 else math.gcd(j, 4)
        out.append((w, 4 // g, _cdiv(lo, g), _cdiv(hi, g), {a // g: c for a, c in t.items() if a % 4 == j}))
    return out


def _ref_invert(r):
    w, d, lo, hi, t = r
    inv0 = 1 / t[0]
    g = []
    for n in range(hi):
        acc = sum((t.get(k, Fraction(0)) * g[n - k] for k in range(1, n + 1)), Fraction(0))
        g.append(inv0 if n == 0 else -inv0 * acc)
    return (-w, 1, 0, hi, {n: c for n, c in enumerate(g) if c})


def _ref_equal(r, s):
    if r[0] != s[0]:
        return False
    m = r[1] * s[1] // math.gcd(r[1], s[1])
    return _ref_promote(r, m)[2:] == _ref_promote(s, m)[2:]


def _assert_window_sound(short, full):
    # the short result's claims (nothing below lo, exact on [lo, hi)) hold
    # for the full result; full.coeff raises if short claims past full.hi
    assert short.denom == full.denom
    for n in range(min(short.lo, full.lo), short.hi):
        assert short.coeff(n) == full.coeff(n), n


def _assert_canonical(f):
    assert f.cden is not None and f.cden >= 1
    assert math.gcd(f.cden, *f.numerators.values()) == 1
    assert all(type(v) is int and v for v in f.numerators.values())


@settings(max_examples=150, deadline=None)
@given(pair=series_with_reference())
def test_numerator_storage_round_trips_the_fraction_dict(pair):
    f, (weight, denom, lo, hi, ref) = pair
    g = QExp(weight, denom, ref, lo, hi)  # from the reduced Fraction dict
    for q in (f, g):
        assert dict(q.coeffs) == ref
        assert all(type(c) is Fraction for c in q.coeffs.values())
        assert q.support() == sorted(ref)
        assert sorted(q.exponents()) == sorted(ref)
        assert all(q.coeff(a) == ref.get(a, 0) for a in range(lo - 2, hi))
        assert q.coeff(lo - 1) == 0 and type(q.coeff(lo - 1)) is Fraction
    assert f == g and g == f
    doc = qexp_to_json(f)
    assert doc == qexp_to_json(g)
    assert doc["coefficients"] == [[a, str(c)] for a, c in sorted(ref.items())]
    assert qexp_from_json(doc) == f
    den = math.lcm(*[c.denominator for c in ref.values()])
    if den.bit_length() <= 64:  # every common denominator this small is used
        _assert_canonical(f)
        assert f.cden == den
        # a non-canonical numerator table over a multiple of cden reduces
        k = 6
        same = QExp.from_numerators(weight, denom, {a: v * k for a, v in f.numerators.items()},
                                    f.cden * k, lo, hi)
        assert same == f and same.cden == f.cden
    with pytest.raises(TypeError):
        f.coeffs[lo] = 1


def test_unrelated_denominators_stay_fractions_and_still_compute():
    # 400 distinct primes: a common denominator would give each of the 400
    # numerators the size of their product
    primes = [p for p in range(3, 6000) if all(p % q for q in range(2, int(p**0.5) + 1))][:400]
    raw = {a: Fraction(1, p) for a, p in enumerate(primes)}
    f = QExp(0, 1, raw, 0, 400)
    assert f.cden is None and dict(f.coeffs) == raw
    back = qexp_from_json(qexp_to_json(f))
    assert back.cden is None and back == f
    # arithmetic on them keeps its values; a short piece goes back to integers
    assert dict(add(f, f).coeffs) == {a: 2 * c for a, c in raw.items()}
    assert dict(mul(f, f).coeffs) == util.brute_convolve(raw, raw, 400)
    short = f.truncate(3)
    assert short.cden == 3 * 5 * 7 and dict(short.coeffs) == {0: Fraction(1, 3), 1: Fraction(1, 5), 2: Fraction(1, 7)}
    forty = f.truncate(40)
    assert forty.cden is None
    assert _ref(invert_unit(forty)) == _ref_invert(_ref(forty))


def test_products_with_a_scalar_form_factor_match_the_brute_convolution():
    # rational-form series times the 400-prime scalar-form series, whose
    # numerators `mul` takes over their uncapped lcm.  With two terms the
    # product's denominators, 3 p_n p_(n-1), pass the cap again, so it
    # stays in scalar form; the sums of a dense factor share one large
    # denominator, so that product is stored in rational form
    primes = [p for p in range(3, 6000) if all(p % q for q in range(2, int(p**0.5) + 1))][:400]
    f = QExp(0, 1, {a: Fraction(1, p) for a, p in enumerate(primes)}, 0, 400)
    two = QExp(0, 1, {0: Fraction(1, 3), 1: 2}, 0, 300)
    dense = QExp(0, 1, {n: Fraction(n + 1, 3) for n in range(2, 300)}, 0, 300)
    assert f.cden is None and two.cden == dense.cden == 3
    for g, lo, rational in ((two, 0, False), (dense, 2, True)):
        for prod in (mul(f, g), mul(g, f)):
            assert (prod.lo, prod.hi) == (lo, 300) and (prod.cden is not None) == rational
            assert dict(prod.coeffs) == util.brute_convolve(f.coeffs, g.coeffs, 300)
    # a sparse cyclotomic series over a long span times a rational one goes
    # term by term, in scalar form
    i = CycScalar.root_of_unity(4, 1)
    a = QExp(0, 1, {0: i, 3: Fraction(1, 2), 10**5: 1 - i}, 0, 2 * 10**5)
    b = QExp(0, 1, {0: Fraction(2, 3), 1: 5, 7: -1}, 0, 2 * 10**5)
    assert a.cden is None and b.cden == 3
    for prod in (mul(a, b), mul(b, a)):
        assert (prod.lo, prod.hi) == (0, 2 * 10**5) and prod.cden is None
        assert dict(prod.coeffs) == util.brute_convolve(a.coeffs, b.coeffs, 2 * 10**5)


@settings(max_examples=120, deadline=None)
@given(p=series_with_reference(), q=series_with_reference(), data=st.data())
def test_add_and_mul_match_fraction_reference_and_windows(p, q, data):
    (f, rf), (g, rg) = p, q
    g = QExp(f.weight, g.denom, dict(g.coeffs), g.lo, g.hi)
    rg = (f.weight,) + rg[1:]
    s = add(f, g)
    assert _ref(s) == _ref_add(rf, rg)
    prod = mul(f, g)
    assert _ref(prod) == _ref_mul(rf, rg)
    diff = add(f, scale(f, Fraction(-1)))  # everything cancels
    assert diff.is_zero() and _ref(diff) == _ref_add(rf, _ref_scale(rf, -1))
    for out in (s, prod):
        if out.cden is not None:
            _assert_canonical(out)
    h1 = data.draw(st.integers(f.lo, f.hi))
    h2 = data.draw(st.integers(g.lo, g.hi))
    _assert_window_sound(add(f.truncate(h1), g.truncate(h2)), s)
    _assert_window_sound(mul(f.truncate(h1), g.truncate(h2)), prod)


@settings(max_examples=120, deadline=None)
@given(p=series_with_reference(), c=st.one_of(st.just(0), st.integers(-5, 5), scalar_value),
       h=st.integers(-8, 40))
def test_scale_matches_fraction_reference_and_windows(p, c, h):
    f, rf = p
    out = scale(f, c)
    assert _ref(out) == _ref_scale(rf, Fraction(c))
    if out.cden is not None:
        _assert_canonical(out)
    if not c:
        assert out.is_zero() and out.cden == 1
    _assert_window_sound(scale(f.truncate(h), c), out)


@settings(max_examples=120, deadline=None)
@given(p=series_with_reference(), t=st.integers(1, 8), h=st.integers(-8, 40),
       modulus=st.integers(1, 6), allowed=st.sets(st.integers(0, 5), max_size=4))
def test_lattice_operations_match_fraction_reference_and_windows(p, t, h, modulus, allowed):
    f, rf = p
    short = f.truncate(h)
    assert _ref(short) == _ref_truncate(rf, h)
    assert _ref(rescale(f, t)) == _ref_rescale(rf, t)
    _assert_window_sound(rescale(short, t), rescale(f, t))
    assert _ref(u_op(f, t)) == _ref_u_op(rf, t)
    _assert_window_sound(u_op(short, t), u_op(f, t))
    if f.denom == 1:
        kept = filter_residues(f, modulus, allowed)
        assert _ref(kept) == _ref_filter(rf, modulus, allowed)
        _assert_window_sound(filter_residues(short, modulus, allowed), kept)
        pieces = decompose_mod4(f)
        assert [_ref(x) for x in pieces] == _ref_decompose(rf)
        for piece, short_piece in zip(pieces, decompose_mod4(short)):
            _assert_window_sound(short_piece, piece)
        for eps in (1, -1):
            assert is_plus_space(f, eps) == all(a % 4 in (0, eps % 4) for a in rf[4])
    for out in (short, rescale(f, t), u_op(f, t)):
        if out.cden is not None:
            _assert_canonical(out)


@settings(max_examples=60, deadline=None)
@given(p=series_with_reference(denoms=(1,), lo=0, max_len=25), c0=unit, h=st.integers(1, 26))
def test_invert_unit_matches_fraction_recurrence(p, c0, h):
    f, (w, d, lo, hi, t) = p
    t = dict(t)
    t[0] = c0
    hi = max(hi, 1)
    f = QExp(w, 1, t, 0, hi)
    inv = invert_unit(f)
    assert _ref(inv) == _ref_invert((w, 1, 0, hi, t))
    _assert_canonical(inv)
    _assert_window_sound(invert_unit(f.truncate(h)), inv)


def test_invert_unit_is_one_call_of_the_module_attribute_on_a_long_rational_series(monkeypatch):
    # 300 terms, c0 = 3/2 and denominators up to 12: the Newton levels
    # 300, 150, ..., 2, 1 run on integer lists inside the one call, which
    # neither re-enters the module attribute nor carries a power of c0 up
    rng = random.Random(300)
    t = {0: Fraction(3, 2)}
    t.update((a, Fraction(rng.randint(-50, 50), rng.randint(1, 12))) for a in range(1, 300))
    f = QExp(0, 1, t, 0, 300)
    windows = []
    inner = qseries.invert_unit

    def counted(g):
        windows.append(g.hi)
        return inner(g)

    monkeypatch.setattr(qseries, "invert_unit", counted)
    inv = qseries.invert_unit(f)
    assert windows == [300]
    assert _ref(inv) == _ref_invert((0, 1, 0, 300, t))
    _assert_canonical(inv)


@settings(max_examples=25, deadline=None)
@given(c0=st.tuples(st.integers(-12, 12), st.integers(1, 12)).map(lambda pq: Fraction(*pq))
       .filter(lambda c: c not in (0, 1, -1)),
       hi=st.integers(1, 300), seed=st.integers(0, 2**32), density=st.sampled_from([0.05, 0.5, 1.0]))
def test_invert_unit_on_integer_lists_matches_fraction_recurrence(c0, hi, seed, density):
    # the Newton levels run on (numerator list, denominator) pairs with one
    # gcd reduction each: c0 != +-1 makes every level's denominator a power
    # of c0's numerator times the coefficients' denominators, up to 12
    rng = random.Random(seed)
    t = {0: c0}
    t.update((a, Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
             for a in range(1, hi) if rng.random() < density)
    f = QExp(Fraction(3, 2), 1, t, 0, hi)
    inv = invert_unit(f)
    assert _ref(inv) == _ref_invert((Fraction(3, 2), 1, 0, hi, t))
    _assert_canonical(inv)


@pytest.mark.parametrize("c0", [Fraction(-3, 2), Fraction(-1), Fraction(1)])
@pytest.mark.parametrize("hi", [1, 2, 3])
def test_invert_unit_base_case_and_first_steps(c0, hi):
    t = {a: c for a, c in {0: c0, 1: Fraction(5, 7), 2: Fraction(-2, 3)}.items() if a < hi}
    f = QExp(Fraction(1, 2), 1, t, 0, hi)
    inv = invert_unit(f)
    assert (inv.lo, inv.hi, inv.weight) == (0, hi, Fraction(-1, 2))
    assert _ref(inv) == _ref_invert((Fraction(1, 2), 1, 0, hi, t))
    _assert_canonical(inv)


@settings(max_examples=80, deadline=None)
@given(p=series_with_reference(denoms=(1,), lo=0, max_len=40),
       q=series_with_reference(denoms=(1,), lo=0, max_len=40), c0=unit, data=st.data())
def test_divide_is_the_product_with_the_inverse(p, q, c0, data):
    # _divide_lists on the numerator lists of f and g, with a constant term
    # of g other than 1, a coefficient denominator above 1 and windows of 0
    # to 40 terms, so the half-length inverse runs to 1-20
    f, _ = p
    g, (w, _, _, hi, t) = q
    t = dict(t)
    t[0] = c0
    hi = max(hi, 1)
    if hi > 1:
        t[1] = t.get(1, Fraction(0)) + Fraction(1, 3)
    g = QExp(w, 1, t, 0, hi)
    H = min(f.hi, g.hi)
    F, df = qseries._dense(qseries._numerators(f), H)
    G, dg = qseries._dense(qseries._numerators(g), max(H, 1))
    Q, d = qseries._divide_lists(F, df, G, dg, H)
    assert len(Q) == H and d > 0
    ref = mul(f, invert_unit(g))
    assert [Fraction(v, d) for v in Q] == [ref.coeff(n) for n in range(H)]
    # dividing to a shorter window gives the first terms of the quotient
    h = data.draw(st.integers(0, H))
    short, e = qseries._divide_lists(F[:h], df, G, dg, h)
    assert [Fraction(v, e) for v in short] == [Fraction(v, d) for v in Q[:h]]


@settings(max_examples=120, deadline=None)
@given(p=series_with_reference(), q=series_with_reference(), bump=st.booleans())
def test_equality_matches_fraction_reference(p, q, bump):
    (f, rf), (g, rg) = p, q
    assert (f == g) == _ref_equal(rf, rg)
    if f.hi > f.lo:
        # the same series with one coefficient changed, and unchanged
        a = f.lo
        t = dict(rf[4])
        t[a] = t.get(a, Fraction(0)) + (Fraction(1, 7) if bump else 0)
        other = QExp(f.weight, f.denom, t, f.lo, f.hi)
        assert (f == other) is (not bump)
        assert (rescale(f, 2) == rescale(other, 2)) is (not bump)


def test_cyclotomic_series_keep_the_scalar_form():
    i = CycScalar.root_of_unity(4, 1)
    f = QExp(0, 1, {0: 1, 1: i, 2: Fraction(1, 2)}, 0, 5)
    assert f.cden is None
    g = QExp(0, 1, {0: 2, 3: Fraction(-1, 3)}, 0, 5)
    assert exact_eq(mul(f, g).coeff(1), 2 * i)
    # once the cyclotomic part cancels, the result is rational again
    r = add(f, scale(QExp(0, 1, {1: i}, 0, 5), -1))
    assert r.cden == 2 and dict(r.coeffs) == {0: 1, 2: Fraction(1, 2)}
    doc = qexp_to_json(f)
    assert qexp_from_json(doc) == f and qexp_from_json(doc).cden is None


def test_hot_paths_never_build_the_fraction_view(monkeypatch):
    from shimlift import fixtures, shimura

    doc = qexp_to_json(fixtures.cohen_eisenstein(2, 2601))

    def refuse(self):
        raise AssertionError("Fraction view built on a hot path")

    monkeypatch.setattr(QExp, "_build_view", refuse)
    f = qexp_from_json(doc)
    assert f.cden is not None and f.cden > 1
    lift = shimura.shimura_St(f, 1, 2, 1, 1, 50)
    out = qexp_to_json(lift)
    assert out["coefficients"][0] == [0, "-1/2880"]
    assert is_plus_space(f, 1)
    theta_e4 = fixtures.plus_product(4, 2601)
    cohen = fixtures.cohen_eisenstein(3, 2601)
    prod = mul(cohen, theta_e4)
    assert qexp_to_json(prod)["window"] == [0, 2601]
    assert is_plus_space(theta_e4, 1) and not is_plus_space(prod, 1)
