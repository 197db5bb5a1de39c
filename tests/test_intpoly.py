"""Packed integer convolution.

Every big multiplier behind `convolve` (schoolbook, shift-add, binary
slots on int, decimal-digit slots, binary slots on gmpy2 when it imports)
is called directly and compared with the O(n^2) definition, on every
truncation length, so the sign handling and the borrow propagation of the
balanced unpack are checked for each of them, not only for the one this
machine picks.
"""
from __future__ import annotations

import decimal
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimlift import _intpoly


def naive(a: list, b: list, n: int) -> list:
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


MULTIPLIERS = [
    pytest.param(_intpoly._schoolbook, id="schoolbook"),
    pytest.param(_intpoly._shift_add, id="shift_add"),
    pytest.param(lambda a, b, n: _intpoly._binary(a, b, n, int), id="int"),
    pytest.param(_intpoly._decimal, id="decimal"),
]
try:
    import gmpy2
except ImportError:
    pass
else:
    MULTIPLIERS.append(
        pytest.param(lambda a, b, n: _intpoly._binary(a, b, n, gmpy2.mpz), id="gmpy2")
    )

coefficient = st.one_of(
    st.integers(-2, 2),
    st.integers(-(1 << 64), 1 << 64),
    st.integers(-(1 << 700), 1 << 700),
)
operand = st.lists(coefficient, max_size=24)


@pytest.mark.parametrize("mul", MULTIPLIERS)
@settings(max_examples=150, deadline=None)
@given(a=operand, b=operand)
def test_multiplier_matches_definition_on_every_n(mul, a, b):
    for n in range(len(a) + len(b)):
        assert mul(a, b, n) == naive(a, b, n), n


@pytest.mark.parametrize("mul", MULTIPLIERS)
def test_multiplier_edge_operands(mul):
    assert mul([], [], 0) == []
    assert mul([], [3, 4], 1) == [0]
    assert mul([0, 0, 0], [5, -7], 4) == [0, 0, 0, 0]
    assert mul([-7], [6], 1) == [-42]
    assert mul([1], [0, -1, 2], 3) == [0, -1, 2]
    assert mul([-1, -2], [-3, -4], 3) == [3, 10, 8]


@pytest.mark.parametrize("mul", MULTIPLIERS)
def test_multiplier_top_carry(mul):
    # 1 - q packs to 1 - R < 0: |1 - R| = R - 1 fills one slot, and the
    # balanced unpack must carry into a second slot the product lacks
    assert mul([1, -1], [1], 2) == [1, -1]
    assert mul([-1, 1], [1], 2) == [-1, 1]
    assert mul([1, -1], [1, 1], 3) == [1, 0, -1]
    # the carry out of the last slot read is dropped, not wrapped around
    assert mul([1, -1], [1, 1], 2) == [1, 0]
    assert mul([0, 0, -1], [0, 1], 4) == [0, 0, 0, -1]


def test_convolve_length_and_truncation():
    a, b = [1, -2, 3], [4, 5]
    assert _intpoly.convolve(a, b) == naive(a, b, 4)
    for n in range(7):
        assert _intpoly.convolve(a, b, n) == naive(a, b, min(n, 4))
    assert _intpoly.convolve([], b) == []
    assert _intpoly.convolve(a, [], 5) == []


@pytest.mark.parametrize(
    "la, lb, bits",
    [(8, 300, 40), (60, 60, 30), (400, 400, 700), (40, 3000, 60), (20, 20, 20000)],
)
def test_convolve_agrees_with_schoolbook_across_routes(la, lb, bits):
    # shapes on both sides of the schoolbook and decimal crossovers; the last
    # has slots longer than Python's int-to-str limit and must avoid decimal
    rng = random.Random(la * 7919 + lb)
    a = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(la)]
    b = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(lb)]
    want = _intpoly._schoolbook(a, b, la + lb - 1)
    assert _intpoly.convolve(a, b) == want
    n = (la + lb) // 3
    assert _intpoly.convolve(a, b, n) == want[:n]


def test_decimal_route_ignores_the_thread_context():
    a = [(1 << 300) - 1, -(1 << 299), 12345] * 40
    b = [-(1 << 310), 7, (1 << 305) + 1] * 40
    want = naive(a, b, len(a) + len(b) - 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps[decimal.Inexact] = False
        assert _intpoly._decimal(a, b, len(want)) == want


def test_fallback_multiplier_is_a_module_function():
    if _intpoly._HAVE_GMPY2:
        assert _intpoly._mpz.__module__ != _intpoly.__name__
    else:
        assert _intpoly._mpz.__module__ == _intpoly.__name__
        assert _intpoly._mpz(12) == 12


def _sparse(rng, n, k, bits):
    out = [0] * n
    for e in rng.sample(range(n), k):
        out[e] = rng.choice((-1, 1)) * rng.randrange(1, 1 << bits)
    return out


@pytest.mark.parametrize(
    "nonzero, sparse_bits, dense_bits, int_terms",
    [(_intpoly._SHIFT_ADD_TERMS, 20, 20, 40001), (12, 700, 64, 4001)],
    ids=["many-small", "few-700-bit"],
)
def test_shift_add_long_sparse_operands(nonzero, sparse_bits, dense_bits, int_terms):
    # 40001 terms, mixed signs; the dense operand ends on a negative
    # coefficient, so its packed int is negative.  The int route multiplies
    # 700-bit slots by Karatsuba (15-20 s at 40001 terms), so it checks a
    # shorter window there.
    n = 40001
    rng = random.Random(nonzero * 7919 + sparse_bits)
    a = _sparse(rng, n, nonzero, sparse_bits)
    a[rng.randrange(n)] = -(1 << (sparse_bits - 1)) - 1
    b = [rng.randrange(-(1 << dense_bits), 1 << dense_bits) for _ in range(n)]
    b[-1] = -(1 << dense_bits)
    got = _intpoly._shift_add(a, b, n)
    assert got == _intpoly._decimal(a, b, n)
    assert got[:int_terms] == _intpoly._binary(a, b, int_terms, int)
    assert _intpoly._shift_add(b, a, n - 1) == got[:-1]


def _refuse(*args, **kwargs):
    raise AssertionError("wrong route")


@pytest.mark.parametrize(
    "extra, bits, span, shift_add",
    [
        (0, 20, 4 * _intpoly._SHIFT_ADD_TERMS, True),
        (1, 20, 4 * _intpoly._SHIFT_ADD_TERMS + 4, False),
        # each nonzero term counts once per 128 bits of the largest
        (-_intpoly._SHIFT_ADD_TERMS // 2, 128, 4 * _intpoly._SHIFT_ADD_TERMS, True),
        (-_intpoly._SHIFT_ADD_TERMS // 2 + 1, 128, 4 * _intpoly._SHIFT_ADD_TERMS, False),
        # at most one slot in _SHIFT_ADD_SPREAD nonzero
        (-_intpoly._SHIFT_ADD_TERMS // 2, 20, 2 * _intpoly._SHIFT_ADD_TERMS, True),
        (-_intpoly._SHIFT_ADD_TERMS // 2, 20, 2 * _intpoly._SHIFT_ADD_TERMS - 1, False),
    ],
)
def test_shift_add_route_on_both_sides_of_the_crossover(monkeypatch, extra, bits, span, shift_add):
    rng = random.Random(span + extra)
    a = _sparse(rng, span, _intpoly._SHIFT_ADD_TERMS + extra, bits)
    a[rng.choice([e for e, x in enumerate(a) if x])] = (1 << bits) - 1
    b = [rng.randrange(-(1 << 30), 1 << 30) for _ in range(span)]
    want = _intpoly._schoolbook(a, b, span)
    # the no-gmpy2 branch, where shift-add lives; every other route fails
    # when shift-add is due, and shift-add fails when it is not
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    if shift_add:
        for name in ("_schoolbook", "_decimal", "_binary"):
            monkeypatch.setattr(_intpoly, name, _refuse)
    else:
        monkeypatch.setattr(_intpoly, "_shift_add", _refuse)
    assert _intpoly.convolve(a, b, span) == want
    assert _intpoly.convolve(b, a, span) == want
