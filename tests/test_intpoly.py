"""Packed integer convolution.

Every big multiplier behind `convolve` (schoolbook, binary slots on int,
decimal-digit slots, binary slots on gmpy2 when it imports) is called
directly and compared with the O(n^2) definition, on every truncation
length, so the sign handling and the borrow propagation of the balanced
unpack are checked for each of them, not only for the one this machine
picks.
"""
from __future__ import annotations

import decimal

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
    import random

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
