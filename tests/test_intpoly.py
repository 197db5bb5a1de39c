"""Packed integer convolution.

Every big multiplier behind `convolve` (schoolbook, and binary slots on
int, on libgmp when libgmp.so.10 loads and on gmpy2 when it imports) is
called directly and compared with the O(n^2) definition, on every
truncation length, so the offset slot format (each slot x + B/2 on the
way in and c_i + B/2 on the way out, read back without a borrow) is
checked for each of them, not only for the one this machine picks: at
every slot width the packing distinguishes, at the largest coefficients
a slot holds, and across the chunk edges of packing and unpacking.  The
binary routes share one seam, `_binary`: slot bytes of each operand go to
a multiplier, which gives the slot bytes of the product's window; the
route tests record the multiplier that each `_binary` call is given.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimlift import _intpoly, fixtures, qseries


def naive(a: list, b: list, n: int) -> list:
    out = [0] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def int_mul(x, y, slot, n):
    """The int multiplier of `_binary`, multiplying by Python's int whether
    or not gmpy2 imports."""
    return _intpoly._window(_intpoly._signed(x, slot) * _intpoly._signed(y, slot), slot, n)


def direct(route, *extra):
    """route called as `convolve` calls it: on the operands trimmed to n,
    with the all-zero answer and the slot size decided from the scans."""
    def mul(a, b, n):
        a, b = _intpoly._trim(a, n), _intpoly._trim(b, n)
        sa, sb = _intpoly._scan(a), _intpoly._scan(b)
        bits = _intpoly._slot_bits(sa, sb)
        if not bits:
            return [0] * n
        return route(a, b, n, (bits + 7) // 8, *extra)
    return mul


binary_int = direct(_intpoly._binary, int_mul)
# libgmp's multiplier, loaded as convolve loads it, or None
LIBGMP = _intpoly._libgmp()
needs_libgmp = pytest.mark.skipif(LIBGMP is None, reason="libgmp.so.10 does not load")

MULTIPLIERS = [
    pytest.param(_intpoly._schoolbook, id="schoolbook"),
    pytest.param(binary_int, id="int"),
    pytest.param(direct(_intpoly._binary, LIBGMP), id="libgmp", marks=needs_libgmp),
]
try:
    import gmpy2
except ImportError:
    pass
else:
    # with gmpy2 importing, the int multiplier multiplies by gmpy2
    MULTIPLIERS.append(pytest.param(direct(_intpoly._binary, _intpoly._int_mul), id="gmpy2"))

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
    # 1 - q packs to 1 - R < 0: its two slots are read from (c + H) mod R^2,
    # which holds 1 + R/2 and R/2 - 1 with no carry between them
    assert mul([1, -1], [1], 2) == [1, -1]
    assert mul([-1, 1], [1], 2) == [-1, 1]
    assert mul([1, -1], [1, 1], 3) == [1, 0, -1]
    # slots past the window are cut off by the mod, not wrapped around
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
    # shapes on both sides of the schoolbook crossover, past libgmp's floor
    # and below it; the last has slots longer than Python's int-to-str limit
    rng = random.Random(la * 7919 + lb)
    a = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(la)]
    b = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(lb)]
    want = _intpoly._schoolbook(a, b, la + lb - 1)
    assert _intpoly.convolve(a, b) == want
    n = (la + lb) // 3
    assert _intpoly.convolve(a, b, n) == want[:n]


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
    [(256, 20, 20, 40001), (12, 700, 64, 4001)],
    ids=["many-small", "few-700-bit"],
)
def test_int_long_sparse_operands(nonzero, sparse_bits, dense_bits, int_terms):
    # 40001 terms, mixed signs, one operand sparse like a theta factor; the
    # dense operand ends on a negative coefficient, so its packed int is
    # negative.  The int route multiplies 700-bit slots by Karatsuba (15-20
    # s at 40001 terms), so it checks a shorter window there; libgmp, where
    # it loads, checks the whole.  Schoolbook skips the sparse operand's
    # zero terms.
    n = 40001
    rng = random.Random(nonzero * 7919 + sparse_bits)
    a = _sparse(rng, n, nonzero, sparse_bits)
    a[rng.randrange(n)] = -(1 << (sparse_bits - 1)) - 1
    b = [rng.randrange(-(1 << dense_bits), 1 << dense_bits) for _ in range(n)]
    b[-1] = -(1 << dense_bits)
    want = _intpoly._schoolbook(a, b, n)
    assert binary_int(a, b, int_terms) == want[:int_terms]
    assert binary_int(b, a, int_terms - 1) == want[:int_terms - 1]
    if LIBGMP:
        assert direct(_intpoly._binary, LIBGMP)(a, b, n) == want


def _full(rng, n, m):
    # n nonzero terms of both signs, the largest of m bits
    out = [rng.choice((-1, 1)) * rng.randrange(1, 1 << m) for _ in range(n)]
    out[0] = (1 << m) - 1
    return out


def _record_muls(monkeypatch, slots=None):
    """The multiplier each `_binary` call is given, appended as calls run;
    beside it, the call's slot width is appended to `slots` when given."""
    muls = []
    binary = _intpoly._binary

    def record(a, b, n, slot, mul=_intpoly._int_mul, lo=0):
        muls.append(mul)
        if slots is not None:
            slots.append(slot)
        return binary(a, b, n, slot, mul, lo)

    monkeypatch.setattr(_intpoly, "_binary", record)
    return muls


def _far_past_the_libgmp_floor(rng):
    # 300 x 300 terms of 400 bits: 811-bit slots, 243 300 packed bits in
    # the shorter operand
    a, b = _full(rng, 300, 400), _full(rng, 300, 400)
    bits = _intpoly._slot_bits(_intpoly._scan(a), _intpoly._scan(b))
    assert bits * 300 >= _intpoly._LIBGMP_BITS
    return a, b


@needs_libgmp
@pytest.mark.parametrize("width", [*range(1, 25), 80, 144])
def test_libgmp_multiply_against_schoolbook(width):
    # mixed signs at the largest coefficients a slot of `width` bytes holds
    # (a column of 24 products stays below B/2), every sign of the two top
    # terms, so of the two packed operands, a long operand on both sides of
    # each chunk edge and windows below the full length; j's division at
    # 2000 terms runs on slots of up to 144 bytes.  Three equal top terms give the top columns
    # their largest sums.  A window whose highest nonzero coefficient is
    # negative is a negative c mod B^n, so (c mod B^n) + H carries out of
    # its top slot, a carry the window drops; a window of leading zeros is
    # H alone.  The multiplier is called at `_binary`'s seam, so that the
    # bytes of its window past the n slots are checked too
    rng = random.Random(width)
    room = 8 * width - 6
    ma, mb = (1 << (room - room // 2)) - 1, (1 << (room // 2)) - 1
    carries = 0
    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        # word slots are packed _CHUNK at a time, wider ones at most
        # _PACK_BYTES at a time
        chunk = min(_intpoly._CHUNK, _intpoly._PACK_BYTES // width)
        for length in sorted({chunk - 1, chunk + 1, _intpoly._CHUNK - 1, _intpoly._CHUNK + 1}):
            a = [rng.randrange(-ma, ma + 1) for _ in range(length - 3)] + [sa * ma] * 3
            b = [rng.randrange(-mb, mb + 1) for _ in range(21)] + [sb * mb] * 3
            assert (_intpoly._slot_bits(_intpoly._scan(a), _intpoly._scan(b)) + 7) // 8 == width
            full = len(a) + len(b) - 1
            want = _intpoly._schoolbook(b, a, full)
            for n in (full, full - 1, full - 3, len(a), 25, 1):
                raw = LIBGMP(_intpoly._slots(a, width), _intpoly._slots(b, width), width, n)
                assert _intpoly._unpack(raw, width, n) == want[:n], (sa, sb, length, n)
                # the padding past the window holds no carry
                assert not any(raw[n * width:]), (sa, sb, length, n)
                carries += next((c for c in reversed(want[:n]) if c), 0) < 0
    assert carries
    zeros = [0, 0, 0] + a
    for n in (1, 3, 4):
        assert _intpoly._binary(zeros, b, n, width, LIBGMP) == [0, 0, 0, a[0] * b[0]][:n]


def _on_slot_bits(rng, bits):
    # 400 x 450 terms, all nonzero: slots of bits(max a) + bits(max b) + 9 + 1
    # bits, past libgmp's floor from 20 slot bits up
    m = bits - 10
    a, b = _full(rng, 400, m - m // 2), _full(rng, 450, m // 2)
    assert _intpoly._slot_bits(_intpoly._scan(a), _intpoly._scan(b)) == bits
    return a, b


def _at_the_libgmp_floor(rng, above):
    # 40 x 60 terms, all nonzero: slots of bits(max a) + bits(max b) + 6 + 1
    # bits, so that slot bits x 40 reach _LIBGMP_BITS, or fall one slot bit
    # short of it
    short = 40
    bits = -(-_intpoly._LIBGMP_BITS // short) - (not above)
    m = bits - 7
    a, b = _full(rng, short, m - m // 2), _full(rng, 60, m // 2)
    assert _intpoly._slot_bits(_intpoly._scan(a), _intpoly._scan(b)) == bits
    assert (bits * short >= _intpoly._LIBGMP_BITS) == above
    return a, b


@needs_libgmp
@pytest.mark.parametrize("gmpy2_imports", [False, True])
def test_libgmp_takes_every_product_past_its_floor(monkeypatch, gmpy2_imports):
    # without gmpy2, libgmp multiplies every product that schoolbook
    # leaves once slot bits x shorter length reach its floor: far past it,
    # on 20 000-bit coefficients, at it, and with a sparse operand; just
    # below the floor int keeps the product.  With gmpy2 every product past
    # schoolbook goes to gmpy2.  On every route, slot bits that fit in 64
    # go on the smallest word of 1, 2, 4 or 8 bytes that holds them, wider
    # ones on whole bytes: 20, 40, 41, 56, 65 and 128 slot bits on 4, 8,
    # 8, 8, 9 and 16 bytes.
    rng = random.Random(5)
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", gmpy2_imports)
    slots = []
    muls = _record_muls(monkeypatch, slots)
    a, b = _far_past_the_libgmp_floor(rng)
    wide = [rng.randrange(-(1 << 20000), 1 << 20000) for _ in range(20)]
    sparse = _sparse(rng, 1000, 20, 100)
    dense = _full(rng, 1000, 100)
    rule = {20: 4, 40: 8, 41: 8, 56: 8, 65: 9, 128: 16}
    for x, y in ((a, b), (wide, wide[::-1]), _at_the_libgmp_floor(rng, True),
                 _at_the_libgmp_floor(rng, False), (sparse, dense),
                 *(_on_slot_bits(rng, bits) for bits in rule)):
        n = len(x) + len(y) - 1
        assert _intpoly.convolve(x, y) == _intpoly._schoolbook(x, y, n)
        assert _intpoly.convolve(x, y, n // 2) == _intpoly._schoolbook(x, y, n // 2)
    if gmpy2_imports:
        want = [_intpoly._int_mul] * 22
    else:
        want = [LIBGMP] * 6 + [_intpoly._int_mul] * 2 + [LIBGMP] * 14
    assert muls == want
    assert slots[10:] == [slot for slot in rule.values() for _ in range(2)]


@pytest.mark.parametrize("route", ["int", pytest.param("libgmp", marks=needs_libgmp)])
@pytest.mark.parametrize("m", [20, 44, 300], ids=["word-8", "wide-13", "wide-77"])
def test_square_is_the_product_of_two_copies(monkeypatch, route, m):
    # convolve(a, a, n) packs a once and the multiplier squares its one
    # buffer, also where a is cut to n terms first; a product with a copy
    # of a packs and reads two.  300 or 400 terms of m bits give 2 m + 10
    # slot bits: an 8-byte word at m = 20, 13 and 77 whole bytes at m = 44
    # and 300, each past libgmp's floor
    rng = random.Random(m)
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    if route == "int":
        monkeypatch.setattr(_intpoly, "_libgmp_mul", None)
    seen = []
    binary = _intpoly._binary

    def record(a, b, n, slot, mul=_intpoly._int_mul, lo=0):
        seen.append((mul, b is a))
        return binary(a, b, n, slot, mul, lo)

    monkeypatch.setattr(_intpoly, "_binary", record)
    a = _full(rng, 400, m)
    for n in (799, 400, 300):
        assert _intpoly.convolve(a, a, n) == _intpoly.convolve(a, list(a), n), n
    assert _intpoly.convolve(a, a, 799) == _intpoly._schoolbook(a, a, 799)
    mul = LIBGMP if route == "libgmp" else _intpoly._int_mul
    assert seen[:6] == [(mul, True), (mul, False)] * 3


@needs_libgmp
def test_libgmp_product_peak_memory_stays_within_twice_its_result():
    # the libgmp multiplier empties each operand's slot bytes once GMP holds
    # them, before it makes H, and exports the product straight into the
    # window's bytes: with its operands it never holds more than twice its
    # window, at every sign pair, and the operands' bytes are gone when it
    # returns
    rng = random.Random(13)
    # 1016-bit coefficients, whose column sums fit 256-byte slots
    slot, la, lb = 256, 4000, 4100
    bits = 4 * slot - 8
    assert 2 * bits + la.bit_length() + 1 <= 8 * slot
    x0 = [rng.randrange(1 << bits) for _ in range(la)]
    y0 = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(lb)]
    n = la + lb - 1
    # the window checked at a point mod a prime, as int's own product of
    # these 1 MB operands takes seconds
    p, r = 1_000_003, 12_345
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        a, b = [sx * v for v in x0], [sy * v for v in y0]
        # the operands are made while tracing, so that their release counts
        tracemalloc.start()
        try:
            x, y = _intpoly._slots(a, slot), _intpoly._slots(b, slot)
            operands = len(x) + len(y)
            base = tracemalloc.get_traced_memory()[0]
            out = LIBGMP(x, y, slot, n)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not x and not y
        assert len(out) >= n * slot
        assert peak - base + operands <= 2 * len(out), (sx, sy, peak - base, operands, len(out))
        assert size - base <= len(out) - operands + 4096, (sx, sy, size - base, len(out), operands)
        c = _intpoly._unpack(out, slot, n)
        assert _at(c, r, p) == _at(a, r, p) * _at(b, r, p) % p, (sx, sy)
        del out, c


def _at(a, r, p):
    """a(r) mod p."""
    v = 0
    for x in reversed(a):
        v = (v * r + x) % p
    return v


@needs_libgmp
def test_fixture_outputs_are_the_same_on_every_route(monkeypatch):
    # j and hj4 at fixture scale multiply on libgmp past its floor; with
    # libgmp unavailable every product runs on int, and the emitted JSON is
    # byte for byte the same
    def digests():
        out = []
        for f in (fixtures.j_invariant(700), fixtures.weakly_holomorphic_product(2601)):
            text = json.dumps(qseries.qexp_to_json(f), sort_keys=True, separators=(",", ":"))
            out.append(hashlib.sha256(text.encode()).hexdigest())
        return out

    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    muls = _record_muls(monkeypatch)
    with_libgmp = digests()
    assert LIBGMP in muls
    muls.clear()
    monkeypatch.setattr(_intpoly, "_libgmp_mul", None)
    assert digests() == with_libgmp
    assert muls and all(mul is _intpoly._int_mul for mul in muls)


def test_int_route_when_libgmp_does_not_load(monkeypatch):
    # a host without libgmp: the load is tried once, by soname (no
    # subprocess searches for the library), and a product far past the
    # floor is multiplied by int
    import ctypes

    loads = []

    def no_library(name, *args, **kwargs):
        loads.append(name)
        raise OSError("%s: cannot open shared object file" % name)

    def no_process(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    for module, name in ((subprocess, "Popen"), (os, "posix_spawn"), (os, "fork"), (os, "system")):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, no_process)
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    monkeypatch.setattr(_intpoly, "_libgmp_mul", _intpoly._UNTRIED)
    muls = _record_muls(monkeypatch)
    rng = random.Random(6)
    a, b = _far_past_the_libgmp_floor(rng)
    want = _intpoly._schoolbook(a, b, len(a) + len(b) - 1)
    assert _intpoly.convolve(a, b) == want
    assert _intpoly.convolve(b, a, 400) == want[:400]
    assert loads == ["libgmp.so.10"]
    assert muls == [_intpoly._int_mul] * 2
    assert _intpoly._libgmp_mul is None


def _extreme_operands(rng, width, length, signs):
    # a dense operand of `length` terms and a sparse one of four, each at the
    # largest magnitude that still packs on `width`-byte slots: with four
    # nonzero terms _slot_bits is bits(max a) + bits(max b) + 3 + 1.  With
    # signs=False both are non-negative, so every column sum is too.
    room = 8 * width - 4
    ma, mb = (1 << (room - room // 2)) - 1, (1 << (room // 2)) - 1
    dense = [rng.choice((-ma, ma, rng.randrange(-ma, ma + 1))) for _ in range(length)]
    # runs of one sign across the chunk edge give the largest column sums;
    # they are written only below `length`, so that the operand crosses the
    # edge only when `length` does
    edge = _intpoly._CHUNK - 3
    run = [ma, ma, ma, -ma, -ma, -ma][:max(length - edge, 0)]
    dense[edge:edge + len(run)] = run
    dense[-1] = -ma
    assert len(dense) == length
    sparse = [0] * length
    for e, x in zip((0, 1, length // 2, length - 1), (mb, -mb, -mb, mb)):
        sparse[e] = x
    if not signs:
        dense, sparse = [abs(x) for x in dense], [abs(x) for x in sparse]
    return dense, sparse


@pytest.mark.parametrize("mul", MULTIPLIERS)
@pytest.mark.parametrize("length", [_intpoly._CHUNK - 1, _intpoly._CHUNK, _intpoly._CHUNK + 1])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17])
def test_multiplier_at_the_largest_coefficients_of_each_slot_width(mul, width, length):
    # the multipliers are called at each width itself: word widths (1, 2,
    # 4, 8) go through struct, every other width slot by slot (convolve
    # would widen 3 and 5-7 to a word); operand and product lengths cross a
    # chunk edge;
    # non-negative operands are offset-encoded like signed ones
    for signs in (True, False):
        rng = random.Random(width * 7919 + length)
        dense, sparse = _extreme_operands(rng, width, length, signs)
        assert (_intpoly._slot_bits(_intpoly._scan(sparse), _intpoly._scan(dense)) + 7) // 8 == width
        for n in (2 * length - 1, length, _intpoly._CHUNK + 2):
            assert mul(sparse, dense, n) == naive(sparse, dense, n), (signs, n)


def test_slots_pack_and_read_back_at_every_width():
    # the slot bytes of a coefficient list, padded to whole words, are its
    # value at q = B, whether or not a term is negative, and a product's
    # slots read back as its coefficients: random values and the extremes
    # of a slot, across a chunk edge
    rng = random.Random(12)
    for width in range(1, 18):
        half = 1 << (8 * width - 1)
        signed = [-half, half - 1, -(half - 1), 0, -1] + [rng.randrange(-half, half) for _ in range(2 * _intpoly._CHUNK)]
        plain = [abs(x) % half for x in signed]
        for values in (signed, plain):
            c = sum(x << (8 * width * i) for i, x in enumerate(values))
            raw = _intpoly._slots(values, width)
            assert len(raw) % 8 == 0 and len(raw) - len(values) * width < 8
            assert _intpoly._signed(raw, width) == c and not raw
            for n in (len(values), _intpoly._CHUNK + 1, 3):
                window = _intpoly._window(c, width, n)
                assert _intpoly._unpack(window, width, n) == values[:n]
                # libgmp's window of values times 1 is the same
                if LIBGMP:
                    one = LIBGMP(_intpoly._slots(values, width), _intpoly._slots([1], width), width, n)
                    assert one[:n * width] == window


@pytest.mark.parametrize("width", range(9, 17))
def test_wide_slots_read_through_two_lanes(width):
    # a slot of 9-16 bytes spans two 8-byte lanes of the slot bytes, and is
    # packed and read whole, one slot at a time: random signed values, the
    # extremes of a slot and of the low lane's unsigned and signed range,
    # across a packing chunk edge, read back whole and as a short window
    rng = random.Random(width)
    half = 1 << (8 * width - 1)
    edges = [half - 1, -(half - 1), -half, 0, -1, 1 << 63, -(1 << 64)]
    chunk = _intpoly._PACK_BYTES // width
    values = edges + [rng.randrange(-half, half) for _ in range(2 * chunk + 1)]
    raw = _intpoly._slots(values, width)
    assert raw[:len(values) * width] == b"".join(x.to_bytes(width, "little", signed=True) for x in values)
    for n in (len(values), chunk, chunk + 1, 3):
        assert _intpoly._unpack(raw, width, n) == values[:n], n
    # whole products on these slots, mixed-sign and non-negative
    for signs in (True, False):
        dense, sparse = _extreme_operands(rng, width, _intpoly._CHUNK + 1, signs)
        assert (_intpoly._slot_bits(_intpoly._scan(sparse), _intpoly._scan(dense)) + 7) // 8 == width
        n = len(sparse) + len(dense) - 1
        assert _intpoly.convolve(sparse, dense) == _intpoly._schoolbook(sparse, dense, n), signs


def _largest_product(monkeypatch, build):
    """The operands and window of the convolution with the longest window
    (the first such) among those `build` runs."""
    calls = []
    convolve = _intpoly.convolve

    def record(a, b, n=None):
        calls.append((a, b, n))
        return convolve(a, b, n)

    with monkeypatch.context() as m:
        m.setattr(_intpoly, "convolve", record)
        build()
    return max(calls, key=lambda call: call[2])


def _peak_and_size(mul, a, b, n):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = mul(a, b, n)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == n
    return peak - base, size - base


def test_cohen52_product_peak_memory_stays_within_twice_its_result(monkeypatch):
    # the largest product of cohen_eisenstein(2, 40001) is one plus-space
    # class of its last theta factor: theta's even squares (101 terms) times
    # a quarter of the window, 10001 terms (libgmp without gmpy2 where it
    # loads, else int); packing and reading back may hold at most as much
    # again as the result
    theta, acc, n = _largest_product(monkeypatch, lambda: fixtures.cohen_eisenstein(2, 40001))
    assert n == 10001 and _intpoly._scan(theta)[1] == 101
    peak, size = _peak_and_size(_intpoly.convolve, theta, acc, n)
    assert peak <= 2 * size, (peak, size)


@needs_libgmp
def test_theta_e6_product_peak_memory_stays_within_twice_its_result(monkeypatch):
    # the largest product of theta(tau) E6(4 tau) on 40001 terms is one
    # residue class of theta (101 terms) times E6 on 10001 terms, on
    # 11-byte slots, which libgmp multiplies without gmpy2 (forced here so
    # that every install measures it); on int the same product peaks at
    # about 3.1 times its result, so int is not held to this bound
    a, b, n = _largest_product(monkeypatch, lambda: fixtures.plus_product(6, 40001))
    sa, sb = _intpoly._scan(a), _intpoly._scan(b)
    assert n == 10001 and min(sa[1], sb[1]) == 101
    assert (_intpoly._slot_bits(sa, sb) + 7) // 8 == 11
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    peak, size = _peak_and_size(_intpoly.convolve, a, b, n)
    assert peak <= 2 * size, (peak, size)


@needs_libgmp
def test_j_invariant_peak_memory_stays_within_four_and_a_half_times_its_size(monkeypatch):
    # j's division on 10130 terms multiplies on libgmp (forced here so that
    # every install measures it); the operands' slot bytes are emptied once
    # GMP holds them and the product goes straight into the window's bytes,
    # so the build peaks at about 3.6 times the j it keeps, where packed
    # Python ints around each product took it to about 6.2 times
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    fixtures.j_invariant(50)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        j = fixtures.j_invariant(10130)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert j.hi == 10130
    assert peak - base <= 4.5 * (size - base), (peak - base, size - base)


# (route, terms of a, terms of b, bits of their largest coefficient): word
# slots (m = 3: 2-byte, m = 20: 8-byte) and wide slots (m = 300); the int
# cases sit below libgmp's floor, the libgmp ones past it
_READ_BACK_CASES = [
    ("schoolbook", 8, 60, 20),
    ("schoolbook", 8, 60, 300),
    ("int", 100, 100, 3),
    ("int", 100, 100, 20),
    ("int", 12, 12, 300),
    pytest.param("libgmp", 700, 700, 3, marks=needs_libgmp),
    pytest.param("libgmp", 300, 300, 20, marks=needs_libgmp),
    pytest.param("libgmp", 300, 300, 300, marks=needs_libgmp),
]


@pytest.mark.parametrize("square", [False, True], ids=["product", "square"])
@pytest.mark.parametrize("route, la, lb, m", _READ_BACK_CASES)
def test_read_back_from_lo_is_the_slice_on_every_route(monkeypatch, route, la, lb, m, square):
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    rng = random.Random(la * m)
    a = _full(rng, la, m)
    b = a if square else _full(rng, lb, m)
    muls = _record_muls(monkeypatch)
    full = len(a) + len(b) - 1
    for n in (full, full // 2, 1):
        whole = _intpoly.convolve(a, b, n)
        assert whole == naive(a, b, n)
        for lo in sorted({0, 1, n - 1, n}):
            assert _intpoly.convolve(a, b, n, lo) == whole[lo:], (n, lo)
    want = {"schoolbook": None, "int": _intpoly._int_mul, "libgmp": LIBGMP}[route]
    assert set(muls) <= {want} and (want is None) == (not muls), muls


@needs_libgmp
def test_libgmp_products_from_threads_at_once(monkeypatch):
    # ctypes releases the GIL inside each GMP call, so the threads' products
    # overlap; each thread has its own mpz_t, and every answer is the one a
    # single thread gets.  Four threads on a short switch interval
    monkeypatch.setattr(_intpoly, "_HAVE_GMPY2", False)
    rng = random.Random(7)
    jobs = [(_full(rng, 300, 400), _full(rng, 200, 400), 499), (_full(rng, 300, 20), _full(rng, 300, 20), 400),
            (_full(rng, 400, 90), None, 799)]
    jobs = [(a, a if b is None else b, n) for a, b, n in jobs]
    muls = _record_muls(monkeypatch)
    want = [_intpoly.convolve(a, b, n) for a, b, n in jobs]
    assert set(muls) == {LIBGMP}
    start = threading.Barrier(4)
    done, wrong = [], []

    def work():
        start.wait()
        for _ in range(20):
            for (a, b, n), w in zip(jobs, want):
                if _intpoly.convolve(a, b, n) != w:
                    wrong.append(n)
        done.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 4 and not wrong, wrong
