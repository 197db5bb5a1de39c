"""Dense integer polynomial multiplication by Kronecker substitution.

A signed coefficient list is packed into one big integer, its positive part
minus its negative part, in fixed-width slots wide enough that no column sum
reaches half a slot.  One big multiply gives the product; its slots are read
back as balanced digits, a borrow carrying into the next slot wherever a
column sum is negative.  Only the first n slots are ever read, and operands
are trimmed to n terms first.

Routes, in the order `convolve` tries them:
  1. schoolbook, when the shorter operand is short;
  2. shift-add, without gmpy2, when one operand is sparse (few nonzero
     terms, each weighted by the size of the largest, spread thin): the
     denser operand is packed once and a shifted multiple of it is added
     for each nonzero term of the sparser one, so no big multiply runs;
  3. decimal, without gmpy2, once the shorter packed operand is large: the
     decimal module (whose libmpdec multiplies large numbers by a
     number-theoretic transform) on decimal-digit slots;
  4. int, without gmpy2 otherwise: Python's int on binary slots;
  5. gmpy2, whenever it imports, on binary slots.
Every route gives the same coefficients.
"""

from __future__ import annotations

import decimal
import sys

__all__ = ["convolve"]

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # gmpy2 is optional (the "fast" extra)
    def _mpz(x):
        return x

_HAVE_GMPY2 = _mpz.__module__ != __name__

# shorter operand at most this long: schoolbook
_SCHOOLBOOK_TERMS = 10
# sparser operand has at most this many nonzero terms, each counted once
# per 128 bits of its largest coefficient: shift-add ...
_SHIFT_ADD_TERMS = 256
# ... if they also fill at most one slot in this many of it
_SHIFT_ADD_SPREAD = 4
# shorter operand packs to at least this many bits: decimal instead of int
_DECIMAL_BITS = 150_000
# coefficients per chunk while packing, to bound the temporary strings
_CHUNK = 4096

# exact integer arithmetic: any rounding raises instead of losing digits
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)
# int <-> str conversions refuse numbers this long (0: no limit); the
# decimal route converts every slot
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _schoolbook(a: list, b: list, n: int) -> list:
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                out[j] += x * y
    return out


def _slot_bits(a: list, b: list) -> int:
    """Bits per slot that hold every column sum below half a slot, or 0 if
    a product of these operands is zero."""
    if not a or not b:
        return 0
    ma = max(max(a), -min(a))
    mb = max(max(b), -min(b))
    if not ma or not mb:
        return 0
    terms = min(len(a) - a.count(0), len(b) - b.count(0))
    return ma.bit_length() + mb.bit_length() + terms.bit_length() + 1


def _balance(out: list, base: int, negative: bool) -> None:
    """Turn the unsigned base-`base` digits of |c| into the signed
    coefficients of c, in place; the carry out of the last slot is dropped."""
    half = base >> 1
    carry = 0
    for i, d in enumerate(out):
        d += carry
        if d >= half:
            out[i] = d - base
            carry = 1
        else:
            out[i] = d
            carry = 0
    if negative:
        for i, d in enumerate(out):
            out[i] = -d


def _pack_bytes(a: list, slot: int, sign: int) -> int:
    zero = bytes(slot)
    buf = bytearray(len(a) * slot)
    for start in range(0, len(a), _CHUNK):
        part = a[start:start + _CHUNK]
        if sign > 0:
            chunk = b"".join([x.to_bytes(slot, "little") if x > 0 else zero for x in part])
        else:
            chunk = b"".join([(-x).to_bytes(slot, "little") if x < 0 else zero for x in part])
        buf[start * slot:start * slot + len(chunk)] = chunk
    return int.from_bytes(buf, "little")


def _pack(a: list, slot: int) -> int:
    """a on binary slots of `slot` bytes, as one signed int."""
    p = _pack_bytes(a, slot, 1)
    if min(a) < 0:
        p -= _pack_bytes(a, slot, -1)
    return p


def _unpack(raw: bytes, slot: int, n: int) -> list:
    """The first n slots of a little-endian byte string, as unsigned digits."""
    raw = memoryview(raw)
    return [int.from_bytes(raw[i:i + slot], "little") for i in range(0, n * slot, slot)]


def _binary(a: list, b: list, n: int, big=_mpz) -> list:
    """First n coefficients of a*b through binary slots, the big multiply
    done on big(.) of the packed operands (int or gmpy2.mpz)."""
    a, b = a[:n], b[:n]
    bits = _slot_bits(a, b)
    if not bits:
        return [0] * n
    slot = (bits + 7) // 8
    c = int(big(_pack(a, slot)) * big(_pack(b, slot)))
    negative = c < 0
    if negative:
        c = -c
    raw = c.to_bytes((c.bit_length() + 7) // 8, "little")
    del c
    out = _unpack(raw, slot, n)
    if min(a) < 0 or min(b) < 0:
        _balance(out, 1 << (8 * slot), negative)
    return out


def _nonzero(a: list) -> int:
    return len(a) - a.count(0)


def _shift_add(a: list, b: list, n: int) -> list:
    """First n coefficients of a*b without a big multiply: the denser
    operand B packed on binary slots of width w, and x * (B mod
    2^((n-e) w)) << e w summed over the nonzero terms x q^e of the sparser
    one.  The sum is the packed product mod 2^(n w), so its n slots read
    back as balanced digits."""
    a, b = a[:n], b[:n]
    bits = _slot_bits(a, b)
    if not bits:
        return [0] * n
    if _nonzero(a) > _nonzero(b):
        a, b = b, a
    slot = (bits + 7) // 8
    w = 8 * slot
    packed = _pack(b, slot)
    window = (1 << n * w) - 1
    total = 0
    for e, x in enumerate(a):
        if x:
            total += x * (packed & (window >> e * w)) << e * w
    raw = (total & window).to_bytes(n * slot, "little")
    del total
    out = _unpack(raw, slot, n)
    if min(a) < 0 or min(b) < 0:
        _balance(out, 1 << w, False)
    return out


def _shift_add_pays(a: list, b: list) -> bool:
    """Whether one operand is sparse enough for `_shift_add` to beat a big
    multiply (measured crossover without gmpy2)."""
    ka, kb = _nonzero(a), _nonzero(b)
    sparse, k = (a, ka) if ka <= kb else (b, kb)
    if k:
        k *= 1 + max(max(sparse), -min(sparse)).bit_length() // 128
    return k <= _SHIFT_ADD_TERMS and k * _SHIFT_ADD_SPREAD <= len(sparse)


def _pack_digits(a: list, digits: int, sign: int) -> decimal.Decimal:
    zero = "0" * digits
    fmt = "%0" + str(digits) + "d"
    chunks = []
    for end in range(len(a), 0, -_CHUNK):
        part = a[max(0, end - _CHUNK):end]
        part.reverse()
        if sign > 0:
            chunks.append("".join([fmt % x if x > 0 else zero for x in part]))
        else:
            chunks.append("".join([fmt % -x if x < 0 else zero for x in part]))
    return decimal.Decimal("".join(chunks))


def _decimal_slot_digits(bits: int) -> int:
    """Decimal digits D with 10**D >= 2**bits."""
    digits = (bits * 30103) // 100000 + 1
    while 10**digits < 1 << bits:
        digits += 1
    return digits


def _decimal(a: list, b: list, n: int) -> list:
    """First n coefficients of a*b through decimal-digit slots, multiplied
    as exact Decimals (libmpdec switches to a number-theoretic transform
    for large operands)."""
    a, b = a[:n], b[:n]
    bits = _slot_bits(a, b)
    if not bits:
        return [0] * n
    digits = _decimal_slot_digits(bits)
    packed = []
    for x in (a, b):
        p = _pack_digits(x, digits, 1)
        if min(x) < 0:
            p = _EXACT.subtract(p, _pack_digits(x, digits, -1))
        packed.append(p)
    c = _EXACT.multiply(packed[0], packed[1])
    del packed
    # c mod 10^(n D) >= 0: its n slots read back as balanced digits, and
    # only they are formatted
    width = n * digits
    high = _EXACT.scaleb(c, -width).to_integral_value(rounding=decimal.ROUND_FLOOR, context=_EXACT)
    c = _EXACT.subtract(c, _EXACT.scaleb(high, width))
    del high
    s = _EXACT.to_sci_string(c)
    del c
    top = len(s)
    out = [int(s[max(0, end - digits):end]) for end in range(top, max(0, top - width), -digits)]
    del s
    out.extend([0] * (n - len(out)))
    if min(a) < 0 or min(b) < 0:
        _balance(out, 10**digits, False)
    return out


def convolve(a: list, b: list, n: int | None = None) -> list:
    """Convolution of two integer coefficient lists, any signs: the first n
    coefficients of the product (all len(a) + len(b) - 1 when n is None)."""
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    n = full if n is None else max(0, min(n, full))
    if len(a) > n:
        a = a[:n]
    if len(b) > n:
        b = b[:n]
    short = min(len(a), len(b))
    if short <= _SCHOOLBOOK_TERMS:
        return _schoolbook(a, b, n)
    if not _HAVE_GMPY2:
        if _shift_add_pays(a, b):
            return _shift_add(a, b, n)
        bits = _slot_bits(a, b)
        limit = _int_max_str_digits()
        if bits * short >= _DECIMAL_BITS and (not limit or _decimal_slot_digits(bits) < limit):
            return _decimal(a, b, n)
    return _binary(a, b, n)
