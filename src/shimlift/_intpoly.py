"""Dense integer polynomial multiplication by Kronecker substitution.

A signed coefficient list is packed into one big integer, its positive part
minus its negative part, in fixed-width slots wide enough that no column sum
reaches half a slot.  One big multiply gives the product; its slots are read
back as balanced digits, a borrow carrying into the next slot wherever a
column sum is negative.  Only the first n slots are ever read, and operands
are trimmed to n terms first.

The big multiply is gmpy2 when it imports, else the decimal module (whose
libmpdec multiplies large numbers by a number-theoretic transform) on
decimal-digit slots once the shorter packed operand is large, else Python's
int on binary slots; short operands are multiplied by schoolbook.  Every route
gives the same coefficients.
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


def _binary(a: list, b: list, n: int, big=_mpz) -> list:
    """First n coefficients of a*b through binary slots, the big multiply
    done on big(.) of the packed operands (int or gmpy2.mpz)."""
    a, b = a[:n], b[:n]
    bits = _slot_bits(a, b)
    if not bits:
        return [0] * n
    slot = (bits + 7) // 8
    packed = []
    for x in (a, b):
        p = _pack_bytes(x, slot, 1)
        if min(x) < 0:
            p -= _pack_bytes(x, slot, -1)
        packed.append(big(p))
    c = int(packed[0] * packed[1])
    del packed
    negative = c < 0
    if negative:
        c = -c
    raw = memoryview(c.to_bytes((c.bit_length() + 7) // 8, "little"))
    del c
    out = [int.from_bytes(raw[i:i + slot], "little") for i in range(0, n * slot, slot)]
    if min(a) < 0 or min(b) < 0:
        _balance(out, 1 << (8 * slot), negative)
    return out


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
    negative = c.is_signed()
    s = _EXACT.to_sci_string(c.copy_abs())
    del c
    top = len(s)
    out = [int(s[max(0, end - digits):end]) for end in range(top, max(0, top - n * digits), -digits)]
    del s
    out.extend([0] * (n - len(out)))
    if min(a) < 0 or min(b) < 0:
        _balance(out, 10**digits, negative)
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
        bits = _slot_bits(a, b)
        limit = _int_max_str_digits()
        if bits * short >= _DECIMAL_BITS and (not limit or _decimal_slot_digits(bits) < limit):
            return _decimal(a, b, n)
    return _binary(a, b, n)
