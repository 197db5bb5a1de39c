"""Dense integer polynomial multiplication by Kronecker substitution.

A coefficient list is packed into one big integer in fixed-width binary
slots of w bytes, of base B = 2^(8 w), wide enough that every coefficient
and every column sum of the product stays below B/2 in magnitude.  Slots
are offset-encoded: slot i holds x_i + B/2, which lies in [0, B), so the
slots of a signed operand are independent unsigned digits U, and the
operand is U - H, where H has B/2 in every slot.  One big multiply gives
the signed product c, and the first n slots of (c mod B^n + H) mod B^n are
exactly c_i + B/2, again each in [0, B): no slot borrows from the next,
and a slot reads back by subtracting B/2 alone.  Only the first n slots
are ever read, and operands are trimmed to n terms first.

Every operand is offset-encoded, whatever its signs: the offset costs one
xor and one subtraction of H per operand, linear next to the multiply.

Every slot is written and read in two's complement: on a slot, x + B/2
and the two's complement of x differ only in the top bit, so one xor with
H turns the whole packed number from one form into the other.  Slots of
up to 8 bytes are packed and read by `struct`, in C, one call per
`_CHUNK` slots each way, in a lane, the narrowest machine word that holds
the slot.  A slot of 1, 2, 4 or 8 bytes is its own lane; one of 3 or 5-7
bytes is cut down from its 4- or 8-byte lane by one strided byte copy per
slot byte, and widened back by the same copies into lanes whose upper
bytes repeat the slot's sign bit (a 256-byte translate table gives them
from the slot's top byte).  A slot of 9-16 bytes is read through two
8-byte lanes, an unsigned one of its low 8 bytes and a signed one of the
rest, widened the same way, as low + (high << 64); it is packed one slot
at a time through signed int.to_bytes, as are wider slots, which are also
read one at a time through int.from_bytes.  The lists, tuples and lanes
of every path are built `_CHUNK` coefficients at a time (`_WIDE_CHUNK`
for the two-lane read), so apart from the packed bytes themselves no
temporary grows with the operands.

`convolve` decides everything about a product once: it trims each operand
to n terms, scans it once (`_scan`: largest magnitude, nonzero count),
and from the two scans answers an all-zero product itself and picks the
route and the slot size.  The routes only pack, multiply and read back.

Routes, in the order `convolve` tries them:
  1. schoolbook, when the shorter operand is short;
  2. libgmp, without gmpy2, once the slot bits times the shorter operand's
     length reach a floor, when the system's libgmp.so.10 loads through
     ctypes: GMP's mpz_mul, the operands and product passed as
     little-endian words.  Below the floor the fixed cost of each call
     through ctypes loses to int.  The library is loaded on the first
     product past the floor, once per process, so a request that never
     reaches it never imports ctypes;
  3. int, without gmpy2 otherwise: Python's int, below libgmp's floor,
     and past it too where libgmp does not load;
  4. gmpy2, whenever it imports.
Every route gives the same coefficients.
"""

from __future__ import annotations

import struct

__all__ = ["convolve"]

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # gmpy2 is optional (the "fast" extra)
    def _mpz(x):
        return x

_HAVE_GMPY2 = _mpz.__module__ != __name__

# shorter operand at most this long: schoolbook
_SCHOOLBOOK_TERMS = 10
# slot bits times the shorter operand's length at least this: libgmp
# instead of int (below it, its fixed ctypes cost per product loses)
_LIBGMP_BITS = 8_000
# coefficients per chunk while packing and unpacking, to bound the
# temporary lists and tuples; slots of 9-16 bytes are read in smaller
# chunks, as each chunk holds two lanes and a list of wide ints at once
# (at 4096 slots the largest theta E6(4 tau) product of 40001 terms would
# peak at more than twice its result)
_CHUNK = 4096
_WIDE_CHUNK = 1024
# struct format of a signed machine word of each width; with "<" it is
# little-endian two's complement on every host
_WORD = {1: "b", 2: "h", 4: "i", 8: "q"}
# the narrowest machine word (lane) that holds a slot of each width
_LANE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}
# byte b -> 0xFF if its top bit is set, else 0: the bytes that sign-extend
# a two's complement slot whose top byte is b
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _schoolbook(a: list, b: list, n: int) -> list:
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                out[j] += x * y
    return out


def _trim(a: list, n: int) -> list:
    """The first n terms of a, copied only when a is longer."""
    return a[:n] if len(a) > n else a


def _scan(a: list) -> tuple[int, int]:
    """(largest magnitude, nonzero terms) of a: everything `convolve` reads
    of an operand besides its terms."""
    if not a:
        return 0, 0
    return max(max(a), -min(a)), len(a) - a.count(0)


def _slot_bits(sa: tuple, sb: tuple) -> int:
    """Bits per slot that hold every column sum below half a slot, or 0 if
    a product of operands with these scans is zero."""
    (ma, ka), (mb, kb) = sa, sb
    if not ma or not mb:
        return 0
    return ma.bit_length() + mb.bit_length() + min(ka, kb).bit_length() + 1


def _halves(slot: int, n: int) -> int:
    """H = sum of B/2 * B^i over i < n, B = 2^(8 slot): B/2 in each of n
    binary slots."""
    return int.from_bytes((bytes(slot - 1) + b"\x80") * n, "little")


def _pack(a: list, slot: int) -> int:
    """a on binary slots of `slot` bytes, as one signed int: U - H for the
    offset slots U, which are the two's complement slots of a xor H."""
    lane = _LANE.get(slot)
    buf = bytearray(len(a) * slot)
    for start in range(0, len(a), _CHUNK):
        part = a[start:start + _CHUNK]
        base, end = start * slot, (start + len(part)) * slot
        if lane:
            # two's complement lanes cut down to their low `slot` bytes
            wide = struct.pack("<%d%s" % (len(part), _WORD[lane]), *part)
            if lane == slot:
                buf[base:end] = wide
            else:
                for j in range(slot):
                    buf[base + j:end:slot] = wide[j::lane]
        else:
            buf[base:end] = b"".join([x.to_bytes(slot, "little", signed=True) for x in part])
    p = int.from_bytes(buf, "little")
    del buf
    h = _halves(slot, len(a))
    return (p ^ h) - h


def _window(c: int, slot: int, n: int) -> bytes:
    """The first n slots of the packed product c, as bytes: (c + H) mod B^n
    holds c_i + B/2 in slot i, with no borrow between slots, which one xor
    with H turns into the two's complement of c_i, the form read back."""
    window = (1 << 8 * slot * n) - 1
    c &= window
    h = _halves(slot, n)
    c = ((c + h) & window) ^ h
    return c.to_bytes(n * slot, "little")


def _widen(part: bytes, slot: int, first: int, lane: int) -> bytearray:
    """Bytes first, first + 1, ... of each `slot`-byte slot of part, as many
    as a lane of `lane` bytes holds, each slot's in its own lane; lane bytes
    past the slot's last byte repeat the slot's sign bit."""
    k = len(part) // slot
    wide = bytearray(k * lane)
    top = min(slot - first, lane)
    for j in range(top):
        wide[j::lane] = part[first + j::slot]
    if top < lane:
        fill = part[slot - 1::slot].translate(_SIGN_FILL)
        for j in range(top, lane):
            wide[j::lane] = fill
    return wide


def _unpack(raw: bytes, slot: int, n: int) -> list:
    """The n coefficients in the slots `_window` wrote."""
    if slot > 16:
        return [int.from_bytes(raw[i:i + slot], "little", signed=True) for i in range(0, n * slot, slot)]
    out = [0] * n
    chunk = _CHUNK if slot <= 8 else _WIDE_CHUNK
    for start in range(0, n, chunk):
        k = min(chunk, n - start)
        part = raw[start * slot:(start + k) * slot]
        if slot > 8:
            # an unsigned low lane of the first 8 bytes and a signed high
            # lane of the rest
            low = struct.unpack("<%dQ" % k, _widen(part, slot, 0, 8))
            high = struct.unpack("<%dq" % k, _widen(part, slot, 8, 8))
            out[start:start + k] = [x + (y << 64) for x, y in zip(low, high)]
        else:
            lane = _LANE[slot]
            if lane > slot:
                part = _widen(part, slot, 0, lane)
            out[start:start + k] = struct.unpack("<%d%s" % (k, _WORD[lane]), part)
    return out


def _big_mul(x: int, y: int) -> int:
    """x * y as an int, multiplied by gmpy2 when it imports."""
    return int(_mpz(x) * _mpz(y))


def _binary(a: list, b: list, n: int, slot: int, mul=_big_mul) -> list:
    """First n coefficients of a*b through binary slots of `slot` bytes, the
    packed operands multiplied by mul(x, y), a function giving their
    product as an int."""
    raw = _window(mul(_pack(a, slot), _pack(b, slot)), slot, n)
    return _unpack(raw, slot, n)


def _load_libgmp():
    """A function giving the int product of two ints by GMP's mpz_mul,
    called through ctypes, or None when libgmp.so.10 does not load.

    The soname is loaded directly: ctypes.util.find_library would start
    ldconfig or a compiler to look for it."""
    import ctypes

    try:
        lib = ctypes.CDLL("libgmp.so.10")
    except OSError:
        return None

    class Mpz(ctypes.Structure):  # mpz_t: limbs allocated, signed size, limbs
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]

    mpz, size_t, c_int = ctypes.POINTER(Mpz), ctypes.c_size_t, ctypes.c_int
    init, import_, mul_, neg, fdiv_r_2exp, sizeinbase, export, clear = (
        getattr(lib, "__gmpz_" + name)
        for name in ("init", "import", "mul", "neg", "fdiv_r_2exp", "sizeinbase", "export", "clear"))
    for fn, argtypes, restype in (
        (init, [mpz], None),
        (import_, [mpz, size_t, c_int, size_t, c_int, size_t, ctypes.c_void_p], None),
        (mul_, [mpz, mpz, mpz], None),
        (neg, [mpz, mpz], None),
        (fdiv_r_2exp, [mpz, mpz, ctypes.c_ulong], None),
        (sizeinbase, [mpz, c_int], size_t),
        (export, [ctypes.c_void_p, ctypes.POINTER(size_t), c_int, size_t, c_int, size_t, mpz], ctypes.c_void_p),
        (clear, [mpz], None),
    ):
        fn.argtypes, fn.restype = argtypes, restype

    def mul(x: int, y: int) -> int:
        # mpz_import and mpz_export carry magnitudes, here as 8-byte
        # little-endian words, least significant first; a negative product
        # -m goes out as its two's complement 2^(64 w) - m on one word more
        # than m needs, which int.from_bytes reads back signed
        negative = bool(x and y) and (x < 0) != (y < 0)
        zs = (Mpz * 3)()
        for z in zs:
            init(z)
        try:
            for z, v in zip(zs, (x, y)):
                v = abs(v)
                words = (v.bit_length() + 63) // 64
                raw = v.to_bytes(8 * words, "little")
                del v
                import_(z, words, -1, 8, -1, 0, raw)
                del raw
            mul_(zs[2], zs[0], zs[1])
            # the operands' limbs are freed before the product is copied out
            for z in zs[:2]:
                clear(z)
                init(z)
            words = (sizeinbase(zs[2], 2) + 63) // 64 + negative
            if negative:
                neg(zs[2], zs[2])
                fdiv_r_2exp(zs[2], zs[2], 64 * words)
            buf = ctypes.create_string_buffer(8 * words)
            count = size_t()
            export(buf, ctypes.byref(count), -1, 8, -1, 0, zs[2])
        finally:
            for z in zs:
                clear(z)
        # one copy of the product's words, made before the buffer is freed:
        # int.from_bytes would copy any buffer that is not bytes
        raw = ctypes.string_at(buf, 8 * count.value)
        del buf
        return int.from_bytes(raw, "little", signed=negative)

    return mul


# _load_libgmp's answer, asked for on the first product past _LIBGMP_BITS
# and then kept for the process; _UNTRIED before that
_UNTRIED = object()
_libgmp_mul = _UNTRIED


def _libgmp():
    """The libgmp multiply of `_load_libgmp`, or None; loaded once."""
    global _libgmp_mul
    if _libgmp_mul is _UNTRIED:
        _libgmp_mul = _load_libgmp()
    return _libgmp_mul


def convolve(a: list, b: list, n: int | None = None) -> list:
    """Convolution of two integer coefficient lists, any signs: the first n
    coefficients of the product (all len(a) + len(b) - 1 when n is None)."""
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    n = full if n is None else max(0, min(n, full))
    a, b = _trim(a, n), _trim(b, n)
    short = min(len(a), len(b))
    if short <= _SCHOOLBOOK_TERMS:
        return _schoolbook(a, b, n)
    sa, sb = _scan(a), _scan(b)
    bits = _slot_bits(sa, sb)
    if not bits:
        return [0] * n
    slot = (bits + 7) // 8
    if not _HAVE_GMPY2 and bits * short >= _LIBGMP_BITS:
        mul = _libgmp()
        if mul:
            return _binary(a, b, n, slot, mul)
    return _binary(a, b, n, slot)
