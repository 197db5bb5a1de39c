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
are ever formed, and operands are trimmed to n terms first; of those,
`convolve(a, b, n, lo)` reads back slots lo .. n-1 only, for a caller
that knows the lower ones already (the Karp-Markstein step of
`qseries._karp_markstein` asks G Y0 for its upper half alone).

Every operand is offset-encoded, whatever its signs: the offset costs one
pass over each operand and one subtraction of H, linear next to the
multiply.

The binary routes meet at one seam, `_binary`: the slot bytes of each
operand (`_slots`), a multiplier mapping (operand bytes, operand bytes,
slot, n) to the bytes of the product's first n slots, and `_unpack`,
which reads those back.  Slot bytes on both sides of the seam are in two's
complement, padded with zero bytes to whole 8-byte words: on a slot, x +
B/2 and the two's complement of x differ only in the top bit.  The int
multiplier (`_int_mul`, the multiply itself by gmpy2 when it imports)
reads each operand's bytes as one int, turns it into U - H by one xor and
one subtraction of H, and writes (c mod B^n + H) mod B^n xor H back as
bytes.  The libgmp multiplier keeps the product inside GMP from end to
end: it flips each operand slot's top bit with one strided `translate`,
which gives U, imports U and H as words, subtracts, multiplies, reduces
mod B^n, adds H, reduces again, exports the window straight into its
bytes and flips their top bits back.  Both multipliers empty the operand
bytes once they have read them, so no operand is held twice.

The libgmp multiplier keeps its five mpz_t per thread (a
`threading.local`), initialised on the thread's first product and cleared
when that thread's state goes, instead of initialising and clearing them
on every product: between products they hold the limbs GMP allocated for
the largest product of that thread so far (operands, product, H and one
temporary), which the next product reuses, and no value that any later
product reads, since each writes every mpz_t before reading it.  ctypes
releases the GIL during each GMP call, so threads do not share them.

A square is a square all the way down: `convolve(a, a, n)`, with the same
list as both operands, trims, scans and packs a once, and the multiplier
gets the one slot buffer as both x and y.  Since it empties what it reads,
it reads that buffer once and then squares: v * v on int and gmpy2,
mpz_mul(zc, zx, zx) on libgmp, each of which runs as a squaring, cheaper
than a product of two operands.  `qseries.mul(f, f)` passes its one array
so, which is how the discriminant's three squarings get here.

A slot is either a machine word or whole bytes.  `convolve` gives a
product whose slot bits fit in 64 the smallest word of 1, 2, 4 or 8 bytes
that holds them, and a wider one ceil(bits / 8) bytes.  Word slots are
packed and read by `struct`, in C, one call per `_CHUNK` slots each way,
written and read in place in the slot bytes.  Any other width is packed
and read one slot at a time, through signed int.to_bytes and
int.from_bytes, at most `_PACK_BYTES` bytes per packing chunk, so apart
from the slot bytes themselves no temporary grows with the operands.

`convolve` decides everything about a product once: it trims each operand
to n terms, scans it once (`_scan`: largest magnitude, nonzero count),
and from the two scans answers an all-zero product itself and picks the
route and the slot size.  The routes only pack, multiply and read back.

Routes, in the order `convolve` tries them:
  1. schoolbook, when the shorter operand is short;
  2. libgmp, without gmpy2, once the slot bits times the shorter operand's
     length reach a floor, when the system's libgmp.so.10 loads through
     ctypes: GMP's mpz_mul on the slot bytes, as above.  Below the floor
     the fixed cost of each call through ctypes loses to int, and loading
     ctypes at all costs more than the products just past it gain.  The
     library is loaded on the first product past the floor, once per
     process, so a request that never reaches it never imports ctypes;
  3. int, without gmpy2 otherwise: Python's int, below libgmp's floor,
     and past it too where libgmp does not load;
  4. gmpy2, whenever it imports, through the int multiplier.
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
# instead of int.  Below about 5 000-5 500 on square shapes its fixed
# ctypes cost per product loses; the floor also stays above the 6 248 of
# the largest product of a command-line exact check (weight 12, prec 70),
# so that such a call never imports ctypes, whose load alone outweighs
# what products just past the crossover gain
_LIBGMP_BITS = 8_000
# word slots per struct call while packing and unpacking, to bound the
# temporary lists and tuples
_CHUNK = 4096
# slots that are not words are packed at most this many bytes at a time
# (at 4096 slots, the slots of up to 323 bytes of j's division on 10130
# terms would make more than 2 MB of temporary bytes per chunk)
_PACK_BYTES = 1 << 16
# struct format of a signed machine word of each width; with "<" it is
# little-endian two's complement on every host
_WORD = {1: "b", 2: "h", 4: "i", 8: "q"}
# byte b -> b with its top bit flipped
_FLIP = bytes(b ^ 0x80 for b in range(256))


def _schoolbook(a: list, b: list, n: int, lo: int = 0) -> list:
    """Coefficients lo .. n-1 of a*b, term by term."""
    out = [0] * (n - lo)
    for i, x in enumerate(a[:n]):
        if x:
            skip = max(lo - i, 0)
            for j, y in enumerate(b[skip:n - i], i + skip - lo):
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


def _halves(slot: int, k: int) -> bytes:
    """H = sum of B/2 * B^i over i < k, B = 2^(8 slot): B/2 in each of k
    binary slots, as little-endian bytes."""
    return (bytes(slot - 1) + b"\x80") * k


def _slots(a: list, slot: int) -> bytearray:
    """a on binary slots of `slot` bytes, each coefficient in two's
    complement, zero-padded to whole 8-byte words: the slots of the padding
    are zero coefficients."""
    buf = bytearray(-(-len(a) * slot // 8) * 8)
    word = _WORD.get(slot)
    if word:
        for start in range(0, len(a), _CHUNK):
            part = a[start:start + _CHUNK]
            struct.pack_into("<%d%s" % (len(part), word), buf, start * slot, *part)
    else:
        chunk = min(_CHUNK, max(1, _PACK_BYTES // slot))
        for start in range(0, len(a), chunk):
            part = a[start:start + chunk]
            buf[start * slot:(start + len(part)) * slot] = b"".join(
                [x.to_bytes(slot, "little", signed=True) for x in part])
    return buf


def _flip(raw: bytearray, slot: int, k: int) -> None:
    """Flip the top bit of each of the first k slots of raw, in place: on a
    slot, x + B/2 and the two's complement of x differ only there."""
    top = raw[slot - 1:k * slot:slot]
    raw[slot - 1:k * slot:slot] = top.translate(_FLIP)


def _signed(raw: bytearray, slot: int) -> int:
    """The signed int of the two's complement slots raw: U - H for the
    offset slots U, which are raw xor H.  raw is emptied once read."""
    p = int.from_bytes(raw, "little")
    h = int.from_bytes(_halves(slot, len(raw) // slot), "little")
    raw.clear()
    return (p ^ h) - h


def _window(c: int, slot: int, n: int) -> bytes:
    """The first n slots of the packed product c, as bytes: (c + H) mod B^n
    holds c_i + B/2 in slot i, with no borrow between slots, which one xor
    with H turns into the two's complement of c_i, the form read back."""
    window = (1 << 8 * slot * n) - 1
    c &= window
    h = int.from_bytes(_halves(slot, n), "little")
    c = ((c + h) & window) ^ h
    return c.to_bytes(n * slot, "little")


def _unpack(raw: bytes, slot: int, n: int, lo: int = 0) -> list:
    """The coefficients in the two's complement slots lo .. n-1 of raw."""
    word = _WORD.get(slot)
    if not word:
        # the method read once, not once per slot
        from_bytes = int.from_bytes
        return [from_bytes(raw[i:i + slot], "little", signed=True) for i in range(lo * slot, n * slot, slot)]
    out = [0] * (n - lo)
    for start in range(lo, n, _CHUNK):
        k = min(_CHUNK, n - start)
        out[start - lo:start - lo + k] = struct.unpack_from("<%d%s" % (k, word), raw, start * slot)
    return out


def _int_mul(x: bytearray, y: bytearray, slot: int, n: int) -> bytes:
    """The first n slots of the product of the slot bytes x and y, by int
    arithmetic, the multiply itself by gmpy2 when it imports.  A square (x
    is y) reads its one buffer once and multiplies the int by itself, which
    both int and gmpy2 run as a squaring."""
    v = _mpz(_signed(x, slot))
    c = int(v * v if y is x else v * _mpz(_signed(y, slot)))
    return _window(c, slot, n)


def _binary(a: list, b: list, n: int, slot: int, mul=_int_mul, lo: int = 0) -> list:
    """Coefficients lo .. n-1 of a*b through binary slots of `slot` bytes:
    the slot bytes of each operand, mul(x, y, slot, n) giving the slot
    bytes of the product's first n coefficients (and emptying x and y once
    it has read them), and slots lo .. n-1 of those read back.  A square (b
    is a) is packed once, and the multiplier gets the one buffer as both x
    and y."""
    x = _slots(a, slot)
    return _unpack(mul(x, x if b is a else _slots(b, slot), slot, n), slot, n, lo)


def _load_libgmp():
    """A multiplier for `_binary` that keeps the product inside GMP, called
    through ctypes, or None when libgmp.so.10 does not load.

    The soname is loaded directly: ctypes.util.find_library would start
    ldconfig or a compiler to look for it."""
    import ctypes
    import threading

    try:
        lib = ctypes.CDLL("libgmp.so.10")
    except OSError:
        return None

    class Mpz(ctypes.Structure):  # mpz_t: limbs allocated, signed size, limbs
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]

    mpz, size_t, c_int, void_p = ctypes.POINTER(Mpz), ctypes.c_size_t, ctypes.c_int, ctypes.c_void_p
    init, clear, import_, export, add, sub, mul_, fdiv_r_2exp = (
        getattr(lib, "__gmpz_" + name)
        for name in ("init", "clear", "import", "export", "add", "sub", "mul", "fdiv_r_2exp"))
    for fn, argtypes, restype in (
        (init, [mpz], None),
        (clear, [mpz], None),
        (import_, [mpz, size_t, c_int, size_t, c_int, size_t, void_p], None),
        (export, [void_p, ctypes.POINTER(size_t), c_int, size_t, c_int, size_t, mpz], void_p),
        (add, [mpz, mpz, mpz], None),
        (sub, [mpz, mpz, mpz], None),
        (mul_, [mpz, mpz, mpz], None),
        (fdiv_r_2exp, [mpz, mpz, ctypes.c_ulong], None),
    ):
        fn.argtypes, fn.restype = argtypes, restype

    # mpz_import and mpz_export move 8-byte little-endian words, least
    # significant first, which on a little-endian host with word-aligned
    # buffers is one copy of the words.  A bytearray is passed by reference
    # to its first byte: an array type of its length would be a new ctypes
    # type, cached for the life of the process, for every length
    def load(z, raw: bytes) -> None:
        words = len(raw) // 8
        if isinstance(raw, bytearray):
            raw = ctypes.byref(ctypes.c_char.from_buffer(raw))
        import_(z, words, -1, 8, -1, 0, raw)

    class State:
        """Five mpz_t of one thread, initialised once and cleared when the
        thread's state goes, so repeated products reuse their limbs.  They
        hold allocations only: every product writes each before reading
        it."""

        def __init__(self):
            self.zs = (Mpz * 5)()
            for z in self.zs:
                init(z)

        def __del__(self):
            for z in self.zs:
                clear(z)

    # ctypes releases the GIL during each GMP call, so two threads must
    # not share the mpz_t
    local = threading.local()

    def mul(x: bytearray, y: bytearray, slot: int, n: int) -> bytearray:
        # with U the offset slots of an operand (its slot bytes with each
        # top bit flipped) and H B/2 in every slot, the operand is U - H;
        # the product c leaves as (c mod B^n + H) mod B^n, its top bits
        # flipped back
        # a square (y is x) loads its one buffer once and multiplies zx by
        # itself, which mpz_mul runs as a squaring
        kx, ky = len(x) // slot, len(y) // slot
        operands = ((x, kx),) if y is x else ((x, kx), (y, ky))
        state = getattr(local, "state", None)
        if state is None:
            state = local.state = State()
        zx, zy, zc, zh, zt = state.zs
        for z, (raw, k) in zip((zx, zy), operands):
            _flip(raw, slot, k)
            load(z, raw)
            raw.clear()
        # H on as many slots as the longest of x, y and the window,
        # rounded up to a multiple of 8, which fills whole words; H on
        # k slots is its remainder mod B^k
        load(zh, _halves(slot, -(-max(kx, ky, n) // 8) * 8))
        for z, (_, k) in zip((zx, zy), operands):
            fdiv_r_2exp(zt, zh, 8 * slot * k)
            sub(z, z, zt)
        mul_(zc, zx, zx if y is x else zy)
        bits = 8 * slot * n
        fdiv_r_2exp(zc, zc, bits)
        fdiv_r_2exp(zt, zh, bits)
        add(zc, zc, zt)
        fdiv_r_2exp(zc, zc, bits)
        out = bytearray(-(-n * slot // 8) * 8)
        export(ctypes.byref(ctypes.c_char.from_buffer(out)), ctypes.byref(size_t()), -1, 8, -1, 0, zc)
        _flip(out, slot, n)
        return out

    return mul


# _load_libgmp's answer, asked for on the first product past _LIBGMP_BITS
# and then kept for the process; _UNTRIED before that
_UNTRIED = object()
_libgmp_mul = _UNTRIED


def _libgmp():
    """The libgmp multiplier of `_load_libgmp`, or None; loaded once."""
    global _libgmp_mul
    if _libgmp_mul is _UNTRIED:
        _libgmp_mul = _load_libgmp()
    return _libgmp_mul


def convolve(a: list, b: list, n: int | None = None, lo: int = 0) -> list:
    """Convolution of two integer coefficient lists, any signs: the
    coefficients lo .. n-1 of the product (n = len(a) + len(b) - 1, all of
    them, when None), as a list of n - lo, or none when lo >= n.  The
    product is formed below n as always; only slots lo .. n-1 are read
    back."""
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    n = full if n is None else max(0, min(n, full))
    lo = min(lo, n)
    # a square (b is a) is trimmed, scanned and packed once
    square = b is a
    a = _trim(a, n)
    b = a if square else _trim(b, n)
    short = min(len(a), len(b))
    if short <= _SCHOOLBOOK_TERMS:
        return _schoolbook(a, b, n, lo)
    sa = _scan(a)
    sb = sa if square else _scan(b)
    bits = _slot_bits(sa, sb)
    if not bits:
        return [0] * (n - lo)
    slot = (bits + 7) // 8
    if slot < 8:
        # the smallest machine word that holds the slot bits
        slot = 1 << (slot - 1).bit_length()
    if not _HAVE_GMPY2 and bits * short >= _LIBGMP_BITS:
        mul = _libgmp()
        if mul:
            return _binary(a, b, n, slot, mul, lo)
    return _binary(a, b, n, slot, _int_mul, lo)
