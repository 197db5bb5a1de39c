"""Exact q-expansions with explicit knowledge windows.

A QExp stores finitely many coefficients of a Laurent-type expansion
sum c_a q^(a/w) together with a window [lo, hi) in numerator units.  The
window carries two claims:

* hard support bound: every exponent numerator, known or not, is >= lo,
  and all exponents lie on the lattice (1/w) Z;
* completeness: for lo <= a < hi the coefficient of q^(a/w) is exactly the
  stored value (absent means zero).  Nothing is claimed at or above hi.

Every operation derives the largest window the input windows justify, so a
coefficient read inside a window is a theorem, not a hope.  Reading at or
above hi raises PrecisionError.

Lattice reductions (dividing w) are performed only when the constructing
operation guarantees the coarser lattice globally, e.g. after rescaling by
t with t | w, or for the residue-0 piece of a mod-4 decomposition.  The
public normalized() method reduces by the gcd of the stored numerators and
is for callers who know the true lattice of the series they hold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Mapping

from . import _intpoly
from .arith import cdiv
from .errors import PrecisionError, SchemaError
from .scalars import CycScalar, Scalar, as_exact, rational_parts, scalar_from_json, scalar_to_json

__all__ = [
    "QExp",
    "add",
    "decompose_mod4",
    "filter_residues",
    "invert_unit",
    "mul",
    "qexp_from_json",
    "qexp_to_json",
    "rescale",
    "scale",
    "u_op",
]


class QExp:
    """A windowed q-expansion, stored in one of two forms.

    Rational form, whenever every coefficient is rational: a table
    {exponent numerator: int} of nonzero integer numerators over one
    positive coefficient denominator `cden`, kept canonical (the gcd of
    `cden` and all numerators is 1), as in FLINT's fmpq_poly.  `cden` is
    unrelated to `denom`, which fixes the exponent lattice (1/denom) Z.

    Scalar form, when some coefficient is cyclotomic, or when the rational
    coefficients share no common denominator of moderate size (see
    `_common_denominator`): a table {exponent numerator: Scalar} of nonzero
    canonical scalars, and `cden` is None.

    Ring operations, lattice changes, filters, `==` and the JSON reader
    and writer work on the table directly.  A Fraction is built only when a
    caller reads a coefficient: `coeff()`, `coeff_exponent()`, and
    `.coeffs`, a read-only {exponent: Scalar} view built on first access
    and cached.  `exponents()` reads the support without building it.
    """

    __slots__ = ("weight", "denom", "lo", "hi", "metadata", "_table", "cden", "_view")

    def __init__(self, weight, denom: int, coeffs: Mapping[int, object], lo: int, hi: int, metadata: dict | None = None):
        if denom < 1:
            raise ValueError("exponent denominator must be positive")
        if hi < lo:
            raise ValueError("window [%d, %d) is inverted" % (lo, hi))
        table: dict[int, object] = {}
        for a, c in coeffs.items():
            if not lo <= a < hi:
                raise ValueError("coefficient at %d outside window [%d, %d)" % (a, lo, hi))
            if type(c) is not int and not isinstance(c, Fraction):
                c = as_exact(c)
            if c:
                table[a] = c
        self._fill(weight, denom, table, None, lo, hi, metadata)

    def _fill(self, weight, denom, table, cden, lo, hi, metadata) -> None:
        """Store `table` over `cden` canonically; cden None means a table of
        nonzero scalars (ints, Fractions, CycScalars), which takes rational
        form when it can."""
        if cden is None:
            table, cden = _from_scalars(table)
        elif cden != 1:
            if not table:
                cden = 1
            else:
                g = math.gcd(cden, *table.values())
                if g != 1:
                    table = {a: v // g for a, v in table.items()}
                    cden //= g
        self.weight = Fraction(weight)
        self.denom = denom
        self.lo = lo
        self.hi = hi
        self.metadata = dict(metadata) if metadata else {}
        self._table = table
        self.cden = cden
        self._view = None

    @classmethod
    def from_numerators(cls, weight, denom: int, numerators: dict, cden: int, lo: int, hi: int, metadata: dict | None = None) -> "QExp":
        """The series sum (numerators[a] / cden) q^(a/denom) on [lo, hi).

        The caller guarantees nonzero integer numerators inside the window
        and cden >= 1; the table is reduced to canonical form and then
        owned by the series, so it must not be changed afterwards.
        """
        f = cls.__new__(cls)
        f._fill(weight, denom, numerators, cden, lo, hi, metadata)
        return f

    # -- access ----------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, Scalar]:
        """Read-only {exponent numerator: coefficient}; rational form builds
        one Fraction per stored coefficient on the first access."""
        if self._view is None:
            self._view = MappingProxyType(self._build_view())
        return self._view

    def _build_view(self) -> dict:
        if self.cden is None:
            return self._table
        cden = self.cden
        return {a: Fraction(v, cden) for a, v in self._table.items()}

    @property
    def numerators(self) -> Mapping[int, int]:
        """Read-only {exponent numerator: integer numerator over cden};
        rational form only."""
        if self.cden is None:
            raise ValueError("series has no common coefficient denominator")
        return MappingProxyType(self._table)

    def coeff(self, a: int) -> Scalar:
        """Coefficient of q^(a/denom); PrecisionError outside the window."""
        if a < self.lo:
            return Fraction(0)
        if a >= self.hi:
            raise PrecisionError(
                "coefficient q^(%d/%d) requested, window ends at %d" % (a, self.denom, self.hi),
                required_lo=self.lo,
                required_hi=a + 1,
            )
        v = self._table.get(a)
        if v is None:
            return Fraction(0)
        return v if self.cden is None else Fraction(v, self.cden)

    def coeff_exponent(self, x) -> Scalar:
        """Coefficient at exponent value x (a Fraction); off-lattice is zero."""
        x = Fraction(x)
        num = x * self.denom
        if num.denominator != 1:
            return Fraction(0)
        return self.coeff(num.numerator)

    def exponents(self):
        """The exponent numerators of the stored (nonzero) coefficients, in
        no particular order."""
        return self._table.keys()

    def support(self) -> list[int]:
        return sorted(self._table)

    def min_support(self) -> int | None:
        return min(self._table) if self._table else None

    def is_zero(self) -> bool:
        return not self._table

    # -- window bookkeeping ----------------------------------------------

    def _derived(self, table: dict, lo: int, hi: int, denom: int | None = None, metadata: dict | None = None) -> "QExp":
        """A series with the same form and coefficient denominator whose
        table holds some of this one's values, possibly at new exponents."""
        if denom is None:
            denom = self.denom
        if self.cden is None:
            return QExp(self.weight, denom, table, lo, hi, metadata)
        return QExp.from_numerators(self.weight, denom, table, self.cden, lo, hi, metadata)

    def truncate(self, hi: int) -> "QExp":
        hi = max(self.lo, min(hi, self.hi))
        kept = {a: v for a, v in self._table.items() if a < hi}
        return self._derived(kept, self.lo, hi, metadata=self.metadata)

    def _promoted(self, denom: int) -> "QExp":
        if denom == self.denom:
            return self
        q, r = divmod(denom, self.denom)
        if r:
            raise ValueError("cannot promote denominator %d to %d" % (self.denom, denom))
        table = {a * q: v for a, v in self._table.items()}
        return self._derived(table, self.lo * q, self.hi * q, denom, self.metadata)

    def _reduced(self, g: int) -> "QExp":
        # caller guarantees the whole series, unknown part included, lies on
        # the g-coarser lattice: `normalized` passes the gcd of the stored
        # numerators, `decompose_mod4` a divisor of each piece's residue
        g = math.gcd(g, self.denom)
        if g <= 1:
            return self
        table = {a // g: v for a, v in self._table.items()}
        return self._derived(table, cdiv(self.lo, g), cdiv(self.hi, g), self.denom // g, self.metadata)

    def normalized(self) -> "QExp":
        """Reduce the denominator by the gcd of the stored numerators.

        Assumes that the visible support generates the true lattice; only
        call this on a series whose expansion you know completely.
        """
        if not self._table:
            return self
        return self._reduced(math.gcd(self.denom, *self._table))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QExp):
            return NotImplemented
        if self.weight != other.weight:
            return False
        m = math.lcm(self.denom, other.denom)
        a = self._promoted(m)
        b = other._promoted(m)
        if (a.lo, a.hi) != (b.lo, b.hi):
            return False
        if a.cden is not None and b.cden is not None:
            return a.cden == b.cden and a._table == b._table
        ca, cb = a.coeffs, b.coeffs
        if ca.keys() != cb.keys():
            return False
        return all(ca[n] == cb[n] for n in ca)

    def agrees_with(self, other: "QExp") -> bool:
        """Equality of coefficients on the overlap of the two windows."""
        m = math.lcm(self.denom, other.denom)
        a = self._promoted(m)
        b = other._promoted(m)
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        for n in a.exponents() | b.exponents():
            if lo <= n < hi:
                if a.coeff(n) != b.coeff(n):
                    return False
        return True

    def __repr__(self) -> str:
        head = []
        for a in self.support()[:4]:
            head.append("%r q^(%d/%d)" % (self.coeff(a), a, self.denom))
        tail = ", ..." if len(self._table) > 4 else ""
        return "QExp(wt %s, window [%d,%d)/%d: %s%s)" % (
            self.weight, self.lo, self.hi, self.denom, " + ".join(head) or "0", tail)


def _common_denominator(dens: Iterable[int]) -> int | None:
    """lcm of the positive integers dens, or None once it passes twice the
    bits of the largest plus 64.

    The coefficients of one modular form have denominators that divide a
    few large ones (those of H_k divide one integer; those of 1/f are
    powers of f's constant term), so their lcm stays near the largest.
    Unrelated denominators, say n distinct primes, would instead give
    every numerator the size of their product: n times the memory of the
    Fractions.  Such tables stay in scalar form.
    """
    dens = set(dens)
    dens.discard(1)
    if not dens:
        return 1
    cap = 2 * max(dens).bit_length() + 64
    d = 1
    for q in dens:
        d = math.lcm(d, q)
        if d.bit_length() > cap:
            return None
    return d


def _from_scalars(table: dict) -> tuple[dict, int | None]:
    """Canonical (table, cden) for a table of nonzero exact scalars."""
    d = None
    if not any(isinstance(c, CycScalar) for c in table.values()):
        d = _common_denominator([c.denominator for c in table.values()])
    if d is None:
        return {a: Fraction(c) if type(c) is int else c for a, c in table.items()}, None
    # reduced Fractions over the lcm of their denominators: no common factor
    return {a: c.numerator * (d // c.denominator) for a, c in table.items()}, d


def _integers(coeffs: Mapping[int, Fraction]) -> tuple[dict, int]:
    """Integer numerators over the lcm of the denominators."""
    d = math.lcm(*[c.denominator for c in coeffs.values()])
    return {a: c.numerator * (d // c.denominator) for a, c in coeffs.items()}, d


def _dense(f: QExp, H: int) -> tuple[list, int]:
    """The integer numerators of f on [0, H) as a list, and their common
    denominator; f is rational with integer exponents from 0 on."""
    table, d = (f._table, f.cden) if f.cden is not None else _integers(f.coeffs)
    F = [0] * H
    for a, v in table.items():
        if a < H:
            F[a] = v
    return F, d


# -- arithmetic ----------------------------------------------------------


def add(f: QExp, g: QExp) -> QExp:
    """Sum, on the window where both operands are known.

    Window: [min(lo), min(hi)) after promotion to the common lattice; below
    the larger lo the other term is known to vanish, so the sum is still
    complete there.
    """
    if f.weight != g.weight:
        raise ValueError("weight mismatch %s vs %s" % (f.weight, g.weight))
    m = math.lcm(f.denom, g.denom)
    a = f._promoted(m)
    b = g._promoted(m)
    lo = min(a.lo, b.lo)
    hi = max(lo, min(a.hi, b.hi))
    if a.cden is not None and b.cden is not None:
        d = math.lcm(a.cden, b.cden)
        sa, sb = d // a.cden, d // b.cden
        out = {n: v * sa for n, v in a._table.items() if n < hi}
        for n, v in b._table.items():
            if n < hi:
                s = out.get(n, 0) + v * sb
                if s:
                    out[n] = s
                else:
                    del out[n]
        return QExp.from_numerators(f.weight, m, out, d, lo, hi)
    out = {n: c for n, c in a.coeffs.items() if n < hi}
    for n, c in b.coeffs.items():
        if n < hi:
            out[n] = out.get(n, Fraction(0)) + c
    return QExp(f.weight, m, out, lo, hi)


def scale(f: QExp, c) -> QExp:
    c = as_exact(c)
    if f.cden is not None and isinstance(c, Fraction):
        if not c:
            return QExp.from_numerators(f.weight, f.denom, {}, 1, f.lo, f.hi)
        p = c.numerator
        table = f._table if p == 1 else {a: v * p for a, v in f._table.items()}
        return QExp.from_numerators(f.weight, f.denom, table, f.cden * c.denominator, f.lo, f.hi)
    return QExp(f.weight, f.denom, {a: v * c for a, v in f.coeffs.items()}, f.lo, f.hi)


def _stride(support: list[int]) -> int:
    base = support[0]
    return math.gcd(*[a - base for a in support]) or 1


# An integer product goes term by term when its term pairs number fewer
# than 1/_SPARSE_FACTOR of the exponents the packed route would span: {0, 1,
# 10**6} times three terms costs 9 products that way, against two million
# packed slots.  The two routes cost about the same at a factor of 2.
_SPARSE_FACTOR = 16


def _conv_int(da: dict, db: dict, cap: int) -> dict:
    """Convolution of nonempty {exponent: int} tables, exponents below cap
    only, zeros dropped.

    Exploits the coarser of the two support strides and runs the integer
    convolutions through the packed multiplier, which computes only the
    terms below cap.  Sparse products go term by term.
    """
    sa = sorted(da)
    sb = sorted(db)
    span = min(cap, sa[-1] + sb[-1] + 1) - sa[0] - sb[0]
    if len(sa) * len(sb) * _SPARSE_FACTOR < span:
        out: dict[int, int] = {}
        for a, x in da.items():
            for b, y in db.items():
                n = a + b
                if n < cap:
                    out[n] = out.get(n, 0) + x * y
        return {n: v for n, v in out.items() if v}
    ga = _stride(sa)
    gb = _stride(sb)
    if ga >= gb:
        strider, s_sup, other, o_sup, H = da, sa, db, sb, ga
    else:
        strider, s_sup, other, o_sup, H = db, sb, da, sa, gb
    base_s = s_sup[0]
    arr_s = [0] * ((s_sup[-1] - base_s) // H + 1)
    for a, v in strider.items():
        arr_s[(a - base_s) // H] = v
    classes: dict[int, list[int]] = {}
    for b in o_sup:
        classes.setdefault(b % H, []).append(b)
    out = {}
    # the classes sit in distinct residues mod H, so no exponent is hit twice
    for members in classes.values():
        base_o = members[0]
        base = base_o + base_s
        n = cdiv(cap - base, H)
        if n <= 0:
            continue
        arr_o = [0] * ((members[-1] - base_o) // H + 1)
        for b in members:
            arr_o[(b - base_o) // H] = other[b]
        conv = _intpoly.convolve(arr_o, arr_s, n)
        part = dict(zip(compress(range(base, base + len(conv) * H, H), conv), compress(conv, conv)))
        if out:
            out.update(part)
        else:
            out = part
    return out


def _conv_rational(da: dict, db: dict, cap: int) -> dict:
    """`_conv_int` on nonempty {exponent: Fraction} tables."""
    ia, den_a = _integers(da)
    ib, den_b = _integers(db)
    den = den_a * den_b
    return {n: Fraction(v, den) for n, v in _conv_int(ia, ib, cap).items()}


def _conv_generic(da: dict, db: dict, cap: int) -> dict:
    out: dict[int, Scalar] = {}
    for a, ca in da.items():
        for b, cb in db.items():
            n = a + b
            if n < cap:
                out[n] = out.get(n, Fraction(0)) + ca * cb
    return {n: c for n, c in out.items() if c}


def _conv(da: dict, db: dict, cap: int) -> dict:
    """Convolution of {exponent: Scalar} tables, exponents below cap only."""
    if not da or not db:
        return {}
    if all(isinstance(c, Fraction) for c in da.values()) and all(
        isinstance(c, Fraction) for c in db.values()
    ):
        return _conv_rational(da, db, cap)
    return _conv_generic(da, db, cap)


def mul(f: QExp, g: QExp) -> QExp:
    """Product; weights add.

    With S the minimal known support of each factor (or its hi when the
    window shows nothing), the product is complete below
    min(hi_f + S_g, hi_g + S_f): a smaller exponent cannot receive a
    contribution involving any unknown coefficient.
    """
    m = math.lcm(f.denom, g.denom)
    a = f._promoted(m)
    b = g._promoted(m)
    sa = a.min_support()
    sb = b.min_support()
    Sa = sa if sa is not None else a.hi
    Sb = sb if sb is not None else b.hi
    lo = Sa + Sb
    hi = max(lo, min(a.hi + Sb, b.hi + Sa))
    weight = f.weight + g.weight
    if a.cden is not None and b.cden is not None:
        out = _conv_int(a._table, b._table, hi) if hi > lo else {}
        return QExp.from_numerators(weight, m, out, a.cden * b.cden, lo, hi)
    out = _conv(a.coeffs, b.coeffs, hi) if hi > lo else {}
    return QExp(weight, m, out, lo, hi)


def rescale(f: QExp, t: int) -> QExp:
    """f(t tau): exponents multiply by t.

    The image lattice gains a global factor g = gcd(t, w), which is reduced
    away at once: exponents multiply by t / g on the lattice (g/w) Z.
    """
    if t < 1:
        raise ValueError("rescale factor must be positive")
    g = math.gcd(t, f.denom)
    s = t // g
    table = f._table if s == 1 else {a * s: v for a, v in f._table.items()}
    return f._derived(table, f.lo * s, f.hi * s, f.denom // g, f.metadata)


def u_op(f: QExp, s: int) -> QExp:
    """Index-s coefficient extraction: output q^(a/w) takes input q^(as/w)."""
    if s < 1:
        raise ValueError("u_op index must be positive")
    if s == 1:
        return f._derived(f._table, f.lo, f.hi)
    kept = {a // s: v for a, v in f._table.items() if a % s == 0}
    return f._derived(kept, cdiv(f.lo, s), cdiv(f.hi, s))


def filter_residues(f: QExp, modulus: int, allowed: Iterable[int]) -> QExp:
    """Keep coefficients whose integer exponent lies in the allowed classes."""
    if f.denom != 1:
        raise ValueError("residue filtering needs integer exponents")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    keep = {r % modulus for r in allowed}
    kept = {a: v for a, v in f._table.items() if a % modulus in keep}
    return f._derived(kept, f.lo, f.hi)


def decompose_mod4(f: QExp) -> tuple[QExp, QExp, QExp, QExp]:
    """The four pieces f_j with f(tau) = sum_j f_j(4 tau).

    f_j collects the exponents congruent to j mod 4, scaled down by 4, so
    its numerators are j mod 4 on the lattice with denominator 4; the j = 0
    and j = 2 pieces reduce to denominators 1 and 2.
    """
    if f.denom != 1:
        raise ValueError("mod-4 decomposition needs integer exponents")
    parts: list[dict] = [{}, {}, {}, {}]
    for a, v in f._table.items():
        parts[a % 4][a] = v
    return tuple(f._derived(part, f.lo, f.hi, 4)._reduced(4 if j == 0 else math.gcd(j, 4))
                 for j, part in enumerate(parts))


def invert_unit(f: QExp) -> QExp:
    """Multiplicative inverse of a series with unit constant term.

    The quotient 1/f by `_divide`, which inverts f to half the window by
    calling this function: Newton doubling, with the one Karp-Markstein
    step written once in `_divide`, down to the window [0, 1), where the
    inverse is 1/c0.  Each level's result is in canonical form, so no
    power of c0 is carried up.  Rational coefficients only, integer
    exponents, lo = 0.
    """
    if f.denom != 1 or f.lo != 0:
        raise ValueError("inversion needs integer exponents starting at 0")
    c0 = f.coeff(0) if 0 in f.exponents() else None
    if c0 is None or not isinstance(c0, Fraction):
        raise ValueError("inversion needs a nonzero rational constant term")
    if f.hi == 1:
        return QExp(-f.weight, 1, {0: 1 / c0}, 0, 1)
    return _divide(QExp.from_numerators(0, 1, {0: 1}, 1, 0, f.hi), f)


def _divide(f: QExp, g: QExp) -> QExp:
    """f / g on [0, min(f.hi, g.hi)), for g with a unit constant term.

    Karp-Markstein division: with h = ceil(H/2) and X = 1/g mod q^h, the
    quotient is Y0 = f X mod q^h below q^h, and f - g Y0 = q^h R vanishes
    there, so above it the quotient is q^h (X R mod q^(H-h)), since
    H - h <= h.  The inverse runs to h only and no H x H product is formed,
    where f * invert_unit(g) needs both.  X comes from `invert_unit`, which
    is the quotient 1/g through this function, so the two recurse down to
    a one-term window.  The call reads the module attribute `invert_unit`
    at every level, so a wrapper installed there (the benchmark's tracer)
    sees each inversion.  This works on raw integer coefficients (f =
    F/df, g = G/dg, X = Xn/cx) and stamps the window; rational
    coefficients only, integer exponents, f.lo >= 0 and g.lo = 0.
    """
    if f.denom != 1 or f.lo < 0:
        raise ValueError("division needs a dividend with integer exponents from 0 on")
    for series in (f, g):
        if series.cden is None and not all(isinstance(c, Fraction) for c in series.coeffs.values()):
            raise ValueError("division implemented for rational coefficients only")
    H = min(f.hi, g.hi)
    h = (H + 1) // 2
    inv = invert_unit(g.truncate(max(h, 1)))
    Xn, cx = _dense(inv, inv.hi)
    F, df = _dense(f, H)
    G, dg = _dense(g, H)
    # F up to its last stored term: as an H-long [1, 0, ...] the dividend of
    # `invert_unit` would send this product down shift-add, which packs Xn
    # at every level; Xn has h terms, so Y0 still has h
    Y0 = _intpoly.convolve(F[:max(f.exponents(), default=0) + 1], Xn, h)
    # f - g Y0 = (F dg cx - G Y0) / (df dg cx), zero below q^h
    s = dg * cx
    GY = _intpoly.convolve(G, Y0, H)
    R = [F[i] * s - GY[i] for i in range(h, H)]
    del GY
    # Y0 over df cx is Y0 s over df cx s, the denominator of X R
    if s != 1:
        Y0 = [v * s for v in Y0]
    quotient = Y0 + _intpoly.convolve(Xn, R, H - h)
    table = dict(zip(compress(range(H), quotient), compress(quotient, quotient)))
    return QExp.from_numerators(f.weight - g.weight, 1, table, df * cx * s, 0, H)


# -- JSON forms ----------------------------------------------------------


def _rational_texts(table: dict, cden: int) -> list:
    """[[a, text of table[a] / cden reduced]] in exponent order; the text
    is that of str(Fraction): "p" or "p/q"."""
    if cden == 1:
        return [[a, str(table[a])] for a in sorted(table)]
    gcd = math.gcd
    suffixes = {cden: ""}  # gcd(v, cden) -> "/q"
    out = []
    for a in sorted(table):
        v = table[a]
        g = gcd(v, cden)
        tail = suffixes.get(g)
        if tail is None:
            tail = suffixes[g] = "/%d" % (cden // g)
        out.append([a, "%d%s" % (v // g, tail)])
    return out


def qexp_to_json(f: QExp) -> dict:
    table = f._table
    if f.cden is None:
        coefficients = [[a, scalar_to_json(table[a])] for a in sorted(table)]
    else:
        coefficients = _rational_texts(table, f.cden)
    return {
        "weight": {"num": f.weight.numerator, "den": f.weight.denominator},
        "exponent_denominator": f.denom,
        "window": [f.lo, f.hi],
        "coefficients": coefficients,
        "metadata": dict(f.metadata),
    }


def qexp_from_json(obj) -> QExp:
    if not isinstance(obj, dict):
        raise SchemaError("q-expansion must be an object")
    for key in ("weight", "exponent_denominator", "window", "coefficients"):
        if key not in obj:
            raise SchemaError("q-expansion is missing %r" % key)
    wt = obj["weight"]
    if not isinstance(wt, dict) or type(wt.get("num")) is not int or type(wt.get("den")) is not int:
        raise SchemaError("weight must be {num, den} with integers")
    if wt["den"] == 0:
        raise SchemaError("weight denominator is zero")
    denom = obj["exponent_denominator"]
    if type(denom) is not int or denom < 1:
        raise SchemaError("exponent_denominator must be a positive integer")
    window = obj["window"]
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not all(type(x) is int for x in window)
        or window[1] < window[0]
    ):
        raise SchemaError("window must be [lo, hi] with integers lo <= hi")
    pairs = obj["coefficients"]
    if not isinstance(pairs, list):
        raise SchemaError("coefficients must be a list")
    # one pass: reduced rationals as numerators plus, where not 1, their
    # denominators (one int object per distinct value); cyclotomic values
    # (rare) as scalars.  Zero numerators are kept until the end, so that
    # duplicates of them are caught too.
    nums: dict[int, int] = {}
    dens: dict[int, int] = {}
    distinct: dict[int, int] = {}
    cyc: dict[int, Scalar] = {}
    gcd = math.gcd
    for item in pairs:
        if not isinstance(item, list) or len(item) != 2 or type(item[0]) is not int:
            raise SchemaError("coefficient entry must be [exponent, scalar]")
        a, raw = item
        if a in nums or a in cyc:
            raise SchemaError("duplicate coefficient at exponent %d" % a)
        if not window[0] <= a < window[1]:
            raise SchemaError("coefficient exponent %d outside window" % a)
        if isinstance(raw, str):
            p, q = rational_parts(raw)
        else:
            c = scalar_from_json(raw)
            if not isinstance(c, Fraction):
                cyc[a] = c
                continue
            p, q = c.numerator, c.denominator
        if q != 1:
            g = gcd(p, q)
            if g != 1:
                p //= g
                q //= g
            if q != 1:
                dens[a] = distinct.setdefault(q, q)
        nums[a] = p
    meta = obj.get("metadata", {})
    if not isinstance(meta, dict):
        raise SchemaError("metadata must be an object")
    weight = Fraction(wt["num"], wt["den"])
    if 0 in nums.values():
        nums = {a: p for a, p in nums.items() if p}
    d = _common_denominator(distinct) if not cyc else None
    if d is None:
        table = {a: Fraction(p, dens.get(a, 1)) for a, p in nums.items()}
        table.update(cyc)
        return QExp(weight, denom, table, window[0], window[1], meta)
    if d != 1:
        # reduced fractions over the lcm of their denominators: canonical
        factor = {q: d // q for q in distinct}
        for a, p in nums.items():
            q = dens.get(a)
            nums[a] = p * (d if q is None else factor[q])
    return QExp.from_numerators(weight, denom, nums, d, window[0], window[1], meta)
