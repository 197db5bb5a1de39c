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
from typing import Iterable, Mapping

from . import _intpoly
from .errors import PrecisionError, SchemaError
from .scalars import (
    Scalar,
    as_exact,
    exact_add,
    exact_eq,
    exact_is_zero,
    exact_mul,
    scalar_from_json,
    scalar_to_json,
)

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

def _cdiv(a: int, b: int) -> int:
    return -((-a) // b)


class QExp:
    __slots__ = ("weight", "denom", "coeffs", "lo", "hi", "metadata")

    def __init__(self, weight, denom: int, coeffs: Mapping[int, object], lo: int, hi: int, metadata: dict | None = None):
        if denom < 1:
            raise ValueError("exponent denominator must be positive")
        if hi < lo:
            raise ValueError("window [%d, %d) is inverted" % (lo, hi))
        table: dict[int, Scalar] = {}
        for a, c in coeffs.items():
            if not lo <= a < hi:
                raise ValueError("coefficient at %d outside window [%d, %d)" % (a, lo, hi))
            if not isinstance(c, Fraction):
                c = as_exact(c)
            if c:
                table[a] = c
        self.weight = Fraction(weight)
        self.denom = denom
        self.coeffs = table
        self.lo = lo
        self.hi = hi
        self.metadata = dict(metadata) if metadata else {}

    # -- access ----------------------------------------------------------

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
        return self.coeffs.get(a, Fraction(0))

    def coeff_exponent(self, x) -> Scalar:
        """Coefficient at exponent value x (a Fraction); off-lattice is zero."""
        x = Fraction(x)
        num = x * self.denom
        if num.denominator != 1:
            return Fraction(0)
        return self.coeff(num.numerator)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def min_support(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- window bookkeeping ----------------------------------------------

    def truncate(self, hi: int) -> "QExp":
        hi = max(self.lo, min(hi, self.hi))
        kept = {a: c for a, c in self.coeffs.items() if a < hi}
        return QExp(self.weight, self.denom, kept, self.lo, hi, self.metadata)

    def _promoted(self, denom: int) -> "QExp":
        if denom == self.denom:
            return self
        q, r = divmod(denom, self.denom)
        if r:
            raise ValueError("cannot promote denominator %d to %d" % (self.denom, denom))
        return QExp(
            self.weight,
            denom,
            {a * q: c for a, c in self.coeffs.items()},
            self.lo * q,
            self.hi * q,
            self.metadata,
        )

    def _reduced(self, g: int) -> "QExp":
        # caller guarantees the whole series, unknown part included, lies on
        # the g-coarser lattice
        g = math.gcd(g, self.denom)
        if g <= 1:
            return self
        for a in self.coeffs:
            if a % g:
                raise AssertionError("stored numerator %d not divisible by %d" % (a, g))
        return QExp(
            self.weight,
            self.denom // g,
            {a // g: c for a, c in self.coeffs.items()},
            _cdiv(self.lo, g),
            _cdiv(self.hi, g),
            self.metadata,
        )

    def normalized(self) -> "QExp":
        """Reduce the denominator by the gcd of the stored numerators.

        Asserts that the visible support generates the true lattice; only
        call this on a series whose expansion you know completely.
        """
        if not self.coeffs:
            return self
        g = self.denom
        for a in self.coeffs:
            g = math.gcd(g, a)
        return self._reduced(g)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QExp):
            return NotImplemented
        if self.weight != other.weight:
            return False
        m = _lcm(self.denom, other.denom)
        a = self._promoted(m)
        b = other._promoted(m)
        if (a.lo, a.hi) != (b.lo, b.hi):
            return False
        if set(a.coeffs) != set(b.coeffs):
            return False
        return all(exact_eq(a.coeffs[n], b.coeffs[n]) for n in a.coeffs)

    def agrees_with(self, other: "QExp") -> bool:
        """Equality of coefficients on the overlap of the two windows."""
        m = _lcm(self.denom, other.denom)
        a = self._promoted(m)
        b = other._promoted(m)
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        for n in set(a.coeffs) | set(b.coeffs):
            if lo <= n < hi:
                if not exact_eq(a.coeffs.get(n, Fraction(0)), b.coeffs.get(n, Fraction(0))):
                    return False
        return True

    def __repr__(self) -> str:
        head = []
        for a in self.support()[:4]:
            head.append("%r q^(%d/%d)" % (self.coeffs[a], a, self.denom))
        tail = ", ..." if len(self.coeffs) > 4 else ""
        return "QExp(wt %s, window [%d,%d)/%d: %s%s)" % (
            self.weight, self.lo, self.hi, self.denom, " + ".join(head) or "0", tail)


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


# -- arithmetic ----------------------------------------------------------


def add(f: QExp, g: QExp, ignore_weight: bool = False) -> QExp:
    """Sum, on the window where both operands are known.

    Window: [min(lo), min(hi)) after promotion to the common lattice; below
    the larger lo the other term is known to vanish, so the sum is still
    complete there.
    """
    if not ignore_weight and f.weight != g.weight:
        raise ValueError("weight mismatch %s vs %s" % (f.weight, g.weight))
    m = _lcm(f.denom, g.denom)
    a = f._promoted(m)
    b = g._promoted(m)
    lo = min(a.lo, b.lo)
    hi = max(lo, min(a.hi, b.hi))
    out: dict[int, Scalar] = {}
    for n, c in a.coeffs.items():
        if n < hi:
            out[n] = c
    for n, c in b.coeffs.items():
        if n < hi:
            out[n] = exact_add(out.get(n, Fraction(0)), c)
    return QExp(f.weight, m, out, lo, hi)


def scale(f: QExp, c) -> QExp:
    c = as_exact(c)
    return QExp(f.weight, f.denom, {a: exact_mul(v, c) for a, v in f.coeffs.items()}, f.lo, f.hi)


def _stride(support: list[int]) -> int:
    g = 0
    base = support[0]
    for a in support[1:]:
        g = math.gcd(g, a - base)
    return g if g else 1


# A rational product goes term by term when its term pairs number fewer
# than 1/_SPARSE_FACTOR of the exponents the packed route would span: {0, 1,
# 10**6} times three terms costs 9 products that way, against two million
# packed slots.  The two routes cost about the same at a factor of 2.
_SPARSE_FACTOR = 16


def _conv_rational(da: dict, db: dict, cap: int) -> dict:
    """Convolution of rational coefficient dicts, exponents below cap only.

    Clears denominators, exploits the coarser of the two support strides,
    and runs the integer convolutions through the packed multiplier, which
    computes only the terms below cap.  Sparse products go term by term.
    """
    sa = sorted(da)
    sb = sorted(db)
    span = min(cap, sa[-1] + sb[-1] + 1) - sa[0] - sb[0]
    if len(sa) * len(sb) * _SPARSE_FACTOR < span:
        return _conv_generic(da, db, cap)
    den_a = math.lcm(*[c.denominator for c in da.values()])
    den_b = math.lcm(*[c.denominator for c in db.values()])
    ia = {a: c.numerator * (den_a // c.denominator) for a, c in da.items()}
    ib = {b: c.numerator * (den_b // c.denominator) for b, c in db.items()}
    ga = _stride(sa)
    gb = _stride(sb)
    if ga >= gb:
        strider, s_sup, other, o_sup, H = ia, sa, ib, sb, ga
    else:
        strider, s_sup, other, o_sup, H = ib, sb, ia, sa, gb
    base_s = s_sup[0]
    arr_s = [0] * ((s_sup[-1] - base_s) // H + 1)
    for a, v in strider.items():
        arr_s[(a - base_s) // H] = v
    classes: dict[int, list[int]] = {}
    for b in o_sup:
        classes.setdefault(b % H, []).append(b)
    den = den_a * den_b
    out: dict[int, Fraction] = {}
    # the classes sit in distinct residues mod H, so no exponent is hit twice
    for members in classes.values():
        base_o = members[0]
        base = base_o + base_s
        n = _cdiv(cap - base, H)
        if n <= 0:
            continue
        arr_o = [0] * ((members[-1] - base_o) // H + 1)
        for b in members:
            arr_o[(b - base_o) // H] = other[b]
        conv = _intpoly.convolve(arr_o, arr_s, n)
        for i, v in enumerate(conv):
            if v:
                out[base + i * H] = Fraction(v, den)
    return out


def _conv_generic(da: dict, db: dict, cap: int) -> dict:
    out: dict[int, Scalar] = {}
    for a, ca in da.items():
        for b, cb in db.items():
            n = a + b
            if n < cap:
                out[n] = exact_add(out.get(n, Fraction(0)), exact_mul(ca, cb))
    return {n: c for n, c in out.items() if not exact_is_zero(c)}


def _conv(da: dict, db: dict, cap: int) -> dict:
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
    m = _lcm(f.denom, g.denom)
    a = f._promoted(m)
    b = g._promoted(m)
    sa = a.min_support()
    sb = b.min_support()
    Sa = sa if sa is not None else a.hi
    Sb = sb if sb is not None else b.hi
    lo = Sa + Sb
    hi = max(lo, min(a.hi + Sb, b.hi + Sa))
    out = _conv(a.coeffs, b.coeffs, hi) if hi > lo else {}
    return QExp(f.weight + g.weight, m, out, lo, hi)


def rescale(f: QExp, t: int) -> QExp:
    """f(t tau): exponents multiply by t.

    The image lattice gains a global factor gcd(t, w), which is reduced
    away immediately.
    """
    if t < 1:
        raise ValueError("rescale factor must be positive")
    meta = dict(f.metadata)
    if isinstance(meta.get("level"), int):
        meta["level"] *= t
    stretched = QExp(
        f.weight,
        f.denom,
        {a * t: c for a, c in f.coeffs.items()},
        f.lo * t,
        f.hi * t,
        meta,
    )
    return stretched._reduced(math.gcd(t, f.denom))


def u_op(f: QExp, s: int) -> QExp:
    """Index-s coefficient extraction: output q^(a/w) takes input q^(as/w)."""
    if s < 1:
        raise ValueError("u_op index must be positive")
    if s == 1:
        return QExp(f.weight, f.denom, dict(f.coeffs), f.lo, f.hi)
    kept = {a // s: c for a, c in f.coeffs.items() if a % s == 0}
    return QExp(f.weight, f.denom, kept, _cdiv(f.lo, s), _cdiv(f.hi, s))


def filter_residues(f: QExp, modulus: int, allowed: Iterable[int]) -> QExp:
    """Keep coefficients whose integer exponent lies in the allowed classes."""
    if f.denom != 1:
        raise ValueError("residue filtering needs integer exponents")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    keep = {r % modulus for r in allowed}
    kept = {a: c for a, c in f.coeffs.items() if a % modulus in keep}
    return QExp(f.weight, 1, kept, f.lo, f.hi)


def decompose_mod4(f: QExp) -> tuple[QExp, QExp, QExp, QExp]:
    """The four pieces f_j with f(tau) = sum_j f_j(4 tau).

    f_j collects the exponents congruent to j mod 4, scaled down by 4, so
    its numerators are j mod 4 on the lattice with denominator 4; the j = 0
    and j = 2 pieces reduce to denominators 1 and 2.
    """
    if f.denom != 1:
        raise ValueError("mod-4 decomposition needs integer exponents")
    pieces = []
    for j in range(4):
        part = {a: c for a, c in f.coeffs.items() if a % 4 == j}
        piece = QExp(f.weight, 4, part, f.lo, f.hi)
        g = 4 if j == 0 else math.gcd(j, 4)
        pieces.append(piece._reduced(g))
    return tuple(pieces)


def invert_unit(f: QExp, hi: int | None = None) -> QExp:
    """Multiplicative inverse of a series with unit constant term.

    Newton doubling; each step is justified by the algebraic identity
    x(2 - fx) = 1/f mod q^(2m), which the window algebra alone cannot see,
    so this works on raw coefficients and stamps the final window.
    Rational coefficients only, integer exponents, lo = 0.

    The iteration runs on integers: f = F/d with F an integer list, and
    with u = F[0] the inverse of F mod q^m is X/u^e for an integer list X.
    A step writes x(2 - Fx) as x - x(Fx - 1); Fx - 1 vanishes below q^m,
    so the second product needs only its top half.
    """
    if f.denom != 1 or f.lo != 0:
        raise ValueError("inversion needs integer exponents starting at 0")
    c0 = f.coeffs.get(0)
    if c0 is None or not isinstance(c0, Fraction):
        raise ValueError("inversion needs a nonzero rational constant term")
    if not all(isinstance(c, Fraction) for c in f.coeffs.values()):
        raise ValueError("inversion implemented for rational coefficients only")
    H = f.hi if hi is None else min(hi, f.hi)
    if H < 1:
        raise ValueError("no constant term inside the window")
    low = {a: c for a, c in f.coeffs.items() if a < H}
    d = math.lcm(*[c.denominator for c in low.values()])
    F = [0] * H
    for a, c in low.items():
        F[a] = c.numerator * (d // c.denominator)
    ue = F[0]  # u^e, the denominator of X
    X = [1]
    m = 1
    while m < H:
        m2 = min(2 * m, H)
        # F X = u^e + q^m T mod q^m2
        T = _intpoly.convolve(F, X, m2)[m:]
        tail = _intpoly.convolve(X, T, m2 - m)
        if ue != 1:
            X = [v * ue for v in X]
        X.extend([-v for v in tail])
        ue *= ue
        m = m2
    x = {a: Fraction(d * v, ue) for a, v in enumerate(X) if v}
    return QExp(-f.weight, 1, x, 0, H)


# -- JSON forms ----------------------------------------------------------


def qexp_to_json(f: QExp) -> dict:
    return {
        "weight": {"num": f.weight.numerator, "den": f.weight.denominator},
        "exponent_denominator": f.denom,
        "window": [f.lo, f.hi],
        "coefficients": [[a, scalar_to_json(f.coeffs[a])] for a in f.support()],
        "metadata": dict(f.metadata),
    }


def qexp_from_json(obj) -> QExp:
    if not isinstance(obj, dict):
        raise SchemaError("q-expansion must be an object")
    for key in ("weight", "exponent_denominator", "window", "coefficients"):
        if key not in obj:
            raise SchemaError("q-expansion is missing %r" % key)
    wt = obj["weight"]
    if not isinstance(wt, dict) or not isinstance(wt.get("num"), int) or not isinstance(wt.get("den"), int):
        raise SchemaError("weight must be {num, den} with integers")
    if wt["den"] == 0:
        raise SchemaError("weight denominator is zero")
    denom = obj["exponent_denominator"]
    if not isinstance(denom, int) or denom < 1:
        raise SchemaError("exponent_denominator must be a positive integer")
    window = obj["window"]
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not all(isinstance(x, int) for x in window)
        or window[1] < window[0]
    ):
        raise SchemaError("window must be [lo, hi] with integers lo <= hi")
    coeffs: dict[int, Scalar] = {}
    pairs = obj["coefficients"]
    if not isinstance(pairs, list):
        raise SchemaError("coefficients must be a list")
    for item in pairs:
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], int):
            raise SchemaError("coefficient entry must be [exponent, scalar]")
        a, raw = item
        if a in coeffs:
            raise SchemaError("duplicate coefficient at exponent %d" % a)
        if not window[0] <= a < window[1]:
            raise SchemaError("coefficient exponent %d outside window" % a)
        coeffs[a] = scalar_from_json(raw)
    meta = obj.get("metadata", {})
    if not isinstance(meta, dict):
        raise SchemaError("metadata must be an object")
    return QExp(Fraction(wt["num"], wt["den"]), denom, coeffs, window[0], window[1], meta)
