"""Exact scalar arithmetic: cyclotomic numbers, quadratic symbols, Bernoulli
polynomials, and partial zeta / Dirichlet L-values at non-positive integers.

Conventions fixed here and relied on everywhere else:

* Rationals are `fractions.Fraction` (always reduced, positive denominator).
* `kronecker(t, d)` is the Kronecker symbol (t/d), extended to d = 2 by
  (t/2) = (2/t) for odd t, (t/2) = 0 for even t, and to d <= 0 in the usual
  way ((t/-1) = sign of t, (t/0) nonzero only for t = +-1).
* Bernoulli numbers use the first convention B_1 = -1/2, so that
  zeta(1-k, a) = -B_k(a)/k holds verbatim for the Hurwitz zeta function.
* `partial_zeta_neg(N, d, k)` is the value at s = 1-k of sum over positive
  n congruent to d mod N of n^(-s), namely -N^(k-1) B_k(d/N) / k.  It is
  defined for every residue 1 <= d <= N, not only units; callers that need
  the coprime-only sums select residues themselves.
* A weighted sum of those values (`_partial_zeta_sum`, behind
  `dirichlet_L_neg`, `quadratic_L_neg` and the lift's constant term) runs
  over the residues in integers: k + 1 power sums of the weights, combined
  with integer coefficients C(k, j) B_j Q P^j, Q the common denominator of
  B_0 .. B_k, and one division by -k P Q at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Union

from .arith import least_prime_table
from .errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .characters import DirichletCharacter

__all__ = [
    "CycScalar",
    "Scalar",
    "as_exact",
    "bernoulli_number",
    "bernoulli_poly",
    "dirichlet_L_neg",
    "eps_d",
    "kronecker",
    "partial_zeta_neg",
    "psi_char",
    "quadratic_L_neg",
    "rational_from_str",
    "rational_parts",
    "scalar_from_json",
    "scalar_to_json",
]

BERNOULLI_BOUND = 64

_TWO_PI = 2.0 * math.pi


def kronecker(t: int, d: int) -> int:
    """Kronecker symbol (t/d).

    Completely multiplicative in d; agrees with the Legendre symbol for odd
    prime d; (t/2) = 0 for even t and otherwise +1 for t = +-1 mod 8, -1 for
    t = +-3 mod 8 (which is the same as (2/t)).  (0/0) is rejected.
    """
    if t == 0 and d == 0:
        raise ValueError("kronecker symbol (0/0) is undefined")
    if d == 0:
        return 1 if t in (1, -1) else 0
    if t % 2 == 0 and d % 2 == 0:
        return 0
    v = 0
    while d % 2 == 0:
        d //= 2
        v += 1
    k = 1
    if v % 2 == 1 and t % 8 not in (1, 7):
        k = -1
    if d < 0:
        d = -d
        if t < 0:
            k = -k
    t %= d
    while t != 0:
        while t % 2 == 0:
            t //= 2
            if d % 8 in (3, 5):
                k = -k
        t, d = d, t
        if t % 4 == 3 and d % 4 == 3:
            k = -k
        t %= d
    return k if d == 1 else 0


def _kronecker_table(t: int, n: int) -> list[int]:
    """kronecker(t, d) for 0 <= d < n and t != 0, as a list of max(n, 0)
    entries.

    The symbol is completely multiplicative in d > 0, so one `kronecker`
    per prime d gives the rest: chi(d) = chi(p) chi(d / p) with p the least
    prime factor of a composite d (`arith.least_prime_table`).  Unless
    t = 3 mod 4 it is also periodic in d > 0, with period |t| for
    t = 0, 1 mod 4 (a character mod |t|) and 4 |t| for t = 2 mod 4, so only
    d up to one period is sieved and the rest repeats it."""
    period = n if t % 4 == 3 else abs(t) * (4 if t % 4 == 2 else 1)
    m = min(n, period + 1)
    chi = [0] * max(m, 0)
    if m < 1:
        return chi
    chi[0] = kronecker(t, 0)
    lpf = least_prime_table(m)
    for d in range(1, m):
        p = lpf[d]
        chi[d] = chi[p] * chi[d // p] if p else kronecker(t, d)
    if m < n:
        # d = period + 1, period + 2, ... repeat d = 1, 2, ...
        chi += (chi[1:] * -(-(n - m) // period))[:n - m]
    return chi


def eps_d(d: int) -> complex:
    """eps_d = 1 for d = 1 mod 4 and i for d = 3 mod 4; rejects even d.

    Both values, and their conjugates, are exact in binary floating point.
    """
    if d % 2 == 0:
        raise ValueError("eps_d needs odd d, got %d" % d)
    return 1 + 0j if d % 4 == 1 else 1j


def psi_char(a: int, b: int, c: int, d: int, branch: int = 1) -> complex:
    """The theta multiplier on the metaplectic group over Gamma_0(4):
    branch * (c/d) * conjugate(eps_d)."""
    if c % 4 != 0:
        raise ValueError("psi_char needs 4 | c")
    if d % 2 == 0:
        raise ValueError("psi_char needs odd d")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    return branch * kronecker(c, d) * eps_d(d).conjugate()


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by the lower cyclotomic polynomials
    Phi_d, d | m; x^m - 1 is the product of all of them, so each division
    is exact and only its quotient is kept.
    """
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            phi_d = _cyclotomic(d)
            # synthetic division by the monic phi_d, high terms first
            deg_q = len(num) - len(phi_d)
            quot = [0] * (deg_q + 1)
            for i in range(deg_q, -1, -1):
                c = quot[i] = num[i + len(phi_d) - 1]
                if c:
                    for j, pc in enumerate(phi_d):
                        num[i + j] -= c * pc
            num = quot
    return tuple(num)


class CycScalar:
    """An exact element of the cyclotomic field Q(zeta_m).

    Stored as a Fraction-coefficient polynomial in zeta_m, reduced modulo the
    m-th cyclotomic polynomial, so within a fixed order equal values have
    equal representations.  Arithmetic between different orders promotes both
    operands to the least common multiple.  An element that reduces to a
    rational collapses to order 1.

    Arithmetic mixes with int and Fraction through the operators (their own
    methods return NotImplemented for a CycScalar, so the reflected one here
    runs), and every result is canonical in the sense of `as_exact`: a
    Fraction whenever its value is rational.  So `a + b`, `a * b`, `a == b`,
    `not a` and `complex(a)` serve any mix of exact scalars.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        merged: dict[int, Fraction] = {}
        for e, c in terms.items():
            c = Fraction(c)
            if c:
                e %= order
                merged[e] = merged.get(e, Fraction(0)) + c
        self.order = order
        self.terms = self._reduce(order, merged)
        if self.order > 1 and all(e == 0 for e in self.terms):
            self.order = 1

    @staticmethod
    def _reduce(order: int, terms: dict) -> dict:
        phi = _cyclotomic(order)
        deg = len(phi) - 1
        if not any(e >= deg for e in terms):
            return {e: c for e, c in terms.items() if c}
        dense = [Fraction(0)] * order
        for e, c in terms.items():
            dense[e] += c
        for e in range(order - 1, deg - 1, -1):
            c = dense[e]
            if c:
                dense[e] = Fraction(0)
                base = e - deg
                for j in range(deg):
                    if phi[j]:
                        dense[base + j] -= c * phi[j]
        return {e: c for e, c in enumerate(dense[:deg]) if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "CycScalar":
        return cls(1, {0: Fraction(r)})

    @classmethod
    def root_of_unity(cls, m: int, e: int) -> "CycScalar":
        """zeta_m^e = exp(2 pi i e / m)."""
        return cls(m, {e % m: Fraction(1)})

    # -- structure ------------------------------------------------------

    def _promoted_terms(self, order: int) -> dict:
        # every caller passes the lcm of two orders, a multiple of this one
        q = order // self.order
        return {e * q: c for e, c in self.terms.items()}

    def is_rational(self) -> bool:
        return all(e == 0 for e in self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("%r is not rational" % (self,))
        return self.terms[0]

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = math.lcm(self.order, o.order)
        terms = dict(self._promoted_terms(m))
        for e, c in o._promoted_terms(m).items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return as_exact(CycScalar(m, terms))

    def __radd__(self, other):
        # the left operand's terms come first, as in a + b with both cyclotomic,
        # so complex() sums the same floats in the same order
        o = self._coerce(other)
        return NotImplemented if o is None else o + self

    def __neg__(self):
        return as_exact(CycScalar(self.order, {e: -c for e, c in self.terms.items()}))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = math.lcm(self.order, o.order)
        a = self._promoted_terms(m)
        b = o._promoted_terms(m)
        out: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % m
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return as_exact(CycScalar(m, out))

    __rmul__ = __mul__

    def conjugate(self) -> Scalar:
        return as_exact(CycScalar(self.order, {-e % self.order: c for e, c in self.terms.items()}))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycScalar.from_rational(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        m = math.lcm(self.order, other.order)
        return self._reduce(m, self._promoted_terms(m)) == self._reduce(m, other._promoted_terms(m))

    def __complex__(self) -> complex:
        z = 0j
        for e, c in self.terms.items():
            ang = _TWO_PI * e / self.order
            z += float(c) * complex(math.cos(ang), math.sin(ang))
        return z

    def __repr__(self) -> str:
        if not self.terms:
            return "Cyc(0)"
        parts = ["%s*z%d^%d" % (c, self.order, e) for e, c in sorted(self.terms.items())]
        return "Cyc(" + " + ".join(parts) + ")"


Scalar = Union[Fraction, CycScalar]


def as_exact(x) -> Scalar:
    """Canonical exact scalar: rationals as Fraction, the rest as CycScalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, CycScalar):
        return x.as_rational() if x.is_rational() else x
    raise TypeError("not an exact scalar: %r" % (x,))


# -- Bernoulli machinery ------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by the defining recurrence
    sum_{j<=m} C(m+1, j) B_j = 0."""
    if k < 0:
        raise ValueError("negative Bernoulli index")
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


def bernoulli_poly(k: int, x) -> Fraction:
    """B_k(x) = sum_j C(k, j) B_j x^(k-j), exact; B_1(0) = -1/2."""
    if not 0 <= k <= BERNOULLI_BOUND:
        raise ValueError("Bernoulli degree %d outside [0, %d]" % (k, BERNOULLI_BOUND))
    x = Fraction(x)
    acc = Fraction(0)
    xp = Fraction(1)
    # accumulate from the x^0 term upward
    for j in range(k, -1, -1):
        acc += math.comb(k, j) * bernoulli_number(j) * xp
        xp *= x
    return acc


def partial_zeta_neg(N: int, d: int, k: int) -> Fraction:
    """Value at s = 1-k of the partial zeta function over n = d mod N, n > 0.

    Equal to -N^(k-1) B_k(d/N) / k.  Defined for every residue 1 <= d <= N;
    d = N covers the multiples of N (where the value is N^(k-1) zeta(1-k)).
    """
    if N < 1:
        raise ValueError("modulus must be positive")
    if not 1 <= d <= N:
        raise ValueError("residue %d not in 1..%d" % (d, N))
    if k < 1:
        raise ValueError("k must be positive")
    return -(Fraction(N) ** (k - 1)) * bernoulli_poly(k, Fraction(d, N)) / k


@lru_cache(maxsize=None)
def _bernoulli_integers(k: int) -> tuple[int, tuple[int, ...]]:
    """(Q, (C(k, j) B_j Q for j = 0 .. k)), Q the lcm of the denominators
    of B_0 .. B_k: the Bernoulli polynomial's coefficients over one common
    denominator."""
    bs = [bernoulli_number(j) for j in range(k + 1)]
    Q = math.lcm(*(b.denominator for b in bs))
    return Q, tuple(math.comb(k, j) * b.numerator * (Q // b.denominator) for j, b in enumerate(bs))


def _partial_zeta_sum(P: int, k: int, weights) -> Scalar:
    """The sum of w * partial_zeta_neg(P, h, k) over the pairs (h, w) of
    `weights`, 1 <= h <= P, with exact weights (int, Fraction, CycScalar).

    B_k(x) = sum_j C(k, j) B_j x^(k-j) is expanded once, so the sum is

        -1/(k P Q) sum_j (C(k, j) B_j Q P^j) S_(k-j),    S_i = sum w h^i,

    with Q the lcm of the denominators of B_0 .. B_k, so that every
    coefficient is an integer: only the k + 1 power sums S_i run over the
    residues, and the only rational step is the one division at the end,
    the same for every kind of weight.  k is bounded as in
    `bernoulli_poly`.
    """
    if not 1 <= k <= BERNOULLI_BOUND:
        raise ValueError("Bernoulli degree %d outside [1, %d]" % (k, BERNOULLI_BOUND))
    sums = [0] * (k + 1)
    for h, w in weights:
        if w:
            for i in range(k + 1):
                sums[i] += w
                w *= h
    Q, coeffs = _bernoulli_integers(k)
    total = 0
    p_j = 1  # P^j
    for j in range(k + 1):
        if coeffs[j] and sums[k - j]:
            total += coeffs[j] * p_j * sums[k - j]
        p_j *= P
    return total * Fraction(-1, k * P * Q)


def dirichlet_L_neg(chi: "DirichletCharacter", k: int) -> Scalar:
    """L(1-k, chi) for chi as a character of its stated modulus N (not the
    primitive version): the sum of chi(d) partial_zeta_neg(N, d, k) over
    units d mod N."""
    N = chi.modulus
    return _partial_zeta_sum(N, k, ((d, chi(d)) for d in range(1, N + 1)))


# -- JSON forms ---------------------------------------------------------
#
# Rationals travel as strings "p" or "p/q" (reduced, q > 0); cyclotomic
# values as {"order": m, "terms": [[e, "p/q"], ...]} with terms sorted by
# exponent.  Emission is deterministic so round-trips are byte-stable.


def rational_parts(s) -> tuple[int, int]:
    """Numerator and positive denominator of the rational string s, not
    reduced: "6/-4" gives (-6, 4)."""
    if not isinstance(s, str):
        raise SchemaError("rational must be a string, got %r" % (s,))
    p, slash, q = s.partition("/")
    try:
        p, q = int(p), int(q) if slash else 1
    except ValueError as exc:
        raise SchemaError("bad rational %r" % s) from exc
    if q == 0:
        raise SchemaError("bad rational %r" % s)
    return (-p, -q) if q < 0 else (p, q)


def rational_from_str(s) -> Fraction:
    return Fraction(*rational_parts(s))


def scalar_to_json(x):
    if not isinstance(x, Fraction):
        x = as_exact(x)
    if isinstance(x, Fraction):
        return str(x)  # "p" or "p/q"
    return {
        "order": x.order,
        "terms": [[e, str(c)] for e, c in sorted(x.terms.items())],
    }


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        return rational_from_str(obj)
    if isinstance(obj, dict):
        order = obj.get("order")
        terms = obj.get("terms")
        if type(order) is not int or order < 1 or not isinstance(terms, list):
            raise SchemaError("cyclotomic scalar needs integer 'order' and list 'terms'")
        parsed = {}
        for item in terms:
            if not isinstance(item, list) or len(item) != 2 or type(item[0]) is not int:
                raise SchemaError("cyclotomic term must be [exponent, rational]")
            e, c = item
            parsed[e] = parsed.get(e, Fraction(0)) + rational_from_str(c)
        return as_exact(CycScalar(order, parsed))
    raise SchemaError("scalar must be a rational string or a cyclotomic object")


@lru_cache(maxsize=None)
def quadratic_L_neg(D: int, k: int) -> Fraction:
    """L(1-k, (D/.)) at modulus |D|: the generalized Bernoulli number
    B_(k, chi) = |D|^(k-1) sum_a chi(a) B_k(a/|D|) from integer power sums
    (`_partial_zeta_sum`), with chi(a) for a <= |D| from one character
    sieve (`_kronecker_table`).  For fundamental D it is the same value as
    dirichlet_L_neg of the Kronecker character mod |D|.  Computed once per
    (D, k) and process, as `bernoulli_number` is.
    """
    if D == 0:
        raise ValueError("discriminant must be nonzero")
    F = abs(D)
    chi = _kronecker_table(D, F + 1)
    chi[0] = 0  # the residues run from 1 to |D|
    return _partial_zeta_sum(F, k, enumerate(chi))
