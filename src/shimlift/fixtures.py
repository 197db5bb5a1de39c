"""Reference expansions used by the tests and the command line.

Everything here is built from scratch: theta functions by enumerating
squares, Eisenstein series by divisor-power sieves, the discriminant and
the j-invariant through the pentagonal number expansion of the Euler
product.  The half-integral weight Eisenstein series H_k lie in the span
of theta^(2k+1-4j) F^j, F the odd-index part of sum sigma_1(n) q^n;
quadratic L-values supply the first dim + _CHECK_TERMS coefficients, which
fix H_k's coordinates in that basis and check them.  The combination is
evaluated as theta^r P(theta^4, F), r = (2k+1) mod 4, with theta^4 sieved
from Jacobi's four-square formula, P by Horner on integer lists, and the r
factors of theta by sparse products.  These are the independent side of
every comparison; none of them go through the lift code.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _intpoly
from .arith import cdiv, divisors, mobius, power, sigma, split_square
from .errors import VerificationFailure
from .qseries import QExp, add, invert_unit, mul, rescale, scale
from .scalars import bernoulli_number, kronecker, quadratic_L_neg

__all__ = [
    "FIXTURES",
    "cohen_eisenstein",
    "delta",
    "eisenstein",
    "euler_function",
    "fixture",
    "fixture_names",
    "j_invariant",
    "plus_product",
    "theta",
    "theta_component",
]


def _theta_terms(prec: int, odd: bool = False) -> dict[int, int]:
    """The coefficient of q^(n^2) in theta for n >= 0 with n^2 < prec (odd
    n only, if odd): 1 at n = 0, else 2 for the pair +-n."""
    coeffs = {}
    n = 1 if odd else 0
    while n * n < prec:
        coeffs[n * n] = 2 if n else 1
        n += 2 if odd else 1
    return coeffs


def theta(prec: int) -> QExp:
    """Sum of q^(n^2) over all integers n; weight 1/2, level 4."""
    return QExp.from_numerators(Fraction(1, 2), 1, _theta_terms(prec), 1, 0, prec)


def theta_component(j: int, prec: int) -> QExp:
    """The two pieces of theta on the quarter-integral lattice.

    Component 0 collects even n, so its exponents n^2/4 are integers and
    the result has denominator 1: it is theta itself.  Component 1 collects
    odd n and lives on exponents with denominator 4; the window is in
    numerator units.  Substituting tau -> 4 tau (rescale by 4) and adding
    recovers theta.
    """
    if j == 0:
        return theta(prec)
    if j == 1:
        return QExp.from_numerators(Fraction(1, 2), 4, _theta_terms(prec, odd=True), 1, 0, prec)
    raise ValueError("theta has components 0 and 1 only")


def _sigma_sieve(power: int, prec: int, odd_only: bool = False) -> list[int]:
    """sigma_power(n) for 0 < n < prec (odd n only, if odd_only; 0 at every
    other index), as a list of max(prec, 0) entries."""
    out = [0] * max(prec, 0)
    for d in range(1, prec, 2 if odd_only else 1):
        dp = d**power
        for n in range(d, prec, 2 * d if odd_only else d):
            out[n] += dp
    return out


_EISENSTEIN_WEIGHTS = (4, 6, 8, 10, 14)


def eisenstein(weight: int, prec: int) -> QExp:
    """Level 1 Eisenstein series E_w = 1 - (2w / B_w) sum sigma_{w-1}(n) q^n
    for w in {4, 6, 8, 10, 14} (the one-dimensional weights)."""
    if weight not in _EISENSTEIN_WEIGHTS:
        raise ValueError("weight must be one of %r" % (_EISENSTEIN_WEIGHTS,))
    c = Fraction(-2 * weight) / bernoulli_number(weight)
    if c.denominator != 1:
        raise AssertionError("-2w/B_w = %s is not an integer for w = %d" % (c, weight))
    c = c.numerator
    coeffs = {n: c * v for n, v in enumerate(_sigma_sieve(weight - 1, prec)) if v}
    if prec > 0:
        coeffs[0] = 1
    return QExp.from_numerators(Fraction(weight), 1, coeffs, 1, 0, prec)


def euler_function(prec: int) -> QExp:
    """prod (1 - q^n), by the pentagonal number theorem.  Weight 0 here;
    callers track the eta power's actual weight themselves."""
    coeffs: dict[int, int] = {}
    j = 0
    while True:
        placed = False
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e < prec:
                coeffs[e] = (-1) ** j if j else 1
                placed = True
        if not placed and j > 0:
            break
        j += 1
    return QExp.from_numerators(Fraction(0), 1, coeffs, 1, 0, prec)


def delta(prec: int) -> QExp:
    """The discriminant from the Eisenstein side: (E4^3 - E6^2) / 1728."""
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    num = add(mul(mul(e4, e4), e4), scale(mul(e6, e6), -1))
    return scale(num, Fraction(1, 1728))


def j_invariant(prec: int) -> QExp:
    """E4^3 / Delta, with Delta through the eta product; window [-1, prec)."""
    span = prec + 1
    phi = euler_function(span)
    eta24 = power(phi, 24, mul)
    inv = invert_unit(eta24, span)
    e4 = eisenstein(4, span)
    series = mul(power(e4, 3, mul), inv)
    shifted = {a - 1: v for a, v in series.numerators.items() if a - 1 < prec}
    return QExp.from_numerators(Fraction(0), 1, shifted, series.cden, -1, prec)


def _cohen_value(k: int, n: int) -> Fraction:
    if n == 0:
        return quadratic_L_neg(1, 2 * k)
    sign = 1 if k % 2 == 0 else -1
    m = sign * n
    if m % 4 not in (0, 1):
        return Fraction(0)
    core, f = split_square(abs(m))
    D0 = core if m > 0 else -core
    if D0 % 4 != 1:
        D0 *= 4
        if f % 2:
            return Fraction(0)
        f //= 2
    total = Fraction(0)
    for d in divisors(f):
        md = mobius(d)
        if md == 0:
            continue
        total += md * kronecker(D0, d) * d ** (k - 1) * sigma(2 * k - 1, f // d)
    return quadratic_L_neg(D0, k) * total


# Coefficients past the solving prefix that are re-checked against the
# L-value formula on every build: two more linear conditions on the
# coordinates, enough to catch a wrong basis.  The tests compare whole
# windows of a few thousand terms.
_CHECK_TERMS = 2


def _theta4_and_f(n: int) -> tuple[list[int], list[int]]:
    """theta^4 and F = sum over odd m of sigma_1(m) q^m on n terms, both
    from one sieve of odd divisor sums.

    Jacobi's four-square theorem: r_4(m) = 8 sigma_1(m) - 32 sigma_1(m/4),
    the second term only when 4 | m.  With m = 2^a u, u odd, that is
    8 sigma_1(u) for a = 0 and 24 sigma_1(u) for a >= 1.
    """
    f = _sigma_sieve(1, n, odd_only=True)
    th4 = [0] * n
    for u in range(1, n, 2):
        th4[u] = 8 * f[u]
        m = 2 * u
        while m < n:
            th4[m] = 24 * f[u]
            m *= 2
    if n > 0:
        th4[0] = 1
    return th4, f


def _cohen_combination(k: int, nums: list[int], n: int) -> list[int]:
    """sum_j nums[j] theta^(2k+1-4j) F^j on n terms, j = 0 .. dim - 1.

    With 2k+1 = 4m + r, r in {1, 3}, this is theta^r P(theta^4, F) for
    P = sum_j nums[j] (theta^4)^(m-j) F^j, evaluated by Horner as
    acc <- acc theta^4 + nums[j] F^j on integer lists; the r factors of
    theta are sparse products.
    """
    th4, f = _theta4_and_f(n)
    acc = [nums[0] * t + nums[1] * x for t, x in zip(th4, f)]
    f_power = f
    for c in nums[2:]:
        acc = _intpoly.convolve(acc, th4, n)
        f_power = _intpoly.convolve(f_power, f, n)
        acc = [v + c * x for v, x in zip(acc, f_power)]
    th = [0] * n
    for m, c in _theta_terms(n).items():
        th[m] = c
    for _ in range((2 * k + 1) % 4):
        acc = _intpoly.convolve(acc, th, n)
    return acc


def cohen_eisenstein(k: int, prec: int) -> QExp:
    """The weight k + 1/2 Eisenstein series on level 4 whose coefficients
    are the class number-like values H(k, n).

    H_k lies in M_{k+1/2}(Gamma_0(4)), which has the basis
    theta^(2k+1-4j) F^j, 0 <= j <= floor((2k+1)/4), with F the odd-index
    part of sum sigma_1(n) q^n (Koblitz IV.4; Cohen 1975).  Element j
    starts at q^j, so the L-value formula is evaluated only on the first
    dim coefficients, which fix H_k's coordinates by forward substitution,
    and on _CHECK_TERMS more, which must agree with the combination.
    The basis values for that solve and the whole window both come from
    `_cohen_combination`: theta^r P(theta^4, F), r = (2k+1) mod 4, with
    theta^4 sieved by Jacobi's four-square formula and P evaluated by
    Horner, so k = 2 costs one sparse product and k = 4 three products.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    dim = (2 * k + 1) // 4 + 1
    terms = dim + _CHECK_TERMS
    basis = [_cohen_combination(k, [int(i == j) for i in range(dim)], terms) for j in range(dim)]
    coords: list[Fraction] = []
    for n in range(dim):
        coords.append(_cohen_value(k, n) - sum(c * b[n] for c, b in zip(coords, basis)))
    for n in range(dim, terms):
        got = sum(c * b[n] for c, b in zip(coords, basis))
        want = _cohen_value(k, n)
        if got != want:
            raise VerificationFailure(
                "theta/F basis combination for H_%d disagrees with the L-value at q^%d" % (k, n),
                first_mismatch=(n, got, want),
            )
    den = math.lcm(*(c.denominator for c in coords))
    nums = [c.numerator * (den // c.denominator) for c in coords]
    coeffs = {n: v for n, v in enumerate(_cohen_combination(k, nums, prec)) if v}
    return QExp.from_numerators(Fraction(2 * k + 1, 2), 1, coeffs, den, 0, prec)


def plus_product(weight: int, prec: int) -> QExp:
    """theta(tau) E_w(4 tau), a plus-space form of weight w + 1/2 on
    level 4."""
    e = eisenstein(weight, cdiv(prec, 4))
    return mul(theta(prec), rescale(e, 4))


def weakly_holomorphic_product(prec: int) -> QExp:
    """cohen_eisenstein(2) times j(4 tau): weight 5/2, level 4, pole of
    order 4 at infinity."""
    h = cohen_eisenstein(2, prec + 4)
    j4 = rescale(j_invariant(cdiv(prec, 4)), 4)
    return mul(h, j4)


def zero_form(prec: int) -> QExp:
    return QExp(Fraction(5, 2), 1, {}, 0, prec)


FIXTURES = {
    "theta": (theta, {"weight": Fraction(1, 2), "N": 1, "eps": 1}),
    "theta0": (lambda p: theta_component(0, p), {"weight": Fraction(1, 2)}),
    "theta1": (lambda p: theta_component(1, p), {"weight": Fraction(1, 2)}),
    "e4": (lambda p: eisenstein(4, p), {"weight": Fraction(4)}),
    "e6": (lambda p: eisenstein(6, p), {"weight": Fraction(6)}),
    "e8": (lambda p: eisenstein(8, p), {"weight": Fraction(8)}),
    "e10": (lambda p: eisenstein(10, p), {"weight": Fraction(10)}),
    "e14": (lambda p: eisenstein(14, p), {"weight": Fraction(14)}),
    "delta": (delta, {"weight": Fraction(12)}),
    "j": (j_invariant, {"weight": Fraction(0)}),
    "cohen52": (lambda p: cohen_eisenstein(2, p), {"weight": Fraction(5, 2), "N": 1, "k": 2, "eps": 1}),
    "cohen72": (lambda p: cohen_eisenstein(3, p), {"weight": Fraction(7, 2), "N": 1, "k": 3, "eps": -1}),
    "cohen92": (lambda p: cohen_eisenstein(4, p), {"weight": Fraction(9, 2), "N": 1, "k": 4, "eps": 1}),
    "theta_e4": (lambda p: plus_product(4, p), {"weight": Fraction(9, 2), "N": 1, "k": 4, "eps": 1}),
    "theta_e6": (lambda p: plus_product(6, p), {"weight": Fraction(13, 2), "N": 1, "k": 6, "eps": 1}),
    "hj4": (weakly_holomorphic_product, {"weight": Fraction(5, 2), "N": 1, "k": 2, "eps": 1}),
    "zero": (zero_form, {"weight": Fraction(5, 2), "N": 1, "k": 2, "eps": 1}),
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def fixture(name: str, prec: int) -> QExp:
    try:
        builder, meta = FIXTURES[name]
    except KeyError:
        raise ValueError("unknown fixture %r; have %s" % (name, ", ".join(fixture_names()))) from None
    f = builder(prec)
    f.metadata.setdefault("fixture", name)
    return f


def fixture_defaults(name: str) -> dict:
    try:
        return dict(FIXTURES[name][1])
    except KeyError:
        raise ValueError("unknown fixture %r; have %s" % (name, ", ".join(fixture_names()))) from None
