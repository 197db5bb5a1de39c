"""Shared oracles and generators for the test suite.

Everything here recomputes its answer by a route different from the one the
library takes, so agreement is evidence rather than tautology.
"""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import Callable

from shimlift.qseries import QExp
from shimlift.scalars import Scalar, exact_add, exact_is_zero, exact_mul, kronecker, partial_zeta_neg
from shimlift.shimura import CONSTANT_TERM_SIGN


def brute_convolve(da: dict, db: dict, cap: int) -> dict:
    """Schoolbook dict convolution, exponents below cap only."""
    out: dict[int, Fraction] = {}
    for a, ca in da.items():
        for b, cb in db.items():
            n = a + b
            if n < cap:
                out[n] = out.get(n, Fraction(0)) + ca * cb
    return {n: c for n, c in out.items() if c}


def _bern(k: int) -> Fraction:
    # Akiyama-Tanigawa, independent of the library's recurrence
    a = [Fraction(1, m + 1) for m in range(k + 1)]
    for j in range(1, k + 1):
        for m in range(k + 1 - j):
            a[m] = (m + 1) * (a[m] - a[m + 1])
    b = a[0]
    if k == 1:
        b = -b
    return b


def hurwitz_em(s: int, a: Fraction, cutoff: int = 4, tail_terms: int = 12) -> float:
    # For integer s <= 0 the correction series terminates (the rising
    # factorial hits zero), so the formula is exact and a small cutoff
    # keeps the cancellation benign.
    """Euler-Maclaurin value of the Hurwitz zeta function at integer s <= 0.

    zeta(s, a) = sum_{n<M} (n+a)^(-s) + (M+a)^(1-s)/(s-1) + (M+a)^(-s) / 2
                 + sum_j B_{2j}/(2j)! * (s)_{2j-1} * (M+a)^(-s-2j+1)
    """
    af = float(a)
    M = cutoff
    total = sum((n + af) ** (-s) for n in range(M))
    total += (M + af) ** (1 - s) / (s - 1)
    total += 0.5 * (M + af) ** (-s)
    for j in range(1, tail_terms + 1):
        rising = 1.0
        for i in range(2 * j - 1):
            rising *= s + i
        if rising == 0.0:
            break
        term = float(_bern(2 * j)) / math.factorial(2 * j) * rising
        total += term * (M + af) ** (-s - 2 * j + 1)
    return total


def partial_zeta_float(N: int, d: int, k: int) -> float:
    """Float value of sum over n > 0, n = d mod N, of n^(k-1), continued."""
    d = d % N or N
    return N ** (k - 1) * hurwitz_em(1 - k, Fraction(d, N))


def crude_eval(f: QExp, tau: complex) -> complex:
    """Direct complex summation of the stored coefficients at q = e^(2 pi i tau)."""
    total = 0j
    for a, c in f.coeffs.items():
        total += complex(c) * cmath.exp(2j * cmath.pi * tau * a / f.denom)
    return total


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def brute_jacobi(a: int, n: int) -> int:
    """Jacobi symbol for odd n >= 1 built from Legendre symbols."""
    assert n >= 1 and n % 2 == 1
    out = 1
    m = n
    p = 3
    while m > 1:
        while m % p == 0:
            out *= legendre(a, p)
            m //= p
        p += 2
        if p * p > m and m > 1:
            out *= legendre(a, m)
            break
    return out


def random_qexp(rng: random.Random, lo: int, hi: int, weight=0, denom: int = 1,
                density: float = 0.4, max_den: int = 12) -> QExp:
    coeffs = {}
    for a in range(lo, hi):
        if rng.random() < density:
            num = rng.randint(-30, 30)
            if num:
                coeffs[a] = Fraction(num, rng.randint(1, max_den))
    return QExp(weight, denom, coeffs, lo, hi)


def random_plus_series(rng: random.Random, eps: int, hi: int, weight=Fraction(5, 2)) -> QExp:
    """Random series supported only on the residues 0 and eps mod 4."""
    allowed = {0, eps % 4}
    coeffs = {}
    for a in range(hi):
        if a % 4 in allowed and rng.random() < 0.7:
            num = rng.randint(-40, 40)
            if num:
                coeffs[a] = Fraction(num, rng.randint(1, 6))
    return QExp(weight, 1, coeffs, 0, hi)


# The two constant-term sums the lift used before it had one: the double
# sum at modulus N t for square-free t, and the single sum at modulus 4 N T.
# `read(d, n)` is the n-th coefficient of <d> f.


def _constant_squarefree(read: Callable[[int, int], Scalar], N: int, k: int, t: int, eps: int) -> Scalar:
    """Constant term for square-free t: the double sum over units d mod N
    and shifts d + N m coprime to t, weighted by partial zeta values at
    modulus N t."""
    total: Scalar = Fraction(0)
    for d in range(1, N + 1):
        if math.gcd(d, N) != 1:
            continue
        c0 = read(d, 0)
        if exact_is_zero(c0):
            continue
        w = Fraction(0)
        for m in range(t):
            dm = d + N * m
            if math.gcd(dm, t) != 1:
                continue
            sym = kronecker(eps * t, dm)
            if sym == 0:
                continue
            w += Fraction(sym, 2) * partial_zeta_neg(N * t, dm, k)
        total = exact_add(total, exact_mul(w, c0))
    return exact_mul(Fraction(-CONSTANT_TERM_SIGN), total)


def _constant_extended(read: Callable[[int, int], Scalar], N: int, k: int, T: int, eps: int) -> Scalar:
    """Constant term valid for every index T: a single sum over residues
    mod 4 N T coprime to N T."""
    total: Scalar = Fraction(0)
    modulus = 4 * N * T
    for h in range(1, modulus + 1):
        if math.gcd(h, N * T) != 1:
            continue
        sym = kronecker(eps * T, h)
        if sym == 0:
            continue
        c0 = read(h, 0)
        if exact_is_zero(c0):
            continue
        w = Fraction(sym, 2) * partial_zeta_neg(modulus, h, k)
        total = exact_add(total, exact_mul(w, c0))
    return exact_mul(Fraction(-CONSTANT_TERM_SIGN), total)
