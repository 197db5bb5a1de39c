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

from shimlift.characters import DirichletCharacter, kronecker_is_character
from shimlift.qseries import QExp
from shimlift.scalars import CycScalar, Scalar, as_exact, kronecker, partial_zeta_neg
from shimlift.shimura import CONSTANT_TERM_SIGN, CharacterOrbit


def brute_convolve(da: dict, db: dict, cap: int) -> dict:
    """Schoolbook dict convolution, exponents below cap only."""
    out: dict[int, Fraction] = {}
    for a, ca in da.items():
        for b, cb in db.items():
            n = a + b
            if n < cap:
                out[n] = out.get(n, Fraction(0)) + ca * cb
    return {n: c for n, c in out.items() if c}


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, increasing."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def mobius(n: int) -> int:
    """The Moebius function of n >= 1, by trial division."""
    if n < 1:
        raise ValueError("the Moebius function needs a positive integer")
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def sigma(power: int, n: int) -> int:
    """Sum of d^power over the positive divisors d of n >= 1."""
    return sum(d**power for d in divisors(n))


def cohen_divisor_sum(k: int, D0: int, f: int) -> int:
    """sum over d | f of mu(d) kronecker(D0, d) d^(k-1) sigma_(2k-1)(f / d)
    by listing the divisors of f: Cohen's factor beside L(1-k, (D0/.))."""
    total = 0
    for d in divisors(f):
        md = mobius(d)
        if md:
            total += md * kronecker(D0, d) * d ** (k - 1) * sigma(2 * k - 1, f // d)
    return total


def delta_divisor_sum(k: int, D0: int, f: int, tau: dict) -> int:
    """sum over d | f of mu(d) kronecker(D0, d) d^(k-1) tau(f / d) by
    listing the divisors of f, tau(n) = tau[n] (Delta's coefficients, from
    `fixtures.delta`, at k = 6): Kohnen and Zagier's factor of
    c(|D0| f^2) beside c(|D0|) for the plus-space eigenform of Delta."""
    total = 0
    for d in divisors(f):
        md = mobius(d)
        if md:
            total += md * kronecker(D0, d) * d ** (k - 1) * tau.get(f // d, 0)
    return total


def sigma_sieve_loop(power: int, prec: int, odd_only: bool = False) -> list[int]:
    """sigma_power(n) for 0 < n < prec (odd n only, if odd_only; 0 at every
    other index) by adding d^power at every multiple n of every d."""
    out = [0] * max(prec, 0)
    for d in range(1, prec, 2 if odd_only else 1):
        dp = d**power
        for n in range(d, prec, 2 * d if odd_only else d):
            out[n] += dp
    return out


# Reference exact-scalar helpers: the explicit dispatch the library used
# before CycScalar arithmetic returned canonical values.  The operators are
# checked against them.


def exact_add(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return as_exact(_cyc(a) + _cyc(b))


def exact_mul(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return as_exact(_cyc(a) * _cyc(b))


def exact_eq(a, b) -> bool:
    a = as_exact(a)
    b = as_exact(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return _cyc(a) == _cyc(b)


def exact_is_zero(a) -> bool:
    return not as_exact(a)


def exact_to_complex(a) -> complex:
    a = as_exact(a)
    return complex(float(a), 0.0) if isinstance(a, Fraction) else complex(a)


def _cyc(x) -> CycScalar:
    return x if isinstance(x, CycScalar) else CycScalar.from_rational(x)


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


# The lift kernel before it became a sieve over the read set {T m^2}: one
# divisor loop per output coefficient, reading each c(<d> f, T (l/d)^2) as
# a scalar through `orbit_coefficient`, and the constant term as one
# `partial_zeta_neg` per residue.  No window check and no gates.


def orbit_coefficient(orbit, f: QExp, d: int, n: int) -> Scalar:
    """c(<d> f, n) by the per-class `coefficient` methods the orbits had
    before `_translates` became their one read path, so the references
    below do not read through the code they check."""
    if isinstance(orbit, CharacterOrbit):
        v = orbit.chi(d)
        return v * f.coeff(n) if v else Fraction(0)
    r = d % orbit.modulus
    if r not in orbit.table:
        raise ValueError("%d is not a unit mod %d" % (d, orbit.modulus))
    return orbit.table[r].coeff(n)


def reference_lift(f: QExp, N: int, k: int, T: int, eps: int, prec: int, orbit) -> QExp:
    """The index-T lift to q^prec by the divisor-sum formula."""
    table: dict[int, Scalar] = {}
    for l in range(1, prec + 1):
        acc: Scalar = Fraction(0)
        for d in divisors(l):
            if math.gcd(d, N * T) != 1:
                continue
            sym = kronecker(eps * T, d)
            if sym == 0:
                continue
            c = orbit_coefficient(orbit, f, d, T * (l // d) * (l // d))
            if c:
                acc += Fraction(sym * d ** (k - 1)) * c
        table[l] = acc
    table[0] = reference_constant_term(f, orbit, N, k, T, eps)
    return QExp(Fraction(2 * k), 1, table, 0, prec + 1)


def reference_constant_term(f: QExp, orbit, N: int, k: int, T: int, eps: int) -> Scalar:
    """The partial-zeta sum at the smallest modulus P in {N T, 4 N T}
    over which kronecker(eps * T, .) is periodic, one term per residue."""
    P = N * T if kronecker_is_character(N, T, eps) else 4 * N * T
    total: Scalar = Fraction(0)
    for h in range(1, P + 1):
        if math.gcd(h, N * T) != 1:
            continue
        sym = kronecker(eps * T, h)
        if sym == 0:
            continue
        c0 = orbit_coefficient(orbit, f, h, 0)
        if c0:
            total += Fraction(sym, 2) * partial_zeta_neg(P, h, k) * c0
    return -CONSTANT_TERM_SIGN * total


def eta_char_scan(chi: DirichletCharacter, t: int, eps: int) -> DirichletCharacter:
    """eta_char as one scan of d -> kronecker(eps t, d) chi(d) over a period."""
    nt = chi.modulus * t
    return DirichletCharacter.from_function(nt, lambda d: kronecker(eps * t, d) * chi(d), math.lcm(nt, 8 * t))


def omega_chi_scan(chi: DirichletCharacter) -> DirichletCharacter:
    """omega_chi as one scan of d -> kronecker(4 chi(-1), d) chi(d)."""
    n4 = 4 * chi.modulus
    return DirichletCharacter.from_function(n4, lambda d: kronecker(4 * chi.parity(), d) * chi(d), math.lcm(n4, 16))


def perturbed_weil_S(weil_S: Callable) -> Callable:
    """weil_S with an error of 1e-6 in the top-left entry: a negative
    control that the Weil representation self-test must catch."""

    def perturbed(module):
        S = weil_S(module)
        S[0, 0] += 1e-6
        return S

    return perturbed


_WORD_MATS = {"S": (0, -1, 1, 0), "T": (1, 1, 0, 1), "Ti": (1, -1, 0, 1)}


def numeric_weil_branch(word) -> tuple[tuple[int, int, int, int], int]:
    """(mat, branch) of a word in S, T, Ti by the numeric tracking
    `weilrep.weil_word` used before its integer test: the cocycle is
    evaluated at tau = i with complex principal roots and the ratio to the
    principal value is matched against +1 and -1."""
    a, b, c, d = 1, 0, 0, 1
    branch = 1
    base = complex(0.0, 1.0)
    for token in word:
        ga, gb, gc, gd = _WORD_MATS[token]
        g_at_i = (ga * base + gb) / (gc * base + gd)
        phi_left = branch * cmath.sqrt(c * g_at_i + complex(d, 0.0))
        phi_val = phi_left * (cmath.sqrt(base) if token == "S" else 1.0 + 0.0j)
        a, b, c, d = (
            a * ga + b * gc,
            a * gb + b * gd,
            c * ga + d * gc,
            c * gb + d * gd,
        )
        principal = cmath.sqrt(complex(d, c)) if c == 0 else cmath.sqrt(c * base + d)
        ratio = phi_val / principal
        if abs(ratio - 1.0) < 1e-6:
            branch = 1
        elif abs(ratio + 1.0) < 1e-6:
            branch = -1
        else:
            raise AssertionError("cocycle value %r is not a branch sign" % ratio)
    return (a, b, c, d), branch


def gauss_jordan_solve(rows: list[list], dim: int) -> list[Fraction]:
    """The x with sum_j rows[n][j] x_j = rows[n][dim] for n < dim, by
    Gauss-Jordan elimination over Fraction: the reference for the
    coordinates that `verify.level1_exact_check` finds on its echelon
    basis."""
    m = [[Fraction(x) for x in row] for row in rows]
    for col in range(dim):
        piv = next(r for r in range(col, dim) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(dim):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][dim] for r in range(dim)]
