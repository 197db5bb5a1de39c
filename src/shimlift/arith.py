"""Small number-theory helpers shared by the lift, the fixtures and the
checks: trial-division factoring of single numbers, the least-prime-factor
table, the units mod m, ceiling division and square-and-multiply.
Standard library only.

Every multiplicative table over a range of arguments is derived from one
least-prime-factor table (`least_prime_table`): the divisor-power sums of
the Eisenstein series (`fixtures._sigma_sieve`), the Kronecker symbols of
the lift's twist and of the quadratic L-values
(`scalars._kronecker_table`), and the factorizations behind the Hecke
sums of a read set (`fixtures._hecke_sums`), which walk the table: p =
lpf[n], or n itself at a prime, then on from n / p^e.  Trial division
stays for single numbers: a request's index, level and square parts, and
the theta sums' indices.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, TypeVar

X = TypeVar("X")


def _factorization(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p
    increasing; trial division up to the square root of the unfactored
    part."""
    if n < 1:
        raise ValueError("factoring needs a positive integer")
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def least_prime_table(n: int, odd_only: bool = False) -> list[int]:
    """The least prime factor of each composite m < n (each odd composite
    m, if odd_only), and 0 at every other index, the primes included, as a
    list of max(n, 0) entries.

    Each prime r with r^2 < n marks r^2, r^2 + step r, ... (step 2 if
    odd_only, else 1) by one slice assignment, the largest r first, so that
    the least prime is written last."""
    lpf = [0] * max(n, 0)
    if n < 2:
        return lpf
    step = 2 if odd_only else 1
    root = math.isqrt(n - 1)
    small = [r for r in range(3 if odd_only else 2, root + 1)
             if all(r % d for d in range(2, math.isqrt(r) + 1))]
    for r in reversed(small):
        lpf[r * r::step * r] = [r] * len(range(r * r, n, step * r))
    return lpf


def split_square(T: int) -> tuple[int, int]:
    """T = t * s^2 with t square-free; trial division."""
    t, s = 1, 1
    for p, e in _factorization(T):
        if e % 2:
            t *= p
        s *= p ** (e // 2)
    return t, s


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing."""
    return [p for p, _ in _factorization(n)]


def units(m: int) -> list[int]:
    """The residues r in [0, m) prime to m >= 1, increasing."""
    return [r for r in range(m) if math.gcd(r, m) == 1]


def cdiv(a: int, b: int) -> int:
    """Ceiling of a / b for b > 0."""
    return -((-a) // b)


def power(x: X, e: int, mul: Callable[[X, X], X], one: X | None = None) -> X | None:
    """x^e by square-and-multiply with the product `mul`, starting from
    `one` (or from x itself when `one` is None; then e = 0 gives None)."""
    out = one
    while e:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out
