"""Small number-theory helpers shared by the lift, the fixtures and the
checks: trial-division factoring, the units mod m, divisors, the Moebius
function, divisor power sums, ceiling division and square-and-multiply.
Standard library only."""

from __future__ import annotations

import math
from typing import Callable, TypeVar

X = TypeVar("X")


def split_square(T: int) -> tuple[int, int]:
    """T = t * s^2 with t square-free; trial division."""
    if T < 1:
        raise ValueError("index must be positive")
    t, s = 1, 1
    n = T
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                t *= p
            s *= p ** (e // 2)
        p += 1 if p == 2 else 2
    t *= n
    return t, s


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def units(m: int) -> list[int]:
    """The residues r in [0, m) prime to m >= 1, increasing."""
    return [r for r in range(m) if math.gcd(r, m) == 1]


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
    """The Moebius function of n >= 1."""
    core, s = split_square(n)
    return 0 if s > 1 else (-1) ** len(prime_factors(core))


def sigma(power: int, n: int) -> int:
    """Sum of d^power over the positive divisors d of n (0 for n < 1)."""
    return sum(d**power for d in divisors(n)) if n >= 1 else 0


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
