"""Trial-division helpers and the least-prime-factor table against a
brute-force reference: the primes below the bound by the sieve of
Eratosthenes, and each n's factorization by repeated division by them.
The Moebius function is the test suite's own (`util.mobius`, a reference
for the Cohen divisor sum), checked here the same way."""
from __future__ import annotations

import math

import pytest

from shimlift.arith import _factorization, least_prime_table, prime_factors, split_square
from util import mobius

BOUND = 3000


def _sieve(n):
    is_prime = [False, False] + [True] * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = [False] * len(range(p * p, n + 1, p))
    return [p for p, flag in enumerate(is_prime) if flag]


PRIMES = _sieve(BOUND)


def _brute_factorization(n):
    out = {}
    for p in PRIMES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    assert n == 1
    return out


def test_helpers_match_brute_force_factorization():
    for n in range(1, BOUND + 1):
        fac = _brute_factorization(n)
        assert prime_factors(n) == sorted(fac), n
        assert mobius(n) == (0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)), n
        t, s = split_square(n)
        assert t == math.prod(p for p, e in fac.items() if e % 2), n
        assert s == math.prod(p ** (e // 2) for p, e in fac.items()), n


def test_mobius_sums_to_zero_over_divisors():
    # sum of mu(d) over d | n is 1 for n = 1 and 0 otherwise
    for n in range(1, 500):
        assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == (n == 1), n


def test_edge_values():
    assert prime_factors(1) == [] and mobius(1) == 1 and split_square(1) == (1, 1)
    assert prime_factors(2 * 7919**2) == [2, 7919] and mobius(7907 * 7919) == 1
    for helper in (split_square, prime_factors, mobius):
        with pytest.raises(ValueError):
            helper(0)


def _walk(n, lpf):
    # the walk of the table's users: p = lpf[n], or n itself at a prime,
    # then on from n / p^e
    out = []
    while n > 1:
        p = lpf[n] or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def test_factorization_from_the_table_is_trial_division():
    n = 10**4 + 1
    lpf = least_prime_table(n)
    for m in range(1, n):
        assert _walk(m, lpf) == list(_factorization(m)), m
        fac = _brute_factorization(m) if m <= BOUND else None
        if fac is not None:
            assert lpf[m] == (0 if m == 1 or fac == {m: 1} else min(fac)), m


@pytest.mark.parametrize("odd_only", [False, True])
def test_least_prime_table_ends_at_every_length(odd_only):
    # the table for n is the first n entries of any longer one; odd_only
    # marks the odd composites alone
    full = least_prime_table(400)
    for n in range(-1, 400):
        table = least_prime_table(n, odd_only)
        assert len(table) == max(n, 0)
        want = [p if not odd_only or m % 2 else 0 for m, p in enumerate(full[:max(n, 0)])]
        assert table == want, n
