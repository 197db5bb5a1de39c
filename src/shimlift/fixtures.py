"""Reference expansions used by the tests and the command line.

Everything here is built from scratch: theta functions by enumerating
squares, the Eisenstein series E_w of every even weight 4 <= w <= 64 by a
multiplicative divisor-power sieve times -2w / B_w, the discriminant as
q phi^24 (phi the Euler product, phi^24 the sparse cube phi^3 of Jacobi's
identity squared three times; the level-one exact check forms its own from
the Eisenstein side), and the j-invariant as E12 / Delta + 432000/691 by
Ramanujan's identity, with one integrality check per coefficient.  The
half-integral weight Eisenstein series H_k lie in the span of
theta^(2k+1-4j) F^j, F the odd-index part of sum sigma_1(n) q^n; quadratic
L-values supply the first dim + _CHECK_TERMS coefficients, which fix H_k's
coordinates in that basis and check them, and `cohen_eisenstein` evaluates
the combination on integer lists.  These are the independent side of every
comparison; none of them go through the lift code.

A lift from the command line reads H_k, theta(tau) E_4(4 tau) and
theta(tau) E_6(4 tau) only at c(T m^2), m <= prec, and takes those values
from L-values and Hecke sums (`_CohenReadSet`, which gives the identities)
instead of building the T prec^2 + 1 terms of the window.  The read set's
indices follow one rule: with T = t s^2, t square-free, the discriminant
D0 of (-1)^k t is fixed once, and c(T m^2) is read at |D0| f^2 with
f = s m, or f = s m / 2 (zero at odd s m) when (-1)^k t = 2 or 3 mod 4,
where D0 = 4 (-1)^k t (`_cohen_indices`).  Each f is factored by walking
one least-prime-factor table.  Their windows, as every other fixture's,
are still built by `fixture`.  The convolution backend `_intpoly` is
imported by the builders that convolve lists, when they run, so a call
that multiplies nothing never loads it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import _factorization, cdiv, least_prime_table, split_square
from .errors import VerificationFailure
from .qseries import QExp, _divide_lists, _table, mul, rescale
from .scalars import BERNOULLI_BOUND, bernoulli_number, kronecker, quadratic_L_neg

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
    other index), as a list of max(prec, 0) entries.

    One pass over n, in increasing order, from the least prime p of each
    n = p m (`arith.least_prime_table`, 0 at the primes): with k = power,
    sigma_k(n) = 1 + n^k for a prime n,
    sigma_k(m) sigma_k(p) when p does not divide m, and
    sigma_k(m) sigma_k(p) - p^k sigma_k(m / p) when it does (multiplicativity
    and the recurrence of sigma_k over the powers of p), where
    p^k = sigma_k(p) - 1.  Every index read is below n, and odd when n is.
    """
    out = [0] * max(prec, 0)
    if prec < 2:
        return out
    step = 2 if odd_only else 1
    lpf = least_prime_table(prec, odd_only)
    out[1] = 1
    for n in range(1 + step, prec, step):
        p = lpf[n]
        if not p:
            out[n] = 1 + n**power
            continue
        m = n // p
        if m % p:
            out[n] = out[m] * out[p]
        else:
            out[n] = out[m] * out[p] - (out[p] - 1) * out[m // p]
    return out


def _eisenstein_constant(weight: int) -> Fraction:
    """-2w / B_w, the coefficient of sum sigma_{w-1}(n) q^n in E_w, for
    even w with 4 <= w <= BERNOULLI_BOUND."""
    if weight % 2 or not 4 <= weight <= BERNOULLI_BOUND:
        raise ValueError("weight must be even, 4 <= weight <= %d" % BERNOULLI_BOUND)
    return -2 * weight / bernoulli_number(weight)


def _eisenstein_numerators(weight: int, prec: int) -> tuple[list[int], Fraction]:
    """(a, c) with c = -2w / B_w and d E_w = sum a[n] q^n on [0, prec), d
    the denominator of c, as a list: a[0] = d and a[n] = d c sigma_{w-1}(n)."""
    c = _eisenstein_constant(weight)
    p = c.numerator
    a = [p * v for v in _sigma_sieve(weight - 1, prec)]
    if a:
        a[0] = c.denominator
    return a, c


def eisenstein(weight: int, prec: int) -> QExp:
    """Level 1 Eisenstein series E_w = 1 - (2w / B_w) sum sigma_{w-1}(n) q^n
    for every even w with 4 <= w <= BERNOULLI_BOUND; integer numerators
    where -2w / B_w is an integer (w = 4, 6, 8, 10, 14)."""
    a, c = _eisenstein_numerators(weight, prec)
    return QExp.from_numerators(Fraction(weight), 1, _table(a), c.denominator, 0, prec)


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


def _jacobi_cube(prec: int) -> QExp:
    """phi^3 = prod (1 - q^n)^3 on [0, prec), by Jacobi's identity
    phi^3 = sum over n >= 0 of (-1)^n (2n + 1) q^(n(n+1)/2): about
    sqrt(2 prec) terms.  Weight 0, as in `euler_function`."""
    coeffs = {}
    n = e = 0
    while e < prec:
        coeffs[e] = -(2 * n + 1) if n % 2 else 2 * n + 1
        n += 1
        e += n
    return QExp.from_numerators(Fraction(0), 1, coeffs, 1, 0, prec)


def delta(prec: int) -> QExp:
    """The discriminant q phi^24, phi the Euler product: phi^24 is Jacobi's
    cube `_jacobi_cube` squared three times, the first time sparse."""
    phi24 = _jacobi_cube(max(prec - 1, 0))
    for _ in range(3):
        phi24 = mul(phi24, phi24)
    shifted = {a + 1: v for a, v in phi24.numerators.items()}
    return QExp.from_numerators(Fraction(12), 1, shifted, 1, 0, prec)


def j_invariant(prec: int) -> QExp:
    """E4^3 / Delta on [-1, prec), as 691 j = 691 E12 / Delta + 432000 by
    Ramanujan's identity E4^3 = E12 + (432000/691) Delta, with 432000/691 =
    3 c4 - c12 from the constants c_w = -2w / B_w: the integer series
    691 E12 divided by phi^24 = Delta / q (`delta`'s coefficients), then one
    divmod by 691 per term.  phi^24 is monic and integral, so the quotient
    is integral, and the first remainder, at q^(n-1), is the first n where
    E4^3 is not integral: where Ramanujan's congruence
    tau(n) = sigma_11(n) mod 691 fails.  phi^24, 691 E12 and the quotient
    stay integer lists from the division to the check.
    """
    H = prec + 1
    tau = delta(prec + 2).numerators
    phi24 = [tau.get(a, 0) for a in range(1, H + 1)]
    e12, c12 = _eisenstein_numerators(12, H)
    den = c12.denominator
    extra = (den * (3 * _eisenstein_constant(4) - c12)).numerator
    series = _divide_lists(e12, 1, phi24, 1, H)[0]
    if H > 1:
        series[1] += extra
    shifted = {}
    for n, v in enumerate(series):
        v, r = divmod(v, den)
        if r:
            raise VerificationFailure(
                "Ramanujan's congruence tau(n) = sigma_11(n) mod %d fails at q^%d" % (den, n),
                first_mismatch=(n, tau.get(n, 0) % den, e12[n] // c12.numerator % den),
            )
        if v:
            shifted[n - 1] = v
    return QExp.from_numerators(Fraction(0), 1, shifted, 1, -1, prec)


def _cohen_indices(k: int, T: int, prec: int) -> tuple[int, list[int]]:
    """(D0, fs) with (-1)^k T m^2 = D0 fs[m]^2 for m = 1 .. prec and D0 a
    fundamental discriminant, T = t s^2 with t square-free, and fs[m] = 0
    where H(k, T m^2) vanishes, (-1)^k T m^2 = 2 or 3 mod 4; fs[0] = 0.

    D0 is fixed once by t: (-1)^k t when that is 1 mod 4, and then
    fs[m] = s m; else 4 (-1)^k t, and fs[m] = s m / 2, which vanishes at
    odd s m.  D0 = 0 when every fs[m] is 0 (prec = 0, or prec = 1 with the
    second rule and s odd)."""
    t, s = split_square(T)
    D0 = t if k % 2 == 0 else -t
    fs = range(0, s * prec + 1, s)  # s m
    if D0 % 4 == 1:
        fs = list(fs)
    else:
        D0 *= 4
        fs = [f // 2 if f % 2 == 0 else 0 for f in fs]
    return (D0 if any(fs) else 0), fs


def _hecke_sums(k: int, D0: int, fs: list[int], tau: dict | None = None) -> list[tuple[int, int]]:
    """(S_sigma(f), S_tau(f)) for each f in fs, with S_a(f) the sum over
    d | f of mu(d) kronecker(D0, d) d^(k-1) a(f / d): for a = sigma_(2k-1)
    Cohen's factor of H(k, |D0| f^2) beside L(1-k, (D0/.)) (Cohen 1975), for
    a = tau the coefficients tau[n] of a weight 2k Hecke eigenform (Delta's,
    at k = 6) Kohnen and Zagier's factor of c(|D0| f^2) beside c(|D0|) for
    its plus-space eigenform.  S_tau is 0 without tau, and f = 0, where a
    read value vanishes, gives (0, 0).

    Both sums are multiplicative in f, so each f is factored once, by
    walking one least-prime-factor table to max(fs)
    (`arith.least_prime_table`), and each is the product over p^e || f of
    a(p^e) - kronecker(D0, p) p^(k-1) a(p^(e-1)), with
    sigma(p^e) = p^(2k-1) sigma(p^(e-1)) + 1 and
    tau(p^(i+1)) = tau(p) tau(p^i) - p^(2k-1) tau(p^(i-1)) (Hecke).  Each
    factor at p^e, with its kronecker(D0, p), is formed once for all of fs.
    """
    lpf = least_prime_table(max(fs, default=0) + 1)
    factors: dict[int, tuple[int, int]] = {}  # p^e -> factors of S_sigma, S_tau
    out = []
    for f in fs:
        if not f:
            out.append((0, 0))
            continue
        s_sigma = s_tau = 1
        while f > 1:  # q = p^e || f, p the least prime of what is left of f
            p = lpf[f] or f
            f //= p
            q, e = p, 1
            while f % p == 0:
                f //= p
                q *= p
                e += 1
            factor = factors.get(q)
            if factor is None:
                factor = factors[q] = _hecke_factors(k, D0, p, e, tau)
            s_sigma *= factor[0]
            s_tau *= factor[1]
        out.append((s_sigma, s_tau if tau is not None else 0))
    return out


def _hecke_factors(k: int, D0: int, p: int, e: int, tau: dict | None) -> tuple[int, int]:
    """The factors at p^e of `_hecke_sums`' two products, the second 1
    without tau."""
    q = p ** (2 * k - 1)
    w = kronecker(D0, p) * p ** (k - 1)
    below, top = 0, 1  # sigma(p^(i-1)), sigma(p^i) at i = 0
    for _ in range(e):
        below, top = top, q * top + 1
    s_sigma = top - w * below
    if tau is None:
        return s_sigma, 1
    tp, below, top = tau.get(p, 0), 0, 1  # tau(p^(i-1)), tau(p^i) at i = 0
    for _ in range(e):
        below, top = top, tp * top - q * below
    return s_sigma, top - w * below


def _sigma(power: int, n: int) -> int:
    """sigma_power(n) for n >= 1, by factoring n."""
    total = 1
    for p, e in _factorization(n):
        q = p**power
        total *= (q ** (e + 1) - 1) // (q - 1)
    return total


def _theta_e_value(w: int, n: int) -> int:
    """c(n) of theta(tau) E_w(4 tau) by its theta sum: b((n - j^2) / 4)
    over the integers j with j^2 <= n and j^2 = n mod 4, b the coefficients
    of E_w (`eisenstein`) and each sigma by factoring its index; about
    sqrt(n) / 2 terms, none when n = 2 or 3 mod 4."""
    if n % 4 > 1:
        return 0
    c = _eisenstein_constant(w).numerator  # an integer at w = 4, 6, the theta sources
    total = 0
    for j in range(n % 4, math.isqrt(n) + 1, 2):
        m = (n - j * j) // 4
        b = c * _sigma(w - 1, m) if m else 1
        total += 2 * b if j else b
    return total


def _cohen_value(k: int, n: int) -> Fraction:
    """H(k, n): zeta(1 - 2k) at n = 0, else L(1 - k, (D0/.)) times the
    divisor sum, where (-1)^k n = D0 f^2, as the formula source reads it at
    index n and m = 1 (c(0) at index 1 and m = 0)."""
    a, D = _CohenReadSet(k, n + 1)._read_set(n or 1, 1)
    return Fraction(a[1 if n else 0], D)


class _CohenReadSet:
    """The values c(T m^2), m = 0 .. prec, that a lift reads of H_k
    (`cohen_eisenstein(k, hi)`), or with `theta` of theta(tau) E_k(4 tau)
    (`plus_product(k, hi)`, k = 4 or 6), for any index T and any prec,
    from L-values and Hecke sums, with no window built.

    Every m >= 1 shares the fundamental discriminant D0 of (-1)^k t, t the
    square-free part of T, fixed once, and T m^2 = |D0| f^2 with f by rule
    (`_cohen_indices`): f = s m when (-1)^k t = 1 mod 4, else f = s m / 2,
    and the value vanishes at odd s m.  Cohen's formula H(k, |D0| f^2) =
    L(1 - k, (D0/.)) S_sigma(f) (`_hecke_sums`) makes H_k's read set one
    L-value, one zeta(1 - 2k) for c(0) and one Euler product for each m.

    theta(tau) E_k(4 tau) lies in Kohnen's plus space M+_{k+1/2}(Gamma_0(4)),
    which is isomorphic to M_2k(SL_2(Z)) as a Hecke module.  Its constant
    term is 1 and H_k's is zeta(1 - 2k), so it is H_k / zeta(1 - 2k) plus a
    cusp form h of the plus space (the scale 1 / zeta(1 - 2k), 240 at k = 4
    and 32760/691 at k = 6, from `quadratic_L_neg`, and the theta sums'
    -2k / B_k from `_eisenstein_constant`), a multiple of the eigenform that
    corresponds to the eigenform tau of S_2k.  By Kohnen-Zagier (1981)
    c_h(|D0| f^2) = c_h(|D0|) S_tau(f), and c_h(|D0|) is the source's
    c(|D0|), one theta sum (`_theta_e_value`), less
    L(1 - k, (D0/.)) / zeta(1 - 2k).  S_8 = 0, so at k = 4 that coefficient
    must vanish (`VerificationFailure` at q^|D0| otherwise): theta E_4(4 tau)
    is H_4 / zeta(-7).  S_12 is spanned by Delta, so at k = 6 tau is Delta's
    coefficients (`delta`, to q^(max f)), and both sums come from one
    factoring of f.  Either theta source re-checks the value at the least m
    with f > 1 against its own theta sum (`VerificationFailure` otherwise).

    It is the lift's formula source: it answers the calls that a QExp
    window answers (`_read_set`, `weight`, `denom`, `_residues_mod4`;
    its formula answers every read, so it never raises `PrecisionError`)
    and holds only k, the theta flag, the weight and the window [0, hi)
    that it stands for, which sets its classes mod 4.  `_cohen_value` reads
    H(k, n) from it.
    """

    __slots__ = ("k", "theta", "weight", "hi")
    denom = 1

    def __init__(self, k: int, hi: int, theta: bool = False):
        if theta and k not in (4, 6):
            raise ValueError("a theta source needs k = 4 or 6, where S_2k is 0 or spanned by Delta")
        self.k = k
        self.theta = theta
        self.weight = Fraction(2 * k + 1, 2)
        self.hi = hi

    def _residues_mod4(self) -> frozenset:
        """{0, (-1)^k mod 4}, the plus-space classes of the series; c(0)
        and the coefficient at the first exponent of the second class, 1
        or 3, are nonzero, so that class is left out only when the window
        ends before it."""
        c = 1 if self.k % 2 == 0 else 3
        return frozenset((0, c) if self.hi > c else (0,))

    def _read_set(self, T: int, prec: int) -> tuple[list[int], int]:
        """(a, D) with D c(T m^2) = a[m] for m = 0 .. prec, all integers:
        c(0) and the one L-value are scaled before D is formed."""
        k = self.k
        zeta = quadratic_L_neg(1, 2 * k)
        scale = 1 / zeta if self.theta else 1
        D0, fs = _cohen_indices(k, T, prec)
        c0 = zeta * scale
        L = quadratic_L_neg(D0, k) * scale if D0 else Fraction(0)
        D = math.lcm(c0.denominator, L.denominator)
        a = L.numerator * (D // L.denominator)
        b, tau = 0, None  # D c_h(|D0|), Delta's coefficients
        if self.theta and D0:
            b = _theta_e_value(k, abs(D0)) * D - a
            if k == 6:
                tau = delta(max(fs) + 1).numerators  # Delta's coefficients are integers
            elif b:
                raise VerificationFailure(
                    "theta E_%d(4 tau) is not H_%d / zeta(%d) at q^%d, though S_%d = 0"
                    % (k, k, 1 - 2 * k, abs(D0), 2 * k),
                    first_mismatch=(abs(D0), Fraction(a + b, D), Fraction(a, D)),
                )
        values = [a * s_sigma + b * s_tau for s_sigma, s_tau in _hecke_sums(k, D0, fs, tau)]
        values[0] = c0.numerator * (D // c0.denominator)
        if self.theta:
            m = next((m for m, f in enumerate(fs) if f > 1), None)
            if m is not None:
                n = T * m * m
                want = _theta_e_value(k, n)
                if values[m] != want * D:
                    raise VerificationFailure(
                        "Hecke read set of theta E_%d(4 tau) disagrees with its theta sum at q^%d" % (k, n),
                        first_mismatch=(n, Fraction(values[m], D), want),
                    )
        return values, D


# Coefficients past the solving prefix that are re-checked against the
# L-value formula on every build: two more linear conditions on the
# coordinates, enough to catch a wrong basis.  The tests compare whole
# windows of a few thousand terms.
_CHECK_TERMS = 2


def _theta4_combination(f: list[int], a: int, b: int) -> list[int]:
    """a theta^4 + b F on len(f) terms, from f = sigma_1 at the odd indices
    and 0 at the even ones (`_sigma_sieve(1, n, odd_only=True)`).

    Jacobi's four-square theorem: r_4(m) = 8 sigma_1(m) - 32 sigma_1(m/4),
    the second term only when 4 | m.  With m = 2^e u, u odd, that is
    8 sigma_1(u) for e = 0 and 24 sigma_1(u) for e >= 1.  So the odd
    entries are (8a + b) sigma_1(u), and for each e >= 1 the entries at
    2^e u are one slice, of step 2^(e+1), of 24a sigma_1(u).
    """
    n = len(f)
    out = [0] * n
    odd = f[1::2]
    c = 8 * a + b
    out[1::2] = [c * x for x in odd]
    if a and n:
        c = 24 * a
        even = [c * x for x in odd]
        start = 2
        while start < n:
            out[start::2 * start] = even[:len(range(start, n, 2 * start))]
            start *= 2
        out[0] = a
    return out


def _theta_list(n: int) -> list[int]:
    th = [0] * n
    for m, c in _theta_terms(n).items():
        th[m] = c
    return th


def _cohen_combination(k: int, nums: list[int], n: int) -> list[int]:
    """sum_j nums[j] theta^(2k-4j) F^j on n terms, j = 0 .. dim - 1: the
    weight k + 1/2 combination without its last factor of theta.

    With 2k+1 = 4m + r, r in {1, 3}, this is theta^(r-1) P(theta^4, F) for
    P = sum_j nums[j] (theta^4)^(m-j) F^j, evaluated by Horner as
    acc <- acc theta^4 + nums[j] F^j on integer lists, from the start
    nums[0] theta^4 + nums[1] F; theta^4 itself is built only when there is
    a further step (dim >= 3), from the same sieve.  F = q G(q^2) lives on
    odd exponents, so F^j = q^j G(q^2)^j is kept as the half-length power
    G^j and added on the exponents = j mod 2 alone.  The r - 1 factors of
    theta are sparse products.
    """
    # imported here, so a call that multiplies nothing never compiles it
    from . import _intpoly

    f = _sigma_sieve(1, n, odd_only=True)
    if len(nums) > 2:
        th4 = _theta4_combination(f, 1, 0)
        g = g_power = f[1::2]
    acc = _theta4_combination(f, nums[0], nums[1])
    for j, c in enumerate(nums[2:], 2):
        acc = _intpoly.convolve(acc, th4, n)
        g_power = _intpoly.convolve(g_power, g, len(range(j, n, 2)))
        acc[j::2] = [v + c * x for v, x in zip(acc[j::2], g_power)]
    if (2 * k + 1) % 4 == 3:
        th = _theta_list(n)
        for _ in range(2):
            acc = _intpoly.convolve(acc, th, n)
    return acc


def _theta_plus(acc: list[int], n: int, eps: int) -> dict[int, int]:
    """theta * acc, for acc on n terms, at the exponents e < n of the plus
    space of sign eps only (eps e = 0 or 1 mod 4), as {exponent: numerator}
    without zeros.

    theta's even squares 4j^2 lie in class 0 mod 4 and its odd squares
    4j(j+1) + 1 in class 1, so on quarter indices class c of the product is
    theta_even * acc[c::4] + theta_odd * acc[c-1::4], where class -1 is
    acc[3::4] one index lower: four quarter-length products for the two
    classes kept, half the work of the full product.
    """
    from . import _intpoly

    quarter = len(range(0, n, 4))
    even, odd = [0] * quarter, [0] * quarter
    for m, c in _theta_terms(n).items():
        (odd if m % 4 else even)[m // 4] = c
    parts = [acc[c::4] for c in range(4)]
    table: dict[int, int] = {}
    for c in (0, 1) if eps == 1 else (0, 3):
        size = len(range(c, n, 4))
        lagged = parts[c - 1] if c else [0] + parts[3]
        pairs = zip(_intpoly.convolve(even, parts[c], size), _intpoly.convolve(odd, lagged, size))
        values = [x + y for x, y in pairs]
        table.update(zip(itertools.compress(range(c, n, 4), values), itertools.compress(values, values)))
    return table


def cohen_eisenstein(k: int, prec: int) -> QExp:
    """The weight k + 1/2 Eisenstein series on level 4 whose coefficients
    are the class number-like values H(k, n).

    H_k lies in M_{k+1/2}(Gamma_0(4)), which has the basis
    theta^(2k+1-4j) F^j, 0 <= j <= floor((2k+1)/4), with F the odd-index
    part of sum sigma_1(n) q^n (Koblitz IV.4; Cohen 1975).  Element j
    starts at q^j, so the L-value formula is evaluated only on the first
    dim coefficients, which fix H_k's coordinates by forward substitution,
    and on _CHECK_TERMS more, which must agree with the combination.
    Both the basis values for that solve and the whole window come from
    `_cohen_combination`, theta^(r-1) P(theta^4, F) with r = (2k+1) mod 4,
    whose Horner start nums[0] theta^4 + nums[1] F is sliced from one sieve
    of odd divisor sums.  The solve multiplies by the last theta on all its
    terms, so the check also covers coefficients outside the plus space;
    the window takes it on the plus-space classes of H_k alone
    (`_theta_plus`, eps = (-1)^k), whose other two classes vanish.  So k = 2
    costs four quarter-length sparse products and k = 4 two products more.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    from . import _intpoly

    dim = (2 * k + 1) // 4 + 1
    terms = dim + _CHECK_TERMS
    th = _theta_list(terms)
    basis = [
        _intpoly.convolve(_cohen_combination(k, [int(i == j) for i in range(dim)], terms), th, terms)
        for j in range(dim)
    ]
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
    coeffs = _theta_plus(_cohen_combination(k, nums, prec), prec, 1 if k % 2 == 0 else -1)
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
    "theta": (theta, {"N": 1, "eps": 1}),
    "theta0": (lambda p: theta_component(0, p), {}),
    "theta1": (lambda p: theta_component(1, p), {}),
    "e4": (lambda p: eisenstein(4, p), {}),
    "e6": (lambda p: eisenstein(6, p), {}),
    "e8": (lambda p: eisenstein(8, p), {}),
    "e10": (lambda p: eisenstein(10, p), {}),
    "e14": (lambda p: eisenstein(14, p), {}),
    "delta": (delta, {}),
    "j": (j_invariant, {}),
    "cohen52": (lambda p: cohen_eisenstein(2, p), {"N": 1, "k": 2, "eps": 1}),
    "cohen72": (lambda p: cohen_eisenstein(3, p), {"N": 1, "k": 3, "eps": -1}),
    "cohen92": (lambda p: cohen_eisenstein(4, p), {"N": 1, "k": 4, "eps": 1}),
    "theta_e4": (lambda p: plus_product(4, p), {"N": 1, "k": 4, "eps": 1}),
    "theta_e6": (lambda p: plus_product(6, p), {"N": 1, "k": 6, "eps": 1}),
    "hj4": (weakly_holomorphic_product, {"N": 1, "k": 2, "eps": 1}),
    "zero": (zero_form, {"N": 1, "k": 2, "eps": 1}),
}


# the fixtures that a lift from the command line reads through a read-set
# source instead of a window: name -> the `theta` flag of `_CohenReadSet`,
# whose docstring gives the identities; k is the fixture's own.
_READ_SETS = {
    "cohen52": False,
    "cohen72": False,
    "cohen92": False,
    "theta_e4": True,
    "theta_e6": True,
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def _entry(name: str) -> tuple:
    """(builder, defaults) of a registered fixture."""
    try:
        return FIXTURES[name]
    except KeyError:
        raise ValueError("unknown fixture %r; have %s" % (name, ", ".join(fixture_names()))) from None


def fixture(name: str, prec: int) -> QExp:
    if prec < 0:
        raise ValueError("fixture precision %d is negative" % prec)
    f = _entry(name)[0](prec)
    f.metadata.setdefault("fixture", name)
    return f


def fixture_defaults(name: str) -> dict:
    return dict(_entry(name)[1])
