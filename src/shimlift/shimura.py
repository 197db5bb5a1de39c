"""The lift from weight k + 1/2 to weight 2k on exact q-expansions.

Coefficient side, for index T and level N: the q^l coefficient of the lift
is the Dirichlet convolution

    sum over d m = l with gcd(d, N T) = 1 of
        d^(k-1) * kronecker(eps * T, d) * c(d, T m^2),

where c(d, n) is the n-th coefficient of the diamond translate <d> f.  The
lift therefore reads the input only on the read set {T m^2 : 0 <= m <= prec}
and computes every coefficient at once by one sieve, out[d m] += w(d) a[m]
(`_lift`); on rational input it runs on the integer numerators over one
common denominator.  Every input answers the lift through one call,
`_read_set`, which gives those numerators with their denominator: a QExp
from its window, raising its `PrecisionError` when the window is short,
and a formula source from its formula (`fixtures._CohenReadSet`, which the
command line lifts in place of the windows of `fixtures._READ_SETS`).
The constant term is a linear combination of the c(d, 0) weighted by
partial zeta values at 1 - k, one sum over the residues h mod P prime
to N T,

    1/2 * sum of kronecker(eps * T, h) * zeta(P, h, 1 - k) * c(h, 0),

with P = N T when kronecker(eps * T, .) is a character mod N T
(`kronecker_is_character`) and P = 4 N T otherwise.  A sum of this shape
may be taken over any multiple of the period of its summand, so the
smallest such modulus gives the same value as the sum at 4 N T.  It is
evaluated from integer power sums of the weights
(`scalars._partial_zeta_sum`).

The translates <d> f = c_d g_d are read through one path, the orbit's
`_translates`, by the lift, by `diamond` and by the orbit checks alike.
Level change and the case (viii) correction are one inclusion-exclusion
sum over the subsets of a set of primes (`_prime_sum`).

Every public lift checks its integer arguments (`_check_args`) before any
gate, refusal or series work, k included: the constant term needs the
Bernoulli numbers up to B_k, so k is bounded by `BERNOULLI_BOUND`.

CONSTANT_TERM_SIGN fixes the orientation of the constant term relative to
the positive-index coefficients.  It is pinned by the classical fixtures:
the weight 5/2 Eisenstein series must lift to a multiple of E_4 and the
theta times E_4(4 tau) product to a multiple of E_8, and both force the
same sign (see the acceptance tests).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import prime_factors, split_square, units
from .characters import DirichletCharacter, _require_eta, kronecker_is_character
from .errors import HypothesisError, SchemaError
from .level import LevelVerdict, predict_level
from .plusspace import is_plus_space
from .qseries import QExp, add, rescale, scale
from .scalars import BERNOULLI_BOUND, Scalar, _kronecker_table, _partial_zeta_sum, kronecker

__all__ = [
    "CONSTANT_TERM_SIGN",
    "CharacterOrbit",
    "DiamondOrbit",
    "ExplicitOrbit",
    "LevelVerdict",
    "corrected_combination",
    "diamond",
    "level_change_rhs",
    "matches_plus_space",
    "predict_level",
    "shimura_S1",
    "shimura_St",
    "shimura_general",
    "split_square",
]

CONSTANT_TERM_SIGN = -1


class DiamondOrbit:
    """How the diamond translates <d> f are known: through a character, or
    as an explicit table of expansions indexed by units.  `_translates` is
    the one read path; the lift, `diamond` and the checks below all go
    through it."""

    def _translates(self, f: QExp) -> tuple[int, dict]:
        """(m, {r: (c, g)}) with <d> f = c g for every unit d = r mod m;
        the lift reads each distinct g once."""
        raise NotImplementedError

    def twist(self, f: QExp, m: int) -> tuple[QExp, "DiamondOrbit"]:
        """The pair (<m> f, orbit of <m> f)."""
        raise NotImplementedError

    def validate_for(self, f: QExp, N: int) -> None:
        """SchemaError unless the orbit lives at level N, its translate at 1
        is f itself and every translate has integer exponents."""
        _validate_translates(f, N, *self._translates(f))


def _validate_translates(f: QExp, N: int, modulus: int, translates: dict) -> None:
    """`DiamondOrbit.validate_for` on a table that `_translates` gave, so
    that the lift validates the one table it reads."""
    if N % modulus != 0:
        raise SchemaError("orbit modulus %d does not divide the level %d" % (modulus, N))
    c, g = translates[1 % modulus]
    if c != 1 or (g is not f and g != f):
        raise SchemaError("orbit entry at 1 disagrees with the input expansion")
    if any(g.denom != 1 for _, g in translates.values()):
        raise SchemaError("orbit entries need integer exponents")


class CharacterOrbit(DiamondOrbit):
    """<d> f = chi(d) f."""

    __slots__ = ("chi",)

    def __init__(self, chi: DirichletCharacter):
        self.chi = chi

    def _translates(self, f):
        return self.chi.modulus, {r: (v, f) for r, v in self.chi.values.items()}

    def twist(self, f, m):
        return scale(f, self.chi(m)), self


class ExplicitOrbit(DiamondOrbit):
    """A table d -> <d> f over the units mod its modulus; entry 1 is f."""

    __slots__ = ("modulus", "table")

    def __init__(self, modulus: int, table: dict):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        residues = set(units(modulus))
        reduced = {}
        for d, g in table.items():
            r = d % modulus
            if r not in residues:
                raise ValueError("orbit entry at non-unit %d" % d)
            if r in reduced:
                raise ValueError("duplicate orbit entry at %d" % d)
            if not isinstance(g, QExp):
                raise TypeError("orbit entries must be QExp")
            reduced[r] = g
        missing = residues - set(reduced)
        if missing:
            raise ValueError("orbit table misses units %r" % sorted(missing))
        self.modulus = modulus
        self.table = reduced

    def _translates(self, f):
        return self.modulus, {r: (1, g) for r, g in self.table.items()}

    def twist(self, f, m):
        if math.gcd(m, self.modulus) != 1:
            raise ValueError("twist by non-unit %d" % m)
        shifted = {d: self.table[(d * m) % self.modulus] for d in self.table}
        return self.table[m % self.modulus], ExplicitOrbit(self.modulus, shifted)


def diamond(f: QExp, orbit: DiamondOrbit, d: int) -> QExp:
    """The translate <d> f as a series; ValueError unless d is a unit
    modulo the orbit's modulus."""
    modulus, translates = orbit._translates(f)
    if math.gcd(d, modulus) != 1:
        raise ValueError("%d is not a unit mod %d" % (d, modulus))
    c, g = translates[d % modulus]
    return g if c == 1 else scale(g, c)


# the orbit of a lift called without one: <d> f = f
_TRIVIAL_ORBIT = CharacterOrbit(DirichletCharacter.trivial(1))


def _check_args(N: int, k: int, prec: int, eps: int = 1, t: int = 1, s: int = 1, M: int = 1) -> None:
    """SchemaError naming the first lift argument out of range; the CLI
    runs it before it builds or reads the input series."""
    if N < 1:
        raise SchemaError("level must be positive")
    if M < 1:
        raise SchemaError("M must be positive")
    if k < 1:
        raise SchemaError("the integer weight parameter k must be positive")
    if k > BERNOULLI_BOUND:
        raise SchemaError(
            "the integer weight parameter k = %d exceeds %d, the largest "
            "Bernoulli degree of the constant term" % (k, BERNOULLI_BOUND)
        )
    if prec < 0:
        raise SchemaError("requested precision must be nonnegative")
    if eps not in (1, -1):
        raise SchemaError("eps must be +1 or -1")
    if t < 1:
        raise SchemaError("t must be positive")
    if s < 1:
        raise SchemaError("s must be positive")


def _lift(f: QExp, N: int, k: int, T: int, eps: int, prec: int, orbit: DiamondOrbit) -> QExp:
    """The index-T lift to q^prec, without support gating.

    One Dirichlet-convolution sieve, out[d m] += w(d) a_d[m], with
    w(d) = kronecker(eps T, d) d^(k-1) c_d for d prime to N T (the symbols
    from one character sieve, `scalars._kronecker_table`) and
    a_d[m] = D c(g_d, T m^2), where <d> f = c_d g_d (`_translates`) and D
    is the lcm of the denominators of the g_d's reads (`_read_set`, once
    for each distinct g_d in table order: the first short window raises).
    On rational input with rational c_d every term is an integer.  The
    constant term is the partial-zeta sum over h mod P of
    kronecker(eps T, h) c(<h> f, 0), taken from integer power sums.
    """
    if f.denom != 1:
        raise SchemaError("lift input needs integer exponents")
    modulus, translates = orbit._translates(f)
    _validate_translates(f, N, modulus, translates)
    series = {id(g): g for _, g in translates.values()}
    reads = {key: g._read_set(T, prec) for key, g in series.items()}
    D = math.lcm(*[den for _, den in reads.values()])
    reads = {key: a if den == D else [v * (D // den) for v in a] for key, (a, den) in reads.items()}
    # (c_d, a_d) for each unit class d mod the orbit's modulus, in place of
    # (c_d, g_d), so that one table of phi(modulus) entries is held
    translates = {r: (_integral(c), reads[id(g)]) for r, (c, g) in translates.items()}
    P = N * T if kronecker_is_character(N, T, eps) else 4 * N * T
    # kronecker(eps T, d) for every d either sum reads, from one sieve, with
    # the multiples of N's primes set to 0 too: nonzero exactly on the units
    # of N T
    chi = _kronecker_table(eps * T, max(prec, P) + 1)
    for p in prime_factors(N):
        chi[p::p] = [0] * len(range(p, len(chi), p))

    def twisted(d: int):
        """(kronecker(eps T, d) c_d, a_d), or (0, None) off the units."""
        if not chi[d]:
            return 0, None
        c, a = translates[d % modulus]
        return chi[d] * c, a

    out = [0] * (prec + 1)
    for d in range(1, prec + 1):
        w, a = twisted(d)
        if w:
            w *= d ** (k - 1)
            for m in range(1, prec // d + 1):
                if a[m]:
                    out[d * m] += w * a[m]
    weights = []
    for h in range(1, P + 1):
        w, a = twisted(h)
        if w:
            weights.append((h, w * a[0]))
    constant = _partial_zeta_sum(P, k, weights) * Fraction(-CONSTANT_TERM_SIGN, 2 * D)
    if isinstance(constant, Fraction) and all(type(v) is int for v in out):
        E = math.lcm(D, constant.denominator)
        table = {l: v * (E // D) for l, v in enumerate(out) if v}
        if constant:
            table[0] = constant.numerator * (E // constant.denominator)
        return QExp.from_numerators(2 * k, 1, table, E, 0, prec + 1)
    coeffs = {l: v * Fraction(1, D) for l, v in enumerate(out) if v}
    coeffs[0] = constant
    return QExp(2 * k, 1, coeffs, 0, prec + 1)


def _integral(c: Scalar):
    """c as an int when it is an integer, so integer reads stay integers."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def shimura_S1(f: QExp, N: int, k: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The index-1 lift; defined for every form of its level, no support
    hypotheses."""
    _check_args(N, k, prec)
    return _lift(f, N, k, 1, 1, prec, orbit or _TRIVIAL_ORBIT)


def _gate_squarefree(f: QExp, N: int, t: int, eps: int) -> None:
    _require_eta(N, t, eps)
    if N % 4 != 0 and not is_plus_space(f, eps):
        raise HypothesisError(
            "not-plus-space",
            "index t = %d at level %d needs support in {0, %d} mod 4"
            % (t, N, eps % 4),
        )


def shimura_St(f: QExp, N: int, k: int, t: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The index-t lift for square-free t, under the support hypotheses.

    A level divisible by 4 lifts every form at every index.  Otherwise an
    odd index requires the plus condition with eps = kronecker(-1, t), and
    an even index is obstructed outright.  A non-square-free index is
    routed to shimura_general.
    """
    _check_args(N, k, prec, eps, t)
    t0, s0 = split_square(t)
    if s0 != 1:
        return shimura_general(f, N, k, t0, s0, eps, prec, orbit)
    if f.denom != 1:
        raise SchemaError("lift input needs integer exponents")
    _gate_squarefree(f, N, t, eps)
    return _lift(f, N, k, t, eps, prec, orbit or _TRIVIAL_ORBIT)


def shimura_general(f: QExp, N: int, k: int, t: int, s: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The lift of index t s^2, defined for every input by the same
    coefficient formula and constant term.

    No support gating: this is the formula's maximal domain.  The index is
    refactored so the square-free part is canonical.
    """
    _check_args(N, k, prec, eps, t, s)
    return _lift(f, N, k, t * s * s, eps, prec, orbit or _TRIVIAL_ORBIT)


def _ungated_squarefree(f: QExp, N: int, k: int, t: int, eps: int, prec: int, orbit: DiamondOrbit) -> QExp:
    """Square-free-index lift without the support gate, used by the level
    change combination whose terms are formed before hypotheses are
    re-examined."""
    # kept as its own name: bench/tracer.py wraps it to count level-change lifts
    return _lift(f, N, k, t, eps, prec, orbit)


def _prime_sum(f: QExp, orbit: DiamondOrbit, primes: list, k: int, et: int, lift) -> QExp:
    """The inclusion-exclusion sum over the subsets J of `primes`,

        sum of (-1)^|J| kronecker(et, p_J) p_J^(k-1) (lift <p_J> f)(p_J tau),

    with p_J the product of J and lift(g, orbit of g) the lift applied to
    each translate."""
    total: QExp | None = None
    for r in range(len(primes) + 1):
        for J in itertools.combinations(primes, r):
            pj = math.prod(J)
            fj, orbj = orbit.twist(f, pj)
            coeff = Fraction((-1) ** r * kronecker(et, pj) * pj ** (k - 1))
            term = scale(rescale(lift(fj, orbj), pj), coeff)
            total = term if total is None else add(total, term)
    return total


def level_change_rhs(f: QExp, N: int, M: int, k: int, t: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The inclusion-exclusion expansion of the index-t lift at level M N
    in terms of level-N lifts.

    For I the primes of M prime to N t, the subset J contributes

        (-1)^|J| kronecker(eps t, p_J) p_J^(k-1) (S <p_J> f)(p_J tau),

    the rescaling realizing the weight-2k Atkin-Lehner style shift on
    expansions.

    Refused when 2 is in I and kronecker(eps t, .) is not a character mod
    N t (so eps t = 3 mod 4): there the combination's constant term differs
    from the level-M N lift's, though every coefficient at q^1 and above
    agrees.
    """
    _check_args(N, k, prec, eps, t, M=M)
    primes = [p for p in prime_factors(M) if math.gcd(p, N * t) == 1]
    if 2 in primes and not kronecker_is_character(N, t, eps):
        raise HypothesisError(
            "level-change-constant-at-2",
            "level change by M = %d with N t = %d odd and eps t = %d = 3 mod 4: "
            "the combination's constant term is not the lift's" % (M, N * t, eps * t),
        )
    return _prime_sum(
        f, orbit or _TRIVIAL_ORBIT, primes, k, eps * t,
        lambda g, orb: _ungated_squarefree(g, N, k, t, eps, prec, orb),
    )


def matches_plus_space(f: QExp, T: int, eps: int) -> bool:
    """Whether f lies in the plus space that the index-T lift with sign eps
    asks for: the square-free part t of T is odd with eps t = 1 mod 4, and
    f has integer exponents supported on {0, eps} mod 4."""
    t, _ = split_square(T)
    return (eps * t) % 4 == 1 and f.denom == 1 and is_plus_space(f, eps)


def corrected_combination(f: QExp, N: int, M: int, k: int, t: int, s: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The two-term combination that restores level 2 p_J lcm(N, s) in the
    all-odd case:

        S f  -  kronecker(2, t) 2^(k-1) (S <2> f)(2 tau),

    with S the index t s^2 lift at level M N.  Requires M N s t odd and an
    input that is not already in the matching plus-space (that case needs
    no correction)."""
    _check_args(N, k, prec, eps, t, s, M)
    t0, s0 = split_square(t * s * s)
    if (M * N * s * t) % 2 == 0:
        raise HypothesisError(
            "correction-needs-odd-data",
            "the corrected combination applies when M, N, s, t are all odd",
            case="viii",
        )
    if matches_plus_space(f, t0, eps):
        raise HypothesisError(
            "plus-space-needs-no-correction",
            "input already satisfies the plus condition with matching eps; "
            "the plain lift has the smaller level",
        )
    # kronecker(eps t0, 2) = kronecker(2, t0) for the odd t0 admitted here
    return _prime_sum(
        f, orbit or _TRIVIAL_ORBIT, [2], k, eps * t0,
        lambda g, orb: shimura_general(g, M * N, k, t0, s0, eps, prec, orb),
    )
