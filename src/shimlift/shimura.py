"""The lift from weight k + 1/2 to weight 2k on exact q-expansions.

Coefficient side, for index T and level N: the q^l coefficient of the lift
is

    sum over d | l with gcd(d, N T) = 1 of
        d^(k-1) * kronecker(eps * T, d) * c(d, T l^2 / d^2),

where c(d, n) is the n-th coefficient of the diamond translate <d> f.  The
constant term is a linear combination of the c(d, 0) weighted by partial
zeta values at 1 - k, one sum over the residues h mod P prime to N T,

    1/2 * sum of kronecker(eps * T, h) * zeta(P, h, 1 - k) * c(h, 0),

with P = N T when kronecker(eps * T, .) has a period dividing N T (eps T
= 0 or 1 mod 4, or 4 | N) and P = 4 N T otherwise.  A sum of this shape
may be taken over any multiple of the period of its summand, so the
smallest such modulus gives the same value as the sum at 4 N T.

CONSTANT_TERM_SIGN fixes the orientation of the constant term relative to
the positive-index coefficients.  It is pinned by the classical fixtures:
the weight 5/2 Eisenstein series must lift to a multiple of E_4 and the
theta times E_4(4 tau) product to a multiple of E_8, and both force the
same sign (see the acceptance tests).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import divisors, prime_factors, split_square
from .characters import DirichletCharacter
from .errors import HypothesisError, PrecisionError, SchemaError
from .plusspace import is_plus_space
from .qseries import QExp, add, rescale, scale
from .scalars import (
    Scalar,
    as_exact,
    exact_add,
    exact_is_zero,
    exact_mul,
    kronecker,
    partial_zeta_neg,
)

__all__ = [
    "CONSTANT_TERM_SIGN",
    "CharacterOrbit",
    "DiamondOrbit",
    "ExplicitOrbit",
    "LevelVerdict",
    "corrected_combination",
    "diamond",
    "level_change_rhs",
    "predict_level",
    "shimura_S1",
    "shimura_St",
    "shimura_general",
    "split_square",
]

CONSTANT_TERM_SIGN = -1


class DiamondOrbit:
    """How the diamond translates <d> f are known: through a character, or
    as an explicit table of expansions indexed by units."""

    def coefficient(self, f: QExp, d: int, n: int) -> Scalar:
        raise NotImplementedError

    def series(self, f: QExp, d: int) -> QExp:
        raise NotImplementedError

    def twist(self, f: QExp, m: int) -> tuple[QExp, "DiamondOrbit"]:
        """The pair (<m> f, orbit of <m> f)."""
        raise NotImplementedError

    def min_hi(self, f: QExp) -> int:
        return f.hi

    def validate_for(self, f: QExp, N: int) -> None:
        pass


class CharacterOrbit(DiamondOrbit):
    """<d> f = chi(d) f."""

    __slots__ = ("chi",)

    def __init__(self, chi: DirichletCharacter):
        self.chi = chi

    def coefficient(self, f, d, n):
        v = self.chi(d)
        if exact_is_zero(v):
            return Fraction(0)
        return exact_mul(as_exact(v), f.coeff(n))

    def series(self, f, d):
        return scale(f, self.chi(d))

    def twist(self, f, m):
        return scale(f, self.chi(m)), self

    def validate_for(self, f, N):
        if N % self.chi.modulus != 0:
            raise SchemaError(
                "orbit character modulus %d does not divide the level %d"
                % (self.chi.modulus, N)
            )


class ExplicitOrbit(DiamondOrbit):
    """A table d -> <d> f over the units mod its modulus; entry 1 is f."""

    __slots__ = ("modulus", "table")

    def __init__(self, modulus: int, table: dict):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        units = {r for r in range(modulus) if math.gcd(r, modulus) == 1}
        reduced = {}
        for d, g in table.items():
            r = d % modulus
            if r not in units:
                raise ValueError("orbit entry at non-unit %d" % d)
            if r in reduced:
                raise ValueError("duplicate orbit entry at %d" % d)
            if not isinstance(g, QExp):
                raise TypeError("orbit entries must be QExp")
            reduced[r] = g
        missing = units - set(reduced)
        if missing:
            raise ValueError("orbit table misses units %r" % sorted(missing))
        self.modulus = modulus
        self.table = reduced

    def _entry(self, d: int) -> QExp:
        r = d % self.modulus
        if r not in self.table:
            raise ValueError("%d is not a unit mod %d" % (d, self.modulus))
        return self.table[r]

    def coefficient(self, f, d, n):
        return self._entry(d).coeff(n)

    def series(self, f, d):
        return self._entry(d)

    def twist(self, f, m):
        if math.gcd(m, self.modulus) != 1:
            raise ValueError("twist by non-unit %d" % m)
        shifted = {d: self.table[(d * m) % self.modulus] for d in self.table}
        return self.table[m % self.modulus], ExplicitOrbit(self.modulus, shifted)

    def min_hi(self, f):
        return min(g.hi for g in self.table.values())

    def validate_for(self, f, N):
        if N % self.modulus != 0:
            raise SchemaError(
                "orbit modulus %d does not divide the level %d" % (self.modulus, N)
            )
        base = self.table[1 % self.modulus]
        if base is not f and base != f:
            raise SchemaError("orbit entry at 1 disagrees with the input expansion")
        for g in self.table.values():
            if g.denom != 1:
                raise SchemaError("orbit entries need integer exponents")


def diamond(f: QExp, orbit: DiamondOrbit, d: int) -> QExp:
    """The translate <d> f as a series."""
    return orbit.series(f, d)


def _default_orbit(orbit: DiamondOrbit | None) -> DiamondOrbit:
    return orbit if orbit is not None else CharacterOrbit(DirichletCharacter.trivial(1))


def _check_input(f: QExp, orbit: DiamondOrbit, N: int, k: int, T: int, prec: int) -> None:
    if N < 1:
        raise SchemaError("level must be positive")
    if k < 1:
        raise SchemaError("the integer weight parameter k must be positive")
    if prec < 0:
        raise SchemaError("requested precision must be nonnegative")
    if f.denom != 1:
        raise SchemaError("lift input needs integer exponents")
    orbit.validate_for(f, N)
    needed = T * prec * prec + 1
    have = orbit.min_hi(f)
    if have < needed:
        raise PrecisionError(
            "lift to q^%d with index %d reads input coefficients up to %d; window ends at %d"
            % (prec, T, needed - 1, have),
            required_lo=min(f.lo, 0),
            required_hi=needed,
        )


def _constant_term(f: QExp, orbit: DiamondOrbit, N: int, k: int, T: int, eps: int) -> Scalar:
    """The constant term: the partial-zeta sum at the smallest modulus P in
    {N T, 4 N T} over which kronecker(eps * T, .) is periodic."""
    D = eps * T
    P = N * T if D % 4 in (0, 1) or N % 4 == 0 else 4 * N * T
    total: Scalar = Fraction(0)
    for h in range(1, P + 1):
        if math.gcd(h, N * T) != 1:
            continue
        sym = kronecker(D, h)
        if sym == 0:
            continue
        c0 = orbit.coefficient(f, h, 0)
        if exact_is_zero(c0):
            continue
        w = Fraction(sym, 2) * partial_zeta_neg(P, h, k)
        total = exact_add(total, exact_mul(w, c0))
    return exact_mul(Fraction(-CONSTANT_TERM_SIGN), total)


def _lift(f: QExp, N: int, k: int, T: int, eps: int, prec: int, orbit: DiamondOrbit) -> QExp:
    """The index-T lift to q^prec, without support gating."""
    _check_input(f, orbit, N, k, T, prec)
    table: dict[int, Scalar] = {}
    for l in range(1, prec + 1):
        acc: Scalar = Fraction(0)
        for d in divisors(l):
            if math.gcd(d, N * T) != 1:
                continue
            sym = kronecker(eps * T, d)
            if sym == 0:
                continue
            c = orbit.coefficient(f, d, T * (l // d) * (l // d))
            if exact_is_zero(c):
                continue
            acc = exact_add(acc, exact_mul(Fraction(sym * d ** (k - 1)), c))
        table[l] = acc
    constant = _constant_term(f, orbit, N, k, T, eps)
    if not exact_is_zero(constant):
        table[0] = constant
    return QExp(Fraction(2 * k), 1, table, 0, prec + 1)


def shimura_S1(f: QExp, N: int, k: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The index-1 lift; defined for every form of its level, no support
    hypotheses."""
    return _lift(f, N, k, 1, 1, prec, _default_orbit(orbit))


def _gate_squarefree(f: QExp, N: int, t: int, eps: int) -> None:
    if N % 4 == 0:
        return
    if t % 2 == 1:
        want = kronecker(-1, t)
        if eps != want:
            raise HypothesisError(
                "sign-vs-index",
                "odd index t = %d works with eps = %d at level %d; eps = %d needs 4 | N"
                % (t, want, N, eps),
            )
        if not is_plus_space(f, eps):
            raise HypothesisError(
                "not-plus-space",
                "index t = %d at level %d needs support in {0, %d} mod 4"
                % (t, N, eps % 4),
            )
        return
    # square-free even t is 2 mod 4; rescaling by it carries a conductor-8
    # character that the level cannot absorb without 4 | N
    raise HypothesisError(
        "eta-conductor-8",
        "even index t = %d at level %d: the attached quadratic character has "
        "conductor divisible by 8 and is not defined mod %d" % (t, N, N * t),
        case="vi",
    )


def shimura_St(f: QExp, N: int, k: int, t: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The index-t lift for square-free t, under the support hypotheses.

    A level divisible by 4 lifts every form at every index.  Otherwise an
    odd index requires the plus condition with eps = kronecker(-1, t), and
    an even index is obstructed outright.  A non-square-free index is
    routed to shimura_general.
    """
    if eps not in (1, -1):
        raise SchemaError("eps must be +1 or -1")
    t0, s0 = split_square(t)
    if s0 != 1:
        return shimura_general(f, N, k, t0, s0, eps, prec, orbit)
    if f.denom != 1:
        raise SchemaError("lift input needs integer exponents")
    _gate_squarefree(f, N, t, eps)
    return _lift(f, N, k, t, eps, prec, _default_orbit(orbit))


def shimura_general(f: QExp, N: int, k: int, t: int, s: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The lift of index t s^2, defined for every input by the same
    coefficient formula and constant term.

    No support gating: this is the formula's maximal domain.  The index is
    refactored so the square-free part is canonical.
    """
    if eps not in (1, -1):
        raise SchemaError("eps must be +1 or -1")
    if s < 1:
        raise SchemaError("s must be positive")
    return _lift(f, N, k, t * s * s, eps, prec, _default_orbit(orbit))


def _ungated_squarefree(f: QExp, N: int, k: int, t: int, eps: int, prec: int, orbit: DiamondOrbit) -> QExp:
    """Square-free-index lift without the support gate, used by the level
    change combination whose terms are formed before hypotheses are
    re-examined."""
    # kept as its own name: bench/tracer.py wraps it to count level-change lifts
    return _lift(f, N, k, t, eps, prec, orbit)


def level_change_rhs(f: QExp, N: int, M: int, k: int, t: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The inclusion-exclusion expansion of the index-t lift at level M N
    in terms of level-N lifts.

    For I the primes of M prime to N t, the subset J contributes

        (-1)^|J| kronecker(eps t, p_J) p_J^(k-1) (S <p_J> f)(p_J tau),

    the rescaling realizing the weight-2k Atkin-Lehner style shift on
    expansions.
    """
    if M < 1:
        raise SchemaError("M must be positive")
    orbit = _default_orbit(orbit)
    primes = sorted({p for p in prime_factors(M) if math.gcd(p, N * t) == 1})
    total: QExp | None = None
    for r in range(len(primes) + 1):
        for J in itertools.combinations(primes, r):
            pj = math.prod(J) if J else 1
            fj, orbj = orbit.twist(f, pj)
            inner = _ungated_squarefree(fj, N, k, t, eps, prec, orbj)
            coeff = Fraction((-1) ** r * kronecker(eps * t, pj) * pj ** (k - 1))
            term = scale(rescale(inner, pj), coeff)
            total = term if total is None else add(total, term)
    return total


def corrected_combination(f: QExp, N: int, M: int, k: int, t: int, s: int, eps: int, prec: int, orbit: DiamondOrbit | None = None) -> QExp:
    """The two-term combination that restores level 2 p_J lcm(N, s) in the
    all-odd case:

        S f  -  kronecker(2, t) 2^(k-1) (S <2> f)(2 tau),

    with S the index t s^2 lift at level M N.  Requires M N s t odd and an
    input that is not already in the matching plus-space (that case needs
    no correction)."""
    t0, s0 = split_square(t * s * s)
    if (M * N * s * t) % 2 == 0:
        raise HypothesisError(
            "correction-needs-odd-data",
            "the corrected combination applies when M, N, s, t are all odd",
            case="viii",
        )
    if eps == kronecker(-1, t0) and f.denom == 1 and is_plus_space(f, eps):
        raise HypothesisError(
            "plus-space-needs-no-correction",
            "input already satisfies the plus condition with matching eps; "
            "the plain lift has the smaller level",
        )
    orbit = _default_orbit(orbit)
    main = shimura_general(f, M * N, k, t0, s0, eps, prec, orbit)
    f2, orb2 = orbit.twist(f, 2)
    twisted = shimura_general(f2, M * N, k, t0, s0, eps, prec, orb2)
    corr = scale(rescale(twisted, 2), Fraction(-kronecker(2, t0) * 2 ** (k - 1)))
    return add(main, corr)


@dataclass(frozen=True)
class LevelVerdict:
    """Outcome of the level prediction: which case matched, the predicted
    level factor * p_J * lcm(N, s), and whether that level is for the
    case-viii corrected combination rather than the plain lift."""

    case_tag: str
    level: int | None
    needs_correction: bool
    p_J: int
    lcm_ns: int
    factor: int
    covered: bool

    def __post_init__(self):
        product = self.factor * self.p_J * self.lcm_ns
        if self.covered and self.level is not None and self.level != product:
            raise AssertionError("level %d != factor * p_J * lcm_ns = %d" % (self.level, product))

    def to_json(self) -> dict:
        return {
            "case": self.case_tag,
            "level": self.level,
            "needs_correction": self.needs_correction,
            "p_J": self.p_J,
            "lcm_N_s": self.lcm_ns,
            "factor": self.factor,
            "covered": self.covered,
        }


def predict_level(N: int, t: int, s: int, M: int, *, plus_space_matching_eps: bool, psi_subspace_known: bool = False) -> LevelVerdict:
    """Predicted level of the index t s^2 lift of a level-N form after
    pushing the input up to level M N.

    N must be the minimal level of the input.  Cases are examined in
    order; the first match wins.  p_J multiplies the level by the primes
    of M that are new to N t and do not divide s.
    """
    if min(N, t, s, M) < 1:
        raise SchemaError("all parameters must be positive")
    t, extra = split_square(t)
    s = s * extra
    I = [p for p in prime_factors(M) if math.gcd(p, N * t) == 1]
    J = [p for p in I if s % p != 0]
    pj = math.prod(J) if J else 1
    lcm_ns = N * s // math.gcd(N, s)
    base = pj * lcm_ns

    if t % 2 == 1 and plus_space_matching_eps:
        return LevelVerdict("i", base, False, pj, lcm_ns, 1, True)
    if N % 4 == 0:
        return LevelVerdict("ii", base, False, pj, lcm_ns, 1, True)
    if (N * t) % 2 == 1 and M % 2 == 0:
        return LevelVerdict("iii", base, False, pj, lcm_ns, 1, True)
    if s % 4 == 0:
        return LevelVerdict("iv", base, False, pj, lcm_ns, 1, True)
    if N % 2 == 1 and s % 2 == 0:
        return LevelVerdict("v", base, False, pj, lcm_ns, 1, True)
    if (N * s) % 2 == 1 and t % 2 == 0:
        return LevelVerdict("vi", 2 * base, False, pj, lcm_ns, 2, True)
    if N % 4 == 2 and s % 4 != 0:
        return LevelVerdict("vii", 2 * base, False, pj, lcm_ns, 2, True)
    if (M * N * s * t) % 2 == 0:
        raise AssertionError("case fallthrough with an even parameter")
    if psi_subspace_known:
        return LevelVerdict("viii", 2 * base, True, pj, lcm_ns, 2, True)
    return LevelVerdict("viii", None, True, pj, lcm_ns, 2, False)
