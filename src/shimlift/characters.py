"""Dirichlet characters as explicit value tables, and the derived characters
the lift bookkeeping needs (the mod-4N extension omega_chi, the quadratic
family chi_t, and the twisted character eta attached to an index and a sign).

Moduli here are desk-sized, so characters are stored as complete tables on
the units; nothing is represented through generators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .arith import units
from .errors import HypothesisError, SchemaError, check_budget
from .scalars import Scalar, as_exact, kronecker, scalar_from_json, scalar_to_json

__all__ = [
    "DirichletCharacter",
    "chi_t",
    "eta_char",
    "kronecker_is_character",
    "omega_chi",
    "character_to_json",
    "character_from_json",
]


class DirichletCharacter:
    """Character modulo N, stored as its value table on units.

    Values are exact scalars (roots of unity); chi(d) is 0 whenever
    gcd(d, N) > 1, so lift formulas may sum over all residues and let the
    character kill the forbidden ones.
    """

    __slots__ = ("modulus", "values")

    def __init__(self, modulus: int, values: Mapping[int, object]):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        table: dict[int, Scalar] = {}
        for d, v in values.items():
            r = d % modulus
            if math.gcd(r, modulus) != 1:
                raise ValueError("value given at non-unit residue %d" % d)
            if r in table:
                raise ValueError("duplicate residue %d" % d)
            table[r] = as_exact(v)
        residues = units(modulus)
        missing = [r for r in residues if r not in table]
        if missing:
            raise ValueError("value table misses units %r mod %d" % (missing, modulus))
        if table[1 % modulus] != 1:
            raise ValueError("chi(1) must be 1")
        # chi(a g) = chi(a) chi(g) for g in a generating set gives it for
        # every unit b, by induction on a word in the generators for b
        gens = _unit_generators(residues, modulus)
        for a in residues:
            if not table[a]:
                raise ValueError("character value at %d is zero" % a)
            for g in gens:
                if table[a] * table[g] != table[a * g % modulus]:
                    raise ValueError(
                        "table is not multiplicative: chi(%d)chi(%d) != chi(%d)" % (a, g, a * g % modulus)
                    )
        self.modulus = modulus
        self.values = table

    @classmethod
    def trivial(cls, modulus: int) -> "DirichletCharacter":
        return cls(modulus, {r: 1 for r in units(modulus)})

    @classmethod
    def from_function(cls, modulus: int, fn: Callable[[int], object], period: int) -> "DirichletCharacter":
        """Build a character mod `modulus` from a function on the integers.

        `period` must be a period of fn on integers coprime to `modulus`.
        Every residue class is sampled across the whole period and must be
        constant; a non-constant class means fn does not descend to the
        requested modulus.
        """
        period = math.lcm(period, modulus)
        seen: dict[int, Scalar] = {}
        for h in range(1, period + 1):
            if math.gcd(h, modulus) != 1:
                continue
            v = as_exact(fn(h))
            r = h % modulus
            if r in seen:
                if seen[r] != v:
                    raise ValueError(
                        "function is not defined modulo %d: class %d takes two values" % (modulus, r)
                    )
            else:
                seen[r] = v
        return cls(modulus, seen)

    @classmethod
    def from_kronecker(cls, t: int, modulus: int) -> "DirichletCharacter":
        """The character d -> kronecker(t, d) at the stated modulus.

        Scans classes up to the period lcm(modulus, 8|t|) or to 8 * modulus,
        whichever is shorter.  On units the symbol has period dividing
        8 rad(t), so the scan is complete when every prime of t divides the
        modulus; otherwise the part u > 1 of |t| prime to the modulus is a
        unit where the symbol vanishes, though not at u + modulus."""
        if t == 0:
            raise ValueError("kronecker character needs nonzero t")
        period = min(8 * modulus, math.lcm(modulus, 8 * abs(t)))
        chi = cls.from_function(modulus, lambda d: kronecker(t, d), period)
        u = abs(t)
        while (g := math.gcd(u, modulus)) > 1:
            u //= g
        if u > 1:
            raise ValueError(
                "function is not defined modulo %d: kronecker(%d, .) vanishes at the unit %d" % (modulus, t, u)
            )
        return chi

    def __call__(self, n: int) -> Scalar:
        r = n % self.modulus
        v = self.values.get(r)
        return v if v is not None else Fraction(0)

    def parity(self) -> int:
        """chi(-1) as an integer, +1 for even and -1 for odd."""
        return 1 if self(-1) == 1 else -1

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values.values())

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        m = math.lcm(self.modulus, other.modulus)
        return DirichletCharacter(m, {r: self(r) * other(r) for r in units(m)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.modulus == other.modulus and all(
            self.values[r] == other.values[r] for r in self.values
        )

    def __repr__(self) -> str:
        return "DirichletCharacter(mod %d)" % self.modulus


def _unit_generators(units: list[int], modulus: int) -> list[int]:
    """A generating set of the units mod `modulus`, greedily: a unit joins
    when the subgroup the earlier ones span misses it.

    Adding u to a subgroup H spans the cosets H u^i for i below the order
    of u modulo H, so each generator costs one pass over the units.
    """
    gens: list[int] = []
    span = {1 % modulus}
    for u in units:
        if u in span:
            continue
        gens.append(u)
        base = list(span)
        x = u
        while x not in span:
            span.update(h * x % modulus for h in base)
            x = x * u % modulus
    return gens


def omega_chi(chi: DirichletCharacter) -> DirichletCharacter:
    """The mod-4N extension d -> kronecker(4*chi(-1), d) * chi(d).

    Always an even character; it encodes how chi interacts with the theta
    multiplier when a level-N character rides on a half-integral form.
    """
    return chi * DirichletCharacter.from_kronecker(4 * chi.parity(), 4 * chi.modulus)


def chi_t(t: int) -> DirichletCharacter:
    """The quadratic character d -> kronecker(t, d), at modulus 8 * (odd part of t).

    Even for every positive t.
    """
    if t < 1:
        raise ValueError("t must be positive")
    return DirichletCharacter.from_kronecker(t, 8 * (t // (t & -t)))


def kronecker_is_character(N: int, T: int, eps: int) -> bool:
    """Whether d -> kronecker(eps * T, d) is a character modulo N * T.

    The symbol is periodic mod |eps T| when eps T = 0 or 1 mod 4, and only
    mod 4 |eps T| otherwise, a period N * T contains exactly when 4 | N.
    The lift's constant-term modulus and the obstruction its gate shares
    with eta_char (`_require_eta`) read this test.
    """
    return (eps * T) % 4 in (0, 1) or N % 4 == 0


def _require_eta(N: int, t: int, eps: int) -> None:
    """HypothesisError unless kronecker(eps * t, .) is a character mod N t:
    the obstruction of the index-t lift at level N, shared by its gate and
    by eta_char."""
    if kronecker_is_character(N, t, eps):
        return
    if t % 2 == 1:
        raise HypothesisError(
            "sign-vs-index",
            "odd index t = %d works with eps = %d at level %d; eps = %d needs 4 | N"
            % (t, kronecker(-1, t), N, eps),
        )
    # t = 2 mod 4 here; rescaling by it carries a conductor-8 character that
    # the level cannot absorb without 4 | N
    raise HypothesisError(
        "eta-conductor-8",
        "even index t = %d at level %d: the attached quadratic character has "
        "conductor divisible by 8 and is not defined mod %d" % (t, N, N * t),
        case="vi",
    )


def eta_char(chi: DirichletCharacter, t: int, eps: int) -> DirichletCharacter:
    """The twisted character d -> chi(d) * kronecker(eps*t, d) modulo N*t.

    Raises the index-t lift's own HypothesisError (`_require_eta`) when that
    function is not defined modulo N*t: odd t whose sign does not match eps
    (conductor 4*t), or t = 2 mod 4 (conductor 8), either without 4 | N to
    absorb it.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if t < 1:
        raise ValueError("t must be positive")
    N = chi.modulus
    _require_eta(N, t, eps)
    return chi * DirichletCharacter.from_kronecker(eps * t, N * t)


def character_to_json(chi: DirichletCharacter) -> dict:
    """The explicit value table, which `character_from_json` reads back."""
    values = [[d, scalar_to_json(v)] for d, v in sorted(chi.values.items())]
    return {"modulus": chi.modulus, "kind": "explicit", "values": values}


def character_from_json(obj) -> DirichletCharacter:
    if not isinstance(obj, dict) or "modulus" not in obj or "kind" not in obj:
        raise SchemaError("character object needs 'modulus' and 'kind'")
    modulus = obj["modulus"]
    kind = obj["kind"]
    if type(modulus) is not int or modulus < 1:
        raise SchemaError("character modulus must be a positive integer")
    check_budget(modulus, "the character modulus")
    if kind not in ("trivial", "kronecker", "explicit"):
        raise SchemaError("unknown character kind %r" % kind)
    try:
        if kind == "trivial":
            return DirichletCharacter.trivial(modulus)
        if kind == "kronecker":
            t = obj.get("t")
            if type(t) is not int:
                raise SchemaError("kronecker character needs integer 't'")
            return DirichletCharacter.from_kronecker(t, modulus)
        pairs = obj.get("values")
        if not isinstance(pairs, list):
            raise SchemaError("explicit character needs 'values'")
        for item in pairs:
            if not (isinstance(item, list) and len(item) == 2 and type(item[0]) is int):
                raise SchemaError("explicit character value must be [residue, scalar] with an integer residue")
        return DirichletCharacter(modulus, {d: scalar_from_json(v) for d, v in pairs})
    except ValueError as exc:
        raise SchemaError("invalid character: %s" % exc) from exc
