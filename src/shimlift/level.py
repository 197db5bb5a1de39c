"""Level prediction for the index t s^2 lift of a level-N form.

The level theorem has eight cases, examined in order, the first match
winning; each gives the level as factor * p_J * lcm(N, s), where p_J is the
product of the primes of M that are new to N t and do not divide s.  Case
(viii), the all-odd remainder, is covered only when the input is known to
sit in a single psi-eigenspace, and its level is that of the corrected
combination (`shimura.corrected_combination`) rather than of the plain
lift.

The module needs only `arith`, `errors` and `_record`, so the
`level-predict` subcommand loads nothing else of the package.
"""

from __future__ import annotations

import math

from ._record import Record
from .arith import prime_factors, split_square
from .errors import SchemaError

__all__ = ["LevelVerdict", "predict_level"]


class LevelVerdict(Record):
    """Outcome of the level prediction: which case matched, the factors of
    the predicted level factor * p_J * lcm(N, s), and whether the case is
    covered.  The level of case viii is that of the corrected combination
    rather than of the plain lift."""

    __slots__ = ("case_tag", "p_J", "lcm_ns", "factor", "covered")

    def __init__(self, case_tag: str, p_J: int, lcm_ns: int, factor: int, covered: bool):
        self._init(case_tag, p_J, lcm_ns, factor, covered)

    @property
    def level(self) -> int | None:
        return self.factor * self.p_J * self.lcm_ns if self.covered else None

    @property
    def needs_correction(self) -> bool:
        return self.case_tag == "viii"

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
    pj = math.prod(J)
    lcm_ns = math.lcm(N, s)

    if t % 2 == 1 and plus_space_matching_eps:
        return LevelVerdict("i", pj, lcm_ns, 1, True)
    if N % 4 == 0:
        return LevelVerdict("ii", pj, lcm_ns, 1, True)
    if (N * t) % 2 == 1 and M % 2 == 0:
        return LevelVerdict("iii", pj, lcm_ns, 1, True)
    if s % 4 == 0:
        return LevelVerdict("iv", pj, lcm_ns, 1, True)
    if N % 2 == 1 and s % 2 == 0:
        return LevelVerdict("v", pj, lcm_ns, 1, True)
    if (N * s) % 2 == 1 and t % 2 == 0:
        return LevelVerdict("vi", pj, lcm_ns, 2, True)
    if N % 4 == 2 and s % 4 != 0:
        return LevelVerdict("vii", pj, lcm_ns, 2, True)
    return LevelVerdict("viii", pj, lcm_ns, 2, psi_subspace_known)
