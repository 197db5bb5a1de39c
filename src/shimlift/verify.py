"""Independent checks of lift outputs.

Numeric side: evaluate expansions at upper half-plane points and measure
how far F(gamma tau) is from multiplier * (c tau + d)^kappa * F(tau).
Exact side: solve for a level-one form's coordinates in Miller's echelon
basis, report them over the monomials E4^a E6^b, and re-verify the
decomposition on the whole window.

Tail control is a heuristic growth model |c_n| <= C n^kappa with C fitted
from the computed coefficients and doubled; honest for holomorphic forms,
self-reportingly useless for meromorphic ones (the fitted C explodes), and
never silent either way.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import Record
from .arith import power
from .errors import PrecisionError, TailBoundError, VerificationFailure
from .qseries import QExp, _dense, _numerators, add, invert_unit, mul, scale
from .scalars import psi_char

if TYPE_CHECKING:
    from .characters import DirichletCharacter

__all__ = [
    "ResidualReport",
    "eval_qexp",
    "level1_exact_check",
    "modularity_residual",
]

_DEFAULT_TAUS = (0.3 + 0.8j, -0.25 + 1.1j, 0.05 + 0.6j)


def eval_qexp(f: QExp, tau: complex) -> tuple[complex, float]:
    """Partial sum of f at tau plus a tail bound.

    The bound majorizes the unknown coefficients at and above the window
    end by C n^E with E the weight and C twice the largest
    observed ratio; it raises TailBoundError only when the majorant series
    itself fails to contract.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    w = f.denom
    q1 = cmath.exp(2j * cmath.pi * tau / w)
    total = 0j
    cmax = 0.0
    E = max(float(f.weight), 0.0)
    for a, c in sorted(f.coeffs.items()):
        z = complex(c)
        total += z * q1**a
        base = max(abs(a) / w, 1.0)
        cmax = max(cmax, abs(z) / base**E)
    C = 2.0 * max(cmax, 1.0)
    n0 = max(f.hi, 1)
    r = abs(q1)
    ratio = (1.0 + 1.0 / n0) ** E * r
    if ratio >= 1.0:
        raise TailBoundError(
            "tail majorant does not contract at Im tau = %g (ratio %.3f)" % (tau.imag, ratio)
        )
    tail = C * max(n0 / w, 1.0) ** E * r**n0 / (1.0 - ratio)
    return total, tail


def _multiplier(weight: Fraction, mat: tuple[int, int, int, int], character) -> complex:
    """chi(d) for integral weight; times the odd power 2 * weight of the
    theta multiplier when the weight is half-integral (then 4 | c, d odd)."""
    out = 1.0 + 0j
    if character is not None:
        out *= complex(character(mat[3]))
    if weight.denominator == 2:
        out *= psi_char(*mat) ** int(2 * weight)
    return out


class ResidualReport(Record):
    """Outcome of `modularity_residual`: the sample matrices and points, the
    largest residual, the window used and the largest tail bound; the
    residual of each sample is kept, but left out of the repr."""

    __slots__ = ("matrices", "points", "max_residual", "truncation", "tail_bound", "residuals")
    _hidden = ("residuals",)

    def __init__(self, matrices: tuple, points: tuple, max_residual: float, truncation: int,
                 tail_bound: float, residuals: tuple = ()):
        self._init(matrices, points, max_residual, truncation, tail_bound, residuals)

    def to_json(self) -> dict:
        return {
            "matrices": [list(m) for m in self.matrices],
            "points": [[z.real, z.imag] for z in self.points],
            "max_residual": self.max_residual,
            "truncation": self.truncation,
            "tail_bound": self.tail_bound,
        }


def modularity_residual(
    f: QExp,
    weight,
    level: int,
    character: DirichletCharacter | None = None,
    samples=None,
    terms: int = 200,
    tail_tol: float = 1e-9,
) -> ResidualReport:
    """Largest relative defect of the weight-kappa transformation law over
    a small sample of group elements and points.

    Expansions with negative exponents are rejected: below the first pole
    the series does not represent the form and no residual is meaningful.
    """
    weight = Fraction(weight)
    if level < 1:
        raise ValueError("level must be positive")
    if f.lo < 0:  # every stored exponent lies in [lo, hi)
        raise ValueError("meromorphic expansion: numeric check refused")
    if weight.denominator not in (1, 2):
        raise ValueError("weight must be integral or half-integral")
    if weight.denominator == 2 and level % 4 != 0:
        raise ValueError("half-integral weight needs 4 | level")
    g = f.truncate(min(f.hi, terms * f.denom))
    L = level
    if samples is None:
        # d = -1 in the last: chi(d) and the theta multiplier are 1 at d = 1
        mats = ((1, 1, 0, 1), (1, 0, L, 1), (1 + L, 1, L, 1), (-1, 0, L, -1))
        samples = [(m, t) for m in mats for t in _DEFAULT_TAUS]
    worst = 0.0
    tails = 0.0
    residuals = []
    mats_seen, taus_seen = [], []
    try:
        kap = float(weight)
        for mat, tau in samples:
            a, b, c, d = mat
            if a * d - b * c != 1 or c % L != 0:
                raise ValueError("sample matrix %r is not in the level-%d group" % (mat, L))
            gt = (a * tau + b) / (c * tau + d)
            v1, t1 = eval_qexp(g, tau)
            v2, t2 = eval_qexp(g, gt)
            if max(t1, t2) > tail_tol:
                raise TailBoundError(
                    "tail bound %.3g exceeds %.3g at sample tau = %s" % (max(t1, t2), tail_tol, tau)
                )
            aut = cmath.exp(kap * cmath.log(c * tau + d)) if weight else 1.0
            mult = _multiplier(weight, mat, character)
            res = abs(v2 - mult * aut * v1) / max(1.0, abs(v1))
            residuals.append(res)
            worst = max(worst, res)
            tails = max(tails, t1, t2)
            if mat not in mats_seen:
                mats_seen.append(mat)
            if tau not in taus_seen:
                taus_seen.append(tau)
    except OverflowError as e:
        raise ValueError("numeric check leaves the float range: %s" % e) from None
    return ResidualReport(
        tuple(mats_seen), tuple(taus_seen), worst, len(g.exponents()), tails, tuple(residuals)
    )


def _level1_dim(weight: int) -> int:
    """dim M_weight(SL2(Z)), 0 unless weight is even and nonnegative."""
    return weight // 12 + (weight % 12 != 2) if weight >= 0 and weight % 2 == 0 else 0


def level1_exact_check(f: QExp, weight: int) -> dict:
    """Exact decomposition over E4^a E6^b with 4a + 6b = weight, or
    VerificationFailure carrying the first mismatching coefficient.

    With weight = 12 m + r and E_r = E4^a E6^b of weight r, Miller's basis
    Delta^j (E4^3)^(m-j) E_r = q^j + O(q^(j+1)), j <= m, is in echelon
    form: forward substitution on the first m + 1 = dim coefficients fixes
    f's coordinates.  The combination is then re-expanded and compared
    across the entire window, so success is a proof at window precision.
    """
    if weight < 0 or weight % 2:
        raise ValueError("weight must be a nonnegative even integer")
    if f.denom != 1:
        raise ValueError("integer exponents required")
    rational = _numerators(f)
    if rational is None:
        raise ValueError("exact decomposition needs rational coefficients")
    first = f.min_support()
    if first is not None and first < 0:
        raise VerificationFailure(
            "negative exponent present; not in the holomorphic level-one space",
            first_mismatch=(first, Fraction(0), f.coeff(first)),
        )
    dim = _level1_dim(weight)  # a short window is refused before any work
    if f.hi < dim + 1:
        raise PrecisionError(
            "decomposition at weight %d needs %d coefficients; window ends at %d"
            % (weight, dim + 1, f.hi),
            required_lo=min(f.lo, 0),
            required_hi=dim + 1,
        )
    from .fixtures import eisenstein  # loaded only by the exact check

    hi, m = f.hi, dim - 1
    r = weight - 12 * m  # 0, 4, 6, 8, 10 or 14 (14 at weight 2, where dim = 0)
    # c_j = C[j] / den: the basis is integral with unit pivots
    F, den = _dense(rational, dim)
    C = F[:1]
    combo = QExp(weight, 1, {}, 0, hi)
    if dim:
        rest = eisenstein(r, hi) if r else None  # E_r, as dim M_r = 1
        if m:
            cube = mul(eisenstein(4, hi), eisenstein(8, hi))  # E4^3 = E4 E8
            delta = scale(add(cube, scale(power(eisenstein(6, hi), 2, mul), -1)), Fraction(1, 1728))
            # on q^0 .. q^m the basis is g_0 u^j, u = Delta / E4^3 = q + ...
            u = mul(delta.truncate(dim), invert_unit(cube.truncate(dim)))
            g = power(cube.truncate(dim), m, mul, rest.truncate(dim) if rest else None)
            for n in range(1, dim):
                for k, v in g.numerators.items():
                    if k < dim:
                        F[k] -= C[-1] * v
                g = mul(g, u)
                C.append(F[n])
        # Horner in Delta and E4^3: acc <- acc Delta + C[j] (E4^3)^(m-j)
        acc = QExp.from_numerators(0, 1, {0: C[m]} if C[m] else {}, 1, 0, hi)
        for j in range(m - 1, -1, -1):
            cube_power = cube if j == m - 1 else mul(cube_power, cube)
            acc = add(mul(acc, delta), scale(cube_power, C[j]))
        combo = scale(mul(acc, rest) if rest else acc, Fraction(1, den))
    # Delta = (E4^3 - E6^2) / 1728: E4^(3(m-i)+a) E6^(2i+b) has coordinate
    # (-1)^i sum_{j >= i} binomial(j, i) c_j / 1728^j; a rises as i falls
    a, b = {0: (0, 0), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1), 14: (2, 1)}[r]
    out = {(3 * (m - i) + a, 2 * i + b): Fraction(s, den * 1728 ** m) for i in range(m, -1, -1)
           if (s := (-1) ** i * sum(math.comb(j, i) * C[j] * 1728 ** (m - j) for j in range(i, dim)))}
    # off both supports the two sides agree at 0
    lo = max(f.lo, 0)
    for n in sorted(set(f.exponents()) | set(combo.exponents())):
        if n >= lo and f.coeff(n) != combo.coeff(n):
            raise VerificationFailure(
                "decomposition mismatch at q^%d" % n,
                first_mismatch=(n, combo.coeff(n), f.coeff(n)),
            )
    return out
