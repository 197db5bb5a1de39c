"""Independent checks of lift outputs.

Numeric side: evaluate expansions at upper half-plane points and measure
how far F(gamma tau) is from multiplier * (c tau + d)^kappa * F(tau).
Exact side: decompose a level-one form over the monomials E4^a E6^b and
re-verify the decomposition on the whole window.

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
from .qseries import QExp, _numerators, add, mul, scale
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
        mats = ((1, 1, 0, 1), (1, 0, L, 1), (1 + L, 1, L, 1))
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


def _monomials(weight: int) -> list[tuple[int, int]]:
    out = []
    for b in range(weight // 6 + 1):
        rest = weight - 6 * b
        if rest >= 0 and rest % 4 == 0:
            out.append((rest // 4, b))
    return sorted(out)


def level1_exact_check(f: QExp, weight: int) -> dict:
    """Exact decomposition over E4^a E6^b with 4a + 6b = weight, or
    VerificationFailure carrying the first mismatching coefficient.

    The linear system uses the first dim(M_weight) coefficients; the
    candidate combination is then re-expanded and compared across the
    entire window, so success is a proof at window precision.
    """
    if weight < 0 or weight % 2:
        raise ValueError("weight must be a nonnegative even integer")
    if f.denom != 1:
        raise ValueError("integer exponents required")
    if _numerators(f) is None:
        raise ValueError("exact decomposition needs rational coefficients")
    first = f.min_support()
    if first is not None and first < 0:
        raise VerificationFailure(
            "negative exponent present; not in the holomorphic level-one space",
            first_mismatch=(first, Fraction(0), f.coeff(first)),
        )
    # dim M_weight, ahead of the monomials so a short window is refused
    # before any work that grows with the weight
    dim = weight // 12 + (weight % 12 != 2)
    if f.hi < dim + 1:
        raise PrecisionError(
            "decomposition at weight %d needs %d coefficients; window ends at %d"
            % (weight, dim + 1, f.hi),
            required_lo=min(f.lo, 0),
            required_hi=dim + 1,
        )
    from .fixtures import eisenstein  # loaded only by the exact check

    mons = _monomials(weight)
    hi = f.hi
    basis = []
    if mons:
        # along the sorted monomials a rises by 3 and b falls by 2, so each
        # power of E4 (of E6) is the one before it times E4^3 (times E6^2)
        one = QExp(Fraction(0), 1, {0: 1}, 0, hi)
        e4, e6 = eisenstein(4, hi), eisenstein(6, hi)
        e4_pows = [power(e4, mons[0][0], mul, one)]
        e6_pows = [power(e6, mons[-1][1], mul, one)]
        if dim > 1:
            e4_cubed, e6_squared = power(e4, 3, mul), mul(e6, e6)
            for _ in mons[1:]:
                e4_pows.append(mul(e4_pows[-1], e4_cubed))
                e6_pows.append(mul(e6_pows[-1], e6_squared))
        basis = [mul(g, h) for g, h in zip(e4_pows, reversed(e6_pows))]
    # solve sum x_j basis_j = f on rows 0..dim-1
    rows = [[basis[j].coeff(n) for j in range(dim)] + [f.coeff(n)] for n in range(dim)]
    sol = _solve_exact(rows, dim)
    combo = QExp(weight, 1, {}, 0, hi)
    for x, g in zip(sol, basis):
        if x:
            combo = add(combo, scale(g, x))
    # off both supports the two sides agree at 0
    lo = max(f.lo, 0)
    for n in sorted(set(f.exponents()) | set(combo.exponents())):
        if n >= lo and f.coeff(n) != combo.coeff(n):
            raise VerificationFailure(
                "decomposition mismatch at q^%d" % n,
                first_mismatch=(n, combo.coeff(n), f.coeff(n)),
            )
    return {mons[j]: sol[j] for j in range(dim) if sol[j] != 0}


def _solve_exact(rows: list[list], dim: int) -> list[Fraction]:
    """The x with sum_j rows[n][j] x_j = rows[n][dim] for n < dim.

    Fraction-free: each row is scaled to integers, forward elimination
    cross-multiplies and divides each new row by the gcd of its entries
    (the rows of these bases share large factors, so they stay about as
    long as the input), and back substitution runs on integers over one
    common denominator; Fractions are built only for the answer."""
    # The monomials are a basis of M_weight, and a nonzero form there cannot
    # vanish at q^0 .. q^(dim-1) (it would be Delta^dim times a form of
    # weight 2 or below 0), so every column has a pivot.
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    for col in range(dim):
        piv = next(r for r in range(col, dim) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        top = m[col]
        for r in range(col + 1, dim):
            if m[r][col] != 0:
                g = math.gcd(top[col], m[r][col])
                p, f = top[col] // g, m[r][col] // g
                row = [p * x - f * y for x, y in zip(m[r], top)]
                g = math.gcd(*row)
                m[r] = [x // g for x in row]
    # x_i = y_i / den (den may be negative), from the last row up
    den = 1
    y = [0] * dim
    for i in range(dim - 1, -1, -1):
        s = m[i][dim] * den - sum(m[i][j] * y[j] for j in range(i + 1, dim))
        g = math.gcd(s, m[i][i])
        s, q = s // g, m[i][i] // g
        if q != 1:
            y = [v * q for v in y]
            den *= q
        y[i] = s
    return [Fraction(v, den) for v in y]
