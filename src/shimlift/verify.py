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
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import power
from .characters import DirichletCharacter
from .errors import PrecisionError, TailBoundError, VerificationFailure
from .fixtures import eisenstein
from .qseries import QExp, mul
from .scalars import eps_d, exact_to_complex, kronecker

__all__ = [
    "ResidualReport",
    "eval_qexp",
    "level1_exact_check",
    "modularity_residual",
]

_DEFAULT_TAUS = (0.3 + 0.8j, -0.25 + 1.1j, 0.05 + 0.6j)


def eval_qexp(f: QExp, tau: complex, wt_exponent: float | None = None) -> tuple[complex, float]:
    """Partial sum of f at tau plus a tail bound.

    The bound majorizes the unknown coefficients at and above the window
    end by C n^E with E the weight (overridable) and C twice the largest
    observed ratio; it raises TailBoundError only when the majorant series
    itself fails to contract.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    w = f.denom
    q1 = cmath.exp(2j * cmath.pi * tau / w)
    total = 0j
    cmax = 0.0
    E = float(f.weight) if wt_exponent is None else wt_exponent
    E = max(E, 0.0)
    for a, c in sorted(f.coeffs.items()):
        z = exact_to_complex(c)
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
    """chi(d) for integral weight; the odd power of (c/d) conj(eps_d) on
    top of that when the weight is half-integral (then 4 | c, d odd)."""
    a, b, c, d = mat
    out = 1.0 + 0j
    if character is not None:
        out *= exact_to_complex(character(d))
    if weight.denominator == 2:
        if c % 4 != 0 or d % 2 == 0:
            raise ValueError("half-integral multiplier needs 4 | c and odd d")
        unit = kronecker(c, d) * complex(eps_d(d).conjugate())
        out *= unit ** int(2 * weight)
    return out


@dataclass(frozen=True)
class ResidualReport:
    matrices: tuple
    points: tuple
    max_residual: float
    truncation: int
    tail_bound: float
    residuals: tuple = field(default=(), repr=False)

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
    first = f.min_support()
    if first is not None and first < 0:
        raise VerificationFailure(
            "negative exponent present; not in the holomorphic level-one space",
            first_mismatch=(first, Fraction(0), f.coeff(first)),
        )
    mons = _monomials(weight)
    dim = len(mons)
    if f.hi < dim + 1:
        raise PrecisionError(
            "decomposition at weight %d needs %d coefficients; window ends at %d"
            % (weight, dim + 1, f.hi),
            required_lo=min(f.lo, 0),
            required_hi=dim + 1,
        )
    hi = f.hi
    one = QExp(Fraction(0), 1, {0: 1}, 0, hi)
    basis = []
    for a_pow, b_pow in mons:
        g = power(eisenstein(4, hi), a_pow, mul, one)
        h = power(eisenstein(6, hi), b_pow, mul, one)
        basis.append(mul(g, h).truncate(hi))
    # solve sum x_j basis_j = f on rows 0..dim-1
    rows = [[basis[j].coeff(n) for j in range(dim)] + [f.coeff(n)] for n in range(dim)]
    sol = _solve_exact(rows, dim)
    combo: dict[int, Fraction] = {}
    for j, x in enumerate(sol):
        if x == 0:
            continue
        for n, cval in basis[j].coeffs.items():
            combo[n] = combo.get(n, Fraction(0)) + x * cval
    for n in range(max(f.lo, 0), hi):
        want = f.coeff(n)
        got = combo.get(n, Fraction(0))
        if want != got:
            raise VerificationFailure(
                "decomposition mismatch at q^%d" % n,
                first_mismatch=(n, got, want),
            )
    return {mons[j]: sol[j] for j in range(dim) if sol[j] != 0}


def _solve_exact(rows: list[list], dim: int) -> list[Fraction]:
    m = [[Fraction(x) for x in row] for row in rows]
    for col in range(dim):
        piv = next((r for r in range(col, dim) if m[r][col] != 0), None)
        if piv is None:
            raise AssertionError("Eisenstein monomials went dependent")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(dim):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][dim] for r in range(dim)]
