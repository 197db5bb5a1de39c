"""Plus-space support conditions, the level-divisible-by-4 projections, and
the two-component vector-valued realization of a plus form."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisError
from .qseries import QExp, add, decompose_mod4, filter_residues, rescale
from .weilrep import FqModule, VVQExp

__all__ = [
    "PlusContext",
    "epsilon_for",
    "is_plus_space",
    "lift_L",
    "lift_L_inverse",
    "project_plus",
    "project_two",
]


def epsilon_for(k: int, xi: int) -> int:
    """The plus-space sign (-1)^k * xi attached to weight k + 1/2 and the
    fourth-root parameter xi."""
    if xi not in (1, -1):
        raise ValueError("xi must be +1 or -1")
    return xi if k % 2 == 0 else -xi


@dataclass(frozen=True)
class PlusContext:
    """Weight parameter k, fourth-root sign xi and level N; the support
    sign epsilon = (-1)^k xi is derived, never stored."""

    k: int
    xi: int
    N: int = 1

    def __post_init__(self):
        if self.xi not in (1, -1):
            raise ValueError("xi must be +1 or -1")
        if self.N < 1:
            raise ValueError("N must be positive")

    @property
    def epsilon(self) -> int:
        return epsilon_for(self.k, self.xi)

    @property
    def four_divides_N(self) -> bool:
        return self.N % 4 == 0

    @classmethod
    def from_epsilon(cls, k: int, eps: int, N: int = 1) -> "PlusContext":
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        # xi -> (-1)^k xi is its own inverse, so it also takes eps to xi
        return cls(k, epsilon_for(k, eps), N)


def _eps_residue(ctx) -> int:
    """Accepts a PlusContext or a bare sign; returns eps mod 4 (1 or 3)."""
    eps = ctx.epsilon if isinstance(ctx, PlusContext) else ctx
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1, or wrapped in a PlusContext")
    return eps % 4


def is_plus_space(f: QExp, ctx) -> bool:
    """Whether every known exponent is 0 or epsilon mod 4.

    Integer exponents required; the test sees only the window, so a True
    answer is as strong as the window is long.  ctx may be a PlusContext
    or the bare sign.
    """
    r = _eps_residue(ctx)
    if f.denom != 1:
        raise ValueError("plus-space test needs integer exponents")
    return {a % 4 for a in f.exponents()} <= {0, r}


def _require_4n(ctx: PlusContext, what: str) -> None:
    if not ctx.four_divides_N:
        raise HypothesisError(
            "projection-needs-4|N",
            "%s at level N = %d: the slash average defining it exists on the "
            "group only when 4 | N; below that no coefficient filter is a "
            "projection" % (what, ctx.N),
        )


def project_plus(f: QExp, ctx: PlusContext) -> QExp:
    """Coefficient projection onto the epsilon plus-space; 4 | N only."""
    r = _eps_residue(ctx)
    _require_4n(ctx, "plus projection")
    return filter_residues(f, 4, {0, r})


def project_two(f: QExp, ctx: PlusContext) -> QExp:
    """The companion projection keeping exponents 0 and 2 mod 4; same
    level confinement as project_plus."""
    _require_4n(ctx, "mod-two projection")
    return filter_residues(f, 4, {0, 2})


def lift_L(f: QExp, ctx) -> VVQExp:
    """The isomorphism onto two-component vector-valued forms:
    e_0 carries f_0 and e_1 carries f_eps, exponents divided by 4.

    Input must satisfy the plus condition; the target module is the rank
    one module for eps = +1 and its negative for eps = -1, matching the
    support law Q(1) = 1/4 resp. 3/4.
    """
    r = _eps_residue(ctx)
    if f.denom != 1:
        raise ValueError("vector-valued lift needs integer exponents")
    if not is_plus_space(f, 1 if r == 1 else -1):
        raise HypothesisError(
            "not-plus-space",
            "support contains an exponent not congruent to 0 or %d mod 4" % r,
        )
    pieces = decompose_mod4(f)
    module = FqModule.d1() if r == 1 else FqModule.d1_minus()
    return VVQExp(module, f.weight, {(0,): pieces[0], (1,): pieces[r]})


def lift_L_inverse(vv: VVQExp, ctx=None) -> QExp:
    """Back from the two-component form: g_0(4 tau) + g_1(4 tau).

    The module already knows which sign it belongs to; a ctx argument, if
    given, is checked against it.
    """
    if vv.module.orders != (2,):
        raise ValueError("inverse lift expects a rank-one module")
    if ctx is not None:
        want = 1 if _eps_residue(ctx) == 1 else 3
        have = 1 if vv.module.q_values[(1,)].numerator == 1 else 3
        if want != have:
            raise ValueError("context sign disagrees with the module")
    parts = []
    for key in ((0,), (1,)):
        comp = vv.component(key)
        if comp is not None:
            parts.append(rescale(comp, 4))
    if not parts:
        raise ValueError("vector-valued form has no components to invert")
    out = parts[0]
    for p in parts[1:]:
        out = add(out, p)
    return out
