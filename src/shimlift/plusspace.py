"""Plus-space support conditions, the level-divisible-by-4 projections, and
the two-component vector-valued realization of a plus form.

The plus condition is one sign: a form of weight k + 1/2 lies in the
eps plus space when its coefficients are supported on exponents 0 and
eps mod 4, with eps = (-1)^k xi (`epsilon_for`).  Every function here takes
that sign, and the projections also the level N, as plain arguments.

Every function imports the series code it uses when it runs: the
membership test and the level check `_require_4n` load nothing beyond
`errors`, so a projection refused at its level compiles no series code;
the projections import `qseries`, and only `lift_L`, which builds
vector-valued forms, imports `weilrep`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import HypothesisError

if TYPE_CHECKING:
    from .qseries import QExp
    from .weilrep import VVQExp

__all__ = [
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


def _check_eps(eps: int) -> None:
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")


def is_plus_space(f: QExp, eps: int) -> bool:
    """Whether every known exponent is 0 or eps mod 4.

    Integer exponents required; the test sees only the window, so a True
    answer is as strong as the window is long.
    """
    _check_eps(eps)
    if f.denom != 1:
        raise ValueError("plus-space test needs integer exponents")
    return f._residues_mod4() <= {0, eps % 4}


def _require_4n(N: int, what: str) -> None:
    if N < 1:
        raise ValueError("N must be positive")
    if N % 4 != 0:
        raise HypothesisError(
            "projection-needs-4|N",
            "%s at level N = %d: the slash average defining it exists on the "
            "group only when 4 | N; below that no coefficient filter is a "
            "projection" % (what, N),
        )


def project_plus(f: QExp, eps: int, N: int) -> QExp:
    """Coefficient projection onto the eps plus-space at level N; 4 | N only."""
    from .qseries import filter_residues

    _check_eps(eps)
    _require_4n(N, "plus projection")
    return filter_residues(f, 4, {0, eps % 4})


def project_two(f: QExp, N: int) -> QExp:
    """The companion projection keeping exponents 0 and 2 mod 4; same
    level confinement as project_plus."""
    from .qseries import filter_residues

    _require_4n(N, "mod-two projection")
    return filter_residues(f, 4, {0, 2})


def lift_L(f: QExp, eps: int) -> VVQExp:
    """The isomorphism onto two-component vector-valued forms:
    e_0 carries f_0 and e_1 carries f_eps, exponents divided by 4.

    Input must satisfy the plus condition; the target module is the rank
    one module for eps = +1 and its negative for eps = -1, matching the
    support law Q(1) = 1/4 resp. 3/4.
    """
    from .qseries import decompose_mod4
    from .weilrep import FqModule, VVQExp

    _check_eps(eps)
    if f.denom != 1:
        raise ValueError("vector-valued lift needs integer exponents")
    r = eps % 4
    if not is_plus_space(f, eps):
        raise HypothesisError(
            "not-plus-space",
            "support contains an exponent not congruent to 0 or %d mod 4" % r,
        )
    pieces = decompose_mod4(f)
    module = FqModule.d1() if r == 1 else FqModule.d1_minus()
    return VVQExp(module, f.weight, {(0,): pieces[0], (1,): pieces[r]})


def lift_L_inverse(vv: VVQExp) -> QExp:
    """Back from the two-component form: g_0(4 tau) + g_1(4 tau).

    The sign is read from the module: Q(1) = 1/4 for eps = +1 and 3/4
    for eps = -1.
    """
    from .qseries import add, rescale

    if vv.module.orders != (2,):
        raise ValueError("inverse lift expects a rank-one module")
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
