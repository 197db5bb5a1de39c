"""Finite quadratic modules, their Weil representations, and the metaplectic
bookkeeping needed to compare matrix products against closed formulas.

Matrices are numpy complex arrays indexed by the module's element order.
Exactness is not needed here: representation identities are checked
numerically at tight tolerance, while all lift arithmetic stays exact on
the scalar side.

numpy is imported inside the functions that build arrays, so importing
this module (and with it `shimlift` and its CLI) does not load numpy.
`qseries` is imported by `VVQExp` alone, when it checks its components,
so the Weil self-test compiles no series code.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import VerificationFailure
from .scalars import psi_char  # re-exported in __all__

if TYPE_CHECKING:
    from .qseries import QExp

__all__ = [
    "FqModule",
    "VVQExp",
    "psi_char",
    "random_gamma04",
    "rho1_gamma04",
    "sl2_word",
    "vv_support_check",
    "weil_S",
    "weil_T",
    "weil_selftest",
    "weil_word",
]

_TOL = 1e-9


def _e(x: Fraction) -> complex:
    ang = 2.0 * math.pi * float(x)
    return complex(math.cos(ang), math.sin(ang))


class FqModule:
    """A finite abelian group with a Q/Z-valued quadratic form.

    orders: cyclic factors; elements are tuples with componentwise addition.
    q_values: the quadratic form on every element, as Fractions in [0, 1).
    signature_mod_8: declared signature, validated against the Milgram sum
    sum_gamma e(Q(gamma)) = sqrt(|D|) zeta_8^signature.
    """

    __slots__ = ("orders", "q_values", "signature_mod_8", "size", "_index", "_level", "_q_arr", "_btab")

    def __init__(self, orders: Sequence[int], q_values: dict, signature_mod_8: int):
        self.orders = tuple(int(o) for o in orders)
        if any(o < 1 for o in self.orders):
            raise ValueError("cyclic orders must be positive")
        self.size = math.prod(self.orders)
        elems = list(self.elements())
        if set(q_values) != set(elems):
            raise ValueError("q_values must cover exactly the group elements")
        self.q_values = {g: Fraction(q_values[g]) % 1 for g in elems}
        self.signature_mod_8 = signature_mod_8 % 8
        self._index = {g: i for i, g in enumerate(elems)}
        self._level = math.lcm(*(v.denominator for v in self.q_values.values()))
        q_arr, sum_idx, btab = self._tables()
        self._validate(q_arr, sum_idx, btab)
        self._q_arr = q_arr
        self._btab = btab

    def elements(self) -> Iterable[tuple]:
        return itertools.product(*[range(o) for o in self.orders])

    def reduce(self, gamma: Sequence[int]) -> tuple:
        return tuple(x % o for x, o in zip(gamma, self.orders))

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def neg(self, a: Sequence[int]) -> tuple:
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def q(self, gamma: Sequence[int]) -> Fraction:
        return self.q_values[self.reduce(gamma)]

    def bilinear(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        return (self.q(self.add(a, b)) - self.q(a) - self.q(b)) % 1

    def _tables(self):
        """Integer tables: L*Q(g) by element index, the n x n index table of
        componentwise sums, and the n x n pairing table L*B(a, b) mod L.
        The module keeps the first and last; everything downstream of them
        is numpy work."""
        import numpy as np

        n = self.size
        L = self._level
        q_arr = np.empty(n, dtype=np.int64)
        for g, i in self._index.items():
            q_arr[i] = int(self.q_values[g] * L) % L
        # index of the componentwise sum, via mixed radix coordinates
        sum_idx = np.zeros((n, n), dtype=np.int64)
        stride = n
        idx = np.arange(n)
        for o in self.orders:
            stride //= o
            comp = (idx // stride) % o
            sum_idx += ((comp[:, None] + comp[None, :]) % o) * stride
        btab = (q_arr[sum_idx] - q_arr[:, None] - q_arr[None, :]) % L
        return q_arr, sum_idx, btab

    def _validate(self, q_arr, sum_idx, btab) -> None:
        import numpy as np

        n = self.size
        L = self._level
        # evenness: Q(-g) = Q(g)
        neg_idx = np.array([self._index[self.neg(g)] for g in self.elements()])
        if not np.array_equal(q_arr, q_arr[neg_idx]):
            raise ValueError("Q(-g) != Q(g) somewhere")
        # additivity of the pairing in its first slot; generators suffice
        stride = n
        for o in self.orders:
            stride //= o
            if o == 1:
                continue
            gidx = stride  # index of the generator of this factor
            lhs = btab[sum_idx[gidx], :]
            rhs = (btab[gidx][None, :] + btab) % L
            if not np.array_equal(lhs, rhs):
                raise ValueError("pairing is not bilinear")
        # non-degeneracy
        nonzero_rows = (btab != 0).any(axis=1)
        nonzero_rows[0] = True
        if not nonzero_rows.all():
            raise ValueError("degenerate element present")
        milgram = np.exp(2j * np.pi * q_arr / L).sum()
        target = math.sqrt(n) * _e(Fraction(self.signature_mod_8, 8))
        if abs(milgram - target) > _TOL * max(1.0, math.sqrt(n)):
            raise ValueError(
                "Milgram sum disagrees with declared signature %d" % self.signature_mod_8
            )

    def direct_sum(self, other: "FqModule") -> "FqModule":
        n = len(self.orders)
        q = {}
        for g in self.elements():
            for h in other.elements():
                q[g + h] = (self.q(g) + other.q(h)) % 1
        return FqModule(
            self.orders + other.orders,
            q,
            (self.signature_mod_8 + other.signature_mod_8) % 8,
        )

    # -- the standard modules -------------------------------------------

    @classmethod
    def d1(cls) -> "FqModule":
        """Rank-one lattice of norm 2: Z/2 with Q(1) = 1/4, signature 1."""
        return cls((2,), {(0,): Fraction(0), (1,): Fraction(1, 4)}, 1)

    @classmethod
    def d1_minus(cls) -> "FqModule":
        """The negated form: Q(1) = 3/4, signature -1."""
        return cls((2,), {(0,): Fraction(0), (1,): Fraction(3, 4)}, 7)

    @classmethod
    def d_b(cls, N: int) -> "FqModule":
        """Hyperbolic plane rescaled by N: (Z/N)^2 with Q(c, r) = cr/N."""
        if N < 1:
            raise ValueError("N must be positive")
        q = {
            (c, r): Fraction(c * r, N) % 1
            for c in range(N)
            for r in range(N)
        }
        return cls((N, N), q, 0)

    @classmethod
    def d1_n(cls, N: int) -> "FqModule":
        """The lift target: d1 plus the rescaled plane (its negative is
        d1_minus().direct_sum(d_b(N)))."""
        return cls.d1().direct_sum(cls.d_b(N))


def weil_T(module: FqModule) -> np.ndarray:
    """rho(T): diagonal with entries e(Q(gamma))."""
    import numpy as np

    return np.diag(np.exp(2j * np.pi * module._q_arr / module._level))


def weil_S(module: FqModule) -> np.ndarray:
    """rho(S): (zeta_8^(-sig) / sqrt(|D|)) e(-(gamma, delta))."""
    import numpy as np

    front = _e(Fraction(-module.signature_mod_8, 8)) / math.sqrt(module.size)
    return front * np.exp(-2j * np.pi * module._btab.T / module._level)


_GEN_MATS = {
    "S": (0, -1, 1, 0),
    "T": (1, 1, 0, 1),
    "Ti": (1, -1, 0, 1),
}


def weil_word(module: FqModule, word: Sequence[str]):
    """Multiply out a word in S, T, Ti.

    Returns (rho, mat, branch): the representation matrix, the underlying
    integer matrix (a, b, c, d), and the branch sign beta meaning the
    element's square-root slot is beta times the principal branch of
    sqrt(c tau + d).

    T and Ti leave the slot alone.  S maps tau to -1/tau, so after it the
    slot is sqrt(c (-1/tau) + d) sqrt(tau), whose square is d tau - c.  At
    tau = i this product of principal roots is the principal root of
    d tau - c unless arg(d + c i) > pi/2, that is unless d < 0 <= c for the
    prefix before the S; there the branch flips.
    """
    import numpy as np

    rho_gens = {
        "S": weil_S(module),
        "T": weil_T(module),
    }
    rho_gens["Ti"] = rho_gens["T"].conj()
    n = module.size
    rho = np.eye(n, dtype=complex)
    a, b, c, d = 1, 0, 0, 1
    branch = 1
    for token in word:
        if token not in _GEN_MATS:
            raise ValueError("unknown generator %r" % token)
        if token == "S" and d < 0 <= c:
            branch = -branch
        ga, gb, gc, gd = _GEN_MATS[token]
        a, b, c, d = (
            a * ga + b * gc,
            a * gb + b * gd,
            c * ga + d * gc,
            c * gb + d * gd,
        )
        rho = rho @ rho_gens[token]
    return rho, (a, b, c, d), branch


def rho1_gamma04(a: int, b: int, c: int, d: int, branch: int = 1, dual: bool = False) -> np.ndarray:
    """Closed form of the rank-one Weil representation on Gamma_0(4) words:
    psi(alpha) diag(1, i^(bd)); the dual module takes the conjugate."""
    import numpy as np

    mat = psi_char(a, b, c, d, branch) * np.diag([1.0 + 0j, 1j ** ((b * d) % 4)])
    return mat.conj() if dual else mat


class VVQExp:
    """A vector-valued expansion: one QExp per module element.

    Absent components are zero.  Every component must satisfy the support
    law: its exponents are congruent to Q(gamma) mod 1.
    """

    __slots__ = ("module", "weight", "components")

    def __init__(self, module: FqModule, weight, components: dict):
        from .qseries import QExp

        self.module = module
        self.weight = Fraction(weight)
        comps = {}
        for g, f in components.items():
            key = module.reduce(g)
            if not isinstance(f, QExp):
                raise TypeError("component at %r is not a QExp" % (g,))
            if not f.is_zero() or f.hi > f.lo:
                comps[key] = f
        self.components = comps
        vv_support_check(self)

    def component(self, gamma) -> QExp | None:
        return self.components.get(self.module.reduce(gamma))


def vv_support_check(form: VVQExp) -> None:
    """Raise VerificationFailure when some component carries an exponent
    not congruent to Q(gamma) mod 1."""
    bad = []
    for g, f in form.components.items():
        qg = form.module.q(g)
        for a in f.exponents():
            if (Fraction(a, f.denom) - qg).denominator != 1:
                bad.append((g, a, f.denom))
    if bad:
        g, a, w = bad[0]
        raise VerificationFailure(
            "support law violated at component %r: exponent %d/%d vs Q = %s"
            % (g, a, w, form.module.q(g)),
            first_mismatch=bad[0],
        )


def sl2_word(mat: tuple[int, int, int, int]) -> list[str]:
    """A word in S, T, Ti multiplying out (left to right) to the given
    SL_2(Z) matrix, by peeling T-powers and S from the left."""
    a, b, c, d = mat
    if a * d - b * c != 1:
        raise ValueError("matrix %r is not in SL2(Z)" % (mat,))
    word: list[str] = []

    def t_power(q: int) -> None:
        word.extend(["T"] * q if q >= 0 else ["Ti"] * (-q))

    while c != 0:
        q = a // c
        t_power(q)
        word.append("S")
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    if a == 1:
        t_power(b)
    else:
        word.extend(["S", "S"])
        t_power(-b)
    return word


def random_gamma04(rng) -> tuple[int, int, int, int]:
    """A pseudo-random element of the c = 0 mod 4 subgroup, as a short
    word in its generators T and (1,0;4,1)."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randrange(2, 9)):
        e = rng.randrange(-3, 4)
        if rng.randrange(2):
            a, b, c, d = a, a * e + b, c, c * e + d
        else:
            a, b, c, d = a + 4 * e * b, b, c + 4 * e * d, d
    return a, b, c, d


def weil_selftest(max_n: int = 12, words: int = 100, seed: int = 2024) -> dict:
    """Relation, unitarity and closed-form checks; raises
    VerificationFailure on any miss."""
    import numpy as np

    # built one at a time in the loop: the largest modules dominate memory
    modules = itertools.chain((FqModule.d1(), FqModule.d1_minus()), map(FqModule.d1_n, range(1, max_n + 1)))
    max_rel = 0.0
    for count, mod in enumerate(modules, 1):
        S = weil_S(mod)
        T = weil_T(mod)
        eye = np.eye(mod.size)
        checks = {
            "S^2 = (ST)^3": np.abs(S @ S - np.linalg.matrix_power(S @ T, 3)).max(),
            "S^8 = 1": np.abs(np.linalg.matrix_power(S, 8) - eye).max(),
            "S unitary": np.abs(S @ S.conj().T - eye).max(),
            "T unitary": np.abs(T @ T.conj().T - eye).max(),
        }
        for name, err in checks.items():
            max_rel = max(max_rel, err)
            if err > 1e-12:
                raise VerificationFailure(
                    "relation %s fails on module %r: error %.3g" % (name, mod.orders, err)
                )
    rng = random.Random(seed)
    d1 = FqModule.d1()
    max_word = 0.0
    for _ in range(words):
        mat = random_gamma04(rng)
        rho, got_mat, branch = weil_word(d1, sl2_word(mat))
        if got_mat != mat:
            raise VerificationFailure("word decomposition produced %r, wanted %r" % (got_mat, mat))
        closed = rho1_gamma04(*mat, branch=branch)
        err = np.abs(rho - closed).max()
        max_word = max(max_word, err)
        if err > 1e-10:
            raise VerificationFailure(
                "closed form misses word value at %r: error %.3g" % (mat, err)
            )
    return {
        "modules": count,
        "max_relation_error": max_rel,
        "words": words,
        "max_word_error": max_word,
    }
