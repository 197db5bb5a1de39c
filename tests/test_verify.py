"""Numeric evaluation, the transformation-law residual, and the exact
level-one decomposition check."""
from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

import util
from shimlift import verify
from shimlift.arith import power
from shimlift.errors import PrecisionError, TailBoundError, VerificationFailure
from shimlift.fixtures import cohen_eisenstein, delta, eisenstein, fixture, theta
from shimlift.qseries import QExp, add, mul, scale
from shimlift.scalars import CycScalar
from shimlift.verify import (
    eval_qexp,
    level1_exact_check,
    modularity_residual,
)


def test_eval_theta_pinned_points():
    th = theta(900)
    v_i, tail = eval_qexp(th, 1j)
    assert abs(v_i - 1.0037348854) < 1e-9
    assert tail < 1e-12
    v_half, _ = eval_qexp(th, 0.5j)
    assert abs(v_half - 1.0864348112) < 1e-9


def test_eval_matches_direct_summation():
    rng = random.Random(404)
    for _ in range(10):
        f = util.random_qexp(rng, 0, 60, weight=3, denom=2, density=0.5)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
        got, tail = eval_qexp(f, tau)
        want = util.crude_eval(f, tau)
        assert abs(got - want) < 1e-12
        assert tail >= 0.0


def test_eval_requires_upper_half_plane():
    th = theta(50)
    with pytest.raises(ValueError):
        eval_qexp(th, 1.0 + 0j)
    with pytest.raises(ValueError):
        eval_qexp(th, 0.3 - 0.2j)


def test_eval_tail_bound_shrinks_with_window():
    e4 = eisenstein(4, 400)
    _, t_short = eval_qexp(e4.truncate(50), 1j)
    _, t_long = eval_qexp(e4, 1j)
    assert t_long < t_short


def test_eval_tail_bound_failure_near_real_axis():
    e4 = eisenstein(4, 30)
    with pytest.raises(TailBoundError):
        eval_qexp(e4, 0.0001j)


def test_residual_positive_controls():
    th = theta(900)
    rep = modularity_residual(th, Fraction(1, 2), 4)
    assert rep.max_residual < 1e-9
    h = cohen_eisenstein(2, 900)
    rep_h = modularity_residual(h, Fraction(5, 2), 4)
    assert rep_h.max_residual < 1e-9
    e4 = eisenstein(4, 900)
    rep_e = modularity_residual(e4, 4, 1)
    assert rep_e.max_residual < 1e-10
    d = delta(900)
    rep_d = modularity_residual(d, 12, 1)
    assert rep_d.max_residual < 1e-9


def test_residual_negative_control_bare_q():
    fake = QExp(4, 1, {1: 1}, 0, 900)
    rep = modularity_residual(fake, 4, 1)
    assert rep.max_residual > 1e-3


def test_residual_negative_control_wrong_weight():
    e4 = eisenstein(4, 900)
    rep = modularity_residual(e4, 6, 1)
    assert rep.max_residual > 1e-3


def test_residual_doubling_truncation_does_not_increase():
    # evaluate where truncation error is visible, then refine
    e4 = eisenstein(4, 900)
    taus = (0.07 + 0.23j, -0.11 + 0.27j)
    mats = ((1, 1, 0, 1), (2, 1, 1, 1))
    samples = [(m, t) for m in mats for t in taus]
    coarse = modularity_residual(e4, 4, 1, samples=samples, terms=40, tail_tol=1.0)
    fine = modularity_residual(e4, 4, 1, samples=samples, terms=80, tail_tol=1.0)
    assert fine.max_residual <= coarse.max_residual + 1e-12


def test_residual_rejects_meromorphic_and_bad_level():
    hj = fixture("hj4", 60)
    with pytest.raises(ValueError):
        modularity_residual(hj, Fraction(5, 2), 4)
    th = theta(100)
    with pytest.raises(ValueError):
        modularity_residual(th, Fraction(1, 2), 2)  # 4 does not divide 2
    with pytest.raises(ValueError):
        modularity_residual(th, Fraction(1, 3), 4)


def test_residual_validates_sample_matrices():
    e4 = eisenstein(4, 300)
    with pytest.raises(ValueError):
        modularity_residual(e4, 4, 1, samples=[((1, 1, 1, 1), 1j)])
    h = cohen_eisenstein(2, 300)
    with pytest.raises(ValueError):
        modularity_residual(h, Fraction(5, 2), 4, samples=[((1, 0, 2, 1), 1j)])


def test_residual_tail_gate_enforced():
    e4 = eisenstein(4, 60)
    with pytest.raises(TailBoundError):
        modularity_residual(e4, 4, 1, samples=[((1, 1, 0, 1), 0.05j)], terms=60)


def test_residual_report_json_shape():
    th = theta(900)
    rep = modularity_residual(th, Fraction(1, 2), 4)
    js = rep.to_json()
    assert set(js) == {"matrices", "points", "max_residual", "truncation", "tail_bound"}
    assert js["truncation"] == rep.truncation
    assert all(len(m) == 4 for m in js["matrices"])
    assert rep.residuals  # detailed values kept on the object


def test_default_samples_include_a_matrix_with_d_minus_one():
    # at d = 1 every character and the theta multiplier are 1
    rep = modularity_residual(theta(900), Fraction(1, 2), 4)
    assert rep.matrices == ((1, 1, 0, 1), (1, 0, 4, 1), (5, 1, 4, 1), (-1, 0, 4, -1))
    assert len(rep.residuals) == 4 * 3


def test_residual_sees_the_character_of_theta_squared():
    # theta^2 lies in M_1(Gamma_0(4), chi_-4), and M_1(Gamma_0(4)) = 0: the
    # trivial character fails, but only at d = -1, where chi_-4(d) = -1
    from shimlift.characters import DirichletCharacter

    th = theta(900)
    f = QExp(1, 1, dict(mul(th, th).coeffs), 0, 900)
    rep = modularity_residual(f, 1, 4)
    assert max(rep.residuals[:9]) < 1e-12 and min(rep.residuals[9:]) > 1
    chi = DirichletCharacter.from_kronecker(-4, 4)
    assert modularity_residual(f, 1, 4, chi).max_residual < 1e-12


def test_residual_sees_a_character_at_half_integral_weight():
    # theta^3 has the multiplier psi^3 alone; times chi_-4 it is wrong at
    # d = -1 only, where psi(gamma) = eps_d^(-1) = -i is not 1 either
    from shimlift.characters import DirichletCharacter

    th = theta(900)
    f = QExp(Fraction(3, 2), 1, dict(mul(mul(th, th), th).coeffs), 0, 900)
    assert modularity_residual(f, Fraction(3, 2), 4).max_residual < 1e-12
    chi = DirichletCharacter.from_kronecker(-4, 4)
    rep = modularity_residual(f, Fraction(3, 2), 4, chi)
    assert max(rep.residuals[:9]) < 1e-12 and min(rep.residuals[9:]) > 1


def test_level1_exact_on_eisenstein_products():
    e4 = eisenstein(4, 40)
    e6 = eisenstein(6, 40)
    out = level1_exact_check(mul(e4, e6), 10)
    assert out == {(1, 1): Fraction(1)}
    d = delta(40)
    out_d = level1_exact_check(d, 12)
    assert out_d == {(3, 0): Fraction(1, 1728), (0, 2): Fraction(-1, 1728)}


def test_level1_exact_check_builds_its_basis_without_fixtures_delta(monkeypatch):
    # Delta off by one at q^2: the check still decomposes E4 E8 from its
    # own Eisenstein basis, and refuses the patched Delta at q^2
    from shimlift import fixtures

    right = fixtures.delta

    def wrong_delta(prec):
        d = right(prec)
        return add(d, QExp(d.weight, 1, {2: 1}, 0, d.hi))

    monkeypatch.setattr(fixtures, "delta", wrong_delta)
    e4e8 = mul(eisenstein(4, 40), eisenstein(8, 40))
    assert level1_exact_check(e4e8, 12) == {(3, 0): Fraction(1)}
    with pytest.raises(VerificationFailure) as exc:
        level1_exact_check(fixtures.delta(40), 12)
    assert exc.value.first_mismatch[0] == 2


def test_level1_exact_random_combinations_round_trip():
    rng = random.Random(23)
    e4 = eisenstein(4, 60)
    e6 = eisenstein(6, 60)
    basis = {
        (3, 0): mul(mul(e4, e4), e4),
        (0, 2): mul(e6, e6),
    }
    coeffs = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for m in basis}
    total = None
    for m, g in basis.items():
        term = scale(g, coeffs[m])
        total = term if total is None else add(total, term)
    found = level1_exact_check(total, 12)
    assert found == {m: c for m, c in coeffs.items() if c}


def test_level1_exact_flags_non_modular_series():
    fake = QExp(12, 1, {0: 1, 1: 5, 2: -3}, 0, 40)
    with pytest.raises(VerificationFailure) as exc:
        level1_exact_check(fake, 12)
    assert exc.value.first_mismatch is not None


def test_level1_exact_odd_weight_means_zero_space():
    # no monomials in weights like 2: only the zero form passes
    zero = QExp(2, 1, {}, 0, 40)
    assert level1_exact_check(zero, 2) == {}
    bad = QExp(2, 1, {1: 1}, 0, 40)
    with pytest.raises(VerificationFailure):
        level1_exact_check(bad, 2)


def test_level1_exact_needs_enough_window():
    d = delta(40).truncate(2)
    with pytest.raises(PrecisionError):
        level1_exact_check(d, 12)


def test_level1_exact_rejects_weakly_holomorphic():
    hj = fixture("hj4", 40)
    lifted = QExp(4, 1, dict(hj.coeffs), hj.lo, hj.hi)
    with pytest.raises(VerificationFailure):
        level1_exact_check(lifted, 4)


def test_level1_exact_recovers_every_monomial_up_to_weight_120():
    # the monomials E4^a E6^b of weight w are a basis of M_w, and the first
    # dim(M_w) coefficients determine a form there, so the solve always
    # finds its pivots
    for w in range(0, 121, 2):
        for a in range(w // 4 + 1):
            b, rest = divmod(w - 4 * a, 6)
            if rest:
                continue
            hi = w // 12 + 2
            f = mul(power(eisenstein(4, hi), a, mul, QExp(0, 1, {0: 1}, 0, hi)),
                    power(eisenstein(6, hi), b, mul, QExp(0, 1, {0: 1}, 0, hi)))
            assert level1_exact_check(f, w) == {(a, b): 1}, (w, a, b)


@pytest.mark.parametrize("weight", range(4, 121, 2))
def test_fraction_free_solve_matches_gauss_jordan(weight):
    # random rational values (non-unit denominators) on q^0 .. q^(dim-1)
    # fix one form of M_weight; Gauss-Jordan on the monomial rows gives its
    # coordinates, which level1_exact_check must find from the echelon basis
    mons = [(a, (weight - 4 * a) // 6) for a in range(weight // 4 + 1) if (weight - 4 * a) % 6 == 0]
    dim = len(mons)
    one = QExp(0, 1, {0: 1}, 0, dim + 1)
    basis = [mul(power(eisenstein(4, dim + 1), a, mul, one), power(eisenstein(6, dim + 1), b, mul, one))
             for a, b in mons]
    rng = random.Random(weight)
    rows = [[g.coeff(n) for g in basis] + [Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**4))]
            for n in range(dim)]
    want = util.gauss_jordan_solve(rows, dim)
    f = QExp(weight, 1, {}, 0, dim + 1)
    for x, g in zip(want, basis):
        f = add(f, scale(g, x))
    got = level1_exact_check(f, weight)
    assert got == {m: x for m, x in zip(mons, want) if x}
    assert list(got) == sorted(got)


def test_level1_exact_builds_each_monomial_from_its_predecessor(monkeypatch):
    # weight 1000 has 84 monomials; the echelon basis costs about three
    # products per monomial (one for the next basis form on the solved rows,
    # two per Horner step on the window), where one power chain per monomial
    # cost 1633.  E4 is not of weight 1000, so the check fails where the
    # solved rows end, with the same combination as before
    calls = []

    def counting_mul(f, g):
        calls.append(None)
        return mul(f, g)

    monkeypatch.setattr(verify, "mul", counting_mul)
    e4 = eisenstein(4, 200)
    with pytest.raises(VerificationFailure) as exc:
        level1_exact_check(e4, 1000)
    n, got, want = exc.value.first_mismatch
    assert (n, want) == (84, e4.coeff(84))
    assert hashlib.sha256(str(got).encode()).hexdigest() == (
        "fc504bfda87e69f4a20325526cc1bd5d2ca83419cd9f228909c98f4ce7bc7fbe")
    assert len(calls) <= 3 * 84 + 20


def test_level1_exact_refuses_a_short_window_before_the_monomials():
    # dim M_w = w // 12 + 1 here, taken from the closed formula: listing the
    # monomials of this weight would not end
    with pytest.raises(PrecisionError) as exc:
        level1_exact_check(eisenstein(4, 40), 12 * 10**30)
    assert exc.value.required_window == (0, 10**30 + 2)


def test_level1_exact_refuses_cyclotomic_coefficients():
    f = QExp(4, 1, {0: 1, 1: CycScalar.root_of_unity(3, 1)}, 0, 5)
    with pytest.raises(ValueError, match="rational coefficients"):
        level1_exact_check(f, 4)

