"""Reference forms: theta, Eisenstein series, delta, j, the half-integral
Eisenstein family, and the registry around them.

Most checks here are two-route: the same form built through an unrelated
construction, or a classical multiplicative identity that the builders do
not use internally.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimlift import _intpoly, cli, fixtures, qseries, verify
from shimlift.arith import power, split_square
from shimlift.errors import VerificationFailure
from shimlift.fixtures import (
    _cohen_indices,
    _cohen_value,
    _hecke_sums,
    cohen_eisenstein,
    delta,
    eisenstein,
    euler_function,
    fixture,
    fixture_defaults,
    fixture_names,
    j_invariant,
    plus_product,
    theta,
    theta_component,
    weakly_holomorphic_product,
    zero_form,
)
from shimlift.qseries import QExp, add, invert_unit, mul, qexp_to_json, rescale, scale
from shimlift.scalars import bernoulli_number, quadratic_L_neg
from shimlift.shimura import shimura_general, shimura_St
from util import cohen_divisor_sum, delta_divisor_sum, mobius, sigma_sieve_loop


def test_theta_counts_square_representations():
    th = theta(400)
    assert th.coeff(0) == 1
    for n in range(1, 400):
        r = int(n ** 0.5)
        want = 2 if r * r == n else 0
        assert th.coeff(n) == want, n
    assert th.weight == Fraction(1, 2)


def test_theta_components_partition_theta():
    t0 = theta_component(0, 100)
    t1 = theta_component(1, 100)
    back = add(rescale(t0, 4), rescale(t1, 4))
    assert back.agrees_with(theta(400))
    # component supports: even squares over 4, odd squares over 4
    assert t0.coeff(0) == 1 and t0.coeff(1) == 2
    assert t1.denom == 4 and t1.coeff_exponent(Fraction(1, 4)) == 2


def test_eisenstein_normalization_and_first_coefficients():
    first = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}
    for w, c1 in first.items():
        e = eisenstein(w, 30)
        assert e.coeff(0) == 1, w
        assert e.coeff(1) == c1, w
        assert e.weight == w


def test_eisenstein_coefficient_is_divisor_power_sum():
    e = eisenstein(6, 60)
    for n in (2, 9, 30, 59):
        sigma = sum(d ** 5 for d in range(1, n + 1) if n % d == 0)
        assert e.coeff(n) == -504 * sigma, n


def test_eisenstein_ring_identities():
    e4 = eisenstein(4, 80)
    e6 = eisenstein(6, 80)
    assert mul(e4, e4).agrees_with(eisenstein(8, 80))
    assert mul(e4, e6).agrees_with(eisenstein(10, 80))
    assert mul(e4, eisenstein(10, 80)).agrees_with(eisenstein(14, 80))
    assert mul(e6, eisenstein(8, 80)).agrees_with(eisenstein(14, 80))


@pytest.mark.parametrize("n", [1, 2, 50, 701])
def test_e4_squared_is_e8(n):
    # dim M_8 = 1; the tests' references for delta and j form E4^3 as E4 E8
    e4 = eisenstein(4, n)
    assert mul(e4, e4) == eisenstein(8, n)


@pytest.mark.parametrize("odd_only", [False, True])
def test_sigma_sieve_matches_the_divisor_loop(odd_only):
    # the least-prime table and the pass end at each prec
    for power in range(14):
        for prec in range(-1, 301):
            want = sigma_sieve_loop(power, prec, odd_only)
            assert fixtures._sigma_sieve(power, prec, odd_only) == want, (power, prec)
    assert fixtures._sigma_sieve(1, 40001, True) == sigma_sieve_loop(1, 40001, True)
    assert fixtures._sigma_sieve(5, 10001) == sigma_sieve_loop(5, 10001)


def test_eisenstein_leading_terms_are_1_and_minus_2w_over_bernoulli():
    for w in range(4, 65, 2):
        e = eisenstein(w, 2)
        assert (e.coeff(0), e.coeff(1)) == (1, Fraction(-2 * w) / bernoulli_number(w)), w


def test_eisenstein_12_is_441_e4_cubed_plus_250_e6_squared_over_691():
    # E12 has a rational constant 65520/691; the exact check decomposes it
    # in its own E4^a E6^b basis
    want = {(3, 0): Fraction(441, 691), (0, 2): Fraction(250, 691)}
    assert verify.level1_exact_check(eisenstein(12, 300), 12) == want


def test_eisenstein_rejects_odd_and_out_of_range_weights():
    for w in (-4, 0, 2, 3, 5, 66):
        with pytest.raises(ValueError):
            eisenstein(w, 10)


def test_euler_function_against_brute_product():
    phi = euler_function(120)
    # direct truncated product of (1 - q^n)
    prod = QExp(0, 1, {0: 1}, 0, 120)
    for n in range(1, 120):
        prod = mul(prod, QExp(0, 1, {0: 1, n: -1}, 0, 120)).truncate(120)
    assert phi == prod


def test_delta_two_routes():
    d = delta(60)
    assert [d.coeff(n) for n in range(1, 5)] == [1, -24, 252, -1472]
    # eta product route: q * phi(q)^24
    phi = euler_function(59)
    p24 = QExp(0, 1, {0: 1}, 0, 59)
    for _ in range(24):
        p24 = mul(p24, phi).truncate(59)
    eta24 = QExp(12, 1, {a + 1: c for a, c in p24.coeffs.items()}, 1, 60)
    assert d.agrees_with(eta24)
    assert d.coeff(0) == 0
    # Eisenstein route: (E4^3 - E6^2) / 1728, with E4^3 as E4 E8; delta
    # shifts phi^24 by q, so windows 0-3 are the shift's edges
    for n in (0, 1, 2, 3, 60, 2001):
        e6 = eisenstein(6, n)
        cube = mul(eisenstein(4, n), eisenstein(8, n))
        assert delta(n) == scale(add(cube, scale(mul(e6, e6), -1)), Fraction(1, 1728)), n


def test_j_invariant_expansion():
    jf = j_invariant(3)
    assert jf.lo == -1
    assert jf.coeff(-1) == 1
    assert jf.coeff(0) == 744
    assert jf.coeff(1) == 196884
    assert jf.coeff(2) == 21493760


def test_j_invariant_times_delta_is_e4_cubed():
    jf = j_invariant(40)
    d = delta(41)
    e4 = eisenstein(4, 40)
    cube = mul(mul(e4, e4), e4)
    assert mul(jf, d).agrees_with(cube)


def _j_by_inverse(prec):
    # E4 E8 times the inverse of phi^24 to the full window, shifted by q^-1
    span = prec + 1
    inv = invert_unit(power(euler_function(span), 24, mul))
    series = mul(mul(eisenstein(4, span), eisenstein(8, span)), inv)
    shifted = {a - 1: v for a, v in series.numerators.items() if a - 1 < prec}
    return QExp.from_numerators(Fraction(0), 1, shifted, series.cden, -1, prec)


@pytest.mark.parametrize("n", list(range(12)) + [300, 700, 2000])
def test_j_invariant_by_division_is_byte_identical_to_the_inverse_product(n):
    # j divides E4^3 by phi^24 on a half-length inverse: h = ceil((n+1)/2)
    # is 1 and 2 for the first windows; 700 and 2000 are the ends of the
    # benchmark's j builds
    got = json.dumps(qexp_to_json(j_invariant(n)))
    assert got == json.dumps(qexp_to_json(_j_by_inverse(n)))


def test_jacobi_cube_is_the_euler_function_cubed():
    # every window up to 400 terms, the first ones ending on or just past
    # a triangular number 0, 1, 3, 6, 10
    for n in range(401):
        phi = euler_function(n)
        assert fixtures._jacobi_cube(n) == mul(mul(phi, phi), phi), n


def test_e4_cubed_is_e12_plus_432000_over_691_delta():
    # Ramanujan's identity, the one j rests on, from the public builders
    n = 1200
    e4 = eisenstein(4, n)
    rhs = add(eisenstein(12, n), scale(delta(n), Fraction(432000, 691)))
    assert mul(mul(e4, e4), e4) == rhs


def test_ramanujan_congruence_failure_is_typed(monkeypatch):
    # sigma_11 raised by 1 at one index breaks tau(n) = sigma_11(n) mod 691
    # there, and j names that exponent
    sieve = fixtures._sigma_sieve

    def raised(power, prec, odd_only=False):
        out = sieve(power, prec, odd_only)
        out[37] += 1
        return out

    monkeypatch.setattr(fixtures, "_sigma_sieve", raised)
    with pytest.raises(VerificationFailure) as info:
        j_invariant(100)
    assert info.value.first_mismatch[0] == 37


def test_ramanujan_congruence_failure_from_delta_is_typed(monkeypatch):
    # tau raised by 1 at one index breaks the congruence from Delta's side:
    # j divides by the patched phi^24 and names that exponent
    build = fixtures.delta

    def raised(prec):
        d = build(prec)
        table = dict(d.numerators)
        table[29] += 1
        return QExp.from_numerators(d.weight, 1, table, 1, d.lo, d.hi)

    monkeypatch.setattr(fixtures, "delta", raised)
    with pytest.raises(VerificationFailure) as info:
        j_invariant(100)
    assert info.value.first_mismatch[0] == 29


@pytest.mark.parametrize("build, prec", [(j_invariant, 50), (weakly_holomorphic_product, 101)])
def test_j_path_calls_invert_unit_through_the_module_attribute(monkeypatch, build, prec):
    # the benchmark's tracer wraps `qseries.invert_unit` and fails a traced
    # run whose j builds record no call there: the inverse inside the
    # division must be looked up on the module, not bound once
    calls = []
    inner = qseries.invert_unit

    def counted(f):
        calls.append(f.hi)
        return inner(f)

    monkeypatch.setattr(qseries, "invert_unit", counted)
    build(prec)
    assert calls


def test_theta_e6_lift_reaches_delta_mul_and_the_L_values_through_the_module_attributes(monkeypatch, capsys):
    # the benchmark's traced run predicts fixtures.build, qseries.mul and
    # intpoly.convolve on its lift workload from this call alone: the read
    # set's Delta and Delta's squarings must be looked up on `fixtures`, not
    # bound once.  The L-values are cached per (D, k), yet a second lift
    # still calls the name on the module, where the tracer wraps it
    calls = {"delta": 0, "mul": 0, "quadratic_L_neg": 0}
    for name in calls:
        def counted(*args, inner=getattr(fixtures, name), name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(fixtures, name, counted)
    seen = []
    for _ in range(2):
        assert cli.main(["lift", "--fixture", "theta_e6", "--t", "1", "--prec", "20", "--json"]) == 0
        capsys.readouterr()
        seen.append(dict(calls))
    assert seen[0]["delta"] == 1 and seen[0]["mul"] == 3 and seen[0]["quadratic_L_neg"] > 0
    assert all(seen[1][name] == 2 * seen[0][name] for name in calls), seen


def test_cohen_eisenstein_pinned_values():
    h = cohen_eisenstein(2, 20)
    assert h.coeff(0) == Fraction(1, 120)
    assert h.coeff(1) == Fraction(-1, 12)
    assert h.coeff(4) == Fraction(-7, 12)
    assert h.coeff(2) == 0 and h.coeff(3) == 0  # supported only on 0, 1 mod 4
    h3 = cohen_eisenstein(3, 10)
    assert h3.coeff(0) == Fraction(-1, 252)
    assert h3.coeff(3) == Fraction(-2, 9)


def test_cohen_eisenstein_support_classes():
    for k, eps in ((2, 1), (3, -1), (4, 1)):
        h = cohen_eisenstein(k, 100)
        allowed = {0, eps % 4}
        for a in h.coeffs:
            assert a % 4 in allowed, (k, a)


def test_cohen_combo_route_agrees_with_direct():
    # prec over the threshold switches construction; overlap must agree
    direct = cohen_eisenstein(2, 400)
    combo = cohen_eisenstein(2, 2100)
    assert combo.truncate(400) == direct


@pytest.mark.parametrize("k, terms", [(2, 1000), (3, 3000), (4, 3000), (5, 1000), (6, 1000)])
def test_cohen_basis_route_matches_l_values(k, terms):
    # the theta/F products against the per-coefficient L-value formula
    h = cohen_eisenstein(k, terms)
    assert h.hi == terms
    for n in range(terms):
        assert h.coeff(n) == _cohen_value(k, n), (k, n)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_cohen_short_windows(k):
    dim = (2 * k + 1) // 4 + 1
    for prec in range(dim + 2):
        h = cohen_eisenstein(k, prec)
        assert (h.lo, h.hi) == (0, prec)
        assert h == QExp(Fraction(2 * k + 1, 2), 1, {n: _cohen_value(k, n) for n in range(prec)}, 0, prec)


# (k, theta) of every read-set source, by test id: H_k for k = 2 .. 6, of
# which cohen52, cohen72 and cohen92 are fixtures, and the theta sources of
# `_READ_SETS`
_SOURCES = {
    **{str(k): (k, False) for k in range(2, 7)},
    **{name: (fixture_defaults(name)["k"], True) for name, theta in fixtures._READ_SETS.items() if theta},
}


def _source_window(k, theta, hi):
    return plus_product(k, hi) if theta else cohen_eisenstein(k, hi)


def _outcome(lift, f):
    """The lift of f, or its refusal: error type, obstruction, and the
    window that a PrecisionError asks for."""
    try:
        return lift(f)
    except ValueError as e:
        return type(e), getattr(e, "obstruction", None), getattr(e, "required_window", None)


@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_cohen_read_set_is_the_window_on_the_read_set(source):
    # c(T m^2) of the read-set source against the built window, as the lift
    # reads both (values over their own denominators); then the lifts of
    # both at level 1, refusals included, where prec 0 leaves the second
    # plus-space class out of both windows' residues
    k, theta = _SOURCES[source]
    for T in (1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 15, 18, 20, 27, 28, 45):
        for prec in (0, 1, 2, 3, 7, 9):
            hi = T * prec * prec + 1
            read_set, window = fixtures._CohenReadSet(k, hi, theta), _source_window(k, theta, hi)
            a, D = read_set._read_set(T, prec)
            b, E = window._read_set(T, prec)
            assert all(type(v) is int for v in a)
            assert [Fraction(v, D) for v in a] == [Fraction(v, E) for v in b], (source, T, prec)
    for t, s, eps, prec in itertools.product((1, 2, 3, 5), (1, 2), (1, -1), (0, 1, 2, 5)):
        hi = t * s * s * prec * prec + 1
        read_set, window = fixtures._CohenReadSet(k, hi, theta), _source_window(k, theta, hi)
        for lift in (lambda f: shimura_St(f, 1, k, t * s * s, eps, prec),
                     lambda f: shimura_general(f, 1, k, t, s, eps, prec)):
            assert _outcome(lift, read_set) == _outcome(lift, window), (source, t, s, eps, prec)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 8, 12, 13, 20, 28, 45])
def test_theta_e6_read_set_is_the_window_on_the_read_set(T):
    # c(T m^2) of the theta_e6 source, the Hecke sum of theta E_6(4 tau)
    # with its cusp part, against the built window
    k = fixture_defaults("theta_e6")["k"]
    for prec in (0, 1, 2, 3, 9):
        hi = T * prec * prec + 1
        a, D = fixtures._CohenReadSet(k, hi, True)._read_set(T, prec)
        b, E = plus_product(6, hi)._read_set(T, prec)
        assert all(type(v) is int for v in a)
        assert [Fraction(v, D) for v in a] == [Fraction(v, E) for v in b], (T, prec)


@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_cohen_read_set_states_the_window_that_it_stands_for(source):
    k, theta = _SOURCES[source]
    for hi in range(1, 12):
        read_set, window = fixtures._CohenReadSet(k, hi, theta), _source_window(k, theta, hi)
        assert (read_set.weight, read_set.denom, read_set.hi) == (window.weight, 1, hi)
        assert (window.denom, window.lo) == (1, 0)
        assert read_set._residues_mod4() == window._residues_mod4(), (source, hi)


def test_theta_e4_is_240_times_the_cohen_eisenstein_series_of_weight_nine_halves():
    # Kohnen: M+_{9/2}(Gamma_0(4)) = M_8(SL_2(Z)) is one-dimensional, and the
    # constant terms are 1 and zeta(-7) = 1/240 = -B_8 / 8
    assert fixtures._READ_SETS["theta_e4"] is True and fixture_defaults("theta_e4")["k"] == 4
    assert 240 == 1 / quadratic_L_neg(1, 8) == -8 / bernoulli_number(8)
    for n in [*range(13), 40001]:
        assert plus_product(4, n) == scale(cohen_eisenstein(4, n), 240), n


def test_theta_e6_is_h6_over_zeta_minus_11_plus_a_cusp_part():
    # Kohnen: M+_{13/2}(Gamma_0(4)) = M_12(SL_2(Z)) = <E_12, Delta>; the
    # constant terms are 1 and zeta(-11) = 691/32760 = -B_12 / 12, so
    # theta_e6 - scale H_6 is a cusp form, not zero
    assert fixtures._READ_SETS["theta_e6"] is True and fixture_defaults("theta_e6")["k"] == 6
    c = Fraction(32760, 691)
    assert c == 1 / quadratic_L_neg(1, 12) == -12 / bernoulli_number(12)
    rest = add(plus_product(6, 200), scale(cohen_eisenstein(6, 200), -c))
    assert rest.coeff(0) == 0 and rest.coeff(1) != 0


def test_theta_e_value_is_the_window():
    for w in (4, 6):
        window = plus_product(w, 3000)
        assert [fixtures._theta_e_value(w, n) for n in range(3000)] == [window.coeff(n) for n in range(3000)], w


@pytest.mark.parametrize("k", [2, 3, 5, 7, 8])
def test_theta_source_needs_k_4_or_6(k):
    with pytest.raises(ValueError, match="k = 4 or 6"):
        fixtures._CohenReadSet(k, 10, True)


def _is_fundamental(D):
    # D = 1 mod 4 square-free, or D = 4m with m = 2 or 3 mod 4 square-free
    if D % 4 == 1:
        return mobius(abs(D)) != 0
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and mobius(abs(D // 4)) != 0


_FUNDAMENTAL = [D for D in range(-200, 201) if D and _is_fundamental(D)]
# prime powers up to 3000 with long runs of the sigma recurrence
_PRIME_POWERS = [2**11, 3**7, 5**4, 7**4, 13**3, 53**2, 2**5 * 3**4, 2**3 * 3**2 * 5**2]


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 8),
    D0=st.sampled_from(_FUNDAMENTAL),
    f=st.one_of(st.integers(1, 3000), st.sampled_from(_PRIME_POWERS)),
)
def test_cohen_euler_product_is_the_divisor_sum(k, D0, f):
    assert _hecke_sums(k, D0, [f])[0][0] == cohen_divisor_sum(k, D0, f), (k, D0, f)


_TAU = delta(301).numerators


def _indices_per_m(k, T, prec):
    # the read set's indices one m at a time: (-1)^k T m^2 = D0 f^2 with D0
    # fundamental, or no f where (-1)^k T m^2 = 2 or 3 mod 4
    t, s = split_square(T)
    D0, fs = 0, [0] * (prec + 1)
    for m in range(1, prec + 1):
        f = s * m
        d = t if k % 2 == 0 else -t
        if d % 4 == 1:
            D0, fs[m] = d, f
        elif f % 2 == 0:
            D0, fs[m] = 4 * d, f // 2
    return D0, fs


_SQUAREFREE = [t for t in range(1, 201) if mobius(t)]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 8), t=st.sampled_from(_SQUAREFREE), s=st.integers(1, 5), prec=st.integers(0, 60))
def test_read_set_indices_follow_the_rule(k, t, s, prec):
    assert _cohen_indices(k, t * s * s, prec) == _indices_per_m(k, t * s * s, prec), (k, t, s, prec)


@settings(max_examples=300, deadline=None)
@given(D0=st.sampled_from(_FUNDAMENTAL), fs=st.lists(st.integers(0, 300), max_size=4))
def test_hecke_sums_are_the_divisor_sums_of_sigma_and_tau(D0, fs):
    # the tau sum runs Hecke's recurrence from tau(p); the reference reads
    # tau at every divisor of f.  The fs share one table of character values,
    # and f = 0 stands for a vanishing value
    want = [(cohen_divisor_sum(6, D0, f), delta_divisor_sum(6, D0, f, _TAU)) if f else (0, 0) for f in fs]
    assert _hecke_sums(6, D0, fs, _TAU) == want, (D0, fs)
    assert _hecke_sums(6, D0, fs) == [(s, 0) for s, _ in want], (D0, fs)


@settings(deadline=None)
@given(k=st.integers(2, 6), a=st.integers(0, 400), data=st.data())
def test_cohen_window_rule(k, a, data):
    b = data.draw(st.integers(0, a))
    assert cohen_eisenstein(k, a).truncate(b) == cohen_eisenstein(k, b)


def _theta_list(n):
    th = theta(n)
    return [int(th.coeff(m)) for m in range(n)]


def test_sieved_theta4_is_jacobi_four_squares():
    f = fixtures._sigma_sieve(1, 5000, odd_only=True)
    th4 = fixtures._theta4_combination(f, 1, 0)
    th = _theta_list(5000)
    th2 = _intpoly.convolve(th, th, 5000)
    assert th4 == _intpoly.convolve(th2, th2, 5000)
    # r_4(n) counted by brute force over (a, b, c, d) in Z^4
    r4 = [0] * 200
    s = range(-14, 15)
    for a in s:
        for b in s:
            for c in s:
                for d in s:
                    m = a * a + b * b + c * c + d * d
                    if m < 200:
                        r4[m] += 1
    assert th4[:200] == r4
    assert f[:200] == [sum(d for d in range(1, m + 1) if m % d == 0) if m % 2 else 0 for m in range(200)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 1000, 1001])
def test_theta4_combination_is_sliced_from_the_odd_divisor_sums(n):
    f = fixtures._sigma_sieve(1, n, odd_only=True)
    th4 = fixtures._theta4_combination(f, 1, 0)
    for a, b in ((1, 0), (0, 1), (3, -5), (-7, 56)):
        assert fixtures._theta4_combination(f, a, b) == [a * t + b * x for t, x in zip(th4, f)], (a, b)


@pytest.mark.parametrize("eps", [1, -1])
def test_theta_plus_is_the_full_theta_product_on_the_plus_classes(eps):
    # every n mod 4, windows where class 3 (the one-index lag of class 0)
    # has fewer terms than class 0 or none, zeros and mixed signs, and
    # coefficients up to 90 bits, so the class products take several slot
    # widths and routes
    rng = random.Random(eps)
    for n in range(301):
        bits = rng.choice((4, 40, 90))
        acc = [rng.choice((0, 1, -1)) * rng.randrange(1 << bits) for _ in range(n)]
        full = _intpoly.convolve(acc, _theta_list(n), n)
        want = {e: v for e, v in enumerate(full) if v and (eps * e) % 4 in (0, 1)}
        assert fixtures._theta_plus(acc, n, eps) == want, n


def _basis_product_cohen(k, prec):
    """H_k as the combination of the explicit basis products
    theta^(2k+1-4j) F^j, each formed by its own chain of convolutions: an
    independent route to the Horner evaluation of the builder."""
    n = max(prec, (2 * k + 1) // 4 + 3)
    dim = (2 * k + 1) // 4 + 1
    th = _theta_list(n)
    th2 = _intpoly.convolve(th, th, n)
    th4 = _intpoly.convolve(th2, th2, n)
    odd_sigma = fixtures._sigma_sieve(1, n, odd_only=True)
    th_part = _intpoly.convolve(th2, th, n) if (2 * k + 1) % 4 == 3 else th
    th_parts = [th_part]
    for _ in range(dim - 1):
        th_part = _intpoly.convolve(th_part, th4, n)
        th_parts.append(th_part)
    th_parts.reverse()
    basis = [th_parts[0]]
    f_part = None
    for j in range(1, dim):
        f_part = odd_sigma if f_part is None else _intpoly.convolve(f_part, odd_sigma, n)
        basis.append(_intpoly.convolve(th_parts[j], f_part, n))
    coords = []
    for m in range(dim):
        coords.append(_cohen_value(k, m) - sum(c * b[m] for c, b in zip(coords, basis)))
    den = math.lcm(*(c.denominator for c in coords))
    nums = [c.numerator * (den // c.denominator) for c in coords]
    coeffs = {}
    for m, column in zip(range(prec), zip(*basis)):
        v = sum(a * b for a, b in zip(nums, column))
        if v:
            coeffs[m] = Fraction(v, den)
    return QExp(Fraction(2 * k + 1, 2), 1, coeffs, 0, prec)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_cohen_horner_matches_basis_products(k):
    assert cohen_eisenstein(k, 3000) == _basis_product_cohen(k, 3000)


def test_cohen_basis_mismatch_is_typed(monkeypatch):
    def off_by_one(k, n):
        v = _cohen_value(k, n)
        return v + 1 if n == 2 else v

    # k = 2: q^0 and q^1 fix the coordinates, q^2 is the first one checked
    monkeypatch.setattr(fixtures, "_cohen_value", off_by_one)
    with pytest.raises(VerificationFailure) as info:
        cohen_eisenstein(2, 50)
    assert info.value.first_mismatch[0] == 2


def test_plus_product_coefficients():
    te4 = plus_product(4, 30)
    assert te4.coeff(0) == 1
    assert te4.coeff(1) == 2
    assert te4.coeff(4) == 242
    assert te4.weight == Fraction(9, 2)
    te6 = plus_product(6, 30)
    assert te6.coeff(0) == 1 and te6.coeff(1) == 2
    assert te6.coeff(4) == -504 + 2


def test_weakly_holomorphic_product_principal_part():
    hj = weakly_holomorphic_product(50)
    assert hj.lo == -4
    assert hj.coeff(-4) == Fraction(1, 120)
    assert hj.coeff(-3) == Fraction(-1, 12)
    assert hj.coeff(-2) == 0 and hj.coeff(-1) == 0
    assert hj.coeff(0) == Fraction(337, 60)
    assert hj.coeff(1) == Fraction(-312, 5)


def test_zero_form_is_empty_weight_five_halves():
    z = zero_form(25)
    assert z.is_zero()
    assert z.weight == Fraction(5, 2)
    assert z.hi >= 25


def test_registry_names_and_defaults():
    names = fixture_names()
    for expected in ("theta", "cohen52", "e4", "delta", "j", "hj4", "zero"):
        assert expected in names
    d = fixture_defaults("cohen72")
    assert fixture("cohen72", 8).weight == Fraction(7, 2)
    assert d == {"N": 1, "k": 3, "eps": -1}
    with pytest.raises(ValueError):
        fixture_defaults("nope")


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(fixture_names()), a=st.integers(0, 200), data=st.data())
def test_every_fixture_obeys_the_window_rule(name, a, data):
    b = data.draw(st.integers(0, a))
    assert fixture(name, a).truncate(b) == fixture(name, b)


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_builds_an_empty_window(name):
    f = fixture(name, 0)
    assert f.hi == 0 and all(e < 0 for e in f.coeffs)


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_refuses_a_negative_precision(name):
    with pytest.raises(ValueError, match="fixture precision -3 is negative"):
        fixture(name, -3)


def test_fixture_builder_stamps_name():
    f = fixture("e4", 12)
    assert f.metadata.get("fixture") == "e4"
    assert f.hi >= 12
    with pytest.raises(ValueError):
        fixture("nope", 5)
