import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramsum.even
from ramsum import (
    ConsistencyError,
    DomainError,
    ScaleError,
    SEvenFunction,
    cauchy_convolve,
    cauchy_convolve_naive,
    coprime_shift_sum,
    divisors,
    euler_phi,
    fourier_coefficients,
    mobius,
    ramanujan_even,
    ramanujan_row,
    ramanujan_sum,
    t_a,
    t_even,
)


def _constant(s, value):
    return SEvenFunction(s, dict.fromkeys(divisors(s), value))


def _synthesis(s, alpha):
    # f(e) = sum_{d|s} alpha(d) c_d(e)
    return {e: Fraction(sum(alpha[d] * _c(d, e) for d in divisors(s))) for e in divisors(s)}


def test_evaluate_goes_through_gcd():
    f = ramanujan_even(6)
    assert f(4) == ramanujan_sum(6, 2) == -1
    assert f(6) == f(0) == euler_phi(6)
    assert f(-1) == f(5) == f(11)
    assert _constant(10, 1)(123) == 1


def test_values_must_cover_divisors():
    with pytest.raises(DomainError):
        SEvenFunction(6, {1: 1, 2: 0, 3: 0})
    with pytest.raises(DomainError):
        ramanujan_even(6, 9)


def test_fourier_of_ramanujan_kernel_is_indicator():
    for s in range(1, 121):
        for n in divisors(s):
            alpha = fourier_coefficients(ramanujan_even(n, s))
            for d in divisors(s):
                assert alpha[d] == (1 if d == n else 0), (s, n, d)


def test_fourier_of_constant_function():
    alpha = fourier_coefficients(_constant(12, 1))
    assert alpha[1] == 1
    assert all(alpha[d] == 0 for d in divisors(12) if d > 1)


def test_fourier_roundtrip_exhaustive_small():
    rng = random.Random(61)
    for s in range(1, 37):
        values = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for d in divisors(s)}
        f = SEvenFunction(s, values)
        back = _synthesis(s, fourier_coefficients(f))
        assert back == f.values
        assert fourier_coefficients(SEvenFunction(s, back)) == fourier_coefficients(f)


@given(
    s=st.integers(min_value=1, max_value=120),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_fourier_roundtrip_random(s, data):
    values = {
        d: data.draw(st.fractions(min_value=-10, max_value=10, max_denominator=9))
        for d in divisors(s)
    }
    f = SEvenFunction(s, values)
    assert _synthesis(s, fourier_coefficients(f)) == f.values


def test_cauchy_known_values():
    c2 = ramanujan_even(2)
    assert cauchy_convolve_naive(c2, c2)(0) == 2
    for s in range(1, 21):
        cs = ramanujan_even(s)
        conv = cauchy_convolve(cs, cs)
        for n in range(s):
            assert conv(n) == s * cs(n)


def test_cauchy_zero_absorbs():
    f = ramanujan_even(9)
    zero = _constant(9, 0)
    assert all(v == 0 for v in cauchy_convolve_naive(f, zero).values.values())


def test_cauchy_strategies_agree():
    rng = random.Random(67)
    for _ in range(60):
        s = rng.randint(1, 60)
        f = SEvenFunction(s, {d: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for d in divisors(s)})
        g = SEvenFunction(s, {d: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for d in divisors(s)})
        assert cauchy_convolve_naive(f, g).values == cauchy_convolve(f, g).values


def test_cauchy_period_mismatch():
    for convolve in (cauchy_convolve, cauchy_convolve_naive):
        with pytest.raises(DomainError):
            convolve(ramanujan_even(4), ramanujan_even(6))


def test_coprime_shift_sum_known_values():
    assert coprime_shift_sum(ramanujan_even(6), 0) == 2
    assert coprime_shift_sum(ramanujan_even(4), 1) == 0
    for s in (1, 2, 7, 12):
        assert coprime_shift_sum(_constant(s, 1), 5) == euler_phi(s)


def test_coprime_shift_sum_on_ramanujan_kernels_both_orientations():
    # c_n is even in its argument, so summing c_n(a - k) or c_n(k - a) over
    # units k mod n gives the same value mu(n) c_n(a)
    for n in range(1, 81):
        row = ramanujan_row(n)
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for a in (-7, -1, 0, 1, 4, 9):
            want = mobius(n) * ramanujan_sum(n, a)
            assert coprime_shift_sum(ramanujan_even(n), a) == want
            assert sum(row[(k - a) % n] for k in units) == want


def test_t_a_known_values():
    assert t_a((6,), 1) == 1
    assert t_a((6,), 1, strategy="direct") == 1
    for a in range(-4, 5):
        assert t_a((2, 3), a) == 0
        assert t_a((2, 3), a, strategy="spectral") == 0
        assert t_a((2, 3), a, strategy="direct") == 0
    assert t_a((6, 6), 0) == 12
    assert t_a((6, 6), 0, strategy="spectral") == 12
    assert t_a((6, 6), 0, strategy="direct") == 12


def test_t_a_strategies_agree_small():
    for r in (1, 2, 3):
        for ms in product(range(1, 9), repeat=r):
            if math.lcm(*ms) > 8:
                continue
            for a in (-5, -1, 0, 2, 6):
                closed = t_a(ms, a)
                assert t_a(ms, a, strategy="spectral") == closed, (ms, a)
                assert t_a(ms, a, strategy="direct") == closed, (ms, a)


def test_t_a_single_modulus_is_coprime_shift_identity():
    for n in range(1, 201):
        for a in (-3, 0, 7):
            assert t_a((n,), a, strategy="direct") == mobius(n) * ramanujan_sum(n, a)


def test_t_a_multiplicative():
    rng = random.Random(71)
    for _ in range(150):
        r = rng.randint(1, 3)
        while True:
            ms = [rng.randint(1, 30) for _ in range(r)]
            ns = [rng.randint(1, 30) for _ in range(r)]
            if math.gcd(math.prod(ms), math.prod(ns)) == 1:
                break
        both = [m * n for m, n in zip(ms, ns)]
        a = rng.randint(-10, 10)
        assert t_a(both, a) == t_a(ms, a) * t_a(ns, a)


def test_t_a_direct_scale_guard():
    with pytest.raises(ScaleError):
        t_a((4000, 4000), 0, strategy="direct")


def test_coprime_shift_sum_scale_guard():
    # s = 1000003 is just above the cap; the residue scan never starts
    with pytest.raises(ScaleError, match="10\\^6"):
        coprime_shift_sum(ramanujan_even(1000003), 0)
    with pytest.raises(ScaleError):
        t_a((1000003, 1000003), 0, strategy="spectral")


def test_two_variable_orthogonality():
    # (1/m) sum_{k, l mod m, gcd(l, m) = 1} c_{m1}(k) c_{m2}(k + l - a)
    # equals mu(m) c_m(a) when m1 = m2 = m and 0 otherwise
    for m1 in range(1, 21):
        for m2 in range(1, 21):
            m = math.lcm(m1, m2)
            r1 = np.tile(np.array(ramanujan_row(m1), dtype=np.int64), m // m1)
            r2 = np.tile(np.array(ramanujan_row(m2), dtype=np.int64), m // m2)
            units = [l for l in range(m) if math.gcd(l, m) == 1]
            # shifted[t] = sum over units l of c_{m2}(t + l)
            shifted = np.zeros(m, dtype=np.int64)
            for l in units:
                shifted += np.roll(r2, -l)
            for a in range(-10, 11):
                # sum over k of c_{m1}(k) * shifted[(k - a) mod m]
                total = int((r1 * np.roll(shifted, a)).sum())
                want = mobius(m) * ramanujan_sum(m, a) if m1 == m2 else 0
                assert total == want * m, (m1, m2, a)


def test_consistency_error_is_not_raised_for_valid_functions():
    # the two-sided check inside coprime_shift_sum must stay silent on
    # genuinely even functions
    rng = random.Random(73)
    for _ in range(100):
        s = rng.randint(1, 40)
        f = SEvenFunction(s, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divisors(s)})
        a = rng.randint(-20, 20)
        assert t_even((f,), a) == coprime_shift_sum(f, a)


def test_coprime_shift_sum_raises_when_its_spectral_side_differs(monkeypatch):
    t_even_orig = ramsum.even.t_even
    monkeypatch.setattr(ramsum.even, "t_even", lambda kernels, a: t_even_orig(kernels, a) + 1)
    for f in (ramanujan_even(12), _constant(7, Fraction(2, 3))):
        with pytest.raises(ConsistencyError):
            coprime_shift_sum(f, 5)


def test_constructors_copy_the_callers_mapping():
    given_values = {1: 1, 2: 3}
    held = SEvenFunction(2, given_values).values
    assert held is not given_values and held == {1: 1, 2: 3}
    assert [type(v) for v in given_values.values()] == [int, int]
    assert [type(v) for v in held.values()] == [Fraction, Fraction]


def test_fourier_coefficients_are_fractions_keyed_by_the_divisors_in_order():
    for s in (1, 2, 12, 30, 36, 97, 360):
        for f in (ramanujan_even(s), _constant(s, Fraction(2, 3))):
            alpha = fourier_coefficients(f)
            assert type(alpha) is dict
            assert list(alpha) == divisors(s), s
            assert all(type(v) is Fraction for v in alpha.values()), s
    # values given out of divisor order come back in it
    shuffled = SEvenFunction(6, {6: 2, 1: 1, 3: 0, 2: 5})
    assert list(fourier_coefficients(shuffled)) == [1, 2, 3, 6]


def _c(n, k):
    # c_n(k) from the sieved row, not from the divisor-sum evaluator the transforms use
    return ramanujan_row(n)[k % n]


@st.composite
def _s_even_cases(draw):
    s = draw(st.sampled_from((1, 2, 4, 6, 8, 9, 12, 18, 24, 30, 36, 45, 60, 64, 72)))
    rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    f = {d: draw(rationals) for d in divisors(s)}
    g = {d: draw(st.one_of(rationals, st.integers(-3, 3))) for d in divisors(s)}
    return s, f, g, draw(st.integers(-100, 100))


@given(_s_even_cases())
@settings(max_examples=60, deadline=None)
def test_s_even_transforms_equal_their_defining_sums(case):
    # each transform against a Fraction evaluation of its defining formula
    s, fv, gv, a = case
    divs = divisors(s)
    f, g = SEvenFunction(s, fv), SEvenFunction(s, gv)
    want_alpha = {d: sum(fv[e] * _c(s // e, s // d) for e in divs) / s for d in divs}
    assert fourier_coefficients(f) == want_alpha
    beta = fourier_coefficients(g)
    want_back = {e: Fraction(sum(want_alpha[d] * _c(d, e) for d in divs)) for e in divs}
    assert want_back == fv
    want_conv = {e: Fraction(sum(s * want_alpha[d] * beta[d] * _c(d, e) for d in divs)) for e in divs}
    conv = cauchy_convolve(f, g)
    assert conv.values == want_conv == cauchy_convolve_naive(f, g).values
    units = [k for k in range(1, s + 1) if math.gcd(k, s) == 1]
    assert coprime_shift_sum(f, a) == sum(fv[math.gcd((a - k) % s, s)] for k in units)


@st.composite
def _t_even_cases(draw):
    # 1-4 kernels of one period s <= 30, drawn from a pool so that some repeat
    s = draw(st.integers(1, 30))
    rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    pool = [SEvenFunction(s, {d: draw(rationals) for d in divisors(s)}) for _ in range(draw(st.integers(1, 3)))]
    kernels = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return s, kernels, draw(st.integers(-40, 40))


def _t_grid(s, kernels, a):
    """sum over k_1..k_{r-1} mod s and units l mod s of f_1(k_1)...f_{r-1}(k_{r-1}) f_r(k_1+...+k_{r-1}+l-a)."""
    *firsts, last = [[f(k) for k in range(s)] for f in kernels]
    units = [l for l in range(s) if math.gcd(l, s) == 1]
    tail = [sum(last[(t + l - a) % s] for l in units) for t in range(s)]
    total = Fraction(0)
    for ks in product(range(s), repeat=len(firsts)):
        c = Fraction(1)
        for row, k in zip(firsts, ks):
            c *= row[k]
        if c:
            total += c * tail[sum(ks) % s]
    return total


@given(_t_even_cases())
@settings(max_examples=60, deadline=None)
def test_t_even_equals_its_grid_and_the_convolution_chain(case):
    s, kernels, a = case
    value = t_even(kernels, a)
    assert value == _t_grid(s, kernels, a)
    chain = kernels[0]
    for f in kernels[1:]:
        chain = cauchy_convolve_naive(chain, f)
    assert value == coprime_shift_sum(chain, a)


def test_t_even_rejects_mixed_periods():
    with pytest.raises(DomainError):
        t_even([ramanujan_even(2, 4), ramanujan_even(3)], 0)
    with pytest.raises(DomainError):
        t_even([], 0)


def test_t_even_kernels_with_equal_numerators():
    # f and f / 2 have the same numerators over different common denominators: one analysis
    f = SEvenFunction(6, {1: 1, 2: 3, 3: -1, 6: 2})
    g = SEvenFunction(6, {d: v / 2 for d, v in f.values.items()})
    for kernels in ([f, g], [g, f, f], [g, g, f]):
        for a in (0, 1, 5):
            assert t_even(kernels, a) == _t_grid(6, kernels, a), (kernels, a)
