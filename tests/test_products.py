import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import product, zip_longest
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramsum import (
    DomainError,
    IntPolynomial,
    ScaleError,
    count_roots,
    divisors,
    e_g_direct,
    e_g_fast,
    e_shift,
    euler_phi,
    g_r_value,
    h_value,
    linear_shift_poly,
    mobius,
    moduli_tuple,
    parse_polynomial,
    poly_eval_mod,
    r_g_direct,
    r_g_fast,
    r_prime_power,
    r_shift,
    ramanujan_sum,
    x_r_value,
)
from ramsum import products
from ramsum.congruences import _canonical_local, _local_class_sum
from ramsum.products import _convolve, _poly_convolve, _product_sum_table, _ramanujan_table, _shift_key
from ramsum.ramanujan import ramanujan_sum_totient_form
from ramsum.verify import (
    _dedekind_psi as dedekind_psi,
    _distinct_prime_count as distinct_prime_count,
    _is_squarefree as is_squarefree,
)

CORPUS = ("x", "x-1", "x-2", "x+1", "x^2-1", "x^2+x+1", "2x-1")


def linear_system(shifts):
    return tuple(f"x-{a}" if a >= 0 else f"x+{-a}" for a in shifts)


def shift_polys(shifts):
    # the system x - a_i, for e_g_fast/r_g_fast and the convolution check route
    return tuple(map(linear_shift_poly, shifts))


def test_poly_c_values_on_linears_is_the_definition():
    # a linear a*x + b reads c_m's row with stride a mod m from b mod m, in
    # slices or through the index map: every a mod m in 0..m-1 (0 gives a
    # constant row, gcd(a, m) > 1 repeats a shorter period, a > m/2 reads the
    # reversed row), negative and huge a and b, and m = 1; the quadratics
    # x^2 - 1 and x^2 + x + 1 are read by reflection at m = 97, and a cubic
    # takes poly_values_mod.  The max abs is phi(m) exactly when +-phi(m) is read
    from ramsum.products import _poly_c_values

    def check(coeffs, m, table):
        vals, vmax = _poly_c_values.__wrapped__(coeffs, m)
        want = tuple(table[poly_eval_mod(IntPolynomial(coeffs), x, m)] for x in range(m))
        assert vals == want, (coeffs, m)
        assert vmax == max(1, max(map(abs, want))), (coeffs, m)
        return vmax

    for m in (1, 2, 4, 6, 9, 12, 30, 97):
        table = [ramanujan_sum(m, n) for n in range(m)]
        for k in range(m):
            for a in (k or m, k - m, k - 3 * m, k + 10**50 * m, k - 10**80 * m):
                for b in (0, 1, -1, 5, -13, 10**60 + 3, -(10**100) - 11):
                    vmax = check((b, a), m, table)
                    if math.gcd(a, m) == 1:
                        assert vmax == euler_phi(m)
        for coeffs in ((-1, 0, 1), (1, 1, 1), (5, -3, 0, 2), (10**40 + 1, 7, 10**30 + 3)):
            check(coeffs, m, table)
    # long passes, forwards and reversed, and strides on both sides of the
    # shortest pass read in slices (m // 4 has passes of 4 entries, m // 4 + 1 of 3)
    m = 2 * 2053
    table = [ramanujan_sum(m, n) for n in range(m)]
    for a in (2, 3, 5, m // 4, m // 4 + 1, m - m // 4, m - m // 4 - 1, m // 2 - 1, m // 2 + 1, m - 3):
        for b in (0, 1, 1030, m - 1):
            check((b, a), m, table)
    # x^2 + x + 1 has no root mod 2 or mod 5: mod 2 it reads c_2(1) = -phi(2),
    # mod 5 only c_5(n) = -1 for n != 0, so the scan finds 1, not phi(5) = 4
    assert check((1, 1, 1), 2, [1, -1]) == 1
    assert check((1, 1, 1), 5, [4, -1, -1, -1, -1]) == 1
    # 2x + 1 mod 4 reads only c_4(1) = c_4(3) = 0
    assert check((1, 2), 4, [2, 0, -2, 0]) == 1


_BIG = st.integers(10**99, 10**100)


@st.composite
def _quadratic_rows(draw):
    """(c0, c1, c2) and m: g = c0 + c1 x + c2 x^2 symmetric about t mod m when c2 is a unit."""
    m = draw(st.one_of(st.integers(1, 400), st.sampled_from((2**12, 3**7, 5**5, 7**4, 11**3, 101**2, 4099))))
    c2 = draw(st.one_of(st.integers(-60, 60).filter(bool), _BIG, _BIG.map(int.__neg__)))
    t = draw(st.one_of(st.just(0), st.just(m - 1), st.integers(0, m - 1)))
    c1 = -c2 * t + m * draw(st.one_of(st.integers(-3, 3), _BIG, _BIG.map(int.__neg__)))
    c0 = draw(st.one_of(st.integers(-1000, 1000), _BIG, _BIG.map(int.__neg__)))
    return (c0, c1, c2), m


@given(_quadratic_rows())
@settings(max_examples=300, deadline=None)
@example(((1, 0, 2), 4))  # c2 not a unit: the poly_values_mod fallback
@example(((-7, 12, 6), 360))
@example(((3, 0, 10**100), 1000))
@example(((5, 0, 1), 1))  # m below the reflected read's least modulus
@example(((5, 0, 1), 64))
@example(((2, -2 * 4098, 1), 4099))  # t = m - 1
def test_quadratic_rows_read_by_reflection_are_the_definition(case):
    # the values and the max abs against c_m at g(x) evaluated in full, and the
    # reflection taken exactly when c2 is a unit mod m and m is at least 64
    coeffs, m = case
    with mock.patch.object(products, "_reflected", wraps=products._reflected) as reflected:
        vals, vmax = products._poly_c_values.__wrapped__(coeffs, m)
    c0, c1, c2 = coeffs
    want = tuple(ramanujan_sum(m, c0 + c1 * x + c2 * x * x) for x in range(m))
    assert vals == want
    assert vmax == max(1, max(map(abs, want)))
    assert reflected.called == (m >= products._MIN_REFLECTED_MODULUS and math.gcd(c2, m) == 1)


def _plain_loop(polys, moduli):
    """E_G, R_G and the root counts (all, units only), by one loop over k mod m."""
    m = math.lcm(*moduli)
    full = units = roots = unit_roots = 0
    for k in range(m):
        values = [poly_eval_mod(g, k, mi) for g, mi in zip(polys, moduli)]
        term = math.prod(ramanujan_sum(mi, v) for mi, v in zip(moduli, values))
        root = not any(values)
        full += term
        roots += root
        if math.gcd(k, m) == 1:
            units += term
            unit_roots += root
    return full // m, units, roots, unit_roots


# Divisors of 60 and 7: rows that equal the period of the product so far,
# divide it or grow it, drawn in any order.
_PERIODS = (1, 2, 3, 4, 5, 6, 7, 10, 12, 15, 20, 30, 60)
_POLYS = st.one_of(
    st.integers(-70, 70).map(lambda b: IntPolynomial((b, 1))),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(lambda c: IntPolynomial(tuple(c) + (1,))),
    st.sampled_from(CORPUS).map(parse_polynomial),
)


@given(st.lists(st.tuples(_POLYS, st.sampled_from(_PERIODS)), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_direct_routes_equal_a_plain_residue_loop(pairs):
    # the direct routes share _residue_product; this loop shares nothing with them
    polys, moduli = map(tuple, zip(*pairs))
    full, units, roots, unit_roots = _plain_loop(polys, moduli)
    assert e_g_direct(polys, moduli) == full
    assert r_g_direct(polys, moduli) == units
    assert count_roots(polys, moduli, strategy="direct").count == roots
    assert count_roots(polys, moduli, units_only=True, strategy="direct").count == unit_roots


def test_e_g_known_values():
    assert e_g_direct("x", (5,)) == 0
    assert e_g_direct(("x", "x"), (6, 6)) == 2
    assert e_g_direct("x^2-1", (8,)) == 2
    assert e_g_fast(("x", "x"), (6, 6)) == 2
    assert e_g_fast("x^2-1", (4,)) == 1
    assert e_g_fast(("x", "x", "x"), (1, 1, 1)) == 1


def test_r_g_known_values():
    assert r_g_direct(("x-1", "x-1"), (3, 3)) == 5
    assert r_g_direct("x^2-1", (4,)) == 4
    assert r_g_fast(("x-1", "x-1"), (4, 4)) == 8
    assert r_g_fast(("x-1", "x-1"), (4, 2)) == 0
    assert r_g_fast("x^2-1", (8,)) == 16
    assert r_g_direct("x-1", (1,)) == 1


def test_oracle_scale_guard():
    with pytest.raises(ScaleError):
        e_g_direct("x", (10**6 + 3,))
    with pytest.raises(ScaleError):
        r_g_direct("x", (10**6 + 3,))
    # n * degree above 10^8: refused before a row is built
    for direct in (e_g_direct, r_g_direct):
        with pytest.raises(ScaleError):
            direct("x^60000+1", (70000,))


def test_arity_mismatch():
    with pytest.raises(DomainError):
        e_g_fast(("x", "x"), (6,))
    with pytest.raises(DomainError):
        e_shift((1, 2), (6,))


def test_fast_equals_direct_small_sweep():
    for g in CORPUS:
        for ms in product(range(1, 9), repeat=2):
            sys_ = (g, g)
            assert e_g_fast(sys_, ms) == e_g_direct(sys_, ms), (g, ms)
            assert r_g_fast(sys_, ms) == r_g_direct(sys_, ms), (g, ms)


def test_fast_equals_direct_mixed_systems():
    rng = random.Random(31)
    for _ in range(250):
        r = rng.randint(1, 3)
        sys_ = tuple(rng.choice(CORPUS) for _ in range(r))
        ms = tuple(rng.randint(1, 10) for _ in range(r))
        assert e_g_fast(sys_, ms) == e_g_direct(sys_, ms), (sys_, ms)
        assert r_g_fast(sys_, ms) == r_g_direct(sys_, ms), (sys_, ms)
    # r = 4 with lcm 17017: every polynomial has a root mod every modulus,
    # so max |c_{m_i}(g_i(k))| = phi(m_i) and the bound m * prod phi(m_i)
    # on the raw sum's partial sums is past 2^62, unsafe for int64.
    sys_, ms = ("x", "x-1", "x^2-1", "x+1"), (17017,) * 3 + (2431,)
    assert math.lcm(*ms) * math.prod(map(euler_phi, ms)) >= 2**62
    assert e_g_fast(sys_, ms) == e_g_direct(sys_, ms)
    assert r_g_fast(sys_, ms) == r_g_direct(sys_, ms)


def test_multiplicativity_over_coprime_tuples():
    rng = random.Random(37)
    for _ in range(200):
        r = rng.randint(1, 3)
        g = rng.choice(CORPUS)
        while True:
            ms = [rng.randint(1, 30) for _ in range(r)]
            ns = [rng.randint(1, 30) for _ in range(r)]
            if math.gcd(math.prod(ms), math.prod(ns)) == 1:
                break
        both = [m * n for m, n in zip(ms, ns)]
        sys_ = (g,) * r
        assert e_g_fast(sys_, both) == e_g_fast(sys_, ms) * e_g_fast(sys_, ns)
        assert r_g_fast(sys_, both) == r_g_fast(sys_, ms) * r_g_fast(sys_, ns)


def test_single_polynomial_coprime_moduli_collapse():
    # same polynomial at every position, pairwise coprime moduli: the
    # multivariable coprime sum equals the one-variable value at the lcm
    rng = random.Random(41)
    for _ in range(150):
        g = rng.choice(CORPUS)
        r = rng.randint(2, 3)
        while True:
            ms = [rng.randint(1, 20) for _ in range(r)]
            if all(
                math.gcd(ms[i], ms[j]) == 1 for i in range(r) for j in range(i + 1, r)
            ):
                break
        assert r_g_fast((g,) * r, ms) == r_g_fast((g,), (math.lcm(*ms),))


def test_e_shift_known_values():
    assert e_shift((0, 1), (6, 6)) == 1
    assert e_shift((0, 1), (4, 4)) == 0
    assert e_g_fast(shift_polys((0, 1)), (6, 6)) == 1
    assert e_shift((0,), (5,)) == 0


def test_e_shift_zero_vector_is_plain_product_sum():
    for r in (1, 2, 3):
        for ms in product(range(1, 7), repeat=r):
            assert e_shift((0,) * r, ms) == e_g_direct(("x",) * r, ms)


def test_e_shift_equals_direct_oracle():
    rng = random.Random(43)
    for _ in range(300):
        r = rng.randint(1, 3)
        sh = tuple(rng.randint(-8, 8) for _ in range(r))
        ms = tuple(rng.randint(1, 12) for _ in range(r))
        want = e_g_direct(linear_system(sh), ms)
        assert e_shift(sh, ms) == want
        assert e_g_fast(shift_polys(sh), ms) == want
    # four shifts, prime-power moduli, shifts far outside the moduli
    for _ in range(150):
        r = rng.randint(1, 4)
        sh = tuple(rng.randint(-100, 100) for _ in range(r))
        ms = tuple(rng.choice((8, 9, 16, 27, rng.randint(1, 12))) for _ in range(r))
        want = e_g_direct(linear_system(sh), ms)
        assert e_shift(sh, ms) == want, (sh, ms)
        assert e_g_fast(shift_polys(sh), ms) == want, (sh, ms)


def test_adjacent_shift_rule():
    for m1 in range(1, 41):
        for m2 in range(1, 41):
            for a in (-3, 0, 2):
                got = e_shift((a, a + 1), (m1, m2))
                if m1 == m2 and is_squarefree(m1):
                    assert got == (-1) ** distinct_prime_count(m1)
                else:
                    assert got == 0
                assert got == e_g_fast(shift_polys((a, a + 1)), (m1, m2))


def test_r_shift_known_values():
    assert r_shift((1, 2), (3, 3)) == -4
    assert r_shift((0, 1), (2, 3)) == -1
    assert r_shift((5,), (12,)) == mobius(12) * ramanujan_sum(12, 5)


def test_r_shift_equals_direct_oracle():
    rng = random.Random(47)
    for _ in range(300):
        r = rng.randint(1, 3)
        sh = tuple(rng.randint(-8, 8) for _ in range(r))
        ms = tuple(rng.randint(1, 12) for _ in range(r))
        want = r_g_direct(linear_system(sh), ms)
        assert r_shift(sh, ms) == want
        assert r_g_fast(shift_polys(sh), ms) == want
    # four shifts, prime-power moduli, shifts far outside the moduli
    for _ in range(150):
        r = rng.randint(1, 4)
        sh = tuple(rng.randint(-100, 100) for _ in range(r))
        ms = tuple(rng.choice((8, 9, 16, 27, rng.randint(1, 12))) for _ in range(r))
        want = r_g_direct(linear_system(sh), ms)
        assert r_shift(sh, ms) == want, (sh, ms)
        assert r_g_fast(shift_polys(sh), ms) == want, (sh, ms)


def test_single_variable_shift_rule():
    for n in range(1, 201):
        for a in range(-50, 51):
            want = mobius(n) * ramanujan_sum(n, a)
            assert r_shift((a,), (n,)) == want
            assert r_g_fast(shift_polys((a,)), (n,)) == want


def test_pairwise_coprime_shift_rule():
    rng = random.Random(53)
    for _ in range(200):
        r = rng.randint(1, 3)
        while True:
            ms = [rng.randint(1, 30) for _ in range(r)]
            if all(
                math.gcd(ms[i], ms[j]) == 1 for i in range(r) for j in range(i + 1, r)
            ):
                break
        sh = [rng.randint(-10, 10) for _ in range(r)]
        want = mobius(math.lcm(*ms))
        for mi, ai in zip(ms, sh):
            want *= ramanujan_sum(mi, ai)
        assert r_shift(sh, ms) == want
        assert r_g_fast(shift_polys(sh), ms) == want


def test_unit_adjacent_shift_rule():
    for m1 in range(1, 41):
        for m2 in range(1, 41):
            for a1 in (-3, 1, 4):
                a2 = a1 + 1
                if math.gcd(a1, m1) != 1 or math.gcd(a2, m2) != 1:
                    continue
                got = r_shift((a1, a2), (m1, m2))
                assert got == r_g_fast(shift_polys((a1, a2)), (m1, m2))
                if is_squarefree(m1) and is_squarefree(m2):
                    g = math.gcd(m1, m2)
                    assert got == (-1) ** distinct_prime_count(g) * dedekind_psi(g)
                else:
                    assert got == 0


def test_shift_root_count_past_the_oracle_cap():
    # r = 4..8 shifts on moduli from 2^20, 3^12 and 10007^2 with small
    # cofactors, far past the oracles' lcm cap; the top modulus appears
    # twice and the shifts differ by multiples of large divisors of it,
    # so about half of the sums are nonzero; the reference is the
    # mu-weighted convolution over root counts, not the class walk behind
    # e_shift/r_shift and e_g_fast/r_g_fast
    rng = random.Random(59)

    def cut(top):
        # a divisor of top whose valuations are at most 3 below top's
        return top // math.gcd(top, rng.choice((1, 2, 4, 8, 3, 9, 10007)))

    nonzero = 0
    for _ in range(100):
        r = rng.randint(4, 8)
        top = rng.choice((2**20, 3**12, 10007**2)) * rng.choice((1, 2, 3, 6, 12, 3**12, 10007))
        ms = [top, top] + [cut(top) for _ in range(r - 2)]
        rng.shuffle(ms)
        base = rng.randint(-(10**30), 10**30)
        sh = tuple(base + cut(top) * rng.randint(-2, 2) for _ in range(r))
        want_e = _poly_convolve(shift_polys(sh), ms, False)
        want_r = _poly_convolve(shift_polys(sh), ms, True)
        assert e_shift(sh, ms) == want_e, (sh, ms)
        assert r_shift(sh, ms) == want_r, (sh, ms)
        nonzero += want_e != 0
    assert nonzero >= 30


# Moduli far past the oracles' lcm cap of 10^6: squarefree, with a square
# factor, prime powers, alone or with small cofactors.
_PAST_CAP = (
    10007 * 10009, 2 * 10007 * 10009, 10007**2 * 3, 10007 * 3, 10009, 2**20, 3**12 * 5, 7 * 11 * 13
)


def test_shift_closed_forms_past_the_oracle_cap():
    # the paper's closed forms and the mu-weighted convolution over root
    # counts: two routes independent of the class walk behind e_shift/r_shift
    def check(shift, coprime, sh, ms, want):
        assert shift(sh, ms) == want == _poly_convolve(shift_polys(sh), ms, coprime), (sh, ms)
        return want != 0

    adjacent = unit_adjacent = pairwise_coprime = 0
    for m1, m2 in product(_PAST_CAP, repeat=2):
        for a in (-3, 0, 2, 10**20 + 1):
            # (-1)^omega(m) on equal squarefree moduli, else 0
            want = (-1) ** distinct_prime_count(m1) if m1 == m2 and is_squarefree(m1) else 0
            adjacent += check(e_shift, False, (a, a + 1), (m1, m2), want)
            if math.gcd(a, m1) == 1 and math.gcd(a + 1, m2) == 1:
                # (-1)^omega(g) psi(g), g = gcd(m_1, m_2), on squarefree moduli, else 0
                g, want = math.gcd(m1, m2), 0
                if is_squarefree(m1) and is_squarefree(m2):
                    want = (-1) ** distinct_prime_count(g) * dedekind_psi(g)
                unit_adjacent += check(r_shift, True, (a, a + 1), (m1, m2), want)
    # mu(m) prod_i c_{m_i}(a_i), with shifts on and off the prime divisors
    for ms in (
        (10007 * 10009,),
        (10007**2 * 3,),
        (3**12 * 5,),
        (10007 * 10009, 2**20),
        (10007 * 3, 10009, 2 * 5 * 7),
        (10007 * 10009, 6, 7 * 11 * 13),
    ):
        for sh in product((1, 10007, 3 * 10009 * 5, -(10**20) * 1001), repeat=len(ms)):
            want = mobius(math.prod(ms)) * math.prod(map(ramanujan_sum, ms, sh))
            pairwise_coprime += check(r_shift, True, sh, ms, want)
    assert (adjacent, unit_adjacent, pairwise_coprime) == (20, 47, 132)


# Singular roots, p-divisible content, constants and the zero polynomial.
_SPECIAL = ("x", "x-1", "x^2", "x^3-x", "4x^2+4x", "9x^2-9", "x^2-1", "x^2+x+1", "2x-1", "6", "0")
# Top exponent per prime: any two of them keep the lcm at most 2^6 * 3^4.
_TOPS = {2: 6, 3: 4, 5: 2, 7: 2}


@st.composite
def _systems(draw, max_r):
    """r <= max_r polynomials and moduli built from one or two primes."""
    primes = draw(st.lists(st.sampled_from(sorted(_TOPS)), min_size=1, max_size=2, unique=True))
    polys, moduli = [], []
    for _ in range(draw(st.integers(1, max_r))):
        if draw(st.booleans()):
            polys.append(parse_polynomial(draw(st.sampled_from(_SPECIAL))))
        else:
            content = draw(st.sampled_from(primes)) ** draw(st.integers(0, 2))
            coeffs = [c * content for c in draw(st.lists(st.integers(-9, 9), max_size=4))]
            for _ in range(draw(st.integers(0, 2))):  # times (x - a): repeated roots
                a = draw(st.integers(-3, 3))
                coeffs = [u - a * v for u, v in zip([0] + coeffs, coeffs + [0])]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            polys.append(IntPolynomial(tuple(coeffs)))
        moduli.append(math.prod(p ** draw(st.integers(0, _TOPS[p])) for p in primes))
    return tuple(polys), tuple(moduli)


@given(_systems(10))
@settings(max_examples=120, deadline=None)
def test_class_walk_equals_mu_convolution(case):
    polys, moduli = case
    assert e_g_fast(polys, moduli) == _poly_convolve(polys, moduli, False)
    assert r_g_fast(polys, moduli) == _poly_convolve(polys, moduli, True)


@given(_systems(4))
@settings(max_examples=120, deadline=None)
def test_class_walk_equals_direct_oracles(case):
    polys, moduli = case
    assert math.lcm(*moduli) <= 10**4
    assert e_g_fast(polys, moduli) == e_g_direct(polys, moduli)
    assert r_g_fast(polys, moduli) == r_g_direct(polys, moduli)


def test_canonical_local_keys():
    # pairs with a = 0 dropped, coefficients reduced mod p^a (3 + 4x is 3 mod 4) with their
    # content divided out (2 + 6x mod 8 is 2 (1 + 3x), 4 + 8x mod 4 is 0), triples sorted together
    key = ((1, 1), (0, 1), (5, 2, 4), (3, 4), (2, 6), (4, 8))
    assert _canonical_local(key, 2, (1, 2, 0, 2, 3, 2)) == (
        ((), 1, 2), ((0, 1), 4, 2), ((1, 1), 2, 1), ((1, 3), 4, 3), ((3,), 4, 2)
    )
    assert _canonical_local(key, 3, (0, 0, 1, 0, 0, 0)) == (((2, 2, 1), 3, 1),)
    # x + 2 and x agree mod 2, not mod 4: sum c_4(x) c_4(x + 2) = -8, sum c_4(x)^2 = 8
    assert e_g_fast(("x", "x"), (4, 4)) == 2
    assert e_g_fast(("x", "x+2"), (4, 4)) == -2
    # (x, 4), (x + 1, 2) and (x + 1, 4), (x, 2) are different systems
    for polys, moduli in ((("x", "x+1"), (4, 2)), (("x+1", "x"), (4, 2))):
        assert e_g_fast(polys, moduli) == e_g_direct(polys, moduli)
        assert r_g_fast(polys, moduli) == r_g_direct(polys, moduli)


def _plus_multiple(g, m, h):
    """The polynomial g + m * h, with h given by its coefficients."""
    coeffs = [u + m * v for u, v in zip_longest(g.coeffs, h, fillvalue=0)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(tuple(coeffs))


@given(_systems(4), st.randoms(use_true_random=False), st.lists(st.lists(st.integers(-3, 3), max_size=3), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_equivalent_systems_share_one_local_walk(case, rnd, hs):
    # permuted pairs, g_i + m_i h_i and an appended modulus 1 give the same local systems
    polys, moduli = case
    e, r = e_g_fast(polys, moduli), r_g_fast(polys, moduli)
    walks = _local_class_sum.cache_info().misses
    order = list(range(len(polys)))
    rnd.shuffle(order)
    variants = (
        (tuple(polys[i] for i in order), tuple(moduli[i] for i in order)),
        (tuple(_plus_multiple(g, m, h) for g, m, h in zip(polys, moduli, hs)), moduli),
        (polys + (parse_polynomial(rnd.choice(_SPECIAL)),), moduli + (1,)),
    )
    for variant in variants:
        assert (e_g_fast(*variant), r_g_fast(*variant)) == (e, r), variant
    assert _local_class_sum.cache_info().misses == walks
    for variant in ((polys, moduli),) + variants:
        assert (e_g_direct(*variant), r_g_direct(*variant)) == (e, r), variant
        assert (_poly_convolve(*variant, False), _poly_convolve(*variant, True)) == (e, r), variant


@given(
    st.lists(st.tuples(st.integers(-20, 20), st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 27))), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_equivalent_shift_systems_share_one_local_walk(pairs, rnd, ts):
    shifts, moduli = map(tuple, zip(*pairs))
    e, r = e_shift(shifts, moduli), r_shift(shifts, moduli)
    walks = _local_class_sum.cache_info().misses
    order = list(range(len(shifts)))
    rnd.shuffle(order)
    variants = (
        (tuple(shifts[i] for i in order), tuple(moduli[i] for i in order)),
        (tuple(a + m * t for a, m, t in zip(shifts, moduli, ts)), moduli),
        (shifts + (rnd.randint(-20, 20),), moduli + (1,)),
    )
    for variant in variants:
        assert (e_shift(*variant), r_shift(*variant)) == (e, r), variant
    assert _local_class_sum.cache_info().misses == walks
    for a, mods in ((shifts, moduli),) + variants:
        assert (_poly_convolve(shift_polys(a), mods, False), _poly_convolve(shift_polys(a), mods, True)) == (e, r)
        assert (e_g_direct(linear_system(a), mods), r_g_direct(linear_system(a), mods)) == (e, r)


@pytest.mark.parametrize(
    "polys,moduli",
    [
        (("x^2-1", "x+1"), (1000003**2, 1000003**2)),
        (("x^2+x+1", "x^2+x+1"), (1000003**2, 1000003**2)),
        (("x^2-1", "x^2+x-2"), (1000003**2, 1000003**2)),
        (("x^2", "x"), (10007**3, 10007**2)),
        (("x^2-1", "x+1", "x-1"), (10007**3, 10007**3, 10007)),
        (("x^2+x-2", "x^2-1"), (10007**3, 10007**3)),
        (("x^3-x", "x^3-x"), (3**20, 3**20)),
        (("x^3-x", "9x^2-9"), (3**20, 3**20)),
        (("x-1", "x-1-3^19", "x^2-1"), (3**20, 3**20, 3**19)),
    ],
)
def test_local_factors_match_sympy_past_scan_cap(polys, moduli):
    # the mu-expansion of the local factor, its root counts taken from sympy
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.residue_ntheory import polynomial_congruence

    x = sympy.Symbol("x")
    gs = [parse_polynomial(g.replace("3^19", str(3**19))) for g in polys]

    def root_count(p, jvec, units):
        top = max(jvec)
        if top == 0:
            return 1
        first = gs[jvec.index(top)]
        roots = polynomial_congruence(sum(c * x**k for k, c in enumerate(first.coeffs)), p**top)
        return sum(
            1
            for r in roots
            if not (units and r % p == 0)
            and all(poly_eval_mod(g, r, p**j) == 0 for g, j in zip(gs, jvec))
        )

    mt = moduli_tuple(moduli)
    assert e_g_fast(gs, mt) == _convolve(mt, root_count, False)
    assert r_g_fast(gs, mt) == _convolve(mt, root_count, True)


@pytest.mark.parametrize("m", [6, 2**20, 2**10 * 3**5, 3**12 * 5])
def test_sixty_four_shifts_in_bounded_time(m):
    # shifts that agree modulo large divisors of m, so the walk descends
    # below the first digit; with m = 6 the oracles check the values
    rng = random.Random(m)
    step = m // math.prod(p for p, _ in moduli_tuple((m,)).lcm.factors)
    sh = tuple(rng.randint(-(10**6), 10**6) * step + 17 for _ in range(64))
    ms = (m,) * 64
    t0 = time.perf_counter()
    e, r = e_shift(sh, ms), r_shift(sh, ms)
    assert time.perf_counter() - t0 < 1.0
    if m == 6:
        assert e == e_g_direct(linear_system(sh), ms)
        assert r == r_g_direct(linear_system(sh), ms)
    # all shifts equal: sum over the divisor classes x = d * unit of c_m(x)^64
    t0 = time.perf_counter()
    want = sum(euler_phi(m // d) * ramanujan_sum(m, d) ** 64 for d in divisors(m)) // m
    assert e_shift((17,) * 64, ms) == want
    assert time.perf_counter() - t0 < 1.0


def _r_func(moduli):
    # the paper's R(m_1, ..., m_r): every shift equal to 1
    return r_shift((1,) * len(moduli), moduli)


def test_r_func_known_values():
    assert _r_func((3, 3)) == 5
    assert _r_func((4, 4)) == 8
    assert _r_func((3, 3, 3)) == 7
    assert _r_func((1,)) == 1


def test_r_func_nonnegative_and_matches_oracle():
    for ms in product(range(1, 9), repeat=2):
        val = _r_func(ms)
        assert val >= 0
        assert val == r_g_direct(("x-1", "x-1"), ms)
    rng = random.Random(59)
    for _ in range(100):
        r = rng.randint(1, 4)
        ms = tuple(rng.randint(1, 12) for _ in range(r))
        val = _r_func(ms)
        assert val >= 0
        assert val == r_g_direct(("x-1",) * r, ms)


def test_h_value_closed_forms():
    assert all(h_value(1, x) == 0 for x in range(2, 30))
    assert all(h_value(2, x) == 1 for x in range(2, 30))
    assert all(h_value(3, x) == x - 2 for x in range(2, 30))
    for s in range(1, 9):
        for x in range(2, 50):
            assert ((x - 1) ** (s - 1) + (-1) ** s) == h_value(s, x) * x


def test_r_prime_power_rejects_bad_input():
    with pytest.raises(DomainError, match="4 is not prime"):
        r_prime_power(4, (1,))
    with pytest.raises(DomainError, match=r"exponents must be >= 1, got \(1, 0\)"):
        r_prime_power(3, (0, 1))
    with pytest.raises(DomainError, match="at least one exponent required"):
        r_prime_power(3, ())


def test_r_prime_power_known_values():
    assert r_prime_power(3, (1, 1)) == 5
    assert r_prime_power(2, (2, 2)) == 8
    assert r_prime_power(2, (3, 1)) == 0
    assert r_prime_power(3, (2, 2, 2)) == 162
    # the exponent order does not matter: R is symmetric
    assert r_prime_power(2, (1, 3, 3, 2)) == r_prime_power(2, (3, 3, 2, 1))


def test_r_prime_power_matches_oracle():
    for p in (2, 3):
        for r in (1, 2, 3):
            for exps in product((1, 2), repeat=r):
                assert r_prime_power(p, exps) == r_g_direct(
                    ("x-1",) * r, tuple(p**e for e in exps)
                ), (p, exps)


def test_r_prime_power_zero_classification():
    for p in (2, 3, 5):
        for r in (1, 2, 3, 4):
            for exps in product((1, 2, 3), repeat=r):
                val = r_prime_power(p, exps)
                assert val >= 0
                top = max(exps)
                s = exps.count(top)
                vanishes = top > 1 and (s == 1 or (s % 2 == 1 and p == 2))
                assert (val == 0) == vanishes, (p, exps)


def test_two_variable_prime_power_cases():
    for p in (2, 3, 5):
        for e in (2, 3):
            assert r_prime_power(p, (e, e)) == p ** (2 * e - 1) * (p - 1)
        assert r_prime_power(p, (1, 1)) == p**2 - p - 1
        assert r_prime_power(p, (3, 2)) == 0


def test_g_r_known_values():
    assert g_r_value(2, 4) == 2
    assert g_r_value(2, 3) == Fraction(5, 3)
    assert g_r_value(2, 1) == 1
    assert g_r_value(1, 30) == Fraction(1, 30)


def test_g_r_matches_definition():
    for r in (1, 2, 3):
        for m in range(1, 30):
            assert g_r_value(r, m) == Fraction(r_g_direct(("x-1",) * r, (m,) * r), m)


@st.composite
def _boxes(draw):
    """A system of r <= 3 polynomials or shifts, and the box side N: N <= 10 for r <= 2, N <= 5 for r = 3."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 10 if r <= 2 else 5))
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(-12, 12), min_size=r, max_size=r))), None, n
    polys = draw(st.lists(st.sampled_from(_SPECIAL + ("x^2+1", "x^3+x+1", "3x+2")), min_size=r, max_size=r))
    return None, tuple(map(parse_polynomial, polys)), n


@given(_boxes(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_box_sieve_tables_equal_three_routes(case, coprime):
    # the sieve is never its own check: per tuple by the class walk, by the
    # direct oracle and by the mu-convolution over root counts
    shifts, polys, n = case
    if shifts is not None:
        key, system = _shift_key(shifts), shift_polys(shifts)
        fast = partial(r_shift if coprime else e_shift, shifts)
    else:
        key, system = tuple(g.coeffs for g in polys), polys
        fast = partial(r_g_fast if coprime else e_g_fast, polys)
    direct = r_g_direct if coprime else e_g_direct
    tuples = list(product(range(1, n + 1), repeat=len(key)))
    table = _product_sum_table(key, n, coprime)
    assert table == [fast(ms) for ms in tuples]
    assert table == [direct(system, ms) for ms in tuples]
    assert table == [_poly_convolve(system, ms, coprime) for ms in tuples]


def test_box_sieve_crosses_prime_powers_and_three_primes():
    # N = 30 = 2 * 3 * 5 and r = 2: 8 = 2^3, 9 = 3^2, 16, 25 and 27 against the class walk per tuple
    for system in (("x", "x^2-1"), ("2x-1", "x^2+x+1")):
        key = tuple(parse_polynomial(g).coeffs for g in system)
        for coprime, fast in ((False, e_g_fast), (True, r_g_fast)):
            want = [fast(system, ms) for ms in product(range(1, 31), repeat=2)]
            assert _product_sum_table(key, 30, coprime) == want, (system, coprime)


@given(st.integers(-10**4, 10**4), st.integers(1, 2000))
@settings(max_examples=60, deadline=None)
def test_ramanujan_table_equals_the_totient_form(a, n):
    assert _ramanujan_table(a, n) == [ramanujan_sum_totient_form(m, a) for m in range(1, n + 1)]


def test_ramanujan_table_at_highly_divisible_arguments():
    for a in (0, 720720, -5040):
        assert _ramanujan_table(a, 10**4) == [ramanujan_sum_totient_form(m, a) for m in range(1, 10**4 + 1)]


def test_r_is_capped_at_256():
    assert x_r_value(256, 7) == 6**256 + 5
    assert h_value(256, 3) * 3 == 2**255 + 1
    for call in (lambda: x_r_value(257, 7), lambda: h_value(257, 3), lambda: g_r_value(257, 6)):
        with pytest.raises(ScaleError, match="capped at . <= 256, got 257"):
            call()


# a call in a child process with 1 GiB of address space
_LIMITED_CALL = (
    "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from ramsum import ScaleError, g_r_value, h_value, x_r_value\n"
    "try:\n    {}\nexcept ScaleError as exc:\n    print(exc)\n"
)


@pytest.mark.parametrize(
    "call,message",
    [
        ("x_r_value(10**9, 7)", "x_r capped at r <= 256, got 1000000000"),
        ("h_value(10**9, 7)", "h_s capped at s <= 256, got 1000000000"),
        ("g_r_value(10**9, 7)", "g_r capped at r <= 256, got 1000000000"),
    ],
)
def test_r_past_its_cap_is_a_scale_error_in_bounded_memory(call, message):
    # (p - 1)^r at r = 10^9 has about 3 * 10^9 bits, past the child's address space
    done = subprocess.run([sys.executable, "-c", _LIMITED_CALL.format(call)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, message + "\n"), done.stderr


_LIMITED_R_PRIME_POWER = (
    "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from ramsum import ScaleError, r_prime_power\n"
    "try:\n    r_prime_power({}, {})\nexcept ScaleError as exc:\n    print(exc)\n"
)


@pytest.mark.parametrize(
    "p,exponents,bits",
    [(3, [10**8], 200000002), (2, [10**9, 10**9], 4000000002), (10**9 + 7, [40000, 2], 1200090)],
)
def test_r_prime_power_past_its_bit_budget_is_a_scale_error_in_bounded_memory(p, exponents, bits):
    # 3^(10^8) ran past 20 s; the bound (sum e + 1) * bit_length(p) is checked before any power
    call = _LIMITED_R_PRIME_POWER.format(p, exponents)
    done = subprocess.run([sys.executable, "-c", call], capture_output=True, text=True, timeout=60)
    want = f"R on prime powers capped at 10^6 bits, got (sum of exponents + 1) * {p.bit_length()} = {bits}\n"
    assert (done.returncode, done.stdout) == (0, want), done.stderr


def test_r_prime_power_within_its_bit_budget():
    # (sum e + 1) * bit_length(p) bounds the bits of the value; at the budget it is still computed
    value = r_prime_power(3, (249999, 249999, 1))
    assert value.bit_length() <= 500000 * 2
    assert value == 3 ** (249999 * 2 + 1 - 3 + 1) * 2 ** (3 - 2 + 1) * h_value(2, 3)
