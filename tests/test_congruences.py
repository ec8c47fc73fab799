import gc
import math
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramsum import (
    DomainError,
    IntPolynomial,
    PolynomialSyntaxError,
    ScaleError,
    as_poly_system,
    count_roots,
    e_g_direct,
    e_g_fast,
    linear_shift_poly,
    parse_polynomial,
    poly_eval_mod,
    poly_values_mod,
    r_g_direct,
    r_g_fast,
)
from ramsum import congruences
from ramsum.verify import _crt_solve as crt_solve


def test_parse_examples():
    assert parse_polynomial("x^2-1").coeffs == (-1, 0, 1)
    assert parse_polynomial("x").coeffs == (0, 1)
    assert parse_polynomial("-2x^3+x-7").coeffs == (-7, 1, 0, -2)
    assert parse_polynomial("2x-1").coeffs == (-1, 2)
    assert parse_polynomial("5").coeffs == (5,)
    assert parse_polynomial("x^2+x+1").coeffs == (1, 1, 1)


def test_parse_whitespace_and_implicit_multiplication():
    assert parse_polynomial(" - 2 x ^ 3 + 4 ") == parse_polynomial("-2x^3+4")
    assert parse_polynomial("3x") == parse_polynomial("3 x")


def test_parse_collects_and_canonicalizes():
    assert parse_polynomial("x+x").coeffs == (0, 2)
    assert parse_polynomial("x-x").coeffs == ()
    assert parse_polynomial("x^2-x^2+1").coeffs == (1,)
    assert parse_polynomial("0").coeffs == ()
    assert parse_polynomial("x^0").coeffs == (1,)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("   ", 3),
        ("x^", 2),
        ("x^-2", 2),
        ("2y", 1),
        ("x x", 2),
        ("+", 1),
        ("3*x", 1),
        ("x2", 1),
    ],
)
def test_parse_errors_report_position(text, pos):
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_polynomial(text)
    assert exc.value.position == pos
    assert f"position {pos}" in str(exc.value)


def test_int_polynomial_rejects_trailing_zero():
    with pytest.raises(DomainError):
        IntPolynomial((1, 0))


def test_poly_eval_mod():
    assert poly_eval_mod(parse_polynomial("x^2-1"), 3, 8) == 0
    assert poly_eval_mod(parse_polynomial("x-3"), 3, 7) == 0
    assert poly_eval_mod(parse_polynomial("x^2-1"), 2, 5) == 3
    assert poly_eval_mod(IntPolynomial(()), 11, 7) == 0
    with pytest.raises(DomainError):
        poly_eval_mod(parse_polynomial("x"), 1, 0)


def test_count_roots_quadratic_known_values():
    assert count_roots("x^2-1", (8,)).count == 4
    assert count_roots("x^2-1", (2,)).count == 1
    assert count_roots("x^2-1", (4,)).count == 2
    for p in (3, 5, 7, 11):
        for a in (1, 2, 3):
            assert count_roots("x^2-1", (p**a,)).count == 2
    rc = count_roots("x^2-1", (12,))
    assert rc.count == 4 and rc.modulus == 12


def test_count_roots_linear_single():
    for a in range(-4, 5):
        for d in range(1, 15):
            rc = count_roots(linear_shift_poly(a), (d,))
            assert rc.count == 1


def test_count_roots_length_mismatch():
    with pytest.raises(DomainError):
        count_roots(("x", "x"), (4,))


def test_as_poly_system_is_a_tuple_of_polynomials():
    g, h = parse_polynomial("x^2-1"), IntPolynomial((-1, 2))
    assert as_poly_system("x^2-1") == as_poly_system(g) == (g,)
    for system in (["x^2-1", "2x-1"], (g, "2x-1"), iter((g, h))):
        got = as_poly_system(system)
        assert type(got) is tuple and got == (g, h)
        assert all(type(poly) is IntPolynomial for poly in got)
    for empty in ((), [], iter(())):
        with pytest.raises(DomainError) as err:
            as_poly_system(empty)
        assert str(err.value) == "a system needs at least one polynomial"
    with pytest.raises(DomainError, match="^a system needs at least one polynomial$"):
        count_roots((), ())


def test_system_elements_that_are_not_polynomials_are_domain_errors():
    calls = [
        (e_g_fast, [5], "int"),
        (count_roots, [None], "NoneType"),
        (e_g_direct, [(1, 2)], "tuple"),
        (r_g_fast, ("x", 1.5), "float"),
        (r_g_direct, [b"x"], "bytes"),
    ]
    for call, system, kind in calls:
        moduli = [6] * len(system)
        with pytest.raises(DomainError, match=f"^a system holds polynomials or their texts, not {kind}$"):
            call(system, moduli)
    for system, kind in ((5, "int"), (None, "NoneType")):
        with pytest.raises(DomainError, match=f"^a system holds polynomials or their texts, not {kind}$"):
            e_g_fast(system, [6])
    with pytest.raises(DomainError, match="not list"):
        as_poly_system([["x"]])


@st.composite
def _polys_and_moduli(draw):
    deg = draw(st.integers(-1, 8))
    big = st.integers(-(10**120), 10**120)
    small = st.integers(-20, 20)
    coeffs = [draw(st.one_of(small, big)) for _ in range(deg + 1)]
    if coeffs and coeffs[-1] == 0:
        coeffs[-1] = draw(st.sampled_from((-1, 1, 10**100 + 7)))
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 400)))
    return IntPolynomial(tuple(coeffs)), n


@given(_polys_and_moduli())
@settings(max_examples=400, deadline=None)
def test_poly_values_mod_equals_horner(case):
    g, n = case
    assert list(poly_values_mod(g, n)) == [poly_eval_mod(g, x, n) for x in range(n)]


@st.composite
def _deep_nests(draw):
    # degrees up to the deepest nest, small or huge coefficients, and a leading
    # coefficient that often makes the top difference d! * lead vanish mod n
    n = draw(st.integers(2, 1500))
    d = draw(st.integers(1, min(n - 1, 64)))
    coeff = st.one_of(st.integers(-50, 50), st.integers(-(10**80), 10**80))
    rest = [draw(coeff) for _ in range(d)]
    lead = draw(st.one_of(coeff, st.integers(1, 5).map(lambda k: k * n // math.gcd(math.factorial(d), n))))
    return IntPolynomial(tuple(rest) + (lead or 1,)), n


@given(_deep_nests())
@example((IntPolynomial((0, 0, 1)), 2))  # Delta^2 g = 2 = 0 (mod 2)
@example((IntPolynomial((3, 5)), 5))  # a constant row mod 5
@example((IntPolynomial((-1, -4 * 10**13)), 10**5))  # a descending progression
@example((IntPolynomial((7,) * 64 + (10**100,)), 1000))
@settings(max_examples=200, deadline=None)
def test_poly_values_mod_equals_horner_on_deep_nests(case):
    g, n = case
    assert list(poly_values_mod(g, n)) == [poly_eval_mod(g, x, n) for x in range(n)]


def test_poly_values_mod_edge_cases():
    # zero polynomial, constants, n = 1, deg = n - 1, and the Horner fallback
    # for deg >= n and for degrees 65 and 200, past the deepest difference nest
    rng = random.Random(5)
    for coeffs in (
        (),
        (-7,),
        (10**150,),
        (5, -3, 0, 2),
        (1, 0, 0, 0, 0, 0, 0, 0, -(10**101)),
        tuple(rng.randint(-99, 99) for _ in range(64)) + (3,),
        tuple(rng.randint(-99, 99) for _ in range(65)) + (-1,),
        tuple(rng.randint(-99, 99) for _ in range(200)) + (1,),
    ):
        g = IntPolynomial(coeffs)
        for n in (1, 2, 3, 4, 5, 8, 9, 97, 300):
            assert list(poly_values_mod(g, n)) == [poly_eval_mod(g, x, n) for x in range(n)]
    with pytest.raises(DomainError):
        poly_values_mod(IntPolynomial((1, 1)), 0)


def test_poly_values_mod_work_cap():
    # n * deg g <= 10^8: degree 100 at n = 10^6 is accepted (not iterated
    # here), degree 101 is refused when called, before any value is made
    poly_values_mod(IntPolynomial((1,) + (0,) * 99 + (1,)), 10**6)
    with pytest.raises(ScaleError, match="10\\^8"):
        poly_values_mod(IntPolynomial((1,) + (0,) * 100 + (1,)), 10**6)
    x60000 = IntPolynomial((1,) + (0,) * 59999 + (1,))
    with pytest.raises(ScaleError):
        poly_values_mod(x60000, 70000)
    with pytest.raises(ScaleError):
        count_roots(x60000, (70000,), strategy="direct")


def _scan_roots(polys, moduli, units):
    m = math.lcm(*moduli)
    return sum(
        1
        for x in range(m)
        if (not units or math.gcd(x, m) == 1)
        and all(poly_eval_mod(g, x, mi) == 0 for g, mi in zip(polys, moduli))
    )


def test_count_roots_direct_equals_per_residue_scan():
    rng = random.Random(17)
    for _ in range(150):
        r = rng.randint(1, 4)
        polys = []
        for _ in range(r):
            deg = rng.randint(0, 4)
            coeffs = [
                rng.choice((rng.randint(-9, 9), rng.randint(-(10**40), 10**40))) for _ in range(deg)
            ]
            polys.append(IntPolynomial(tuple(coeffs) + (rng.choice((-3, -1, 1, 2, 6)),)))
        ms = tuple(rng.randint(1, 60) for _ in range(r))
        if math.lcm(*ms) > 5000:
            continue
        for units in (False, True):
            got = count_roots(polys, ms, units_only=units, strategy="direct").count
            assert got == _scan_roots(polys, ms, units), (polys, ms, units)


def test_count_roots_strategies_agree():
    rng = random.Random(11)
    for _ in range(250):
        r = rng.randint(1, 3)
        polys = []
        for _ in range(r):
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice((-2, -1, 1, 2, 3))]
            polys.append(IntPolynomial(tuple(coeffs)))
        while True:
            ms = tuple(rng.randint(1, 30) for _ in range(r))
            if math.lcm(*ms) <= 1000:
                break
        for units in (False, True):
            direct = count_roots(polys, ms, units_only=units, strategy="direct")
            fast = count_roots(polys, ms, units_only=units, strategy="multiplicative")
            assert direct == fast, (polys, ms, units)


def test_count_roots_units_definition_both_ways():
    # gcd(x, lcm) = 1 is the same constraint as gcd(x, m_i) = 1 for every i
    polys = ("x^2-1", "x-1")
    ms = (12, 10)
    m = math.lcm(*ms)
    per_modulus = sum(
        1
        for x in range(m)
        if all(poly_eval_mod(parse_polynomial(g), x, mi) == 0 for g, mi in zip(polys, ms))
        and all(math.gcd(x, mi) == 1 for mi in ms)
    )
    assert per_modulus == count_roots(polys, ms, units_only=True).count


def test_count_roots_units_bounded_by_full():
    rng = random.Random(13)
    for _ in range(200):
        r = rng.randint(1, 2)
        polys = tuple(rng.choice(("x", "x-1", "x^2-1", "2x-1", "x^2+x+1")) for _ in range(r))
        ms = tuple(rng.randint(1, 40) for _ in range(r))
        full = count_roots(polys, ms).count
        units = count_roots(polys, ms, units_only=True).count
        assert 0 <= units <= full


def test_count_roots_multiplicative_in_moduli():
    rng = random.Random(17)
    for _ in range(200):
        r = rng.randint(1, 2)
        polys = tuple(rng.choice(("x-1", "x^2-1", "2x-1")) for _ in range(r))
        while True:
            ms = [rng.randint(1, 60) for _ in range(r)]
            ns = [rng.randint(1, 60) for _ in range(r)]
            if math.gcd(math.prod(ms), math.prod(ns)) == 1:
                break
        both = [m * n for m, n in zip(ms, ns)]
        for units in (False, True):
            assert (
                count_roots(polys, both, units_only=units).count
                == count_roots(polys, ms, units_only=units).count
                * count_roots(polys, ns, units_only=units).count
            )


def test_parse_degree_cap():
    with pytest.raises(ScaleError, match="degree"):
        parse_polynomial("x^1000001")
    # the cap applies to the degree left after cancellation
    assert parse_polynomial("x^1000001 - x^1000001 + x") == IntPolynomial((0, 1))


def test_parse_digit_cap():
    for text in ("x^" + "1" * 4301, "1" * 4301 + "x^2", "x-" + "9" * 5000):
        with pytest.raises(ScaleError, match="4300 digits"):
            parse_polynomial(text)
    assert parse_polynomial("1" * 4300).coeffs == (int("1" * 4300),)


def test_parses_of_long_or_high_degree_texts_are_not_kept():
    # "x^1000000+1" is short but lays out 10^6 + 1 coefficients; the long
    # text is of degree 64 but longer than the cached 256 characters
    long_text = "+".join(["x^64"] + ["1"] * 200)
    for text in ("x^1000000+1", long_text):
        poly = parse_polynomial(text)
        assert poly == parse_polynomial(text) and poly is not parse_polynomial(text)
        ref = weakref.ref(poly)
        del poly
        gc.collect()
        assert ref() is None, text
    assert parse_polynomial("x^2-1") is parse_polynomial("x^2-1")


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except (PolynomialSyntaxError, ScaleError) as exc:
        return type(exc), exc.args, str(exc)


@given(
    st.one_of(
        st.text(alphabet="x^+-0123456789 ", max_size=40),
        st.sampled_from(["x^64+1", "x^65+1", "x^1000001", "x^1000001-x^1000001+x", "1" * 4301, ""]),
    )
)
@settings(max_examples=300, deadline=None)
def test_cached_and_uncached_parses_agree(text):
    # the first call may fill the cache and the second read it; both equal the parser itself
    want = _parse_outcome(lambda t: congruences._parse(t, congruences._DEGREE_CAP), text)
    assert _parse_outcome(parse_polynomial, text) == want
    assert _parse_outcome(parse_polynomial, text) == want


# Primes with the largest exponent e such that p^e <= 10^5; at 101 and 317
# low-degree systems find their roots mod p through x^p - x, the rest by scan.
_PRIME_TOPS = ((2, 16), (3, 10), (5, 7), (7, 5), (11, 4), (101, 2), (317, 1))
# Singular roots, p-divisible content, constants and the zero polynomial.
_SPECIAL = ("x^2", "x^3-x", "4x^2+4x", "9x^2-9", "x^2-1", "x^2+x+1", "2x-1", "6", "0")


@st.composite
def _prime_power_systems(draw):
    p, top = draw(st.sampled_from(_PRIME_TOPS))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            polys.append(parse_polynomial(draw(st.sampled_from(_SPECIAL))))
            continue
        content = p ** draw(st.integers(0, 2))
        coeffs = [c * content for c in draw(st.lists(st.integers(-9, 9), max_size=4))]
        for _ in range(draw(st.integers(0, 2))):  # times (x - a): repeated roots
            a = draw(st.integers(-3, 3))
            coeffs = [u - a * v for u, v in zip([0] + coeffs, coeffs + [0])]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        polys.append(IntPolynomial(tuple(coeffs)))
    exps = draw(st.lists(st.integers(0, top), min_size=len(polys), max_size=len(polys)))
    return polys, tuple(p**e for e in exps)


@given(_prime_power_systems())
@settings(max_examples=150, deadline=None)
def test_multiplicative_equals_direct_on_prime_powers(case):
    polys, moduli = case
    for units in (False, True):
        direct = count_roots(polys, moduli, units_only=units, strategy="direct")
        assert count_roots(polys, moduli, units_only=units, strategy="multiplicative") == direct


@pytest.mark.parametrize(
    "polys,moduli",
    [
        (("x^2-1",), (1000003**2,)),
        (("x^2+x+1",), (1000003**2,)),
        (("x^2-1",), (10007**3,)),
        (("x^2+x+1",), (10007**3,)),
        (("x^2",), (10007**3,)),
        (("x^3-x",), (3**20,)),
        (("9x^2-9",), (3**20,)),
        (("x^2-1",), (2**40,)),
        (("x^2-1", "x-1"), (1000003**2, 1000003)),
        (("x^2-1", "x^2+x-2"), (1000003, 1000003)),
        (("x^2+x-2", "x^3-x"), (10007**2, 10007**3)),
        (("x^2+1",), (65537**2,)),
        (("x^2-2",), (7681**3,)),
        (("x^2-1", "x^2+1"), (7681**2, 7681)),
    ],
)
def test_count_roots_matches_sympy_past_scan_cap(polys, moduli):
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.residue_ntheory import polynomial_congruence

    x = sympy.Symbol("x")
    gs = [parse_polynomial(g) for g in polys]
    m = math.lcm(*moduli)
    # sympy solves the first congruence mod m; the others filter its roots
    first = sum(c * x**k for k, c in enumerate(gs[0].coeffs))
    roots = [
        r
        for r in polynomial_congruence(first, m)
        if all(poly_eval_mod(g, r, mi) == 0 for g, mi in zip(gs, moduli))
    ]
    assert count_roots(polys, moduli).count == len(roots)
    units = [r for r in roots if math.gcd(r, m) == 1]
    assert count_roots(polys, moduli, units_only=True).count == len(units)


@pytest.mark.parametrize("p", [3, 5, 17, 97, 7681, 65537])
def test_quadratic_roots_match_scan(p):
    # p - 1 has 2-adic valuation 1, 2, 4, 5, 9 and 16: every Tonelli-Shanks depth
    from ramsum.congruences import _fp_quadratic_roots, _fp_sqrt

    rng = random.Random(p)
    for _ in range(20):
        a = rng.randrange(1, p)
        assert _fp_sqrt(a * a % p, p) in (a, p - a)
        assert _fp_quadratic_roots([a * a % p, -2 * a % p, 1], p) == [a]
    for _ in range(4 if p > 1000 else 40):
        g = [rng.randrange(p), rng.randrange(p), 1]
        scan = [x for x in range(p) if (x * x + g[1] * x + g[0]) % p == 0]
        assert sorted(_fp_quadratic_roots(g, p)) == scan


@pytest.mark.parametrize("p", [2, 3, 7, 10007])
def test_fp_divmod_is_euclidean_division(p):
    from ramsum.congruences import _fp_divmod, _fp_trim

    rng = random.Random(p)
    for _ in range(60):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1]
        a = _fp_trim([rng.randrange(p) for _ in range(rng.randrange(1, 12))])
        q, r = _fp_divmod(a, f, p)
        assert len(r) < len(f) and (not r or r[-1])
        assert len(q) == max(len(a) - len(f) + 1, 0) and (not q or q[-1])
        back = r + [0] * (len(a) + len(f))  # q f + r
        for i, qi in enumerate(q):
            for j, fj in enumerate(f):
                back[i + j] += qi * fj
        assert _fp_trim([c % p for c in back]) == a, (a, f, p)


_PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@st.composite
def _root_systems(draw):
    """One to three polynomials of degree <= 4 over Z, each nonzero mod a prime p < 200."""
    p = draw(st.sampled_from(_PRIMES_BELOW_200))
    hs = []
    for _ in range(draw(st.integers(1, 3))):
        h = draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=5))
        if not any(c % p for c in h):
            h[draw(st.integers(0, len(h) - 1))] += 1
        hs.append(h)
    return hs, p


@given(_root_systems())
@example(([[1, 0, 1]], 2))  # x^2 + 1 = (x + 1)^2 mod 2
@example(([[1, 1, 2], [0, 1, 0, 4]], 2))  # leading coefficients divisible by p
@example(([[6, 5, 1, 0, 7]], 7))
@example(([[1, 1], [2, 3, 5]], 5))  # degree 2 falls to 1 mod 5; two linear conditions
@example(([[-3, 10**6 - 1]], 199))  # a lone linear condition with a unit slope
@example(([[5, 14]], 7))  # a lone h0 + h1 x with p | h1: constant mod p, no roots
@example(([[10**99 + 7, 3 * 10**99 + 1]], 197))  # 100-digit coefficients
@settings(max_examples=400, deadline=None)
def test_cached_root_finder_equals_a_residue_scan(case):
    hs, p = case
    polys = [IntPolynomial(_trimmed(h)) for h in hs]
    want = [x for x in range(p) if all(poly_eval_mod(g, x, p) == 0 for g in polys)]
    for _ in range(2):  # the second call may read the cache
        got = congruences._common_roots(hs, p)
        assert type(got) is tuple and sorted(got) == want


def test_a_lone_linear_root_skips_the_root_cache():
    cache = congruences._fp_roots
    cache.cache_clear()
    assert congruences._common_roots([[-3, 1]], 7) == (3,)
    assert cache.cache_info().currsize == 0
    # two conditions, even linear ones, go through the cache
    assert congruences._common_roots([[-3, 1], [4, 1]], 7) == (3,)
    assert cache.cache_info().currsize == 1


def _no_scan(*args):
    raise AssertionError("a residue scan past its budget")


@st.composite
def _sparse_high_degree(draw):
    # one or two sparse polynomials of degree 2500-6000 at a prime p <= 3000:
    # a scan would take p * (deg + 1) > 10^6 steps, so x^p mod f decides
    p = draw(st.sampled_from((401, 1009, 1013, 2003, 2999)))
    system = []
    for _ in range(draw(st.integers(1, 2))):
        terms = {draw(st.integers(2500, 6000)): 1}
        for _ in range(draw(st.integers(1, 3))):
            terms[draw(st.integers(0, 30))] = draw(st.integers(-5, 5))
        system.append(terms)
    return system, p


@given(_sparse_high_degree())
@example(([{3000: 1, 7: -1}], 1009))  # x^7 (x^2993 - 1): roots 0 and 1
@example(([{3000: 1, 1: 1, 0: 1}, {4000: 1, 1: -1}], 1009))
@settings(max_examples=60, deadline=None)
def test_sparse_high_degree_roots_skip_the_scan_and_equal_it(case):
    system, p = case
    hs = []
    for terms in system:
        h = [0] * (max(terms) + 1)
        for e, c in terms.items():
            h[e] += c
        hs.append(h)
    want = [x for x in range(p) if all(sum(c * pow(x, e, p) for e, c in t.items()) % p == 0 for t in system)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(congruences, "_scan_roots", _no_scan)
        assert sorted(congruences._common_roots(hs, p)) == want


def test_scan_budget_keeps_every_choice_up_to_degree_64():
    # degree 64 at 3067, the largest prime p with p <= 4 * 64 * log2(p), still scans
    cache = congruences._fp_roots
    cache.cache_clear()
    g = [1, 1] + [0] * 62 + [1]
    want = tuple(x for x in range(3067) if poly_eval_mod(IntPolynomial(tuple(g)), x, 3067) == 0)
    scans, scan = [], congruences._scan_roots
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(congruences, "_scan_roots", lambda fs, p: scans.append(p) or scan(fs, p))
        assert congruences._common_roots([g], 3067) == want
    assert scans == [3067]
    assert cache.cache_info().currsize == 1


def _trimmed(h) -> tuple:
    h = list(h)
    while h and not h[-1]:
        h.pop()
    return tuple(h)


def _reference_local(key, p, avec):
    """_canonical_local from _strip alone, without its caches."""
    local = []
    for g, a in zip(key, avec):
        if a:
            c = congruences._strip(g, p**a)
            local.append(((), 1, a) if c is None else (_trimmed(c[0]), c[1], a))
    return tuple(sorted(local))


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(
        st.tuples(st.lists(st.integers(-300, 300), min_size=1, max_size=5), st.integers(0, 4)), min_size=1, max_size=4
    ),
)
@settings(max_examples=300, deadline=None)
def test_canonical_local_equals_a_reference_from_strip(p, pairs):
    key = tuple(tuple(g) for g, _ in pairs)
    avec = tuple(a for _, a in pairs)
    want = _reference_local(key, p, avec)
    assert congruences._canonical_local(key, p, avec) == want
    assert congruences._canonical_local(key[::-1], p, avec[::-1]) == want


def test_canonical_local_strips_contents_and_trailing_zeros():
    canonical = congruences._canonical_local
    # 8 + 16x has content 8 = 2^3, the whole of 2^3: the condition always holds
    assert canonical(((8, 16),), 2, (3,)) == (((), 1, 3),)
    # 4 + 8x + 12x^2 = 4 (1 + 2x + 3x^2); mod 2^3 / 4 = 2 the last coefficient is 1
    assert canonical(((4, 8, 12),), 2, (3,)) == (((1, 0, 1), 2, 3),)
    # 1 + x + 9x^2 mod 9 drops its trailing zero
    assert canonical(((1, 1, 9),), 3, (2,)) == (((1, 1), 9, 2),)
    key, avec = ((1, 1, 9), (8, 16), (0, 1), (5,)), (2, 3, 1, 0)
    for perm in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)):
        assert canonical(tuple(key[i] for i in perm), 3, tuple(avec[i] for i in perm)) == _reference_local(key, 3, avec)


def test_caches_keep_no_condition_above_degree_64():
    caches = (congruences._condition, congruences._fp_roots)
    for cache in caches:
        cache.cache_clear()
    # degree 65 at p = 3: the condition and the root set are computed, not kept
    g = (1,) + (0,) * 64 + (1,)
    assert congruences._canonical_local((g,), 3, (2,)) == _reference_local((g,), 3, (2,))
    assert congruences._common_roots([g], 3) == (2,)
    poly = IntPolynomial(g)
    assert e_g_fast(poly, (9,)) == e_g_direct(poly, (9,))
    assert r_g_fast(poly, (27,)) == r_g_direct(poly, (27,))
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    # degree 64 is kept
    g = (1,) + (0,) * 63 + (1,)
    congruences._canonical_local((g,), 3, (2,))
    assert congruences._common_roots([g], 3) == ()
    assert [cache.cache_info().currsize for cache in caches] == [1, 1]


def test_count_roots_direct_scale_guard():
    with pytest.raises(ScaleError):
        count_roots("x", (10**6 + 3,), strategy="direct")


def crt_root_count(a, d, units_only=False):
    # x = a_i (mod d_i) has one root mod lcm(d_i) or none; crt_solve is
    # checked against a residue scan by the identities suite
    sol = crt_solve(list(zip(a, d)))
    if sol is None:
        return 0
    x, lcm = sol
    return int(not units_only or math.gcd(x, lcm) == 1)


def test_linear_system_examples():
    assert crt_root_count((0, 1), (2, 2)) == 0
    assert crt_root_count((1, 3), (2, 4)) == 1
    assert crt_root_count((1, 2), (2, 3), units_only=True) == 1
    assert crt_root_count((0,), (5,), units_only=True) == 0


def test_linear_system_matches_count_roots():
    for a1 in range(-5, 6):
        for d1 in range(1, 21):
            sys1 = (linear_shift_poly(a1),)
            for units in (False, True):
                assert crt_root_count((a1,), (d1,), units) == count_roots(
                    sys1, (d1,), units_only=units
                ).count
    rng = random.Random(23)
    for _ in range(400):
        r = rng.randint(2, 3)
        avs = tuple(rng.randint(-5, 5) for _ in range(r))
        ds = tuple(rng.randint(1, 20) for _ in range(r))
        system = tuple(linear_shift_poly(a) for a in avs)
        for units in (False, True):
            assert crt_root_count(avs, ds, units) == count_roots(
                system, ds, units_only=units
            ).count, (avs, ds, units)


# ---------------------------------------------------------------------------
# the one root cache, canonical keys of the root counts and the F_p step cap


def _times(h, g):
    out = [0] * (len(h) + len(g) - 1)
    for i, a in enumerate(h):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def _planted_systems(draw, primes):
    """One to three polynomials over Z, none zero mod p, sharing up to four planted roots mod p.

    Each is (x - r_1)...(x - r_k) times a cofactor: a dense one of degree
    at most 7, or a sparse x^d + c_1 x^e_1 + ... with d in [65, 6000].  At
    p > 3000 the first cofactor is dense, so the gcd path starts at degree
    at most 11 and meets the sparse polynomials only in its gcds.
    """
    p = draw(st.sampled_from(primes))
    base = [1]
    for r in draw(st.lists(st.integers(0, p - 1), max_size=4)):
        base = _times(base, [-r, 1])
    hs = []
    for i in range(draw(st.integers(1, 3))):
        if (i == 0 and p > 3000) or draw(st.booleans()):
            cofactor = draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=8))
            if not any(c % p for c in cofactor):
                cofactor[0] += 1
        else:
            cofactor = [0] * (draw(st.integers(65, 6000)) + 1)
            cofactor[-1] = 1
            for _ in range(draw(st.integers(1, 3))):
                cofactor[draw(st.integers(0, 30))] += draw(st.integers(-5, 5))
        hs.append(_times(base, cofactor))
    return hs, p


def _pow_scan(hs, p):
    terms = [[(e, c) for e, c in enumerate(h) if c] for h in hs]
    return [x for x in range(p) if all(sum(c * pow(x, e, p) for e, c in t) % p == 0 for t in terms)]


@given(_planted_systems((2, 3, 5, 61, 401, 1009, 2003, 2999)))
@example(([[1, 1] + [0] * 3998 + [1], [-1, 1]], 401))  # one of degree 4000 with a root at 1
@settings(max_examples=60, deadline=None)
def test_cached_root_sets_equal_a_pow_scan_at_small_p(case):
    hs, p = case
    want = _pow_scan(hs, p)
    for _ in range(2):  # the second call may read the cache
        got = congruences._common_roots(hs, p)
        assert type(got) is tuple and sorted(got) == want


def _sympy_roots(hs, p):
    """The common roots mod p by sympy's galoistools: gcd(h_1, ..., h_k, x^p - x), factored."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_gcd, gf_pow_mod, gf_sub

    g = None
    for h in hs:
        f = gf_from_int_poly(h[::-1], p)
        g = f if g is None else gf_gcd(g, f, p, ZZ)
    if len(g) < 2:
        return []
    h = gf_gcd(g, gf_sub(gf_pow_mod([1, 0], p, g, p, ZZ), [1, 0], p, ZZ), p, ZZ)
    return sorted(-f[1] % p for f in gf_factor_sqf(h, p, ZZ)[1])


@given(_planted_systems((10007, 10**6 + 3, 10**9 + 7, 2**61 - 1, 10**18 + 9, 3317044064679887385961813)))
@settings(max_examples=60, deadline=None)
def test_cached_root_sets_equal_sympy_at_large_p(case):
    pytest.importorskip("sympy")
    hs, p = case
    want = _sympy_roots(hs, p)
    for _ in range(2):
        got = congruences._common_roots(hs, p)
        assert type(got) is tuple and sorted(got) == want


def test_degree_64_splits_completely_at_the_largest_provable_prime():
    # (x - 1)...(x - 64) below 3.3 * 10^24: x^p mod g and the split of its
    # 64 roots stay within the step cap of every power and gcd
    p = 3317044064679887385961813
    g = [1]
    for r in range(1, 65):
        g = _times(g, [-r, 1])
    assert sorted(congruences._common_roots([g], p)) == list(range(1, 65))


@st.composite
def _count_cases(draw):
    """Up to three polynomials of degree <= 3 and their moduli (lcm under 3 * 10^5), a
    permutation, and per polynomial one whose m_i-multiple is added to it."""
    r = draw(st.integers(1, 3))
    key = [_trimmed(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))) for _ in range(r)]
    moduli = [draw(st.sampled_from((1, 1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 49))) for _ in range(r)]
    perm = draw(st.permutations(range(r)))
    shifts = [draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5)) for _ in range(r)]
    return tuple(key), tuple(moduli), perm, shifts, draw(st.booleans())


@given(_count_cases())
@example((((),), (1,), [0], [[0]], False))  # the zero polynomial modulo 1
@example((((0, 1), (-1, 0, 1)), (1, 8), [1, 0], [[2], [0, 0, 0, 1]], True))
@settings(max_examples=200, deadline=None)
def test_count_roots_equals_direct_and_the_raw_key_counts_on_moved_systems(case):
    key, moduli, perm, shifts, units = case
    system = [IntPolynomial(g) for g in key]
    want = count_roots(system, moduli, units_only=units, strategy="direct").count
    raw = 1
    for p, evec in congruences.moduli_tuple(moduli).profile:
        raw *= congruences._local_root_count(key, p, evec, units)
    assert raw == want
    assert count_roots(system, moduli, units_only=units).count == want
    # permuted, and each g_i plus m_i times a polynomial: the same count
    moved = []
    for g, m, s in zip(key, moduli, shifts):
        coeffs = [0] * max(len(g), len(s))
        for k, c in enumerate(g):
            coeffs[k] += c
        for k, c in enumerate(s):
            coeffs[k] += m * c
        moved.append(IntPolynomial(_trimmed(coeffs)))
    assert count_roots([moved[i] for i in perm], [moduli[i] for i in perm], units_only=units).count == want
