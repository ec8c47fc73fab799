import math
import random

import pytest

from ramsum import (
    DomainError,
    IntPolynomial,
    PolynomialSyntaxError,
    ScaleError,
    count_roots,
    linear_shift_poly,
    linear_system_root_count,
    parse_polynomial,
    poly_eval_mod,
)


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


def test_count_roots_direct_scale_guard():
    with pytest.raises(ScaleError):
        count_roots("x", (10**6 + 3,), strategy="direct")


def test_linear_system_examples():
    assert linear_system_root_count((0, 1), (2, 2)) == 0
    assert linear_system_root_count((1, 3), (2, 4)) == 1
    assert linear_system_root_count((1, 2), (2, 3), units_only=True) == 1
    assert linear_system_root_count((0,), (5,), units_only=True) == 0


def test_linear_system_matches_count_roots():
    for a1 in range(-5, 6):
        for d1 in range(1, 21):
            sys1 = (linear_shift_poly(a1),)
            for units in (False, True):
                assert linear_system_root_count((a1,), (d1,), units) == count_roots(
                    sys1, (d1,), units_only=units
                ).count
    rng = random.Random(23)
    for _ in range(400):
        r = rng.randint(2, 3)
        avs = tuple(rng.randint(-5, 5) for _ in range(r))
        ds = tuple(rng.randint(1, 20) for _ in range(r))
        system = tuple(linear_shift_poly(a) for a in avs)
        for units in (False, True):
            assert linear_system_root_count(avs, ds, units) == count_roots(
                system, ds, units_only=units
            ).count, (avs, ds, units)
