import math

import numpy as np
import pytest

from ramsum import (
    DomainError,
    ScaleError,
    divisors,
    euler_phi,
    mobius,
    ramanujan_row,
    ramanujan_sum,
    ramanujan_sum_exponential,
    ramanujan_sum_totient_form,
)


def brute_divisor_sum(n, k):
    g = math.gcd(k % n, n)
    return sum(d * mobius(n // d) for d in divisors(g))


def test_known_values():
    assert ramanujan_sum(1, 7) == 1
    assert ramanujan_sum(6, 1) == 1
    assert ramanujan_sum(6, 6) == 2
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum(6, 3) == -2


def test_rejects_nonpositive_modulus():
    with pytest.raises(DomainError):
        ramanujan_sum(0, 1)


def test_matches_literal_divisor_sum():
    for n in range(1, 150):
        for k in range(-5, 2 * n + 2):
            assert ramanujan_sum(n, k) == brute_divisor_sum(n, k)


def test_totient_form_identical_to_divisor_sum():
    # both forms depend on k only through gcd(k mod n, n), so checking every
    # divisor of every n <= 2000 covers all k; edge k values spot-checked below
    for n in range(1, 2001):
        for g in divisors(n):
            assert ramanujan_sum(n, g) == ramanujan_sum_totient_form(n, g) == brute_divisor_sum(n, g)
    for n in (1, 2, 360, 1024, 1999, 2000):
        for k in (-2000, -37, -1, 0, 1, 997, 2000):
            assert ramanujan_sum(n, k) == ramanujan_sum_totient_form(n, k)


def test_periodicity():
    for n in range(1, 301):
        for k in range(-900, 901):
            assert ramanujan_sum(n, k) == ramanujan_sum(n, k + n)


def test_even_in_argument():
    for n in range(1, 301):
        for k in range(1, 301):
            assert ramanujan_sum(n, k) == ramanujan_sum(n, math.gcd(k, n))


def test_multiplicative_in_modulus():
    for n1 in range(1, 101):
        for n2 in range(n1, 101):
            if math.gcd(n1, n2) != 1:
                continue
            for k in range(0, 37):
                assert ramanujan_sum(n1 * n2, k) == ramanujan_sum(n1, k) * ramanujan_sum(n2, k)


def test_special_arguments():
    for n in range(1, 1001):
        assert ramanujan_sum(n, 1) == mobius(n)
        assert ramanujan_sum(n, 0) == euler_phi(n)
        assert ramanujan_sum(n, n) == euler_phi(n)


def test_row_matches_divisor_sum():
    assert ramanujan_row(6) == (2, 1, -1, -2, -1, 1)
    # 19746 = 2 * 3^2 * 1097, 30030 squarefree with six primes, 65536 = 2^16
    for n in (1, 6, 19746, 30030, 65536):
        assert ramanujan_row(n) == tuple(ramanujan_sum(n, k) for k in range(n)), n


def test_table_row_invariants():
    for n in range(1, 301):
        row = ramanujan_row(n)
        assert sum(row) == (1 if n == 1 else 0)
        assert row[0] == euler_phi(n)


def test_exponential_oracle_examples():
    assert ramanujan_sum_exponential(1, 3) == pytest.approx(1.0, abs=1e-6)
    assert ramanujan_sum_exponential(5, 1) == pytest.approx(-1.0, abs=1e-6)
    assert ramanujan_sum_exponential(6, 3) == pytest.approx(-2.0, abs=1e-6)


def test_exponential_oracle_scale_guard():
    with pytest.raises(ScaleError):
        ramanujan_sum_exponential(10_001, 1)


def test_exponential_oracle_agrees_everywhere():
    # same reduction the oracle applies, batched per n; k beyond n repeats mod n
    for n in range(1, 501):
        row = ramanujan_row(n)
        js = np.arange(1, n + 1, dtype=np.int64)
        js = js[np.gcd(js, n) == 1]
        ks = np.arange(0, min(n, 501), dtype=np.int64)
        sums = np.cos(2.0 * np.pi * (np.outer(js, ks) % n) / n).sum(axis=0)
        exact = np.array([row[int(k) % n] for k in ks], dtype=float)
        assert float(np.max(np.abs(sums - exact))) < 1e-6
    for n in range(1, 41):
        for k in range(0, 41):
            assert abs(ramanujan_sum_exponential(n, k) - ramanujan_sum(n, k)) < 1e-6
