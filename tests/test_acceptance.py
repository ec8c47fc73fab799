"""Acceptance suite: one test per criterion, each printing a pass line.

Each criterion runs one named ``ramsum.verify`` suite, the single definition
of its invariants, at no less than the suite's default range and asserts the
exact number of checks it ran.  Criteria 01 and 02 also recompute their
identities from numpy row products, a route independent of the package.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

from ramsum import alpha_r, euler_phi, mobius, ramanujan_row, ramanujan_sum
from ramsum.verify import run_suite


def _report(num, desc, t0):
    print(f"\nACCEPTANCE {num:02d} PASS {desc} ({time.time() - t0:.1f}s)")


def _run_suite(name, max_n, count):
    results = run_suite(name, max_n)
    failing = [label for label, ok in results if not ok]
    assert not failing, f"suite {name} failing checks: {failing}"
    assert len(results) == count, f"suite {name} ran {len(results)} checks, expected {count}"


def _row_array(n):
    return np.array(ramanujan_row(n), dtype=np.int64)


def test_criterion_01_orthogonality():
    t0 = time.time()
    _run_suite("orthogonality", 60, 3660)
    for n in range(1, 61):
        assert sum(ramanujan_row(n)) == (1 if n == 1 else 0), n
    for l in range(1, 61):
        al = _row_array(l)
        for n in range(1, 61):
            an = _row_array(n)
            lcm = math.lcm(l, n)
            total = int((np.tile(al, lcm // l) * np.tile(an, lcm // n)).sum())
            want = euler_phi(n) if l == n else 0
            assert total == want * lcm, (l, n)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, "orthogonality of rows and row pairs, n and l up to 60", t0)


def test_criterion_02_coprime_shift_identity():
    t0 = time.time()
    _run_suite("cohen", 200, 200)
    for n in range(1, 201):
        row = _row_array(n)
        units = np.array([k for k in range(1, n + 1) if math.gcd(k, n) == 1], dtype=np.int64)
        mu = mobius(n)
        for a in range(-50, 51):
            got = int(row[(units - a) % n].sum())
            assert got == mu * ramanujan_sum(n, a), (n, a)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(2, "unit-indexed shift sum equals mu(n) c_n(a), n <= 200, |a| <= 50", t0)


def test_criterion_03_fast_equals_direct_over_corpus():
    t0 = time.time()
    _run_suite("oracle", 20, 21)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, "convolution paths equal definitional oracles, 7 polynomials, moduli up to 20", t0)


def test_criterion_04_closed_forms():
    t0 = time.time()
    _run_suite("closed-forms", 500, 23)
    _report(4, "shift and quadratic closed forms, moduli up to 500", t0)


def test_criterion_05_prime_power_values():
    t0 = time.time()
    _run_suite("prime-power", 3, 12)
    _report(5, "prime-power evaluation, e=1 value and zero classification", t0)


def test_criterion_06_modified_orthogonality_strategies():
    t0 = time.time()
    _run_suite("t-a", 12, 420)
    _report(6, "three-strategy agreement for T_a, lcm up to 12, |a| <= 6", t0)


def test_criterion_07_multiplicativity_suite():
    t0 = time.time()
    _run_suite("multiplicativity", 500, 5)
    _report(7, "five function families factor over coprime tuples, 500 cases each", t0)


def test_criterion_08_dirichlet_decomposition():
    t0 = time.time()
    _run_suite("dirichlet", 2000, 3)
    _report(8, "convolution decomposition of g_r, m <= 2000, r in {2,3,4}", t0)


def test_criterion_09_average_order():
    t0 = time.time()
    _run_suite("average-order", 5000, 2)
    assert time.time() - t0 < 30.0
    # alpha values derive from exact integer numerators; spot-check p = 2
    assert alpha_r(2, 2) == 0.6875
    _report(9, "partial-sum ratios within 2%, r=2 at x=5000, r=3 at x=2000", t0)


def test_criterion_10_supporting_identities():
    t0 = time.time()
    _run_suite("identities", 500, 23)
    _report(10, "CRT, unit class counts, weighted divisor identity, shift sums", t0)
