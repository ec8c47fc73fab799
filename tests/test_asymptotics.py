import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsum import (
    DomainError,
    ScaleError,
    alpha_r,
    asymptotic_report,
    dirichlet_decomposition_check,
    euler_factor,
    euler_factor_data,
    g_r_partial_sum,
    g_r_sieve,
    g_r_value,
    h_value,
    r_g_direct,
    x_r_value,
)
from ramsum import asymptotics
from ramsum.asymptotics import _primes_upto, _spf_table


def test_single_factor_value():
    # p = 2, r = 2: 1 - 3/8 + 1/16
    assert euler_factor(2, 2) == 0.6875
    assert alpha_r(2, 2) == 0.6875


def test_empty_product():
    assert alpha_r(2, 1) == 1.0
    assert alpha_r(5, 1) == 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        alpha_r(1, 100)
    with pytest.raises(DomainError):
        alpha_r(2, 0)
    with pytest.raises(DomainError):
        g_r_sieve(1, 100)
    with pytest.raises(ScaleError):
        g_r_sieve(2, 10**6 + 1)
    with pytest.raises(ScaleError):
        dirichlet_decomposition_check(2, 10**4 + 1)


def test_prime_bound_cap():
    # just above the cap: raised before the sieve allocates prime_bound bytes
    with pytest.raises(ScaleError, match="10\\^7"):
        alpha_r(2, 10**7 + 1)
    with pytest.raises(ScaleError):
        asymptotic_report(2, 10, 10**7 + 1)


def test_r_caps(monkeypatch):
    # r past its cap is a scale error, raised before any sieve or power of r is built
    monkeypatch.setattr(asymptotics, "_primes_upto", None)
    for r in (257, 2 * 10**10):
        with pytest.raises(ScaleError, match=f"^Euler product capped at r <= 256, got {r}$"):
            alpha_r(r, 3)
        with pytest.raises(ScaleError, match=f"^Euler factor capped at r <= 256, got {r}$"):
            euler_factor_data(r, 3)
    for r in (52, 200, 2 * 10**10):
        for call in (g_r_sieve, g_r_partial_sum, lambda r, x: asymptotic_report(r, x, 100)):
            with pytest.raises(ScaleError, match=f"^sieve capped at r <= 51, got {r}$"):
                call(r, 100)
        with pytest.raises(ScaleError, match=f"^decomposition check capped at r <= 51, got {r}$"):
            dirichlet_decomposition_check(r, 100)


def test_euler_factor_caps_r_in_bounded_memory():
    # Unchecked, p^r at r = 2*10^10 raised MemoryError under a 1 GiB address
    # space at p = 2 and ran past 100 s at p = 3; capped, both stop at once.
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ramsum import ScaleError, euler_factor\n"
        "for p in (2, 3):\n"
        "    try:\n"
        "        euler_factor(2 * 10**10, p)\n"
        "    except ScaleError as exc:\n"
        "        print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["Euler factor capped at r <= 256, got 20000000000"] * 2
    with pytest.raises(ScaleError, match="^Euler factor capped at r <= 256, got 257$"):
        euler_factor(257, 2)
    with pytest.raises(DomainError, match="^r must be >= 2, got 1$"):
        euler_factor(1, 2)
    assert euler_factor(256, 2) > 0


def test_alpha_r_is_the_product_of_euler_factors_bit_for_bit():
    # alpha_r forms each factor from its own exact numerator; the floats must
    # be the ones the loop over euler_factor gives, in the same order
    cases = [(r, bound) for r in (2, 3, 4, 7, 12) for bound in (1, 2, 3, 10, 997, 10**4, 10**6)]
    cases += [(r, bound) for r in (50, 256) for bound in (2, 100, 10**4)]
    for r, bound in cases:
        out = 1.0
        for p in _primes_upto(bound):
            out *= euler_factor(r, p)
        assert alpha_r(r, bound) == out and type(alpha_r(r, bound)) is float, (r, bound)


def test_report_floats_stay_finite_up_to_the_r_cap():
    # x^r is a double for every x <= 10^6 exactly when r <= 51
    float(10**6) ** asymptotics._SIEVE_R_CAP
    with pytest.raises(OverflowError):
        float(10**6) ** (asymptotics._SIEVE_R_CAP + 1)
    # and so is the partial sum, since |g_r(m)| <= m^(r-1)
    r = asymptotics._SIEVE_R_CAP
    assert all(abs(g) <= m ** (r - 1) for m, g in enumerate(g_r_sieve(r, 300)) if m)
    for x in (1, 2, 999):
        rep = asymptotic_report(r, x, 100)
        assert all(map(math.isfinite, (rep.predicted, rep.ratio, float(rep.empirical)))), x
    assert alpha_r(256, 100) > 0


def test_report_checks_prime_bound_before_sieve(monkeypatch):
    # the partial sum and alpha_r both start with the prime sieve, so that
    # is what must not run
    sieved = []
    monkeypatch.setattr(asymptotics, "_primes_upto", lambda bound: sieved.append(bound) or _primes_upto(bound))
    with pytest.raises(ScaleError, match="prime bound"):
        asymptotic_report(2, 50_000, 10**7 + 1)
    assert sieved == []
    # the patch is live: a valid report does reach it
    asymptotic_report(2, 50, 100)
    assert sieved


def test_each_euler_product_is_computed_once(monkeypatch):
    # an average-order pass asks for the same (r, prime_bound) products again
    sieved = []
    monkeypatch.setattr(asymptotics, "_primes_upto", lambda bound: sieved.append(bound) or _primes_upto(bound))
    alpha_r.cache_clear()
    first = alpha_r(2, 1000)
    assert alpha_r(2, 1000) == first and sieved == [1000]
    assert alpha_r(3, 1000) != first and sieved == [1000, 1000]
    assert asymptotic_report(2, 50, 1000).predicted == first / 2 * 50.0**2
    assert sieved.count(1000) == 2


def test_truncation_error_bound_for_every_r():
    # 0 < alpha(P) - alpha(10^6) < alpha(P) (r + 1)/P, the documented bound;
    # the former 2/(P - 1) fails at r = 200 for P = 100 and P = 1000
    for r in (2, 3, 4, 10, 50, 200):
        ref = alpha_r(r, 10**6)
        for bound in (10, 100, 1000):
            a = alpha_r(r, bound)
            assert 0 < a - ref < a * (r + 1) / bound, (r, bound)


def test_truncation_settles():
    # for r = 2 each factor is within 2/p^2 of 1, so |alpha(P) - alpha(P')| < 2/(P-1) for P' > P
    a4 = alpha_r(2, 10**4)
    a5 = alpha_r(2, 10**5)
    assert abs(a5 - a4) < 2 / (10**4 - 1)
    assert abs(a5 - a4) < 1e-4


def test_factor_sizes_bound_refinement():
    # each new prime multiplies the partial product by a factor within
    # 2r/p^2 of 1; for r = 2 the tighter 2/p^2 window also holds
    for r in (2, 3, 4):
        for p in _primes_upto(1000):
            if p == 2:
                continue
            f = euler_factor(r, p)
            assert 1 - 2 * r / p**2 <= f <= 1 + 2 * r / p**2, (r, p)
            if r == 2:
                assert 1 - 2 / p**2 <= f <= 1 + 2 / p**2, p


def test_factor_numerator_identity():
    # p(p-1)h_r(p) - x_r(p) = (-1)^r, the last term of euler_factor's numerator
    primes = _primes_upto(10**4)
    for r in (*range(2, 9), 10, 50, 200):
        for p in primes:
            assert p * (p - 1) * h_value(r, p) - x_r_value(r, p) == (-1) ** r, (r, p)


def test_euler_factor_bit_identical_to_h_value_form():
    primes = _primes_upto(10**4)
    for r in range(2, 9):
        for p in primes:
            xr = x_r_value(r, p)
            num = p ** (r + 2) + p * (xr - p**r) + (p * (p - 1) * h_value(r, p) - xr)
            assert euler_factor(r, p) == num / p ** (r + 2), (r, p)


def test_r2_factor_matches_hand_simplified_form():
    # generic integer numerator vs p^4 - p(p+1) + 1 over p^4
    for p in _primes_upto(10**4):
        xr = x_r_value(2, p)
        num = p**4 + p * (xr - p**2) + (p * (p - 1) * h_value(2, p) - xr)
        assert num == p**4 - p * (p + 1) + 1, p


def test_euler_factor_data_reproduces_local_values():
    for r in (2, 3, 4):
        for p in (2, 3, 5, 7, 11, 13):
            a, b = euler_factor_data(r, p)
            assert p**r + a == p * g_r_value(r, p)
            assert p ** (2 * r) + a * p**r + b == p**2 * g_r_value(r, p**2)


def test_p_below_two_and_x_zero_are_domain_errors():
    with pytest.raises(DomainError):
        h_value(2, 0)
    for p in (0, 1, -3):
        with pytest.raises(DomainError):
            euler_factor(2, p)
        with pytest.raises(DomainError):
            euler_factor_data(3, p)


def test_sieve_values():
    vals = g_r_sieve(2, 50)
    assert vals[1] == 1
    assert vals[3] == Fraction(5, 3)
    assert vals[4] == 2


def test_sieve_matches_prime_power_assembly():
    for r in (2, 3):
        vals = g_r_sieve(r, 2000)
        for m in range(1, 2001):
            assert vals[m] == g_r_value(r, m), (r, m)


def test_sieve_matches_the_definitional_oracle():
    # the sieve and g_r_value share the local values of R, so this holds the
    # sieve against the residue scan instead
    for r in (2, 3):
        vals = g_r_sieve(r, 150)
        for m in range(1, 151):
            assert vals[m] == Fraction(r_g_direct(("x-1",) * r, (m,) * r), m), (r, m)


def test_dirichlet_decomposition_small():
    assert dirichlet_decomposition_check(2, 200)
    assert dirichlet_decomposition_check(3, 200)
    assert dirichlet_decomposition_check(4, 200)


def test_report_trivial_x():
    rep = asymptotic_report(2, 1, 100)
    assert rep.empirical == 1
    assert rep.alpha_truncation == 100
    assert rep.ratio == float(rep.empirical) / rep.predicted


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3000))
def test_partial_sum_is_exact(r, x):
    assert g_r_partial_sum(r, x) == sum(g_r_sieve(r, x)[1:], Fraction(0))


def test_partial_sum_equals_prefix_sums():
    for r in (2, 3, 4):
        total = Fraction(0)
        for x in range(1, 2001):
            total += g_r_value(r, x)
            assert g_r_partial_sum(r, x) == total, (r, x)


def _assert_reduced_sieve_sum(r, x):
    # Fraction.__eq__ compares the stored numerator and denominator, so an
    # unreduced partial sum fails the equality as well as the gcd
    total = g_r_partial_sum(r, x)
    assert math.gcd(total.numerator, total.denominator) == 1, (r, x)
    assert total == sum(g_r_sieve(r, x)), (r, x)


def test_partial_sum_is_reduced_and_equals_sieve_sum():
    for r in (2, 3, 4):
        for x in range(1, 301):
            _assert_reduced_sieve_sum(r, x)


# isqrt(x) steps from s - 1 to s between s^2 - 1 and s^2, so the smooth
# bound D and the set of large primes change there
@pytest.mark.parametrize("s", [10, 31, 100])
def test_partial_sum_is_reduced_across_square_boundaries(s):
    for x in (s * s - 1, s * s, s * s + 1):
        for r in (2, 3, 4):
            _assert_reduced_sieve_sum(r, x)


def test_partial_sum_is_reduced_near_benchmark_size():
    _assert_reduced_sieve_sum(2, 30011)


def _trial_division_primes(bound):
    return [n for n in range(2, bound + 1) if all(n % q for q in range(2, math.isqrt(n) + 1))]


def test_primes_upto_equals_trial_division():
    reference = _trial_division_primes(2000)
    for bound in range(-1, 2001):
        assert _primes_upto(bound) == [p for p in reference if p <= bound], bound


@pytest.mark.parametrize("bound", [10**5, 10**6 + 3])
def test_primes_upto_equals_sympy(bound):
    sympy = pytest.importorskip("sympy")
    assert _primes_upto(bound) == list(sympy.primerange(bound + 1))


def _smallest_factor(m):
    return next(q for q in range(2, m + 1) if m % q == 0)


def test_spf_table_convention():
    # the smallest prime factor at composite m and 0 at 0, 1 and the primes,
    # in 2-byte entries; the layout depends on isqrt(x), so x varies too
    for x in (0, 1, 2, 3, 4, 8, 9, 10, 48, 49, 50, 3000):
        spf = _spf_table(x)
        assert spf.itemsize == 2 and len(spf) == x + 1, x
        for m in range(x + 1):
            q = 0 if m < 2 else _smallest_factor(m)
            assert spf[m] == (0 if q == m else q), (x, m)


def _decomposition_sum(r, x):
    """sum_{d<=x} F_r(d) S_{r-1}(x // d), F_r from the Euler factor data."""
    power_sums = [0] * (x + 1)
    for n in range(1, x + 1):
        power_sums[n] = power_sums[n - 1] + n ** (r - 1)
    f = [Fraction(0)] * (x + 1)
    f[1] = Fraction(1)
    for p in _primes_upto(x):
        a, b = euler_factor_data(r, p)
        # F_r(d p^k) = F_r(d) F_r(p^k) for d coprime to p and k = 1, 2 (zero
        # on cubes); primes ascend, so f[d] is complete when it is read
        for pk, local in ((p, Fraction(a, p)), (p * p, Fraction(b, p * p))):
            for d in range(1, x // pk + 1):
                if d % p and f[d]:
                    f[d * pk] = f[d] * local
    return sum((f[d] * power_sums[x // d] for d in range(1, x + 1) if f[d]), Fraction(0))


# at 101^2 - 1, 101^2 and 101^2 + 1, isqrt(x) steps from 100 to 101, and 101
# is prime, so it moves from the large primes to the smooth part
@pytest.mark.parametrize("x", [1, 2, 997, 31**2, 5000, 101**2 - 1, 101**2, 101**2 + 1])
def test_partial_sum_equals_decomposition_route(x):
    for r in (2, 3, 4):
        assert g_r_partial_sum(r, x) == _decomposition_sum(r, x), (r, x)


# the field names the value that is corrupted: d F_r(d) at p (a_r) or p^2 (b_r)
@pytest.mark.parametrize("p, field", [(3, "a_r"), (7, "b_r")])
def test_dirichlet_check_sees_one_corrupted_prime(monkeypatch, p, field):
    assert dirichlet_decomposition_check(2, 200)
    exact = asymptotics.euler_factor_data

    def corrupted(r, q):
        a, b = exact(r, q)
        if q != p:
            return a, b
        return (a + 1, b) if field == "a_r" else (a, b + 1)

    monkeypatch.setattr(asymptotics, "euler_factor_data", corrupted)
    assert not dirichlet_decomposition_check(2, 200)
