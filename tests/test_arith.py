import math
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsum import (
    DomainError,
    FactoredNat,
    ScaleError,
    divisors,
    e_g_direct,
    e_g_fast,
    euler_phi,
    factorize,
    mobius,
    moduli_tuple,
    multiplicative_eval,
)
from ramsum.verify import (
    _brauer_rademacher_sides as brauer_rademacher_sides,
    _coprime_count_in_class as coprime_count_in_class,
    _crt_solve as crt_solve,
    _dedekind_psi as dedekind_psi,
    _distinct_prime_count as distinct_prime_count,
    _is_squarefree as is_squarefree,
)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(2**20 * 3).factors == ((2, 20), (3, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(-12)


def test_factored_nat_validates():
    with pytest.raises(DomainError):
        FactoredNat(6, ((2, 1),))
    with pytest.raises(DomainError):
        FactoredNat(6, ((3, 1), (2, 1)))
    with pytest.raises(DomainError):
        FactoredNat(6, ((2, 0), (3, 1)))


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_factorize_reconstructs(n):
    fn = factorize(n)
    prod = 1
    for p, e in fn.factors:
        prod *= p**e
    assert prod == n == fn.value
    assert all(fn.factors[i][0] < fn.factors[i + 1][0] for i in range(len(fn.factors) - 1))


_BIG = 2**20  # the trial-division bound of factorize


@st.composite
def _factor_products(draw):
    # small factors, factors just past the trial bound and up to 2^34, and at most one prime up to 10^20
    n = draw(st.integers(1, 10**6))
    for _ in range(draw(st.integers(0, 3))):
        n *= sympy.nextprime(draw(st.integers(_BIG - 100, 2**34))) ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        n *= sympy.nextprime(draw(st.integers(_BIG, 10**20)))
    return n


@given(_factor_products())
@settings(max_examples=60, deadline=None)
def test_factorize_matches_sympy(n):
    assert dict(factorize(n).factors) == sympy.factorint(n)


def test_factorize_around_the_trial_bound():
    below, above = sympy.prevprime(_BIG), sympy.nextprime(_BIG)
    for n in (below, above, below**2, above**2, above**3, below * above, above * sympy.nextprime(above), 2**89 - 2):
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def _trial_factors(n):
    """The prime factorization of n by plain trial division: 2, then every odd d."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_equals_plain_trial_division_up_to_2_17():
    factor = factorize.__wrapped__  # uncached, so the check leaves factorize's cache alone
    for n in range(1, 2**17 + 1):
        assert factor(n).factors == _trial_factors(n), n


def test_factorize_at_the_trial_block_edges():
    # the blocks of primes 7-61, 67-251 and 257-1021, and the wheel from 1031
    sympy = pytest.importorskip("sympy")
    cases = [61 * 67, 251 * 257, 1021 * 1031, 1021 * 1031 * 1033]
    cases += [p * p for p in (61, 67, 251, 257, 1021, 1031)]
    cases += [2**20 + k for k in range(-64, 65)]
    cases += [7 * 61 * 67 * 251 * 257 * 1021 * 1031, 61**3 * 1021**2, 3 * 1031**2, 1031 * 1033]
    for n in cases:
        assert dict(factorize.__wrapped__(n).factors) == sympy.factorint(n), n


def test_factorize_raises_scale_error_past_its_budget():
    # a probable prime above 3.3 * 10^24, which Miller-Rabin on 13 bases cannot prove
    with pytest.raises(ScaleError, match="cannot prove"):
        factorize(sympy.nextprime(10**25))
    # two 60-bit primes: rho would need about 2^30 steps
    with pytest.raises(ScaleError, match="rho steps"):
        factorize(sympy.nextprime(2**60) * sympy.nextprime(2**61))


def test_factorize_splits_perfect_powers_of_large_primes():
    # 2^61 - 1 is prime; its cube and fifth power have no factor rho finds
    # within its budget, but an integer root does
    p = 2**61 - 1
    assert factorize(p**3).factors == ((p, 3),)
    assert factorize(p**5).factors == ((p, 5),)
    q = 2**31 - 1
    assert factorize(12 * q**2 * p**6).factors == ((2, 2), (3, 1), (q, 2), (p, 6))
    assert factorize(p**2 * q).factors == ((q, 1), (p, 2))


def _ramsum(*argv):
    return subprocess.run([sys.executable, "-m", "ramsum", *argv], capture_output=True, text=True, timeout=10)


def test_large_moduli_end_in_bounded_time():
    # 1000000016000000063 = 1000000007 * 1000000009, past trial division to its square root
    done = _ramsum("c", "--moduli", "1000000016000000063", "--a", "4")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")
    done = _ramsum("c", "--moduli", str(sympy.nextprime(10**25)), "--a", "1")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("ramsum: scale error: cannot prove the factor ")
    # two 60-bit primes exhaust the rho budget well inside the timeout
    n = sympy.nextprime(2**60) * sympy.nextprime(2**61)
    done = _ramsum("c", "--moduli", str(n), "--a", "1")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith(f"ramsum: scale error: cannot factor {n}: ")
    assert done.stderr.rstrip().endswith(" rho steps")


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(30) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_divisors_match_trial_scan():
    for n in range(1, 400):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_divisor_count_formula():
    for n in range(1, 1000):
        count = 1
        for _, e in factorize(n).factors:
            count *= e + 1
        assert len(divisors(n)) == count


def test_classical_function_values():
    assert mobius(1) == 1 and mobius(6) == 1 and mobius(12) == 0 and mobius(30) == -1
    assert euler_phi(1) == 1 and euler_phi(12) == 4 and euler_phi(30) == 8
    assert dedekind_psi(1) == 1 and dedekind_psi(6) == 12 and dedekind_psi(9) == 12
    assert distinct_prime_count(1) == 0
    assert distinct_prime_count(12) == 2
    assert distinct_prime_count(30) == 3


def test_phi_counts_coprime_residues():
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_mobius_divisor_sum_identity():
    n_max = 10**4
    acc = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        w = mobius(d)
        if w:
            for m in range(d, n_max + 1, d):
                acc[m] += w
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, n_max + 1))


def test_phi_divisor_sum_identity():
    n_max = 10**4
    acc = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        pd = euler_phi(d)
        for m in range(d, n_max + 1, d):
            acc[m] += pd
    assert all(acc[n] == n for n in range(1, n_max + 1))


def test_crt_examples():
    assert crt_solve([(1, 2), (2, 3)]) == (5, 6)
    assert crt_solve([(1, 2), (2, 4)]) is None
    assert crt_solve([(0, 1)]) == (0, 1)


def test_crt_matches_exhaustive_scan():
    import random

    rng = random.Random(4)
    for d1 in range(1, 11):
        for d2 in range(1, 11):
            lcm = math.lcm(d1, d2)
            for a1 in range(d1):
                for a2 in range(d2):
                    want = [x for x in range(lcm) if x % d1 == a1 and x % d2 == a2]
                    got = crt_solve([(a1, d1), (a2, d2)])
                    if got is None:
                        assert not want
                    else:
                        assert got[1] == lcm and want == [got[0]]
    done = 0
    while done < 200:
        ds = [rng.randint(1, 40) for _ in range(3)]
        if math.lcm(*ds) > 2000:
            continue
        avs = [rng.randint(-60, 60) for _ in range(3)]
        lcm = math.lcm(*ds)
        want = [x for x in range(lcm) if all((x - a) % d == 0 for a, d in zip(avs, ds))]
        got = crt_solve(list(zip(avs, ds)))
        if got is None:
            assert not want
        else:
            assert got[1] == lcm and want == [got[0]]
        done += 1


def test_crt_solvability_is_pairwise_condition():
    import random

    rng = random.Random(5)
    for _ in range(300):
        r = rng.randint(1, 4)
        ds = [rng.randint(1, 24) for _ in range(r)]
        avs = [rng.randint(-30, 30) for _ in range(r)]
        solvable = all(
            (avs[i] - avs[j]) % math.gcd(ds[i], ds[j]) == 0
            for i in range(r)
            for j in range(i + 1, r)
        )
        assert (crt_solve(list(zip(avs, ds))) is not None) == solvable


def test_coprime_count_examples():
    assert coprime_count_in_class(12, 3, 2) == 2
    assert coprime_count_in_class(6, 1, 1) == 2
    for n in (5, 9, 20):
        assert coprime_count_in_class(n, n, 1) == 1


def test_coprime_count_equals_phi_ratio():
    for n in range(1, 150):
        for d in divisors(n):
            for x in range(1, d + 1):
                if math.gcd(x, d) == 1:
                    assert coprime_count_in_class(n, d, x) == euler_phi(n) // euler_phi(d)


def test_coprime_count_rejects_bad_input():
    with pytest.raises(DomainError):
        coprime_count_in_class(12, 5, 1)
    with pytest.raises(DomainError):
        coprime_count_in_class(12, 4, 2)
    with pytest.raises(DomainError):
        coprime_count_in_class(12, 4, 7)


def test_brauer_rademacher_examples():
    assert brauer_rademacher_sides(3, 1) == (Fraction(1, 2), Fraction(1, 2))
    assert brauer_rademacher_sides(4, 2) == (0, 0)
    assert brauer_rademacher_sides(1, 5) == (1, 1)


def test_brauer_rademacher_equality_small():
    for n in range(1, 80):
        for k in range(1, 80):
            lhs, rhs = brauer_rademacher_sides(n, k)
            assert lhs == rhs


def test_moduli_tuple_profile():
    mt = moduli_tuple((12, 18))
    assert mt.lcm.value == 36
    assert mt.profile == ((2, (2, 1)), (3, (1, 2)))
    for p, evec in mt.profile:
        a = dict(mt.lcm.factors)[p]
        assert max(evec) == a
    with pytest.raises(DomainError):
        moduli_tuple((0, 3))
    with pytest.raises(DomainError):
        moduli_tuple(())


# a prime above the trial-division bound 2^20, alone, squared and times small factors
_BIG_PRIME = 1048583
_MODULI = st.one_of(
    st.integers(1, 5000),
    st.just(1),
    st.sampled_from((_BIG_PRIME, _BIG_PRIME * 12, _BIG_PRIME**2, 2**20, 3**13)),
)


@st.composite
def _moduli_with_repeats(draw):
    ms = draw(st.lists(_MODULI, min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(ms), max_size=3))
    return draw(st.permutations(ms + repeats))


def _merged_profile(ms, factorizations):
    """Per prime of any m_i, ascending, the exponent vector read off each m_i's own factorization."""
    own = [dict(f) for f in factorizations]
    primes = sorted({p for f in own for p in f})
    return tuple((p, tuple(f.get(p, 0) for f in own)) for p in primes)


@given(_moduli_with_repeats())
@settings(max_examples=300, deadline=None)
def test_moduli_tuple_profile_merges_each_modulus_factorization(ms):
    mt = moduli_tuple(ms)
    assert mt.moduli == tuple(ms) and len(mt) == len(ms)
    assert mt.lcm == factorize(math.lcm(*ms))
    assert mt.profile == _merged_profile(ms, [factorize(m).factors for m in ms])
    assert mt.profile == _merged_profile(ms, [sorted(sympy.factorint(m).items()) for m in ms])
    assert moduli_tuple(mt) is mt


def test_moduli_tuple_edge_profiles():
    assert moduli_tuple((1,)).profile == moduli_tuple((1, 1, 1)).profile == ()
    assert moduli_tuple((1, 12)).profile == ((2, (0, 2)), (3, (0, 1)))
    assert moduli_tuple((_BIG_PRIME * 4,)).profile == ((2, (2,)), (_BIG_PRIME, (1,)))
    for bad, message in (
        ((), "^at least one modulus required$"),
        ((6, -2), "^moduli must be positive, got \\(6, -2\\)$"),
        ((6, 4.5), "^moduli must be integers, got float 4.5$"),
        ((6, 4.0), "^moduli must be integers, got float 4.0$"),
        (("6", 4), "^moduli must be integers, got str '6'$"),
        ((True, 4), "^moduli must be integers, got bool True$"),
        ((6, None), "^moduli must be integers, got NoneType None$"),
        (12, "^moduli must be a sequence of integers, not int$"),
    ):
        with pytest.raises(DomainError, match=message):
            moduli_tuple(bad)
    with pytest.raises(DomainError, match="^moduli must be integers, got float 4.9$"):
        e_g_fast("x", [4.9])


def test_multiplicative_eval_phi_rule():
    def phi_local(p, evec):
        (e,) = evec
        return p ** (e - 1) * (p - 1)

    for n in range(1, 10**4 + 1):
        assert multiplicative_eval(phi_local, (n,)) == euler_phi(n)


def test_multiplicative_eval_trivial_tuple():
    assert multiplicative_eval(lambda p, e: 0, (1, 1, 1)) == 1


def test_multiplicative_eval_two_variable_local_rule():
    # local rule computed by the definitional oracle on prime-power pairs
    def local(p, evec):
        return e_g_direct(("x", "x"), (p ** evec[0], p ** evec[1]))

    assert multiplicative_eval(local, (6, 6)) == e_g_direct(("x", "x"), (6, 6)) == 2


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(30)
    assert not is_squarefree(12)
