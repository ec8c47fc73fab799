"""Named verification suites over configurable ranges.

Each suite is a deterministic list of (label, check) pairs; checks return
True/False.  Labels are generated in canonical sorted-input order, so the
printed output is byte-stable across runs.  Randomized suites draw from a
fixed-seed generator.
"""

import math
import random
from fractions import Fraction

from .arith import (
    coprime_count_in_class,
    brauer_rademacher_sides,
    crt_solve,
    divisors,
    euler_phi,
    is_squarefree,
    mobius,
)
from .asymptotics import asymptotic_report, dirichlet_decomposition_check
from .congruences import count_roots
from .even import coprime_shift_sum, ramanujan_even, s_even, t_a
from .errors import DomainError
from .products import (
    e_g_direct,
    e_g_fast,
    e_shift,
    prime_power_profile,
    r_g_direct,
    r_g_fast,
    r_prime_power,
    r_shift,
)
from .ramanujan import ramanujan_row, ramanujan_sum

POLY_CORPUS = ("x", "x-1", "x-2", "x+1", "x^2-1", "x^2+x+1", "2x-1")

_SEED = 20120183


# ---------------------------------------------------------------------------
# suite builders


def _suite_orthogonality(max_n: int):
    for n in range(1, max_n + 1):
        expected = 1 if n == 1 else 0
        yield (
            f"mean-of-row n={n:03d}",
            lambda n=n, e=expected: e_g_direct("x", (n,)) == e,
        )
    for l in range(1, max_n + 1):
        for n in range(1, max_n + 1):
            expected = euler_phi(n) if l == n else 0
            yield (
                f"pair-product l={l:03d} n={n:03d}",
                lambda l=l, n=n, e=expected: e_g_direct(("x", "x"), (l, n)) == e,
            )


def _suite_cohen(max_n: int):
    def check(n):
        row = ramanujan_row(n)
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        mu = mobius(n)
        for a in range(-50, 51):
            if sum(row[(k - a) % n] for k in units) != mu * ramanujan_sum(n, a):
                return False
        return True

    for n in range(1, max_n + 1):
        yield f"coprime-shift n={n:03d}", lambda n=n: check(n)


def _tuples(max_m: int, r: int):
    from itertools import product as cartesian

    return cartesian(range(1, max_m + 1), repeat=r)


def _suite_oracle(max_m: int):
    for g in POLY_CORPUS:
        for r in (1, 2, 3):
            def check(g=g, r=r):
                for ms in _tuples(max_m, r):
                    sys_ = (g,) * r
                    if e_g_fast(sys_, ms) != e_g_direct(sys_, ms):
                        return False
                    if r_g_fast(sys_, ms) != r_g_direct(sys_, ms):
                        return False
                return True

            yield f"poly={g} r={r}", check


def _quadratic_full_rule(n: int) -> int:
    j, m = 0, n
    while m % 2 == 0:
        j += 1
        m //= 2
    if j in (0, 2, 3) and is_squarefree(m):
        return {0: 1, 2: 1, 3: 2}[j]
    return 0


def _quadratic_coprime_rule(n: int) -> int:
    from .arith import dedekind_psi

    j, m = 0, n
    while m % 2 == 0:
        j += 1
        m //= 2
    if j in (0, 1, 2, 3) and is_squarefree(m):
        return {0: 1, 1: 1, 2: 4, 3: 16}[j] * dedekind_psi(m)
    return 0


def _suite_closed_forms(max_n: int):
    for lo in range(1, max_n + 1, 50):
        hi = min(lo + 49, max_n)

        def check_full(lo=lo, hi=hi):
            return all(
                e_g_fast("x^2-1", (n,)) == _quadratic_full_rule(n) for n in range(lo, hi + 1)
            )

        def check_coprime(lo=lo, hi=hi):
            return all(
                r_g_fast("x^2-1", (n,)) == _quadratic_coprime_rule(n) for n in range(lo, hi + 1)
            )

        yield f"quadratic-full n={lo:03d}..{hi:03d}", check_full
        yield f"quadratic-coprime n={lo:03d}..{hi:03d}", check_coprime

    def check_adjacent():
        from .arith import distinct_prime_count

        for m1 in range(1, 41):
            for m2 in range(1, 41):
                for a in (-2, 0, 3):
                    want = 0
                    if m1 == m2 and is_squarefree(m1):
                        want = (-1) ** distinct_prime_count(m1)
                    if e_shift((a, a + 1), (m1, m2), strategy="general") != want:
                        return False
        return True

    yield "adjacent-shift rule m<=040", check_adjacent

    def check_pairwise_coprime():
        rng = random.Random(_SEED)
        for _ in range(200):
            r = rng.randint(1, 3)
            while True:
                ms = [rng.randint(1, 30) for _ in range(r)]
                if all(
                    math.gcd(ms[i], ms[j]) == 1
                    for i in range(r)
                    for j in range(i + 1, r)
                ):
                    break
            sh = [rng.randint(-10, 10) for _ in range(r)]
            want = mobius(math.lcm(*ms))
            for mi, ai in zip(ms, sh):
                want *= ramanujan_sum(mi, ai)
            if r_shift(sh, ms, strategy="general") != want:
                return False
        return True

    yield "pairwise-coprime rule m<=030", check_pairwise_coprime

    def check_unit_adjacent():
        from .arith import dedekind_psi, distinct_prime_count

        for m1 in range(1, 41):
            for m2 in range(1, 41):
                for a1 in (-3, 1, 4):
                    a2 = a1 + 1
                    if math.gcd(a1, m1) != 1 or math.gcd(a2, m2) != 1:
                        continue
                    if is_squarefree(m1) and is_squarefree(m2):
                        g = math.gcd(m1, m2)
                        want = (-1) ** distinct_prime_count(g) * dedekind_psi(g)
                    else:
                        want = 0
                    if r_shift((a1, a2), (m1, m2), strategy="general") != want:
                        return False
        return True

    yield "unit-adjacent-shift rule m<=040", check_unit_adjacent


def _sorted_exponent_tuples(r: int, emax: int):
    from itertools import combinations_with_replacement

    for exps in combinations_with_replacement(range(emax, 0, -1), r):
        yield tuple(sorted(exps, reverse=True))


def _suite_prime_power(emax: int):
    for p in (2, 3, 5):
        for r in (1, 2, 3, 4):
            def check(p=p, r=r):
                for exps in _sorted_exponent_tuples(r, emax):
                    prof = prime_power_profile(p, exps)
                    val = r_prime_power(prof)
                    if val != r_g_direct(("x-1",) * r, tuple(p**e for e in exps)):
                        return False
                    if prof.e == 1 and val != (p - 1) ** r + (-1) ** r * (p - 2):
                        return False
                    should_vanish = prof.e > 1 and (
                        prof.s == 1 or (prof.s % 2 == 1 and p == 2)
                    )
                    if (val == 0) != should_vanish or val < 0:
                        return False
                return True

            yield f"p={p} r={r}", check


def _suite_t_a(max_lcm: int):
    from itertools import product as cartesian

    for r in (1, 2, 3):
        for ms in cartesian(range(1, max_lcm + 1), repeat=r):
            if math.lcm(*ms) > max_lcm:
                continue

            def check(ms=ms):
                for a in range(-6, 7):
                    closed = t_a(ms, a, strategy="closed")
                    if t_a(ms, a, strategy="spectral") != closed:
                        return False
                    if t_a(ms, a, strategy="direct") != closed:
                        return False
                return True

            yield "tuple=" + ",".join(f"{m:02d}" for m in ms), check


def _coprime_tuple_pair(rng, r: int, cap: int):
    """Moduli tuples (m, n) with gcd(prod m_i, prod n_j) = 1, entries <= cap."""
    while True:
        ms = [rng.randint(1, cap) for _ in range(r)]
        ns = [rng.randint(1, cap) for _ in range(r)]
        pm = math.prod(ms)
        pn = math.prod(ns)
        if math.gcd(pm, pn) == 1:
            return ms, ns


def _suite_multiplicativity(cases: int):
    def make(salt, fn, r_max=3, cap=30):
        def check():
            rng = random.Random(_SEED + salt)
            for _ in range(cases):
                r = rng.randint(1, r_max)
                ms, ns = _coprime_tuple_pair(rng, r, cap)
                prod_tuple = [m * n for m, n in zip(ms, ns)]
                if fn(r, prod_tuple) != fn(r, ms) * fn(r, ns):
                    return False
            return True

        return check

    def eg(r, ms):
        return e_g_fast(("x^2-1",) * r, ms)

    def rg(r, ms):
        return r_g_fast(("2x-1",) * r, ms)

    def n_count(r, ms):
        return count_roots(("x^2-1",) * r, ms).count

    def eta_count(r, ms):
        return count_roots(("x^2-1",) * r, ms, units_only=True).count

    def t_closed(r, ms):
        return t_a(ms, 3, strategy="closed")

    yield "full-product-sum", make(1, eg)
    yield "coprime-product-sum", make(2, rg)
    yield "root-count", make(3, n_count)
    yield "unit-root-count", make(4, eta_count)
    yield "modified-orthogonality", make(5, t_closed)


def _suite_identities(max_n: int):
    def check_crt_pairs():
        for d1 in range(1, 13):
            for d2 in range(1, 13):
                lcm = math.lcm(d1, d2)
                for a1 in range(d1):
                    for a2 in range(d2):
                        got = crt_solve([(a1, d1), (a2, d2)])
                        want = [x for x in range(lcm) if x % d1 == a1 and x % d2 == a2]
                        if got is None:
                            if want:
                                return False
                        elif got[1] != lcm or want != [got[0]]:
                            return False
        return True

    yield "crt-vs-scan pairs d<=012", check_crt_pairs

    def check_crt_triples():
        rng = random.Random(_SEED)
        done = 0
        while done < 300:
            ds = [rng.randint(1, 45) for _ in range(3)]
            lcm = math.lcm(*ds)
            if lcm > 2000:
                continue
            asv = [rng.randint(-50, 50) for _ in range(3)]
            got = crt_solve(list(zip(asv, ds)))
            want = [
                x
                for x in range(lcm)
                if all((x - a) % d == 0 for a, d in zip(asv, ds))
            ]
            if got is None:
                if want:
                    return False
            elif got[1] != lcm or want != [got[0]]:
                return False
            done += 1
        return True

    yield "crt-vs-scan triples lcm<=2000", check_crt_triples

    def check_class_counts(n):
        for d in divisors(n):
            quot = euler_phi(n) // euler_phi(d)
            for x in range(1, d + 1):
                if math.gcd(x, d) == 1 and coprime_count_in_class(n, d, x) != quot:
                    return False
        return True

    for lo in range(1, max_n + 1, 50):
        hi = min(lo + 49, max_n)
        yield (
            f"class-count n={lo:03d}..{hi:03d}",
            lambda lo=lo, hi=hi: all(check_class_counts(n) for n in range(lo, hi + 1)),
        )

    for lo in range(1, max_n + 1, 50):
        hi = min(lo + 49, max_n)

        def check_br(lo=lo, hi=hi):
            for n in range(lo, hi + 1):
                for k in range(1, max_n + 1):
                    lhs, rhs = brauer_rademacher_sides(n, k)
                    if lhs != rhs:
                        return False
            return True

        yield f"brauer-rademacher n={lo:03d}..{hi:03d}", check_br

    def check_shift_sum():
        rng = random.Random(_SEED)
        for n in range(1, 61):
            f = ramanujan_even(n)
            for a in (-7, -1, 0, 1, 4):
                coprime_shift_sum(f, a)  # raises on two-sided mismatch
        for _ in range(100):
            s = rng.randint(1, 40)
            f = s_even(
                s,
                {
                    d: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for d in divisors(s)
                },
            )
            coprime_shift_sum(f, rng.randint(-20, 20))
        return True

    yield "even-shift-sum two-sided", check_shift_sum


def _suite_dirichlet(max_m: int):
    for r in (2, 3, 4):
        yield (
            f"convolution r={r} m<={max_m:04d}",
            lambda r=r: dirichlet_decomposition_check(r, max_m),
        )


def _suite_average_order(max_x: int):
    def check(r, x):
        report = asymptotic_report(r, x, 10**5)
        return 0.98 <= report.ratio <= 1.02

    yield f"ratio r=2 x={max_x}", lambda: check(2, max_x)
    yield f"ratio r=3 x={max(2, 2 * max_x // 5)}", lambda: check(3, max(2, 2 * max_x // 5))


_SUITES = {
    "orthogonality": (_suite_orthogonality, 60),
    "cohen": (_suite_cohen, 200),
    "oracle": (_suite_oracle, 6),
    "closed-forms": (_suite_closed_forms, 500),
    "prime-power": (_suite_prime_power, 3),
    "t-a": (_suite_t_a, 12),
    "multiplicativity": (_suite_multiplicativity, 500),
    "identities": (_suite_identities, 300),
    "dirichlet": (_suite_dirichlet, 2000),
    "average-order": (_suite_average_order, 5000),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str, max_n: int | None = None):
    """Run one named suite (or "all"); returns (label, ok) pairs in order."""
    if name == "all":
        out = []
        for sub in _SUITES:
            out += [(f"{sub}: {label}", ok) for label, ok in run_suite(sub, max_n)]
        return out
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)} or 'all'")
    builder, default_max = _SUITES[name]
    return [(label, bool(thunk())) for label, thunk in builder(max_n or default_max)]
