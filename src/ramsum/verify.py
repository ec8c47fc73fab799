"""Named verification suites over configurable ranges.

Each suite is a deterministic list of (label, check) pairs; checks return
True/False.  Labels are generated in canonical sorted-input order, so the
printed output is byte-stable across runs.  Randomized suites draw from a
fixed-seed generator.

The suites are the one definition of each invariant the package promises:
the acceptance criteria in tests/test_acceptance.py run every suite through
run_suite at no less than its default range and assert its check count.
"""

import math
import random
from fractions import Fraction
from functools import partial
from itertools import product as cartesian

from .arith import divisors, euler_phi, factorize, mobius, moduli_tuple
from .asymptotics import asymptotic_report, dirichlet_decomposition_check
from .congruences import as_poly_system, count_roots
from .even import SEvenFunction, coprime_shift_sum, ramanujan_even, t_a
from .errors import DomainError, ScaleError
from .products import (
    _poly_convolve,
    e_g_direct,
    e_g_fast,
    e_shift,
    r_g_direct,
    r_g_fast,
    r_prime_power,
    r_shift,
)
from .ramanujan import ramanujan_row, ramanujan_sum

POLY_CORPUS = ("x", "x-1", "x-2", "x+1", "x^2-1", "x^2+x+1", "2x-1")

_SEED = 20120183


# ---------------------------------------------------------------------------
# check helpers: arithmetic that only the suites read


def _dedekind_psi(n) -> int:
    """psi(n) = n * prod_{p|n} (1 + 1/p), computed exactly."""
    return math.prod(p ** (e - 1) * (p + 1) for p, e in factorize(n).factors)


def _distinct_prime_count(n) -> int:
    """omega(n), the number of distinct prime factors."""
    return len(factorize(n).factors)


def _is_squarefree(n) -> bool:
    return all(e == 1 for _, e in factorize(n).factors)


def _crt_solve(congruences):
    """Solve the simultaneous congruences x = a_i (mod d_i).

    Returns ``(x, L)`` with ``0 <= x < L = lcm(d_1, ..., d_r)`` when the
    system is solvable, i.e. gcd(d_i, d_j) divides a_i - a_j for every
    pair; returns ``None`` otherwise.
    """
    x, lcm = 0, 1
    for a, d in congruences:
        if d < 1:
            raise DomainError(f"modulus must be positive, got {d}")
        g = math.gcd(lcm, d)
        if (a - x) % g:
            return None
        dd = d // g
        if dd > 1:
            t = ((a - x) // g) * pow((lcm // g) % dd, -1, dd) % dd
            x += lcm * t
        lcm *= dd
        x %= lcm
    return x, lcm


def _coprime_count_in_class(n: int, d: int, x: int) -> int:
    """Count k <= n with k = x (mod d) and gcd(k, n) = 1, by a scan.

    Requires d | n, 1 <= x <= d and gcd(x, d) = 1; the result always
    equals phi(n)/phi(d).
    """
    if n < 1 or d < 1 or n % d:
        raise DomainError(f"need d | n, got n={n}, d={d}")
    if not 1 <= x <= d or math.gcd(x, d) != 1:
        raise DomainError(f"need 1 <= x <= d with gcd(x, d) = 1, got x={x}, d={d}")
    if n > 10**7:
        raise ScaleError(f"direct residue-class scan capped at n <= 10^7, got {n}")
    return sum(1 for k in range(x, n + 1, d) if math.gcd(k, n) == 1)


def _brauer_rademacher_sides(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of sum_{d|n, gcd(d,k)=1} d*mu(n/d)/phi(d) = mu(n)c_n(k)/phi(n).

    Returns ``(lhs, rhs)`` as exact fractions; the two are always equal.
    """
    if n < 1 or k < 1:
        raise DomainError("n and k must be positive")
    lhs = Fraction(0)
    for d in divisors(n):
        if math.gcd(d, k) == 1:
            w = mobius(n // d)
            if w:
                lhs += Fraction(d * w, euler_phi(d))
    rhs = Fraction(mobius(n) * ramanujan_sum(n, k), euler_phi(n))
    return lhs, rhs


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


def _suite_oracle(max_m: int):
    """The class walks equal the definitional oracles and the mu-weighted convolution."""
    for g in POLY_CORPUS:
        for r in (1, 2, 3):
            def check(g=g, r=r):
                sys_ = as_poly_system((g,) * r)
                for ms in cartesian(range(1, max_m + 1), repeat=r):
                    mt = moduli_tuple(ms)
                    for fast, direct, coprime in (
                        (e_g_fast, e_g_direct, False),
                        (r_g_fast, r_g_direct, True),
                    ):
                        value = fast(sys_, mt)
                        if value != direct(sys_, mt) or value != _poly_convolve(sys_, mt, coprime):
                            return False
                return True

            yield f"poly={g} r={r}", check


def _split_two(n: int) -> tuple[int, int]:
    """(j, m) with n = 2^j m and m odd."""
    j = (n & -n).bit_length() - 1
    return j, n >> j


def _quadratic_full_rule(n: int) -> int:
    j, m = _split_two(n)
    return {0: 1, 2: 1, 3: 2}.get(j, 0) if _is_squarefree(m) else 0


def _quadratic_coprime_rule(n: int) -> int:
    j, m = _split_two(n)
    if j <= 3 and _is_squarefree(m):
        return {0: 1, 1: 1, 2: 4, 3: 16}[j] * _dedekind_psi(m)
    return 0


# the definitional oracles also check the quadratic rules up to this modulus
_QUADRATIC_DIRECT_MAX = 200


def _suite_closed_forms(max_n: int):
    def check_quadratic(fast, direct, rule, lo, hi):
        for n in range(lo, hi + 1):
            want = rule(n)
            if fast("x^2-1", (n,)) != want:
                return False
            if n <= _QUADRATIC_DIRECT_MAX and direct("x^2-1", (n,)) != want:
                return False
        return True

    for lo in range(1, max_n + 1, 50):
        hi = min(lo + 49, max_n)
        for kind, fast, direct, rule in (
            ("full", e_g_fast, e_g_direct, _quadratic_full_rule),
            ("coprime", r_g_fast, r_g_direct, _quadratic_coprime_rule),
        ):
            yield (
                f"quadratic-{kind} n={lo:03d}..{hi:03d}",
                partial(check_quadratic, fast, direct, rule, lo, hi),
            )

    def check_adjacent():
        for m1 in range(1, 41):
            for m2 in range(1, 41):
                want = 0
                if m1 == m2 and _is_squarefree(m1):
                    want = (-1) ** _distinct_prime_count(m1)
                for a in (-3, -2, 0, 2, 3):
                    if e_shift((a, a + 1), (m1, m2)) != want:
                        return False
                if max(m1, m2) <= 12 and e_shift((0, 1), (m1, m2)) != e_g_direct(
                    ("x", "x-1"), (m1, m2)
                ):
                    return False
        return True

    yield "adjacent-shift rule m<=040", check_adjacent

    def check_pairwise_coprime():
        # every single modulus and shift, every coprime pair, 500 random triples
        rng = random.Random(_SEED)
        cases = [((m,), (a,)) for m in range(1, 31) for a in range(-10, 11)]
        for ms in cartesian(range(1, 31), repeat=2):
            if math.gcd(*ms) == 1:
                cases.append((ms, (rng.randint(-10, 10), rng.randint(-10, 10))))
        triples = 0
        while triples < 500:
            ms = [rng.randint(1, 30) for _ in range(3)]
            if math.lcm(*ms) == math.prod(ms):
                cases.append((ms, [rng.randint(-10, 10) for _ in range(3)]))
                triples += 1
        for ms, sh in cases:
            want = mobius(math.prod(ms))
            for mi, ai in zip(ms, sh):
                want *= ramanujan_sum(mi, ai)
            if r_shift(sh, ms) != want:
                return False
        return True

    yield "pairwise-coprime rule m<=030", check_pairwise_coprime

    def check_unit_adjacent():
        for m1 in range(1, 41):
            for m2 in range(1, 41):
                for a1 in (-3, 1, 4):
                    a2 = a1 + 1
                    if math.gcd(a1, m1) != 1 or math.gcd(a2, m2) != 1:
                        continue
                    if _is_squarefree(m1) and _is_squarefree(m2):
                        g = math.gcd(m1, m2)
                        want = (-1) ** _distinct_prime_count(g) * _dedekind_psi(g)
                    else:
                        want = 0
                    if r_shift((a1, a2), (m1, m2)) != want:
                        return False
        return True

    yield "unit-adjacent-shift rule m<=040", check_unit_adjacent


def _suite_prime_power(emax: int):
    for p in (2, 3, 5):
        for r in (1, 2, 3, 4):
            def check(p=p, r=r):
                for exps in cartesian(range(1, emax + 1), repeat=r):
                    val = r_prime_power(p, exps)
                    if val != r_g_direct(("x-1",) * r, tuple(p**e for e in exps)):
                        return False
                    top = max(exps)
                    if top == 1 and val != (p - 1) ** r + (-1) ** r * (p - 2):
                        return False
                    s = exps.count(top)
                    should_vanish = top > 1 and (s == 1 or (s % 2 == 1 and p == 2))
                    if (val == 0) != should_vanish or val < 0:
                        return False
                return True

            yield f"p={p} r={r}", check


def _suite_t_a(max_lcm: int):
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


def _coprime_tuple_pair(rng, r: int):
    """Moduli tuples (m, n) with gcd(prod m_i, prod n_j) = 1, entries <= 30."""
    while True:
        ms = [rng.randint(1, 30) for _ in range(r)]
        ns = [rng.randint(1, 30) for _ in range(r)]
        if math.gcd(math.prod(ms), math.prod(ns)) == 1:
            return ms, ns


def _suite_multiplicativity(cases: int):
    """Each family factors over coprime tuple pairs; every draw also picks a
    shift a in [-10, 10], which only the T_a family reads."""

    def make(salt, fn):
        def check():
            rng = random.Random(_SEED + salt)
            for _ in range(cases):
                ms, ns = _coprime_tuple_pair(rng, rng.randint(1, 3))
                a = rng.randint(-10, 10)
                prod_tuple = [m * n for m, n in zip(ms, ns)]
                if fn(prod_tuple, a) != fn(ms, a) * fn(ns, a):
                    return False
            return True

        return check

    yield "full-product-sum", make(1, lambda ms, a: e_g_fast(("x^2-1",) * len(ms), ms))
    yield "coprime-product-sum", make(2, lambda ms, a: r_g_fast(("2x-1",) * len(ms), ms))
    yield "root-count", make(3, lambda ms, a: count_roots(("x^2-1",) * len(ms), ms).count)
    yield "unit-root-count", make(
        4, lambda ms, a: count_roots(("x^2-1",) * len(ms), ms, units_only=True).count
    )
    yield "modified-orthogonality", make(5, lambda ms, a: t_a(ms, a, strategy="closed"))


def _suite_identities(max_n: int):
    def check_crt_pairs():
        for d1 in range(1, 13):
            for d2 in range(1, 13):
                lcm = math.lcm(d1, d2)
                for a1 in range(d1):
                    for a2 in range(d2):
                        got = _crt_solve([(a1, d1), (a2, d2)])
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
            got = _crt_solve(list(zip(asv, ds)))
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
                if math.gcd(x, d) == 1 and _coprime_count_in_class(n, d, x) != quot:
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
                    lhs, rhs = _brauer_rademacher_sides(n, k)
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
        for _ in range(200):
            s = rng.randint(1, 40)
            f = SEvenFunction(s, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divisors(s)})
            coprime_shift_sum(f, rng.randint(-20, 20))
        return True

    yield "even-shift-sum two-sided", check_shift_sum


def _suite_dirichlet(max_m: int):
    for r in (2, 3, 4):
        yield (
            f"convolution r={r} m<={max_m:04d}",
            lambda r=r: dirichlet_decomposition_check(r, max_m),
        )


# The 2% band holds at every x >= 114 for r = 2 (up to 5000) and at every
# x >= 320 for r = 3 (up to 2000), but not just below: the ratio is 1.021
# at x = 113 (r = 2) and 1.023 at x = 319 (r = 3).  Small ranges are
# raised to these floors.
_AVERAGE_ORDER_FLOOR = {2: 114, 3: 320}


def _suite_average_order(max_x: int):
    def check(r, x):
        report = asymptotic_report(r, x, 10**5)
        return 0.98 <= report.ratio <= 1.02

    for r, x in ((2, max_x), (3, 2 * max_x // 5)):
        x = max(x, _AVERAGE_ORDER_FLOOR[r])
        yield f"ratio r={r} x={x}", lambda r=r, x=x: check(r, x)


# Per suite: its builder, its default range, and the largest --max that
# finished in about 10 s (a child process on a 2-core x86_64, Python
# 3.11), above which ``run_suite`` raises ScaleError before any check runs.
# None where a library cap already bounds the range: dirichlet's m <= 10^4
# and average-order's x <= 10^6 raise ScaleError from ``asymptotics``.
_SUITES = {
    "orthogonality": (_suite_orthogonality, 60, 200),
    "cohen": (_suite_cohen, 200, 2200),
    "oracle": (_suite_oracle, 6, 22),
    "closed-forms": (_suite_closed_forms, 500, 300_000),
    "prime-power": (_suite_prime_power, 3, 7),
    "t-a": (_suite_t_a, 12, 29),
    "multiplicativity": (_suite_multiplicativity, 500, 40_000),
    "identities": (_suite_identities, 300, 750),
    "dirichlet": (_suite_dirichlet, 2000, None),
    "average-order": (_suite_average_order, 5000, None),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str, max_n: int | None = None):
    """Run one named suite (or "all"); returns (label, ok) pairs in order.

    max_n None runs each suite at its default range.  A max_n above a
    suite's ceiling is a ScaleError, and "all" checks every ceiling before
    any check runs.
    """
    if max_n is not None and max_n < 1:
        raise DomainError(f"suite range must be >= 1, got {max_n}")
    if name != "all" and name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)} or 'all'")
    names = list(_SUITES) if name == "all" else [name]
    for sub in names:
        ceiling = _SUITES[sub][2]
        if max_n is not None and ceiling is not None and max_n > ceiling:
            raise ScaleError(f"suite {sub} range capped at <= {ceiling}, got {max_n}")
    out = []
    for sub in names:
        builder, default_max, _ = _SUITES[sub]
        prefix = f"{sub}: " if name == "all" else ""
        out += [(prefix + label, bool(thunk())) for label, thunk in builder(default_max if max_n is None else max_n)]
    return out
