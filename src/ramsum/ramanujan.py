"""Ramanujan sums c_n(k), exactly and by floating-point oracle.

Both exact evaluators use the divisor-sum representation
c_n(k) = sum_{d | gcd(k, n)} d * mu(n/d).  ``ramanujan_sum`` evaluates it
as its product over the primes of n; ``ramanujan_row`` tabulates c_n(k)
for every k mod n by the sum itself, each term d * mu(n/d) with n/d
squarefree added at the multiples of d, using no multiplicativity in n,
so each checks the other.  The exponential form (sum of k-th powers of
the primitive n-th roots of unity) is kept only as a cross-validation
oracle and never feeds any exact result.
"""

import math
from functools import lru_cache

from .arith import _valuation, euler_phi, factorize, mobius
from .errors import DomainError, ScaleError


def ramanujan_sum(n: int, k: int) -> int:
    """c_n(k) = sum_{d | gcd(k, n)} d * mu(n/d), evaluated exactly.

    Any integer k is accepted; the value depends on k only through
    gcd(k mod n, n), with gcd(0, n) = n so that c_n(0) = phi(n).
    """
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    g = math.gcd(k % n, n)
    # Only divisors d of g with v_p(d) >= v_p(n) - 1 for every prime p
    # survive mu(n/d); the sum factors over the primes of n.
    out = 1
    for p, a in factorize(n).factors:
        b = _valuation(g, p)
        if b < a - 1:
            return 0
        term = -(p ** (a - 1))
        if b == a:
            term += p**a
        out *= term
    return out


def ramanujan_sum_totient_form(n: int, k: int) -> int:
    """c_n(k) via phi(n) * mu(n/g) / phi(n/g) with g = gcd(k, n).

    Shortcut form used for cross-validation against the divisor sum.
    """
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    g = math.gcd(k % n, n)
    w = mobius(n // g)
    if w == 0:
        return 0
    return w * euler_phi(n) // euler_phi(n // g)


@lru_cache(maxsize=1024)
def ramanujan_row(n: int) -> tuple[int, ...]:
    """(c_n(0), c_n(1), ..., c_n(n-1)), built by sieving d*mu(n/d).

    Only the d with n/d squarefree survive mu(n/d): d = d0 * e for each
    e | rad(n), with d0 = n / rad(n) and mu(n/d) = mu(rad(n)/e), read off
    n's one factorization.  The smallest, d0 * mu(rad(n)) at the multiples
    of d0, is laid down as one C-level repeated list; every other term is
    a multiple of d0 and is added along its strided slice.
    """
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    primes = [p for p, _ in factorize(n).factors]
    rad = math.prod(primes)
    d0 = n // rad
    w0 = -1 if len(primes) % 2 else 1
    # (e, mu(rad/e)) for the squarefree e | rad, e = 1 first
    terms = [(1, w0)]
    for p in primes:
        terms += [(e * p, -w) for e, w in terms]
    row = ([w0 * d0] + [0] * (d0 - 1)) * rad
    for e, w in terms[1:]:
        d = d0 * e
        wd = w * d
        row[::d] = [v + wd for v in row[::d]]
    return tuple(row)


def ramanujan_sum_exponential(n: int, k: int) -> float:
    """Sum of cos(2*pi*j*k/n) over 1 <= j <= n coprime to n.

    Floating-point oracle for c_n(k); the imaginary parts cancel in
    exact arithmetic and are not computed.
    """
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    if n > 10_000:
        raise ScaleError(f"exponential oracle capped at n <= 10^4, got {n}")
    k %= n
    return math.fsum(
        math.cos(2.0 * math.pi * (j * k % n) / n) for j in range(1, n + 1) if math.gcd(j, n) == 1
    )
