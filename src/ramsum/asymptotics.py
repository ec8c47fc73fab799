"""Average order of the normalized diagonal function g_r.

g_r(m) = R(m, ..., m)/m is multiplicative with g_r(p) = x_r(p)/p and
g_r(p^e) = p^((e-1)(r-1)) (p-1) h_r(p) for e >= 2, where
x_r(p) = (p-1)^r + (-1)^r (p-2).  Its partial sums grow like
(alpha_r / r) x^r with alpha_r a convergent Euler product; this module
computes alpha_r from exact integer factor numerators, sieves exact
partial sums of g_r, and verifies the underlying convolution identity
g_r = F_r * id_{r-1}.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ScaleError
from .products import h_value, x_r_value

_SIEVE_CAP = 10**6
_DIRICHLET_CAP = 10**4
_PRIME_BOUND_CAP = 10**7


@dataclass(frozen=True)
class EulerFactorData:
    """Exact ingredients of the local Euler factor at p.

    a_r = x_r(p)/p - p^(r-1) and b_r = p^(r-1)(p-1)h_r(p) - p^(r-2)x_r(p)
    are the degree-1 and degree-2 coefficients of the non-zeta part of the
    generating Dirichlet series; g_r(p) = p^(r-1) + a_r and
    g_r(p^2) = p^(2r-2) + a_r p^(r-1) + b_r.
    """

    p: int
    x_r: int
    a_r: Fraction
    b_r: Fraction


def euler_factor_data(r: int, p: int) -> EulerFactorData:
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    xr = x_r_value(r, p)
    a = Fraction(xr, p) - p ** (r - 1)
    b = Fraction(p ** (r - 1) * (p - 1) * h_value(r, p) - p ** (r - 2) * xr)
    return EulerFactorData(p, xr, a, b)


def _primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, bound + 1) if sieve[i]]


def euler_factor(r: int, p: int) -> float:
    """1 + (x_r(p) - p^r)/p^(r+1) + (p(p-1)h_r(p) - x_r(p))/p^(r+2).

    Evaluated in double precision from the exact integer numerator.
    """
    xr = x_r_value(r, p)
    num = p ** (r + 2) + p * (xr - p**r) + (p * (p - 1) * h_value(r, p) - xr)
    return num / p ** (r + 2)


def _check_alpha_args(r: int, prime_bound: int) -> None:
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    if prime_bound < 1:
        raise DomainError(f"prime bound must be >= 1, got {prime_bound}")
    if prime_bound > _PRIME_BOUND_CAP:
        raise ScaleError(f"prime bound capped at <= 10^7, got {prime_bound}")


def alpha_r(r: int, prime_bound: int) -> float:
    """Partial Euler product over primes p <= prime_bound.

    The infinite product converges absolutely; the truncation error is
    bounded by the tail sum of 2/p^2, below 2/(prime_bound - 1).  The
    prime sieve takes prime_bound bytes, so prime_bound is capped at 10^7.
    """
    _check_alpha_args(r, prime_bound)
    out = 1.0
    for p in _primes_upto(prime_bound):
        out *= euler_factor(r, p)
    return out


def _spf_table(x: int) -> list[int]:
    """Smallest prime factor for every integer up to x."""
    spf = list(range(x + 1))
    for i in range(2, math.isqrt(x) + 1):
        if spf[i] == i:
            for j in range(i * i, x + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _factor_spf(m: int, spf) -> list[tuple[int, int]]:
    out = []
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return out


def _multiplicative_table(x: int, local) -> list[Fraction]:
    """Values of a multiplicative function on 1..x from its prime-power rule."""
    spf = _spf_table(x)
    cache: dict[tuple[int, int], Fraction] = {}
    vals = [Fraction(0)] * (x + 1)
    if x >= 1:
        vals[1] = Fraction(1)
    for m in range(2, x + 1):
        acc = Fraction(1)
        for p, e in _factor_spf(m, spf):
            key = (p, e)
            lv = cache.get(key)
            if lv is None:
                lv = cache[key] = Fraction(local(p, e))
            acc *= lv
        vals[m] = acc
    return vals


def _check_sieve_args(r: int, x: int) -> None:
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > _SIEVE_CAP:
        raise ScaleError(f"sieve capped at x <= 10^6, got {x}")


def g_r_sieve(r: int, x: int) -> list[Fraction]:
    """g_r(m) for every m <= x, as a list indexed by m (index 0 unused).

    Assembled multiplicatively from the local values g_r(p) = x_r(p)/p and
    g_r(p^e) = p^((e-1)(r-1)) (p-1) h_r(p) for e >= 2, using a smallest
    prime factor sieve.
    """
    _check_sieve_args(r, x)

    def local(p, e):
        if e == 1:
            return Fraction(x_r_value(r, p), p)
        return Fraction(p ** ((e - 1) * (r - 1)) * (p - 1) * h_value(r, p))

    return _multiplicative_table(x, local)


def dirichlet_decomposition_check(r: int, m_bound: int) -> bool:
    """Verify g_r(m) = sum_{d|m} F_r(d) (m/d)^(r-1) exactly for m <= m_bound.

    F_r is multiplicative with F_r(p) = a_r(p), F_r(p^2) = b_r(p) and
    F_r(p^k) = 0 for k >= 3.  Returns False on any mismatch.
    """
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    if m_bound < 1:
        raise DomainError(f"m_bound must be >= 1, got {m_bound}")
    if m_bound > _DIRICHLET_CAP:
        raise ScaleError(f"decomposition check capped at m <= 10^4, got {m_bound}")

    def local_f(p, e):
        data = euler_factor_data(r, p)
        if e == 1:
            return data.a_r
        if e == 2:
            return data.b_r
        return Fraction(0)

    f_vals = _multiplicative_table(m_bound, local_f)
    g_vals = g_r_sieve(r, m_bound)
    conv = [Fraction(0)] * (m_bound + 1)
    for d in range(1, m_bound + 1):
        fd = f_vals[d]
        if fd:
            for q in range(1, m_bound // d + 1):
                conv[d * q] += fd * q ** (r - 1)
    return conv[1:] == g_vals[1:]


@dataclass(frozen=True)
class AsymptoticReport:
    """Exact partial sum of g_r against its predicted main term."""

    r: int
    x: int
    empirical: Fraction
    predicted: float
    ratio: float
    alpha_truncation: int


def asymptotic_report(r: int, x: int, prime_bound: int) -> AsymptoticReport:
    """Compare sum_{m<=x} g_r(m) with (alpha_r / r) * x^r.

    The partial sum is accumulated exactly and converted to floating
    point only for the ratio.  Every argument is checked before the
    sieve runs.
    """
    _check_sieve_args(r, x)
    _check_alpha_args(r, prime_bound)
    empirical = g_r_partial_sum(r, x)
    predicted = alpha_r(r, prime_bound) / r * float(x) ** r
    return AsymptoticReport(r, x, empirical, predicted, float(empirical) / predicted, prime_bound)


def g_r_partial_sum(r: int, x: int) -> Fraction:
    """Exact sum of g_r(m) for m <= x."""
    return sum(g_r_sieve(r, x)[1:], Fraction(0))
