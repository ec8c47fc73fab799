"""Average order of the normalized diagonal function g_r.

g_r(m) = R(m, ..., m)/m is multiplicative with g_r(p) = x_r(p)/p and
g_r(p^e) = p^((e-1)(r-1)) (p-1) h_r(p) for e >= 2, where
x_r(p) = (p-1)^r + (-1)^r (p-2).  Its partial sums grow like
(alpha_r / r) x^r with alpha_r a convergent Euler product; this module
computes alpha_r from exact integer factor numerators, sums g_r exactly,
and verifies the underlying convolution identity g_r = F_r * id_{r-1}.

The exact work is done in integers.  One smallest-prime-factor pass
builds R(m) = m g_r(m) and q(m), the product of the primes dividing m
exactly once, so g_r(m) = A(m)/q(m) with A(m) = R(m) q(m)/m an integer.
The partial sum splits each A/q into an integer and residues c_p/p, one
per p | q, kept in one running integer and one accumulator per prime;
the residues over all primes are added by a product tree (binary
splitting) into a single Fraction.  The convolution identity is checked
as R(m) = sum_{d|m} (d F_r(d)) (m/d)^r, an identity of integers.
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

    Each factor is 1 - u_p with 0 < u_p < min(3/4, (r + 1)/p^2), as it is
    1 - (1 - (1 - 1/p)^r)/p + (-1)^r (p - 1)^2/p^(r+2), since
    p(p-1)h_r(p) - x_r(p) = (-1)^r.  So the partial products decrease to
    alpha_r, and for every r >= 2 the truncation error satisfies
    0 <= alpha_r(r, P) - alpha_r < alpha_r(r, P) * (r + 1)/P, from the
    tail sum of (r + 1)/n^2 over n > P.  The prime sieve takes
    prime_bound bytes, so prime_bound is capped at 10^7.
    """
    _check_alpha_args(r, prime_bound)
    out = 1.0
    for p in _primes_upto(prime_bound):
        out *= euler_factor(r, p)
    return out


def _spf_table(x: int) -> list[int]:
    """Smallest prime factor for every integer up to x.

    Primes are laid down from the largest to the smallest, so a smaller
    prime overwrites a larger one on their common multiples.
    """
    spf = list(range(x + 1))
    for p in reversed(_primes_upto(math.isqrt(x))):
        spf[p * p :: p] = [p] * len(range(p * p, x + 1, p))
    return spf


def _multiplicative_ints(spf: list[int], at_p, at_p2, step) -> list[int]:
    """Integer values of a multiplicative f on 0..x (index 0 unused).

    f is given by its values f(p) = at_p[p] and f(p^2) = at_p2[p] and by
    f(p^(e+1)) = step[p] f(p^e) for e >= 2; at_p2 and step are only read
    at primes p <= sqrt(x).  One pass in increasing m, with p = spf[m]:
    f(m) = f(m/p) f(p) when p divides m once, f(m/p^2) f(p^2) when twice,
    and f(m/p) step[p] when at least three times.
    """
    x = len(spf) - 1
    out = [0] * (x + 1)
    out[1] = 1
    for m in range(2, x + 1):
        p = spf[m]
        n = m // p
        if n % p:
            out[m] = out[n] * at_p[p]
        elif (k := n // p) % p:
            out[m] = out[k] * at_p2[p]
        else:
            out[m] = out[n] * step[p]
    return out


def _r_sieve(r: int, x: int) -> tuple[list[int], list[int], list[int]]:
    """spf, R(m) = m g_r(m) and q(m) for m <= x, all as integer lists.

    R is multiplicative with R(p) = x_r(p) and, for e >= 2,
    R(p^e) = p^e p^((e-1)(r-1)) (p-1) h_r(p), so R(p^(e+1)) = p^r R(p^e).
    q(m) is the product of the primes that divide m exactly once; the
    powerful part of m divides R(m), so g_r(m) = A(m)/q(m) with the
    integer A(m) = R(m) q(m)/m.
    """
    spf = _spf_table(x)
    at_p = [0] * (x + 1)
    for p in range(2, x + 1):
        if spf[p] == p:
            at_p[p] = x_r_value(r, p)
    small = _primes_upto(math.isqrt(x))
    at_p2 = {p: p ** (r + 1) * (p - 1) * h_value(r, p) for p in small}
    step = {p: p**r for p in small}
    ones = dict.fromkeys(small, 1)
    # q takes the value p at p (spf[p] = p) and 1 at every higher power
    return spf, _multiplicative_ints(spf, at_p, at_p2, step), _multiplicative_ints(spf, spf, ones, ones)


def _check_sieve_args(r: int, x: int) -> None:
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > _SIEVE_CAP:
        raise ScaleError(f"sieve capped at x <= 10^6, got {x}")


def g_r_sieve(r: int, x: int) -> list[Fraction]:
    """g_r(m) for every m <= x, as a list indexed by m (index 0 unused).

    Read off the integer sieve of R(m) = m g_r(m) (see ``_r_sieve``):
    R is assembled multiplicatively from R(p) = x_r(p) and
    R(p^e) = p^e p^((e-1)(r-1)) (p-1) h_r(p) for e >= 2 along a smallest
    prime factor table, and g_r(m) = R(m)/m.
    """
    _check_sieve_args(r, x)
    _, big_r, _ = _r_sieve(r, x)
    return [Fraction(0)] + [Fraction(big_r[m], m) for m in range(1, x + 1)]


def dirichlet_decomposition_check(r: int, m_bound: int) -> bool:
    """Verify g_r(m) = sum_{d|m} F_r(d) (m/d)^(r-1) exactly for m <= m_bound.

    F_r is multiplicative with F_r(p) = a_r(p), F_r(p^2) = b_r(p) and
    F_r(p^k) = 0 for k >= 3.  The identity is checked in integers, times
    m: R(m) = m g_r(m) from the sieve against
    sum_{d|m} (d F_r(d)) (m/d)^r, where d F_r(d) is multiplicative with
    p a_r at p, p^2 b_r at p^2 (both from ``euler_factor_data``) and 0
    on cubes.  Returns False on any mismatch, including a d F_r(d) that
    is not an integer.
    """
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    if m_bound < 1:
        raise DomainError(f"m_bound must be >= 1, got {m_bound}")
    if m_bound > _DIRICHLET_CAP:
        raise ScaleError(f"decomposition check capped at m <= 10^4, got {m_bound}")

    spf, big_r, _ = _r_sieve(r, m_bound)
    at_p = [0] * (m_bound + 1)
    at_p2 = {}
    for p in range(2, m_bound + 1):
        if spf[p] == p:
            data = euler_factor_data(r, p)
            fp, fp2 = p * data.a_r, p * p * data.b_r
            if fp.denominator != 1 or fp2.denominator != 1:
                return False
            at_p[p], at_p2[p] = fp.numerator, fp2.numerator
    d_f = _multiplicative_ints(spf, at_p, at_p2, dict.fromkeys(at_p2, 0))
    powers = [k**r for k in range(m_bound + 1)]
    conv = [0] * (m_bound + 1)
    for d in range(1, m_bound + 1):
        fd = d_f[d]
        if fd:
            for k in range(1, m_bound // d + 1):
                conv[d * k] += fd * powers[k]
    return conv[1:] == big_r[1:]


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


def _sum_by_product_tree(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """(N, D) with N/D the sum of the fractions n/d given as (n, d) pairs.

    Neighbours are merged level by level, n1/d1 + n2/d2 =
    (n1 d2 + n2 d1)/(d1 d2), so every product pairs operands of similar
    size (binary splitting).  D is the product of all the d.
    """
    if not terms:
        return 0, 1
    while len(terms) > 1:
        merged = [(n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


def g_r_partial_sum(r: int, x: int) -> Fraction:
    """Exact sum of g_r(m) for m <= x, in integer arithmetic.

    Each g_r(m) = A(m)/q(m) from the integer sieve (q squarefree, see
    ``_r_sieve``) is split into partial fractions, an integer plus one
    residue c_p/p for every p | q with c_p = A (q/p)^(-1) mod p.  The
    integer parts go to one running integer and each c_p to a per-prime
    accumulator, folded mod p at the end.  The residues over the primes
    p <= x are summed by a product tree into one fraction, so the only
    big-integer work is that tree and the final reduction.
    """
    _check_sieve_args(r, x)
    spf, big_r, big_q = _r_sieve(r, x)
    whole = 0
    acc = [0] * (x + 1)
    for m in range(1, x + 1):
        q = big_q[m]
        a = big_r[m] * q // m
        rest = 0
        t = q
        while t > 1:
            p = spf[t]
            t //= p
            cof = q // p
            c = a * pow(cof, -1, p) % p
            acc[p] += c
            rest += c * cof
        whole += (a - rest) // q
    terms = []
    for p in range(2, x + 1):
        if acc[p]:
            carry, c = divmod(acc[p], p)
            whole += carry
            if c:
                terms.append((c, p))
    num, den = _sum_by_product_tree(terms)
    return Fraction(whole * den + num, den)
