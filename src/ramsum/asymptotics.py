"""Average order of the normalized diagonal function g_r.

g_r(m) = R(m, ..., m)/m is multiplicative with g_r(p) = x_r(p)/p and
g_r(p^e) = p^((e-1)(r-1)) (p-1) h_r(p) for e >= 2, where
x_r(p) = (p-1)^r + (-1)^r (p-2).  Its partial sums grow like
(alpha_r / r) x^r with alpha_r a convergent Euler product; this module
computes alpha_r from exact integer factor numerators, sums g_r exactly,
and verifies the underlying convolution identity g_r = F_r * id_{r-1}.

The exact work is done in integers.  A smallest-prime-factor pass builds
R(m) = m g_r(m) for every m <= x, for the sieve of g_r and the check of
the convolution identity, R(m) = sum_{d|m} (d F_r(d)) (m/d)^r.  The
smallest-prime-factor table is a 2-byte array that holds only the primes
up to sqrt(x), and the prime sieve stores odd numbers only.  The
partial sum splits on the largest prime factor: with s = isqrt(x), it
sieves R only at the s-smooth m and adds their D g_r(m), integers for D
the product of the primes up to s; every other m is k p with one prime
p > s and k <= s, and each such p adds x_r(p)/p times a prefix sum of
g_r in one division by p.  The residues mod the large primes are added
by a product tree (binary splitting) into a single Fraction, which is
reduced by a gcd with D alone.
"""

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from operator import floordiv, mul

from .arith import _Record
from .errors import DomainError, ScaleError
from .products import _r_local, x_r_value

_SIEVE_CAP = 10**6
_DIRICHLET_CAP = 10**4
_PRIME_BOUND_CAP = 10**7
# r is capped before any sieve or power is built.  The Euler product forms
# p^r for every prime p up to 10^7: alpha_r(256, 10^7) takes about 7 s.
_ALPHA_R_CAP = 256
# The sieves hold R(m), about r log2(m) bits, at every m <= x, and the report
# forms x^r in double precision: 10^(6r) < 2^1024 exactly when r <= 51.
_SIEVE_R_CAP = 51

if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
    _coprime_fraction = Fraction._from_coprime_ints
else:

    def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
        """numerator/denominator, for coprime ints with denominator > 0, with no gcd."""
        return Fraction(numerator, denominator, _normalize=False)


def _check_r(r: int, cap: int, what: str) -> None:
    if r < 2:
        raise DomainError(f"r must be >= 2, got {r}")
    if r > cap:
        raise ScaleError(f"{what} capped at r <= {cap}, got {r}")


def euler_factor_data(r: int, p: int) -> tuple[int, int]:
    """(x_r(p) - p^r, (-1)^r p^r): the values of d F_r(d) at d = p and p^2.

    F_r is multiplicative with g_r = F_r * id_{r-1}, so with A and B the
    two values, p g_r(p) = p^r + A and p^2 g_r(p^2) = p^(2r) + A p^r + B.
    So A = R(p) - p^r = x_r(p) - p^r, and B = R(p^2) - p^r x_r(p) =
    p^r (p(p-1)h_r(p) - x_r(p)), where p(p-1)h_r(p) - x_r(p) = (-1)^r.
    """
    _check_r(r, _ALPHA_R_CAP, "Euler factor")
    if p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    pr = p**r
    return x_r_value(r, p) - pr, (-1) ** r * pr


def _primes_upto(bound: int) -> list[int]:
    """The primes p <= bound, ascending.

    The sieve holds the odd numbers only, byte i for 2i + 1, so it takes
    about bound/2 bytes; an odd prime q strikes q^2, q^2 + 2q, ..., at
    bytes (q^2 - 1)/2 + k q.
    """
    if bound < 2:
        return []
    half = (bound + 1) // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            q = 2 * i + 1
            start = q * q // 2
            sieve[start::q] = bytes((half - 1 - start) // q + 1)
    return [2, *compress(range(1, bound + 1, 2), sieve)]


def euler_factor(r: int, p: int) -> float:
    """1 + A/p^(r+1) + B/p^(2r+2) for (A, B) = ``euler_factor_data(r, p)``.

    Evaluated in double precision from the exact integer numerator
    p^(r+2) + p A + (-1)^r, since B = (-1)^r p^r; the pair is not built here.
    r is capped at 256, as in ``alpha_r``.
    """
    _check_r(r, _ALPHA_R_CAP, "Euler factor")
    if p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    pr = p**r
    den = pr * p * p
    return (den + p * (x_r_value(r, p) - pr) + (-1) ** r) / den


def _check_alpha_args(r: int, prime_bound: int) -> None:
    _check_r(r, _ALPHA_R_CAP, "Euler product")
    if prime_bound < 1:
        raise DomainError(f"prime bound must be >= 1, got {prime_bound}")
    if prime_bound > _PRIME_BOUND_CAP:
        raise ScaleError(f"prime bound capped at <= 10^7, got {prime_bound}")


@lru_cache(maxsize=16)
def alpha_r(r: int, prime_bound: int) -> float:
    """Partial Euler product over primes p <= prime_bound.

    Each factor is 1 - u_p with 0 < u_p < min(3/4, (r + 1)/p^2), as it is
    1 - (1 - (1 - 1/p)^r)/p + (-1)^r (p - 1)^2/p^(r+2), since
    p(p-1)h_r(p) - x_r(p) = (-1)^r.  So the partial products decrease to
    alpha_r, and for every r >= 2 the truncation error satisfies
    0 <= alpha_r(r, P) - alpha_r < alpha_r(r, P) * (r + 1)/P, from the
    tail sum of (r + 1)/n^2 over n > P.  The odd-only prime sieve takes
    prime_bound/2 bytes; prime_bound is capped at 10^7 and r at 256.  Each product
    is kept, a float per (r, prime_bound), since reports repeat them.  The factors
    are ``euler_factor``'s, bit for bit: its exact numerator, written as
    (p - 1)(p^(r+1) + p (p - 1)^(r-1) + (-1)^r (p - 1)), over p^(r+2).
    """
    _check_alpha_args(r, prime_bound)
    sign = (-1) ** r

    def factor(p):
        q, u = p ** (r + 1), p - 1
        return u * (q + p * u ** (r - 1) + sign * u) / (q * p)

    return math.prod(map(factor, _primes_upto(prime_bound)), start=1.0)


def _spf_table(x: int) -> array:
    """Smallest prime factor of every composite m <= x, and 0 elsewhere.

    An unsigned 2-byte array over 0..x: spf[m] is the smallest prime
    factor of m for composite m, and 0 for m = 0, 1 and every prime, so
    ``spf[m] or m`` is the smallest prime factor of each m >= 2.  Only the
    primes up to sqrt(x) are laid down, each from p^2 on and from the
    largest to the smallest, so a smaller prime overwrites a larger one on
    their common multiples.  Entries are at most sqrt(x), so x < 2^32.
    """
    spf = array("H", bytes(2 * (x + 1)))
    for p in reversed(_primes_upto(math.isqrt(x))):
        spf[p * p :: p] = array("H", [p]) * len(range(p * p, x + 1, p))
    return spf


def _multiplicative_ints(spf: array, at_p, at_p2, step, indices) -> list[int]:
    """Integer values of a multiplicative f at 1 and at the given m >= 2.

    Returns a list over 0..x (x = len(spf) - 1) that is 0 off those m.
    f is given by its values f(p) = at_p[p] and f(p^2) = at_p2[p] and by
    f(p^(e+1)) = step[p] f(p^e) for e >= 2; at_p2 and step are only read
    at primes p <= sqrt(x).  One pass over the increasing indices, with
    p = spf[m] or m, the smallest prime factor in the convention of
    ``_spf_table``: f(m) = f(m/p) f(p) when p divides m once,
    f(m/p^2) f(p^2) when twice, and f(m/p) step[p] when at least three
    times.  So m/p and m/p^2 must be indices (or 1) whenever m is, as they
    are for all of 2..x and for the m with no prime factor above a given
    bound.
    """
    out = [0] * len(spf)
    out[1] = 1
    for m in indices:
        p = spf[m] or m
        n = m // p
        if n % p:
            out[m] = out[n] * at_p[p]
        elif (k := n // p) % p:
            out[m] = out[k] * at_p2[p]
        else:
            out[m] = out[n] * step[p]
    return out


def _r_locals(r: int, primes: list[int], bound: int) -> tuple[dict, dict, dict]:
    """The local data of R(m) = m g_r(m) for ``_multiplicative_ints``.

    R is multiplicative with R(p) = x_r(p) and, for e >= 2,
    R(p^e) = p^e p^((e-1)(r-1)) (p-1) h_r(p), so R(p^(e+1)) = p^r R(p^e).
    R(p) is given at every p in primes, the other two at p <= bound.
    R(p^2) comes from ``products._r_local``; R(p) is its e = 1 case,
    x_r(p), called directly so that no tuple is built per prime.
    """
    small = primes[: bisect_right(primes, bound)]
    at_p = {p: x_r_value(r, p) for p in primes}
    at_p2 = {p: _r_local(p, (2,) * r) for p in small}
    return at_p, at_p2, {p: p**r for p in small}


def _r_sieve(r: int, x: int) -> tuple[array, list[int]]:
    """The ``_spf_table`` of x and R(m) = m g_r(m) for every m <= x."""
    spf = _spf_table(x)
    local = _r_locals(r, _primes_upto(x), math.isqrt(x))
    return spf, _multiplicative_ints(spf, *local, range(2, x + 1))


def _check_sieve_args(r: int, x: int) -> None:
    _check_r(r, _SIEVE_R_CAP, "sieve")
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > _SIEVE_CAP:
        raise ScaleError(f"sieve capped at x <= 10^6, got {x}")


def g_r_sieve(r: int, x: int) -> list[Fraction]:
    """g_r(m) for every m <= x, as a list indexed by m (index 0 unused).

    Read off the integer sieve of R(m) = m g_r(m) (see ``_r_sieve``):
    R is assembled multiplicatively from R(p) = x_r(p) and
    R(p^e) = p^e p^((e-1)(r-1)) (p-1) h_r(p) for e >= 2 along a smallest
    prime factor table over every m <= x, and g_r(m) = R(m)/m.  It does
    not share the largest-prime-factor split of ``g_r_partial_sum``, so
    its sum checks that route.
    """
    _check_sieve_args(r, x)
    _, big_r = _r_sieve(r, x)
    return [Fraction(0)] + [Fraction(big_r[m], m) for m in range(1, x + 1)]


def dirichlet_decomposition_check(r: int, m_bound: int) -> bool:
    """Verify g_r(m) = sum_{d|m} F_r(d) (m/d)^(r-1) exactly for m <= m_bound.

    F_r is multiplicative and vanishes on cubes.  The identity is checked
    in integers, times m: R(m) = m g_r(m) from the sieve against
    sum_{d|m} (d F_r(d)) (m/d)^r, where d F_r(d) is multiplicative with
    the integer values of ``euler_factor_data`` at p and p^2, closed forms
    that do not read the sieve's h_r(p).  Returns False on any mismatch.
    """
    _check_r(r, _SIEVE_R_CAP, "decomposition check")
    if m_bound < 1:
        raise DomainError(f"m_bound must be >= 1, got {m_bound}")
    if m_bound > _DIRICHLET_CAP:
        raise ScaleError(f"decomposition check capped at m <= 10^4, got {m_bound}")

    spf, big_r = _r_sieve(r, m_bound)
    at_p, at_p2 = {}, {}
    for p in _primes_upto(m_bound):
        at_p[p], at_p2[p] = euler_factor_data(r, p)
    d_f = _multiplicative_ints(spf, at_p, at_p2, dict.fromkeys(at_p2, 0), range(2, m_bound + 1))
    powers = [k**r for k in range(m_bound + 1)]
    conv = [0] * (m_bound + 1)
    for d in range(1, m_bound + 1):
        fd = d_f[d]
        if fd:
            for k in range(1, m_bound // d + 1):
                conv[d * k] += fd * powers[k]
    return conv[1:] == big_r[1:]


class AsymptoticReport(_Record):
    """Exact partial sum of g_r against its predicted main term."""

    __slots__ = _fields = ("r", "x", "empirical", "predicted", "ratio", "alpha_truncation")

    def __init__(self, r: int, x: int, empirical: Fraction, predicted: float, ratio: float, alpha_truncation: int):
        for set_field, value in zip(self._setters, (r, x, empirical, predicted, ratio, alpha_truncation)):
            set_field(self, value)


def asymptotic_report(r: int, x: int, prime_bound: int) -> AsymptoticReport:
    """Compare sum_{m<=x} g_r(m) with (alpha_r / r) * x^r.

    The partial sum is accumulated exactly and converted to floating
    point only for the ratio.  Every argument is checked before the
    sieve runs.  With r <= 51 and x <= 10^6 no float overflows: x^r stays
    below 10^306, and so does the partial sum, since |g_r(m)| <= m^(r-1).
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

    Split on the largest prime factor, with s = isqrt(x): either m is
    s-smooth (no prime factor above s), or m = k p for exactly one prime
    p > s, with p not dividing k <= x // p <= s.  So the sum is
    sum_{smooth m} g_r(m) + sum_{s < p <= x} (x_r(p)/p) S(x // p), where
    S(y) is the sum of g_r(k) for k <= y.  The denominator of
    g_r(m) = R(m)/m divides the product of the primes dividing m once
    (R(p^e) is a multiple of p^e for e >= 2), so for smooth m it divides
    D, the product of the primes p <= s, and D g_r(m) = R(m) D // m is an
    integer; R is sieved at the smooth m only, since m/p of a smooth m is
    smooth.  Each large prime adds one divmod of x_r(p) N(x // p) by p,
    with N = D S: the quotient goes to a running integer W and the residue
    c_p/p to a product tree (binary splitting) that sums them into one
    fraction C/P, P the product of the large p with c_p != 0, and the sum
    is (W P + C)/(D P).

    That fraction is reduced by a gcd with D alone.  W P + C is prime to
    P: for each such p, C is c_p (P/p) plus a multiple of p, and neither
    0 < c_p < p nor P/p has the factor p.  D and P are coprime, since
    their primes lie on either side of s, so g = gcd(W P + C, D P) is
    gcd((W P + C) mod D, D), and ((W P + C)/g)/((D/g) P) is in lowest
    terms.  It is built without the gcd of a Fraction over the whole
    numerator and denominator, whose denominator has about 1.4 million
    bits at x = 10^6.
    """
    _check_sieve_args(r, x)
    s = math.isqrt(x)
    primes = _primes_upto(x)
    cut = bisect_right(primes, s)
    large = primes[cut:]
    smooth = bytearray([1]) * (x + 1)
    smooth[0] = 0
    for p in large:
        smooth[p::p] = bytes(x // p)
    at_p, at_p2, step = _r_locals(r, primes, s)
    # 1 is the first smooth m, and the kernel sets f(1) itself
    big_r = _multiplicative_ints(_spf_table(x), at_p, at_p2, step, islice(compress(range(x + 1), smooth), 1, None))
    d = math.prod(primes[:cut])
    scaled = map(floordiv, map(mul, compress(big_r, smooth), repeat(d)), compress(range(x + 1), smooth))
    # every k <= s is smooth, so the first s scaled values give N(1..s)
    prefix = [0, *accumulate(islice(scaled, s))]
    whole = prefix[-1] + sum(scaled)
    terms = []
    for p in large:
        carry, c = divmod(at_p[p] * prefix[x // p], p)
        whole += carry
        if c:
            terms.append((c, p))
    num, den = _sum_by_product_tree(terms)
    total = whole * den + num
    g = math.gcd(total % d, d)
    return _coprime_fraction(total // g, d // g * den)
