"""Average order of the normalized diagonal function g_r.

g_r(m) = R(m, ..., m)/m is multiplicative with g_r(p) = x_r(p)/p and
g_r(p^e) = p^((e-1)(r-1)) (p-1) h_r(p) for e >= 2, where
x_r(p) = (p-1)^r + (-1)^r (p-2).  Its partial sums grow like
(alpha_r / r) x^r with alpha_r a convergent Euler product; this module
computes alpha_r from exact integer factor numerators, sums g_r exactly,
and verifies the underlying convolution identity g_r = F_r * id_{r-1}.

The exact work is done in integers.  The sieve of g_r builds R(m) = m g_r(m)
for every m <= x in one smallest-prime-factor pass, along a 2-byte array
that holds only the primes up to sqrt(x), and the prime sieve stores odd
numbers only.  The partial sum shares none of that pass.  It splits on the
largest prime factor: with s = isqrt(x) and D the product of the primes
up to s, the s-smooth m add D g_r(m), integers, summed by one walk over
their smallest prime factor that also records D g_r(k) at every k <= s;
every other m is k p with one prime p > s and k <= s, and each such p
adds x_r(p)/p times a prefix sum of g_r in one division by p.  The
residues mod the large primes are added by a product tree (binary
splitting) into a single Fraction, which is reduced by a gcd with D
alone.  The check of the convolution identity,
R(m) = sum_{d|m} (d F_r(d)) (m/d)^r, multiplies the table of m^r by one
Euler factor of d F_r(d) per prime, and shares no code with the sieve.
"""

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice

from .arith import _primes_upto, _Record
from .errors import DomainError, ScaleError
from .products import _R_CAP, _r_local, x_r_value

_SIEVE_CAP = 10**6
_DIRICHLET_CAP = 10**4
_PRIME_BOUND_CAP = 10**7
# r is capped before any sieve or power is built.  The Euler product forms
# p^r for every prime p up to 10^7: alpha_r(256, 10^7) takes about 7 s.
# The cap is ``products._R_CAP``, shared with x_r_value, h_value and g_r_value.
# The sieves hold R(m), about r log2(m) bits, at every m <= x, and the report
# forms x^r in double precision: 10^(6r) < 2^1024 exactly when r <= 51.
_SIEVE_R_CAP = 51

if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
    _coprime_fraction = Fraction._from_coprime_ints
else:

    def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
        """numerator/denominator, for coprime ints with denominator > 0, with no gcd."""
        return Fraction(numerator, denominator, _normalize=False)


def _check_int(name: str, value: int) -> None:
    # exactly an int: a float or a bool would reach the integer arithmetic
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def _check_r(r: int, cap: int, what: str) -> None:
    _check_int("r", r)
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
    _check_r(r, _R_CAP, "Euler factor")
    _check_int("p", p)
    if p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    pr = p**r
    return x_r_value(r, p) - pr, (-1) ** r * pr


def euler_factor(r: int, p: int) -> float:
    """1 + A/p^(r+1) + B/p^(2r+2) for (A, B) = ``euler_factor_data(r, p)``.

    Evaluated in double precision from the exact integer numerator
    p^(r+2) + p A + (-1)^r, since B = (-1)^r p^r; the pair is not built here.
    r is capped at 256, as in ``alpha_r``.
    """
    _check_r(r, _R_CAP, "Euler factor")
    _check_int("p", p)
    if p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    pr = p**r
    den = pr * p * p
    return (den + p * (x_r_value(r, p) - pr) + (-1) ** r) / den


def _check_alpha_args(r: int, prime_bound: int) -> None:
    _check_r(r, _R_CAP, "Euler product")
    _check_int("prime bound", prime_bound)
    if prime_bound < 1:
        raise DomainError(f"prime bound must be >= 1, got {prime_bound}")
    if prime_bound > _PRIME_BOUND_CAP:
        raise ScaleError(f"prime bound capped at <= 10^7, got {prime_bound}")


@lru_cache(maxsize=16, typed=True)
def alpha_r(r: int, prime_bound: int) -> float:
    """Partial Euler product over primes p <= prime_bound.

    Each factor is 1 - u_p with 0 < u_p < min(3/4, (r + 1)/p^2), as it is
    1 - (1 - (1 - 1/p)^r)/p + (-1)^r (p - 1)^2/p^(r+2), since
    p(p-1)h_r(p) - x_r(p) = (-1)^r.  So the partial products decrease to
    alpha_r, and for every r >= 2 the truncation error satisfies
    0 <= alpha_r(r, P) - alpha_r < alpha_r(r, P) * (r + 1)/P, from the
    tail sum of (r + 1)/n^2 over n > P.  The odd-only prime sieve takes
    prime_bound/2 bytes; prime_bound is capped at 10^7 and r at 256.  Each
    product is kept, a float per (r, prime_bound), since reports repeat
    them; the cache is typed, so alpha_r(2.0, 100) misses alpha_r(2, 100)
    and is refused.  The factors
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


def _r_sieve(r: int, x: int) -> list[int]:
    """R(m) = m g_r(m) for every m <= x, as a list over 0..x with R(0) = 0.

    R is multiplicative with R(p) = x_r(p) and, for e >= 2,
    R(p^e) = p^e p^((e-1)(r-1)) (p-1) h_r(p), so R(p^(e+1)) = p^r R(p^e).
    One pass over m = 2..x, with p = spf[m] or m the smallest prime factor
    from ``_spf_table``: R(m) = R(m/p) R(p) when p divides m once,
    R(m/p^2) R(p^2) when twice, and R(m/p) p^r when at least three times.
    R(p^2) comes from ``products._r_local``; R(p) is its e = 1 case,
    x_r(p) = (p-1)^r + (-1)^r (p-2), written out here so that no call or
    cap check is paid per prime: the callers have checked r already.
    """
    spf = _spf_table(x)
    primes = _primes_upto(x)
    small = primes[: bisect_right(primes, math.isqrt(x))]
    sign = (-1) ** r
    at_p = {p: (p - 1) ** r + sign * (p - 2) for p in primes}
    at_p2 = {p: _r_local(p, (2,) * r) for p in small}
    step = {p: p**r for p in small}
    out = [0] * (x + 1)
    out[1] = 1
    for m in range(2, x + 1):
        p = spf[m] or m
        n = m // p
        if n % p:
            out[m] = out[n] * at_p[p]
        elif (k := n // p) % p:
            out[m] = out[k] * at_p2[p]
        else:
            out[m] = out[n] * step[p]
    return out


def _check_sieve_args(r: int, x: int) -> None:
    _check_r(r, _SIEVE_R_CAP, "sieve")
    _check_int("x", x)
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
    big_r = _r_sieve(r, x)
    return [Fraction(0)] + [Fraction(big_r[m], m) for m in range(1, x + 1)]


def dirichlet_decomposition_check(r: int, m_bound: int) -> bool:
    """Verify g_r(m) = sum_{d|m} F_r(d) (m/d)^(r-1) exactly for m <= m_bound.

    F_r is multiplicative and vanishes on cubes.  The identity is checked
    in integers, times m: R(m) = m g_r(m) from the sieve against the
    Dirichlet product of d F_r(d) and id_r, whose series is that of id_r
    times 1 + a p^-s + b p^-2s over the primes, with (a, b) the closed
    forms of ``euler_factor_data(r, p)``, which do not read the sieve's
    h_r(p).  Each factor goes into the table of k^r as two strided slice
    updates, along the multiples of p and of p^2, that read a copy of the
    table's head, so no table of d F_r(d) is formed and no code is shared
    with the sieve.  Returns False on any mismatch.
    """
    _check_r(r, _SIEVE_R_CAP, "decomposition check")
    _check_int("m_bound", m_bound)
    if m_bound < 1:
        raise DomainError(f"m_bound must be >= 1, got {m_bound}")
    if m_bound > _DIRICHLET_CAP:
        raise ScaleError(f"decomposition check capped at m <= 10^4, got {m_bound}")

    conv = [k**r for k in range(m_bound + 1)]
    for p in _primes_upto(m_bound):
        a, b = euler_factor_data(r, p)
        head = conv[: m_bound // p + 1]
        conv[p::p] = [t + a * h for t, h in zip(conv[p::p], islice(head, 1, None))]
        if (q := p * p) <= m_bound:
            conv[q::q] = [t + b * h for t, h in zip(conv[q::q], islice(head, 1, None))]
    return conv == _r_sieve(r, m_bound)


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
    (g_r(p^e) = R(p^e)/p^e is an integer for e >= 2), so for smooth m it
    divides D, the product of the primes p <= s, and both halves are
    summed as integers, D times their value.

    The smooth half is D + F(x, 0), by a recursion over the smallest prime
    factor.  With p_0 < p_1 < ... the primes up to s, F(v, j) is D times
    the sum of g_r(k) over 1 < k <= v with every prime factor in [p_j, s].
    Such a k is a prime p_i <= min(v, s), or its smallest prime p_i has
    p_i^2 <= k <= v.  The primes are the leaf: D g_r(p_i) summed over
    i >= j, one difference of prefix sums.  The others are walked for
    each i >= j up to the first p_i^2 > v, where the recursion stops.
    With p = p_i and k = p^e k', the primes of k' in [p_(i+1), s], they add
    g_r(p^e) F(v // p^e, i + 1) + D g_r(p^(e+1)) for each e >= 1 with
    p^(e+1) <= v; a larger p^e leaves no room for k' or for p^(e+1).  For
    e >= 2 each g_r(p^e) is an integer: g_r(p^2) = R(p^2)/p^2 from
    ``products._r_local``, and each further power multiplies it by
    p^(r-1).  At e = 1, g_r(p) = x_r(p)/p, and F(v // p, i + 1) is a
    multiple of p: it is D times a sum of g_r(k') whose denominators
    divide the product of the primes in (p, s], so it is a multiple of
    every prime up to p.  The recursion runs down an explicit stack.  A
    node F(v, j) is reached with a weight c/q, the product of the factors
    g_r(p^e) on its path, where q is the product of the primes taken once
    (g_r(p) = x_r(p)/p), and adds c (L // q), where L is the node's own
    part: its leaf and its terms D g_r(p^(e+1)).  The division is exact by the same argument: L
    is D times a sum of g_r over numbers whose primes lie in [p_j, s], and
    the primes of q are distinct and below p_j.  The prefix N = D S at
    every k <= s is recorded by the same walk: each node carries k, the
    product of the prime powers on its path (v = x // k, c/q = g_r(k)),
    and every k <= s is reached as a node, which records
    D g_r(k) = c (D // q).
    The work grows with the recursion's nodes (850 at x = 30367), not with
    the smooth m (11145 there); nothing x-sized is held but the primes,
    and no reference cycle is left for the garbage collector.

    Each large prime adds one divmod of x_r(p) N(x // p) by p: the
    quotient goes to a running integer W and the residue c_p/p to a
    product tree (binary splitting) that sums them into one fraction C/P,
    P the product of the large p with c_p != 0, and the sum is
    (W P + C)/(D P).

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
    small = primes[:cut]
    d = math.prod(small)
    sign = (-1) ** r
    # x_r(p) = R(p) for every prime, listed up to s and read on for the rest
    xrs = ((p - 1) ** r + sign * (p - 2) for p in primes)
    xr = list(islice(xrs, cut))
    at_p2 = [_r_local(p, (2,) * r) // (p * p) for p in small]  # g_r(p^2)
    steps = [p ** (r - 1) for p in small]
    leaf = [0, *accumulate(d // p * xp for p, xp in zip(small, xr))]

    # F(x, 0): each node (v, k, j, c, q) adds c (L // q), records D g_r(k)
    # at k <= s and pushes its children
    whole = d
    scaled = [0] * (s + 1)
    stack = [(x, 1, 0, 1, 1)]
    while stack:
        v, k, j, c, q = stack.pop()
        if k <= s:
            scaled[k] = c * (d // q)
        local = leaf[bisect_right(small, v)] - leaf[j]
        for i in range(j, cut):
            p = small[i]
            if p * p > v:
                break
            g = at_p2[i]
            local += d * g
            stack.append((v // p, k * p, i + 1, c * xr[i], q * p))
            w, kp = v // p // p, k * p * p
            while w >= p:
                stack.append((w, kp, i + 1, c * g, q))
                g *= steps[i]
                local += d * g
                w //= p
                kp *= p
        whole += c * (local // q)

    prefix = list(accumulate(scaled))
    terms = []
    for p, xp in zip(islice(primes, cut, None), xrs):
        carry, c = divmod(xp * prefix[x // p], p)
        whole += carry
        if c:
            terms.append((c, p))
    num, den = _sum_by_product_tree(terms)
    total = whole * den + num
    g = math.gcd(total % d, d)
    return _coprime_fraction(total // g, d // g * den)
