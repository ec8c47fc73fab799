"""Sums of products of Ramanujan sums over residue classes.

For a system G = (g_1, ..., g_r) of integer polynomials and moduli
(m_1, ..., m_r) with m = lcm(m_1, ..., m_r):

  * ``e_g_direct``/``e_g_fast`` compute the averaged full-range sum
    (1/m) * sum_{k=1..m} c_{m_1}(g_1(k)) ... c_{m_r}(g_r(k));
  * ``r_g_direct``/``r_g_fast`` compute the same product summed over the
    k coprime to m (no averaging).

The direct oracles sum that product at every residue.  Each factor is a
row c_{m_i}(g_i(x)), x mod m_i, read off c_{m_i}'s row at the indices
g_i(x) mod m_i.  For a linear a*x + b the indices run b, b + a, b + 2a,
... mod m_i, so the row is c_{m_i}'s row read with stride a mod m_i from
b mod m_i (a rotation for a = 1), an index identity that uses no property
of c_m, in slices while each pass over the row is at least 4 entries long.
A quadratic c0 + c1 x + c2 x^2 with c2 a unit mod m_i satisfies
g(t - x) = g(x) mod m_i for t = -c1/c2, so from m_i = 64 on it is read at
half the residues and the other half in mirror order, another index
identity.  Any other g_i, a quadratic mod a smaller m_i, and a linear of
shorter passes, is read at the values that ``congruences.poly_values_mod``
tabulates by forward differences.

The fast paths evaluate the sums prime by prime.  Since
c_{p^a}(n) = p^a [p^a | n] - p^(a-1) [p^(a-1) | n], each factor at p
depends only on min(v_p(g_i(x)), a_i), and one walk over the classes mod
p^max(a_i) on which those valuations are constant gives the local factor
(``congruences._local_class_sum``, along the Hensel tree of the roots of
the system); its cost grows with r, the number of roots and the
exponents, not with p^e or 2^r.  The paper's mu-weighted divisor-tuple
convolution over root counts, 2^r terms per prime, stays as the
independent check route ``_poly_convolve``.

``e_shift``/``r_shift`` are the sums for the linear system x - a_i, by
the same class walk on the coefficients (-a_i, 1) of
``linear_shift_poly(a_i)``.  The paper's closed forms for adjacent shifts
and pairwise coprime moduli are not a route: ``verify`` and the tests
hold the walk equal to them.  ``r_prime_power`` evaluates the
all-ones-shift function R on prime-power tuples directly.

E_G and R_G are multiplicative in the r moduli, and c_m(a) in m.  So a
table of either over a box [1, n]^r of moduli, or of c_m(a) for m <= n,
is one ``_box_sieve``: each local factor, looked up once per prime and
exponent vector, is multiplied into the cells with those valuations.
"""

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, compress, islice, product as cartesian, repeat
from operator import getitem, mul

from .arith import (
    _as_factored,
    _primes_upto,
    factorize,
    moduli_tuple,
    multiplicative_eval,
)
from .congruences import (
    IntPolynomial,
    _canonical_local,
    _local_class_sum,
    _local_root_count,
    _residue_product,
    _unit_mask,
    as_system_and_moduli,
    poly_values_mod,
)
from .errors import ConsistencyError, DomainError, ScaleError
from .ramanujan import ramanujan_row

_ORACLE_CAP = 10**6


# ---------------------------------------------------------------------------
# definitional oracles


# A linear row read in slices costs one Python-level step per pass over c_m's
# row, read through the index map one C-level step per entry: the slices are
# as fast at 4 entries a pass and twice as fast at 8 (m = 1000 and 17756,
# 2-core x86_64, Python 3.11), so shorter passes go through the map.
_MIN_PASS_LENGTH = 4

# A quadratic read by reflection pays about 2.5 us more than the plain read
# (the shifted polynomial, the inverse of c2 and the mirrored join) and saves
# half the values: it is as fast near m = 64 and 10-20% faster at m = 128
# (2-core x86_64, Python 3.11), so smaller moduli take the plain read.
_MIN_REFLECTED_MODULUS = 64


def _strided_slices(row: tuple, b: int, s: int):
    """Slices of row that join to row[(b + s*x) mod m] for x = 0..m-1.

    Here m = len(row), 0 <= b < m and 0 < s < m.  Each slice is one pass
    over the row, so there are about s of them, or m - s of the reversed
    row when s > m/2.
    """
    m = len(row)
    if 2 * s > m:
        row, b, s = row[::-1], m - 1 - b, m - s
    left = m
    while left:
        part = row[b : b + s * left : s]
        yield part
        left -= len(part)
        b = (b + s * len(part)) % m


def _reflected(h: list, m: int, t: int):
    """g(x) for x = 0..m-1, from h[j] = g(x0 + j) for j = 0..m // 2, when g(t - x) = g(x).

    Here x0 = ceil(t / 2), so g(x0 - i) is g(x0 + i) = h[i] for an even t
    and g(x0 - 1 + i) = h[i - 1] for an odd t.  Going up from x0 the m
    values are h, then h backwards from h[m - m // 2 - 1 - t mod 2] to
    h[1 - t mod 2] (the mirror); the cycle is started at x = 0 and read
    as islices of h and ``reversed(h)``, with no index or copy held.
    """
    half = m // 2
    back = m - half - 1
    first = half - back + (t & 1)
    k = -((t + 1) // 2) % m
    if k <= half:
        return chain(islice(h, k, None), islice(reversed(h), first, first + back), islice(h, k))
    k -= half + 1
    return chain(islice(reversed(h), first + k, first + back), h, islice(reversed(h), first, first + k))


@lru_cache(maxsize=1024)
def _poly_c_values(coeffs: tuple[int, ...], m: int):
    """c_m(g(x)) for x = 0..m-1, as a tuple plus its max abs (at least 1).

    Each value is c_m's row read at g(x) mod m.  A linear a*x + b reads
    the row with stride s = a mod m from b mod m, an index identity that
    uses no property of c_m: a rotation when s = 1, and slices of the
    cycled row while a pass over it is at least 4 entries long.  A
    quadratic c0 + c1*x + c2*x^2 with c2 a unit mod m is symmetric about
    t = -c1/c2 mod m, since g(y) - g(x) = (y - x)(c2 (x + y) + c1): from
    m = 64 on it is read at g(x0 + j) for j <= m // 2, x0 = ceil(t / 2),
    one ``poly_values_mod`` of the shifted g, and the other values are
    those read again in mirror order (``_reflected``).  Any other g, a
    quadratic mod a smaller m, and a linear of shorter passes, reads the
    row at the values of ``poly_values_mod``, looked up one by one at C
    level (``operator.getitem``), with no index table held.  Since
    |c_m(n)| <= phi(m) = c_m(0), the max abs is phi(m) whenever +-phi(m)
    occurs among the entries read, and is scanned for otherwise; slices
    read the entries at the indices = b (mod gcd(a, m)), each as often,
    and the reflected read's half holds every value.
    """
    row = ramanujan_row(m)
    s = coeffs[1] % m if len(coeffs) == 2 else 0
    if s == 1:
        b = coeffs[0] % m
        return row[b:] + row[:b], row[0]
    if s and m // min(s, m - s) >= _MIN_PASS_LENGTH:
        b = coeffs[0] % m
        vals = tuple(chain.from_iterable(_strided_slices(row, b, s)))
        g = math.gcd(s, m)
        seen = row[b % g :: g]
    elif len(coeffs) == 3 and m >= _MIN_REFLECTED_MODULUS and math.gcd(coeffs[2], m) == 1:
        c0, c1, c2 = coeffs
        t = -c1 * pow(c2, -1, m) % m
        x0 = (t + 1) // 2
        shifted = IntPolynomial(((c2 * x0 + c1) * x0 + c0, 2 * c2 * x0 + c1, c2))
        seen = list(map(getitem, repeat(row), islice(poly_values_mod(shifted, m), m // 2 + 1)))
        vals = tuple(_reflected(seen, m, t))
    else:
        vals = seen = tuple(map(getitem, repeat(row), poly_values_mod(IntPolynomial(coeffs), m)))
    top = row[0]
    return vals, top if top in seen or -top in seen else max(1, max(map(abs, seen)))


def _product_sum(key, mt, coprime_only: bool) -> int:
    """sum over residues k mod m of prod_i c_{m_i}(g_i(k)), exactly.

    ``key`` holds the coefficient tuples of the g_i.  The cached rows
    c_{m_i}(g_i(x)), x mod m_i, are multiplied term by term in unbounded
    Python integers, as one lazy chain that cycles the product so far only
    when a row grows its period (``_residue_product``).
    """
    terms = _residue_product([_poly_c_values(c, mi)[0] for c, mi in zip(key, mt.moduli)])
    if coprime_only:
        terms = compress(terms, _unit_mask(mt.lcm))
    return sum(terms)


def _oracle_args(system, moduli):
    """``as_system_and_moduli``, with the definitional oracles' cap on the lcm."""
    key, mt = as_system_and_moduli(system, moduli)
    if mt.lcm.value > _ORACLE_CAP:
        raise ScaleError(f"definitional oracle capped at lcm <= 10^6, got {mt.lcm.value}")
    return key, mt


def e_g_direct(system, moduli) -> int:
    """(1/m) sum_{k=1..m} prod_i c_{m_i}(g_i(k)) by definitional summation.

    The raw sum is always divisible by m; a failed division is an
    internal error, not a property of the input.
    """
    key, mt = _oracle_args(system, moduli)
    m = mt.lcm.value
    raw = _product_sum(key, mt, coprime_only=False)
    q, rem = divmod(raw, m)
    if rem:
        raise ConsistencyError(f"raw sum {raw} not divisible by m={m}")
    return q


def r_g_direct(system, moduli) -> int:
    """sum over k <= m coprime to m of prod_i c_{m_i}(g_i(k))."""
    return _product_sum(*_oracle_args(system, moduli), coprime_only=True)


# ---------------------------------------------------------------------------
# fast paths: one class walk per prime


def _local_factor(key, p: int, avec: tuple[int, ...], coprime: bool) -> int:
    """E_G (or R_G when ``coprime``) on (p^a_1, ..., p^a_r): one local class sum.

    Looked up under its canonical local key, so equivalent systems share
    one walk.  The full-range sum divides it by p^max(avec), an exact
    division.
    """
    local = _local_class_sum(_canonical_local(key, p, avec), p, coprime)
    if not coprime:
        local, rem = divmod(local, p ** max(avec))
        if rem:
            raise ConsistencyError(f"local sum at p={p} not divisible by p^{max(avec)}")
    return local


def _class_product(key, mt, coprime: bool) -> int:
    """The product over the primes p of m of the local factors."""
    out = 1
    for p, avec in mt.profile:
        out *= _local_factor(key, p, avec, coprime)
        if not out:
            break
    return out


def e_g_fast(system, moduli) -> int:
    """Averaged product sum, one class walk per prime of m.

    Equals ``e_g_direct`` everywhere.  The cost grows with r, the number
    of roots of the system and the exponents of m, not with the prime
    powers themselves.  Strings go through ``parse_polynomial``, which
    keeps the parses of short, low-degree texts.
    """
    return _class_product(*as_system_and_moduli(system, moduli), False)


def r_g_fast(system, moduli) -> int:
    """Coprime product sum, one class walk over the units per prime of m.

    Equals ``r_g_direct`` everywhere.  Strings go through
    ``parse_polynomial``, which keeps the parses of short, low-degree texts.
    """
    return _class_product(*as_system_and_moduli(system, moduli), True)


# ---------------------------------------------------------------------------
# the mu-weighted divisor convolution: the independent check route


def _mu_terms(avec):
    """Divisor exponent tuples surviving the mu weights, with their sign.

    For each position only j_i = a_i (sign +) and j_i = a_i - 1 (sign -)
    contribute; yields (jvec, sign) pairs.
    """
    options = []
    for a in avec:
        opts = [(a, 1)]
        if a >= 1:
            opts.append((a - 1, -1))
        options.append(opts)
    for combo in cartesian(*options):
        jvec = tuple(j for j, _ in combo)
        sign = 1
        for _, sg in combo:
            sign *= sg
        yield jvec, sign


def _phi_ratio(p: int, a: int, j: int) -> int:
    """phi(p^a) / phi(p^j) for a >= j >= 0, always an integer."""
    if j >= 1:
        return p ** (a - j)
    return p ** (a - 1) * (p - 1)


def _convolve(mt, root_count, coprime: bool) -> int:
    """The paper's mu-weighted divisor convolution, which the fast paths are checked against.

    ``root_count(p, jvec, coprime)`` counts the roots x mod p^max(jvec)
    of the local system (units only when ``coprime``).  The full-range
    sum weights that count by p^(sum j - max j); the coprime sum weights
    it by p^(sum j) * phi(p^a) / phi(p^max j) with a the top exponent.
    """

    def local(p, avec):
        amax = max(avec)
        acc = 0
        for jvec, sign in _mu_terms(avec):
            n = root_count(p, jvec, coprime)
            if n:
                jmax = max(jvec)
                if coprime:
                    acc += sign * p ** sum(jvec) * n * _phi_ratio(p, amax, jmax)
                else:
                    acc += sign * p ** (sum(jvec) - jmax) * n
        return acc

    return multiplicative_eval(local, mt)


def _poly_convolve(system, moduli, coprime: bool) -> int:
    """E_G (or R_G when ``coprime``) by the mu-weighted convolution over root counts.

    The check route for ``e_g_fast``/``r_g_fast``: 2^r terms per prime,
    each a Hensel-tree root count, and no class walk.
    """
    key, mt = as_system_and_moduli(system, moduli)
    return _convolve(mt, partial(_local_root_count, key), coprime)


# ---------------------------------------------------------------------------
# linear-shift specializations


def _shift_key(shifts) -> tuple:
    """The coefficients (-a_i, 1) of ``linear_shift_poly(a_i)``."""
    return tuple([(-int(a), 1) for a in shifts])


def _shift_args(shifts, moduli):
    """``_shift_key`` of the shifts, and the moduli tuple."""
    key = _shift_key(shifts)
    mt = moduli_tuple(moduli)
    if len(key) != len(mt):
        raise DomainError(f"{len(key)} shifts but {len(mt)} moduli")
    return key, mt


def e_shift(shifts, moduli) -> int:
    """(1/m) sum_{k=1..m} c_{m_1}(k - a_1) ... c_{m_r}(k - a_r).

    The class walk of ``e_g_fast`` on the system x - a_i; for r shifts
    it costs O(r * max exponent) per prime of m.
    """
    return _class_product(*_shift_args(shifts, moduli), False)


def r_shift(shifts, moduli) -> int:
    """sum over k <= m coprime to m of c_{m_1}(k - a_1) ... c_{m_r}(k - a_r).

    The class walk of ``r_g_fast`` over the units, on the system x - a_i.
    """
    return _class_product(*_shift_args(shifts, moduli), True)


# ---------------------------------------------------------------------------
# tables over a box of moduli


def _box_sieve(n: int, r: int, local) -> list:
    """F on every tuple of [1, n]^r, in ``itertools.product`` order, for a multiplicative F.

    ``local(p, avec)`` is F on (p^a_1, ..., p^a_r) for a nonzero exponent
    vector, and F(1, ..., 1) = 1.  Every cell starts at 1 and takes, at
    each prime p <= n, the local factor of its valuation vector at p.
    The table is read as rows along the last modulus, one row per tuple
    of the other r - 1.  Their valuations u at p sort the rows into
    sub-boxes; per u the factors along a row are looked up once, and are
    multiplied in at C level (``map(mul, ...)``): at the multiples of p
    only, one strided slice, when u = 0, and along the whole row
    otherwise.  Nothing is factored, and the work is about
    r n^r sum_{p <= n} 1/p products and n^(r-1) slices per prime.
    """
    table = [1] * n**r
    for p in _primes_upto(n):
        # exps[k - 1] = v_p(k p) for k = 1..n // p
        exps, q, top = [1] * (n // p), p, 1
        while q <= n // p:
            exps[q - 1 :: q] = [e + 1 for e in exps[q - 1 :: q]]
            q *= p
            top += 1
        # axis[m - 1] = v_p(m), and the row starts of each valuation class
        # along each of the first r - 1 moduli
        axis, starts = None, []
        if r > 1:
            axis = [0] * n
            axis[p - 1 :: p] = exps
            classes = [[] for _ in range(top + 1)]
            for i, e in enumerate(axis):
                classes[e].append(i)
            starts = [[[i * n ** (r - 1 - j) for i in cls] for cls in classes] for j in range(r - 1)]
        for u in cartesian(range(top + 1), repeat=r - 1):
            zero = not any(u)
            f = [1 if zero and not e else local(p, (*u, e)) for e in range(top + 1)]
            if f.count(1) == len(f):
                continue
            if zero:
                off, step, factors = p - 1, p, list(map(f.__getitem__, exps))
            else:
                off, step, factors = 0, 1, list(map(f.__getitem__, axis))
            for start in map(sum, cartesian(*[starts[j][e] for j, e in enumerate(u)])):
                cells = slice(start + off, start + n, step)
                table[cells] = map(mul, table[cells], factors)
    return table


def _product_sum_table(key, n: int, coprime: bool) -> list:
    """E_G (or R_G when ``coprime``) of the system ``key`` on every tuple of [1, n]^r.

    One ``_box_sieve`` of the local factors of ``_class_product``: each
    (p, exponent vector) costs one class walk, and no modulus is factored.
    """
    return _box_sieve(n, len(key), partial(_local_factor, key, coprime=coprime))


def _ramanujan_power(a: int, p: int, avec: tuple[int]) -> int:
    """c_{p^e}(a) = p^e [p^e | a] - p^(e-1) [p^(e-1) | a] for avec = (e,)."""
    low = p ** (avec[0] - 1)
    if a % low:
        return 0
    return p * low - low if a % (p * low) == 0 else -low


def _ramanujan_table(a: int, n: int) -> list:
    """c_m(a) for m = 1..n: c_m(a) is multiplicative in m, so one ``_box_sieve`` with r = 1."""
    return _box_sieve(n, 1, partial(_ramanujan_power, a))


# ---------------------------------------------------------------------------
# prime-power closed form and the normalized diagonal function


# x_r(p), h_s(x) and g_r take r (or s) up to this cap, the Euler product's,
# checked before any power is formed: x_r_value(10^6, 7) takes 0.17 s, and
# r = 10^9 would form a power of about 3 * 10^9 bits.
_R_CAP = 256


def _check_r_cap(r: int, what: str) -> None:
    if r > _R_CAP:
        raise ScaleError(f"{what} capped at r <= {_R_CAP}, got {r}")


def h_value(s: int, x: int) -> int:
    """((x-1)^(s-1) + (-1)^s) / x as a checked exact integer division; s <= 256."""
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if s > _R_CAP:
        raise ScaleError(f"h_s capped at s <= {_R_CAP}, got {s}")
    if x == 0:
        raise DomainError("x must be nonzero")
    num = (x - 1) ** (s - 1) + (-1) ** s
    q, rem = divmod(num, x)
    if rem:
        raise ConsistencyError(f"h numerator {num} not divisible by {x}")
    return q


def x_r_value(r: int, p: int) -> int:
    """(p-1)^r + (-1)^r (p-2): R on r copies of a prime p, and p * g_r(p); r <= 256."""
    _check_r_cap(r, "x_r")
    return (p - 1) ** r + (-1) ** r * (p - 2)


# R on (p^e_1, ..., p^e_r) has at most (sum(e_j) + 1) * bit_length(p) bits,
# and is a ScaleError past this many, checked before any power is formed: a
# value of 10^6 bits takes about 0.1 s to form.
_R_BITS = 10**6


def _r_local(p: int, exps: tuple[int, ...]) -> int:
    """R on the prime-power tuple (p^e_1, ..., p^e_r), every e_j >= 1.

    With e the top exponent and s its multiplicity, the value is
    p^(sum(e_j) - r + 1) * (p-1)^(r-s+1) * h_s(p) for e > 1, where
    h_s(x) = ((x-1)^(s-1) + (-1)^s) / x, and x_r(p) for e = 1.  Since
    |h_s(p)| < p^(s-1), the value has at most (sum(e_j) + 1) * bit_length(p)
    bits, capped at 10^6.
    """
    bits = (sum(exps) + 1) * p.bit_length()
    if bits > _R_BITS:
        raise ScaleError(
            f"R on prime powers capped at 10^6 bits, got (sum of exponents + 1) * {p.bit_length()} = {bits}"
        )
    r, e = len(exps), max(exps)
    if e == 1:
        return x_r_value(r, p)
    s = exps.count(e)
    return p ** (sum(exps) - r + 1) * (p - 1) ** (r - s + 1) * h_value(s, p)


def r_prime_power(p: int, exponents) -> int:
    """R on (p^e_1, ..., p^e_r) for a prime p and exponents e_j >= 1."""
    exps = tuple(sorted(map(int, exponents), reverse=True))
    if not exps:
        raise DomainError("at least one exponent required")
    if exps[-1] < 1:
        raise DomainError(f"exponents must be >= 1, got {exps}")
    if factorize(p).factors != ((p, 1),):
        raise DomainError(f"{p} is not prime")
    return _r_local(p, exps)


def g_r_value(r: int, m) -> Fraction:
    """R(m, ..., m) / m (r copies), assembled multiplicatively.

    Not an integer in general: on primes the local value is
    ((p-1)^r + (-1)^r (p-2)) / p.  r is capped at 256.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    _check_r_cap(r, "g_r")
    fm = _as_factored(m)
    out = Fraction(1)
    for p, e in fm.factors:
        out *= Fraction(_r_local(p, (e,) * r), p**e)
    return out
