"""Exact integer number theory primitives.

Factorization, divisors, mu and phi, moduli tuples with their prime
profiles, and a generic evaluator for multiplicative functions of several
variables.  Everything is exact, in unbounded Python integers.
"""

import math
from functools import lru_cache
from itertools import compress

from .errors import DomainError, ScaleError


class _Record:
    """Base of the immutable records, equal and hashed by their fields in order.

    A subclass names its fields in ``__slots__ = _fields = (...)``; its own
    constructor fills them through ``_setters``, as assigning to a record raises.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._setters = tuple([getattr(cls, f).__set__ for f in cls._fields])

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FactoredNat(_Record):
    """A positive integer together with its canonical prime factorization.

    ``factors`` lists ``(prime, exponent)`` pairs with strictly increasing
    primes and exponents >= 1; the empty tuple represents 1.
    """

    __slots__ = _fields = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        if value < 1:
            raise DomainError(f"positive integer required, got {value}")
        acc = prev = 1
        for p, e in factors:
            if p <= prev or e < 1:
                raise DomainError("factors must list increasing primes with exponents >= 1")
            prev = p
            acc *= p**e
        if acc != value:
            raise DomainError(f"factor product {acc} does not reconstruct {value}")
        set_value, set_factors = self._setters
        set_value(self, value)
        set_factors(self, factors)


# Increments of the mod-30 wheel, starting from 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)
# After the blocks of primes up to 1021 (``_TRIAL_BLOCKS``), the wheel
# resumes at 1031 = 11 (mod 30), whose next increment is _WHEEL[1].
_WHEEL_RESUME = 1031
# Trial division stops at this bound; a cofactor with no prime factor
# below it goes to Miller-Rabin and Pollard-Brent rho.
_TRIAL_BOUND = 1 << 20
_TRIAL_SQUARE = _TRIAL_BOUND**2
# Strong probable primes to the first 13 prime bases are prime below
# _MR_EXACT (Sorenson & Webster, "Strong pseudoprimes to twelve prime
# bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981
# Iterations of x -> x^2 + c that one factorization may spend in rho:
# about 0.5 s on a 2-core x86_64 machine.  Rho's expected steps grow as
# the square root of the factor it finds, so factors up to about 2^40 fit.
_RHO_STEPS = 1 << 21


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> FactoredNat:
    """Factor ``n >= 1`` exactly.

    Trial division finds every prime factor below 2^20, so a modulus
    below 2^40 needs nothing else: 2, 3 and 5 one by one; then the primes
    7-61, 67-251 and 257-1021 a block at a time, one gcd of the cofactor
    with the block's product each (D. J. Bernstein, "How to find smooth
    parts of integers", 2004), dividing the cofactor only by the primes of
    that gcd; then a 2-3-5 wheel from 1031.  A cofactor below the square
    of the next prime to try is 1 or prime, and ends the search.  A larger
    cofactor is proven prime by deterministic Miller-Rabin or split by
    Pollard-Brent rho under a step budget; ScaleError when that budget
    runs out or a cofactor above 3.3 * 10^24 is a probable prime that
    cannot be proven.
    """
    if n < 1:
        raise DomainError(f"cannot factor {n}: positive integer required")
    m = n
    factors = []
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    for square, primes, product in _TRIAL_BLOCKS:
        if m < square:
            break
        g = math.gcd(m, product)
        if g == 1:
            continue
        found = []
        for p in primes:
            if p * p > g:
                break
            if g % p == 0:
                found.append(p)
                g //= p
        if g > 1:  # what is left of the gcd is one prime, the block's last
            found.append(g)
        for p in found:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    f, i = _WHEEL_RESUME, 1
    top = min(m, _TRIAL_SQUARE)  # one comparison a step: f * f <= m and f <= _TRIAL_BOUND
    while f * f <= top:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            factors.append((f, e))
            top = min(m, _TRIAL_SQUARE)
        f += _WHEEL[i]
        i = (i + 1) & 7
    if f * f > m:
        if m > 1:
            factors.append((m, 1))
    else:
        factors += _large_factors(n, m)
    return FactoredNat(n, tuple(factors))


def _is_probable_prime(n: int) -> bool:
    """Whether the odd n > 41 is a strong probable prime to every base in _MR_BASES."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, c: int, steps: int):
    """(g, steps used): g a divisor of the odd composite n found by Brent's cycle
    search on x -> x^2 + c (n when it fails), None when ``steps`` would be passed."""
    gcd = math.gcd
    y, r, q, g, used = 2, 1, 1, 1, 0
    while g == 1:
        if used + 2 * r > steps:
            return None, used
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        used += 2 * r
        r *= 2
    if g == n:  # the batch overshot: retrace it one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g, used


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 1, by Newton's iteration from above."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(x: int) -> tuple[int, int] | None:
    """(y, k) with x = y^k for the least prime k, or None, for x without a prime factor below 2^20.

    Such a y is at least 2^20, so k runs over the primes up to log2(x) / 20.
    """
    for k in range(2, x.bit_length() // 20 + 1):
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            y = _iroot(x, k)
            if y**k == x:
                return y, k
    return None


def _large_factors(n: int, m: int) -> list[tuple[int, int]]:
    """The factorization of the cofactor m of n, which has no prime factor below _TRIAL_BOUND."""
    primes, stack, budget = [], [m], _RHO_STEPS
    while stack:
        x = stack.pop()
        if _is_probable_prime(x):
            if x >= _MR_EXACT:
                raise ScaleError(f"cannot prove the factor {x} of {n} prime: above 3.3*10^24")
            primes.append(x)
            continue
        power = _perfect_power(x)
        if power:
            root, k = power
            stack += [root] * k
            continue
        c, g = 1, x
        while g == x:
            g, used = _rho(x, c, budget)
            if g is None:
                raise ScaleError(f"cannot factor {n}: no factor of {x} within {_RHO_STEPS} rho steps")
            budget -= used
            c += 1
        stack += [g, x // g]
    return sorted((p, primes.count(p)) for p in set(primes))


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


# The trial-division blocks of ``factorize``: per block the square of its
# least prime, its primes and their product (about 1400 bits for 257-1021).
_TRIAL_BLOCKS = tuple(
    (primes[0] ** 2, primes, math.prod(primes))
    for primes in (
        tuple([p for p in _primes_upto(hi) if p >= lo]) for lo, hi in ((7, 61), (67, 251), (257, 1021))
    )
)


def _as_factored(n) -> FactoredNat:
    return n if isinstance(n, FactoredNat) else factorize(n)


def _valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def divisors(n) -> list[int]:
    """All divisors of ``n`` in increasing order."""
    fn = _as_factored(n)
    divs = [1]
    for p, e in fn.factors:
        pk, powers = 1, []
        for _ in range(e):
            pk *= p
            powers.append(pk)
        divs += [d * q for d in divs for q in powers]
    divs.sort()
    return divs


def mobius(n) -> int:
    """mu(n): 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    fn = _as_factored(n)
    if any(e > 1 for _, e in fn.factors):
        return 0
    return -1 if len(fn.factors) % 2 else 1


def euler_phi(n) -> int:
    """phi(n) = n * prod_{p|n} (1 - 1/p), computed exactly."""
    fn = _as_factored(n)
    out = 1
    for p, e in fn.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


class ModuliTuple(_Record):
    """An ordered tuple of positive moduli with its lcm and prime profile.

    ``profile`` pairs each prime of the lcm with the exponent vector
    (v_p(m_1), ..., v_p(m_r)); the maximum of each vector is v_p(lcm).
    """

    __slots__ = _fields = ("moduli", "lcm", "profile")

    def __init__(self, moduli: tuple[int, ...], lcm: FactoredNat, profile: tuple):
        set_moduli, set_lcm, set_profile = self._setters
        set_moduli(self, moduli)
        set_lcm(self, lcm)
        set_profile(self, profile)

    def __len__(self) -> int:
        return len(self.moduli)


def moduli_tuple(moduli) -> ModuliTuple:
    """A :class:`ModuliTuple` of positive integers, each valuation read off by division; a ModuliTuple is kept.

    A modulus must be an ``int``: a float, a bool, a string or any other
    object is a DomainError, as is a ``moduli`` that is not iterable.
    """
    if isinstance(moduli, ModuliTuple):
        return moduli
    try:
        ms = tuple(moduli)
    except TypeError:
        raise DomainError(f"moduli must be a sequence of integers, not {type(moduli).__name__}") from None
    for m in ms:
        if m.__class__ is not int:
            raise DomainError(f"moduli must be integers, got {type(m).__name__} {m!r}")
    if not ms:
        raise DomainError("at least one modulus required")
    if min(ms) < 1:
        raise DomainError(f"moduli must be positive, got {ms}")
    if len(ms) == 1:
        flcm = factorize(ms[0])
        return ModuliTuple(ms, flcm, tuple([(p, (e,)) for p, e in flcm.factors]))
    flcm = factorize(math.lcm(*ms))
    profile = []
    for p, _ in flcm.factors:
        evec = []
        for m in ms:
            e = 0
            while not m % p:
                m //= p
                e += 1
            evec.append(e)
        profile.append((p, tuple(evec)))
    return ModuliTuple(ms, flcm, tuple(profile))


def multiplicative_eval(local_rule, moduli):
    """Evaluate a multiplicative function of several variables.

    ``local_rule(p, (e_1, ..., e_r))`` must return the function's value on
    the prime-power tuple (p^e_1, ..., p^e_r) and must equal 1 on the
    all-zero exponent vector.  The result is the product of local values
    over the primes of lcm(moduli); for the all-ones tuple the empty
    product gives 1.
    """
    mt = moduli_tuple(moduli)
    out = 1
    for p, evec in mt.profile:
        out = out * local_rule(p, evec)
    return out
