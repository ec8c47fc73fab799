"""Integer polynomials mod n and root counting for congruence systems.

A system G = (g_1, ..., g_r) of integer polynomials paired with moduli
(m_1, ..., m_r) defines the simultaneous congruences g_i(x) = 0 (mod m_i).
``count_roots`` counts solutions x mod lcm(m_1, ..., m_r), optionally
restricted to x coprime to every m_i; both a direct residue scan and a
prime-by-prime multiplicative strategy are provided and must agree.  The
multiplicative strategy's local counts lift the common roots mod p along
a Hensel tree instead of scanning residues (``_local_root_count``).  The
local factors of the product sums in ``products`` walk the same tree:
``_local_class_sum`` sums over the classes on which the valuations
v_p(g_i(x)) are constant.  ``_local_class_sum`` is cached under a
canonical form of the local system (``_canonical_local``), so equivalent
systems share one walk; ``_local_root_count`` is cached under the
system's own coefficients, which ``count_roots`` and the mu-convolution
both pass, since with the root cache in place a repeated tree costs less
than a canonical key.  Both walks read two smaller caches:
``_condition``, each condition with its content stripped, and
``_fp_roots``, the common roots mod p of conditions reduced mod p,
whichever way they are found.  Neither keeps a polynomial above degree
64.  A lone condition h0 + h1 x with p not dividing h1 takes neither
path: its root is one modular inverse (``_linear_root``).

``poly_values_mod`` is the one per-residue value kernel of the
definitional scans (the direct root count here and the oracle rows of
``products`` that are not linear): it tabulates g(x) mod n at every x by
forward differences in C-level iterators, exact sums over a difference
table reduced mod n with one reduction per value, and ``poly_eval_mod``
stays the per-point Horner reference.  The multiplicative strategy never
calls it.
"""

import math
from functools import lru_cache
from itertools import accumulate, compress, cycle, islice, repeat
from operator import mod, mul

from .arith import ModuliTuple, _Record, moduli_tuple
from .errors import DomainError, PolynomialSyntaxError, ScaleError

_DIRECT_SCAN_CAP = 10**6
_DEGREE_CAP = 10**6
_DIGIT_CAP = 4300  # CPython's default limit for int() of a decimal string


class IntPolynomial(_Record):
    """Integer-coefficient polynomial; ``coeffs`` is constant-term first.

    Canonical form has no trailing zero coefficients; the zero polynomial
    is the empty tuple.  Weakly referenceable.
    """

    __slots__ = ("coeffs", "__weakref__")
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if coeffs and coeffs[-1] == 0:
            raise DomainError("coefficients must not end in zero; strip to canonical form")
        self._setters[0](self, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def linear_shift_poly(a: int) -> IntPolynomial:
    """The polynomial x - a."""
    return IntPolynomial((-a, 1))


def _as_poly(g) -> IntPolynomial:
    """A system element as a polynomial: itself, or the parse of its text."""
    if isinstance(g, str):
        return parse_polynomial(g)
    if isinstance(g, IntPolynomial):
        return g
    raise DomainError(f"a system holds polynomials or their texts, not {type(g).__name__}")


def _elements(system) -> tuple:
    """The elements of a system; a lone polynomial or text is a system of one."""
    if isinstance(system, (IntPolynomial, str)):
        return (system,)
    try:
        items = tuple(system)
    except TypeError:
        raise DomainError(f"a system holds polynomials or their texts, not {type(system).__name__}") from None
    if not items:
        raise DomainError("a system needs at least one polynomial")
    return items


def as_poly_system(system) -> tuple[IntPolynomial, ...]:
    """Coerce a polynomial, a string, or a sequence of either to a tuple of polynomials.

    A string is parsed by ``parse_polynomial``, which parses each short,
    low-degree text once; any other element is a DomainError.
    """
    return tuple([_as_poly(g) for g in _elements(system)])


def as_system_and_moduli(system, moduli) -> tuple[tuple[tuple[int, ...], ...], ModuliTuple]:
    """The coefficient tuples of a system and its moduli, one modulus per polynomial.

    The coefficients, constant term first, are the key that every route
    reads: the root counts, the class walk, the mu-convolution and the
    definitional oracles.  The system is coerced as ``as_poly_system``
    does, without building its tuple of polynomials.
    """
    key = tuple([_as_poly(g).coeffs for g in _elements(system)])
    mt = moduli_tuple(moduli)
    if len(key) != len(mt):
        raise DomainError(f"{len(key)} polynomials but {len(mt)} moduli")
    return key, mt


class RootCount(_Record):
    """The number ``count`` of roots of a congruence system mod ``modulus``."""

    __slots__ = _fields = ("count", "modulus")

    def __init__(self, count: int, modulus: int):
        if not 0 <= count <= modulus:
            raise DomainError(f"count {count} outside [0, {modulus}]")
        set_count, set_modulus = self._setters
        set_count(self, count)
        set_modulus(self, modulus)


# Parses of texts of at most this many characters and degree at most
# _DIFFERENCE_MAX_DEGREE are kept: an entry holds at most 65 coefficients
# of at most 256 digits together, under 4 kB, so the cache stays under 2 MB.
_PARSE_CACHE_TEXT = 256


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse e.g. "x^2-1", "-2x^3+x-7", "2x-1", "5".

    Grammar: terms joined by '+'/'-', each term an optional integer
    coefficient followed by an optional 'x' with an optional '^' power;
    implicit multiplication as in "2x"; whitespace is insignificant;
    'x' is the only variable.  Raises :class:`PolynomialSyntaxError`
    with the offending position on malformed input, and
    :class:`ScaleError` for a degree above 10^6 (the coefficients are
    stored densely) or an integer of more than 4300 digits.

    Short texts of degree at most 64 are parsed once and the (frozen)
    result is shared; longer or higher-degree texts are parsed on every
    call and never kept.
    """
    if len(text) <= _PARSE_CACHE_TEXT:
        poly = _parse_short(text)
        if poly is not None:
            return poly
    return _parse(text, _DEGREE_CAP)


@lru_cache(maxsize=512)
def _parse_short(text: str) -> IntPolynomial | None:
    """``_parse`` of a short text, or None (kept small) above degree 64."""
    return _parse(text, _DIFFERENCE_MAX_DEGREE)


def _parse(text: str, max_degree: int) -> IntPolynomial | None:
    """The parser behind ``parse_polynomial``.

    Returns None, before laying out the coefficients, when the degree is
    within the 10^6 cap but above ``max_degree``.
    """
    s = text
    n = len(s)

    def skip_ws(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    def read_int(i: int) -> tuple[int | None, int]:
        j = i
        while j < n and s[j].isdigit():
            j += 1
        if j - i > _DIGIT_CAP:
            raise ScaleError(f"integer of {j - i} digits at position {i}, capped at <= 4300 digits")
        return (int(s[i:j]) if j > i else None, j)

    coeffs: dict[int, int] = {}
    i = skip_ws(0)
    if i == n:
        raise PolynomialSyntaxError("empty polynomial", i)
    first = True
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise PolynomialSyntaxError("expected '+' or '-' between terms", i)
        first = False
        num, i = read_int(i)
        i = skip_ws(i)
        if i < n and s[i] == "x":
            i = skip_ws(i + 1)
            exp = 1
            if i < n and s[i] == "^":
                i = skip_ws(i + 1)
                exp, i = read_int(i)
                if exp is None:
                    raise PolynomialSyntaxError("expected exponent digits after '^'", i)
        elif num is None:
            raise PolynomialSyntaxError("expected a coefficient or 'x'", i)
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * (1 if num is None else num)
        i = skip_ws(i)
    deg = max((e for e, c in coeffs.items() if c), default=-1)
    if deg > _DEGREE_CAP:
        shown = str(deg) if deg < 10**60 else f"a degree of {len(str(deg))} digits"
        raise ScaleError(f"polynomial degree capped at <= 10^6, got {shown}")
    if deg > max_degree:
        return None
    return IntPolynomial(tuple(coeffs.get(e, 0) for e in range(deg + 1)))


def poly_eval_mod(g: IntPolynomial, x: int, n: int) -> int:
    """g(x) mod n by Horner's rule, reducing every intermediate value."""
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    acc = 0
    for c in reversed(g.coeffs):
        acc = (acc * x + c) % n
    return acc


# Forward differences nest one C-level iterator per degree, and each value
# recurses through every level: a nest of 60000 overflows the C stack.
# Against Horner's rule at n = 10^4 and 10007 they cost 0.3x at degree 2,
# 0.75-0.8x at degree 16 and 0.9-1.2x from degree 32 to 200, so past this
# cut-off Horner's rule loses nothing.
_DIFFERENCE_MAX_DEGREE = 64
# Horner costs about 26 ns a step; degree 64 at n = 10^6 stays under this.
_VALUES_WORK_CAP = 10**8
# The difference table is reduced mod n and the nest then runs in exact
# integers, so its running sums stay at most n^(deg+1) whatever the
# coefficients, and each value is reduced once.  Against a nest that
# reduces every level it cost 0.3-0.9x at degrees 1 to 64, n = 10^3 to
# 10^6, coefficients of 4 to 400 bits (2-core x86_64, Python 3.11).


def poly_values_mod(g: IntPolynomial, n: int):
    """An iterator over g(x) mod n for x = 0, 1, ..., n-1.

    Tabulates by forward differences (Knuth, TAOCP vol. 2, 4.6.4): from
    g(0..d) mod n, d = deg g, take the differences Delta^k g(0) mod n and
    rebuild each level k - 1 as the running sums of level k, starting at
    Delta^(k-1) g(0); the top level Delta^d g is constant, so level d - 1
    is an arithmetic progression.  The levels are nested C-level
    iterators over exact integers, and each value is reduced mod n once,
    so every residue is still evaluated, with no Python-level call per
    residue.  A polynomial of degree >= n or above 64 is evaluated by
    Horner's rule at each x.  Raises :class:`ScaleError` when n * deg g
    exceeds 10^8, at call time rather than while iterating.
    """
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    d = g.degree
    if n * d > _VALUES_WORK_CAP:
        raise ScaleError(f"residue scan capped at n * degree <= 10^8, got {n} * {d}")
    if d <= 0:
        return repeat(poly_eval_mod(g, 0, n), n)
    if d >= n or d > _DIFFERENCE_MAX_DEGREE:
        return (poly_eval_mod(g, x, n) for x in range(n))
    level = [poly_eval_mod(g, x, n) for x in range(d + 1)]
    starts = []
    for _ in range(d):
        starts.append(level[0])
        level = [(b - a) % n for a, b in zip(level, level[1:])]
    step = level[0] or n  # Delta^d g mod n, as a nonzero step
    top = starts.pop()
    values = range(top, top + step * (n - d + 1), step)
    for start in reversed(starts):
        values = accumulate(values, initial=start)
    return map(mod, values, repeat(n))


def _unit_mask(fm) -> bytes:
    """One byte per residue x mod n = fm.value: 1 where gcd(x, n) = 1, else 0."""
    n = fm.value
    mask = bytearray(b"\x01") * n
    for p, _ in fm.factors:
        mask[::p] = bytes(len(range(0, n, p)))
    return bytes(mask)


def _residue_product(rows):
    """The termwise product of periodic rows over one period of their lcm, lazily.

    Row i holds a function of x mod len(row i).  After row i the running
    product has period lcm(len(row 1), ..., len(row i)), so the product so
    far is cycled only when row i grows that period, and row i only when
    it is shorter than the period.
    """
    first, *rest = rows
    terms, period = first, len(first)
    for row in rest:
        n = len(row)
        grown = math.lcm(period, n)
        if grown > period:
            terms, period = islice(cycle(terms), grown), grown
        terms = map(mul, terms, row if n == period else cycle(row))
    return terms


# ---------------------------------------------------------------------------
# local root counts: common roots mod p, lifted along a Hensel tree
#
# Polynomials over F_p are coefficient lists, constant term first, with
# entries in [0, p) and no trailing zeros.


def _fp_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_eval(f: list, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _fp_monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# One power base^e mod f or one gcd over F_p takes at most this many
# schoolbook steps: a product's coefficient multiplications and a
# division's row updates, each row deg f of them, counted as they come.
# Dense, a multiply-reduce takes 2 deg(f)^2 of them and x^p mod f about
# 1.5 log2(p) multiply-reduces: at degree 2000 and p = 10^9 + 7 one root
# finding took 36 s, and this cap is about 3 s (2-core x86_64).  At
# degree 64 and p < 3.3 * 10^24 (82 bits), the largest p that
# ``factorize`` proves prime, a power takes under 1.4 * 10^6 steps and a
# gcd under 4300, so every choice up to degree 64 keeps its answer.  A
# sparse f of high degree whose powers stay sparse (x^20000 + x + 1 at
# p = 10^6 + 3, about 3 * 10^6 steps in all) keeps its answer too.
_FP_STEPS = 2 * 10**7


class _Steps:
    """The schoolbook steps left to one F_p power or gcd; ``ScaleError`` once they run out."""

    __slots__ = ("left", "p", "degree")

    def __init__(self, p: int, degree: int):
        self.left, self.p, self.degree = _FP_STEPS, p, degree

    def spend(self, n: int) -> None:
        self.left -= n
        if self.left < 0:
            raise ScaleError(
                f"roots mod {self.p} at degree {self.degree}: a power or gcd over F_p "
                "capped at 2*10^7 schoolbook steps"
            )


def _fp_divmod(a: list, f: list, p: int, steps: _Steps | None = None) -> tuple[list, list]:
    """(a // f, a mod f) over F_p, f monic; the remainder has no trailing zeros.

    Division in place: step i leaves the quotient's coefficient of
    x^(i - deg f) at a[i] and reduces only the entries below it.  Each
    nonzero quotient coefficient spends deg f of ``steps``, if given.
    """
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        q = a[i]
        if q:
            if steps is not None:
                steps.spend(df)
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - q * f[j]) % p
    return a[df:], _fp_trim(a[:df])


def _fp_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over F_p of two nonzero polynomials, within ``_FP_STEPS``."""
    steps = _Steps(p, max(len(a), len(b)) - 1)
    a, b = _fp_monic(a, p), _fp_monic(b, p)
    while len(b) > 1:
        a, b = b, _fp_divmod(a, b, p, steps)[1]
        if not b:
            return a
        b = _fp_monic(b, p)
    return b


def _fp_mulmod(a: list, b: list, f: list, p: int, steps: _Steps) -> list:
    """a * b mod f over F_p; the product spends len(b) of ``steps`` per nonzero a_i, first."""
    steps.spend((len(a) - a.count(0)) * len(b))
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _fp_divmod([c % p for c in prod], f, p, steps)[1]


def _fp_powmod(base: list, e: int, f: list, p: int) -> list:
    """base^e mod f over F_p, f monic of degree >= 2, within ``_FP_STEPS``."""
    steps = _Steps(p, len(f) - 1)
    out, base = [1], _fp_divmod(base, f, p, steps)[1]
    while e:
        if e & 1:
            out = _fp_mulmod(out, base, f, p, steps)
        e >>= 1
        if e:
            base = _fp_mulmod(base, base, f, p, steps)
    return out


def _fp_split(f: list, p: int) -> list:
    """The roots of a monic f over F_p, p odd, that is a product of distinct x - r.

    Equal-degree splitting with the fixed shifts a = 0, 1, 2, ...: the
    gcd of f with (x + a)^((p-1)/2) - 1 keeps the roots r with r + a a
    nonzero square, and some a < p separates any two roots.
    """
    if len(f) <= 2:
        return [-f[0] % p] if len(f) == 2 else []
    a = 0
    while True:
        if _fp_eval(f, -a % p, p):
            w = _fp_powmod([a, 1], (p - 1) // 2, f, p)
            w[0] = (w[0] - 1) % p
            d = _fp_gcd(f, w, p) if _fp_trim(w) else f
        else:
            d = [a, 1]  # x + a divides f
        if 1 < len(d) < len(f):
            return _fp_split(d, p) + _fp_split(_fp_divmod(f, d, p)[0], p)
        a += 1


def _fp_sqrt(a: int, p: int) -> int:
    """A square root of the nonzero square a mod the odd prime p (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, root = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, root = t * c % p, root * b % p
    return root


def _fp_quadratic_roots(g: list, p: int) -> list:
    """The distinct roots of a monic quadratic g over F_p, p odd."""
    c, b = g[0], g[1]
    disc = (b * b - 4 * c) % p
    half = (p + 1) // 2  # 1/2 mod p
    if not disc:
        return [-b * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _fp_sqrt(disc, p)
    return [(-b + s) * half % p, (-b - s) * half % p]


# A residue scan finds the roots mod p faster than x^p mod f when p is
# below about this multiple of deg(f) * log2(p).
_SCAN_PER_DEGREE_BIT = 4
# A scan costs p * (deg f + 1) Horner steps for the lowest-degree f, and
# runs only within this budget (about 0.1 s).  Up to degree 64 the bound
# above decides alone (p * 65 <= 3072 * 65 < 10^6); a sparse polynomial of
# high degree, such as x^20000 + x + 1 at p = 10^6 + 3, goes to x^p mod f.
_SCAN_STEPS = 10**6
# The per-pass caches of the class walk keep conditions of at most this many
# coefficients (degree _DIFFERENCE_MAX_DEGREE), as the parse cache does.
_KEPT_LENGTH = 65


def _common_roots(hs, p: int) -> tuple:
    """The x in [0, p) with h(x) = 0 (mod p) for every h in hs; no h vanishes mod p.

    A lone h0 + h1 x with p not dividing h1 has the one root of
    ``_linear_root``, found before any reduction or key.  Otherwise the h
    are reduced mod p and sorted, and the root set is looked up in
    ``_fp_roots`` when every h has degree at most 64.
    """
    if len(hs) == 1:
        h = hs[0]
        if len(h) == 2 and h[1] % p:
            return (_linear_root(h, p),)
    fs = []
    for h in hs:
        f = tuple(map(p.__rmod__, h))
        fs.append(f if f[-1] else tuple(_fp_trim(list(f))))
    if len(fs) > 1:
        fs.sort()
    key = tuple(fs)
    if max(map(len, key)) <= _KEPT_LENGTH:
        return _fp_roots(key, p)
    return _fp_roots.__wrapped__(key, p)


# Bounded: one tabulate pass of the benchmark looks up 165 distinct keys,
# each of at most _KEPT_LENGTH residues mod p per polynomial.
@lru_cache(maxsize=1024)
def _fp_roots(fs: tuple, p: int) -> tuple:
    """The common roots in [0, p) of the polynomials fs over F_p, none of them zero.

    A linear polynomial of least degree gives its one root, checked on
    the others.  At small p a residue scan (``_scan_roots``) finds them;
    otherwise the gcd g of fs is split: directly when of degree at most
    2, else through gcd(g, x^p - x), the product of the distinct x - r
    dividing g.  The least-degree polynomial takes no gcd with itself, so a
    system of one takes none.  Each power and gcd over F_p is capped at
    ``_FP_STEPS`` (``ScaleError``).
    """
    low = min(fs, key=len)
    if len(low) == 2:
        root = _linear_root(low, p)
        return () if len(fs) > 1 and any(_fp_eval(f, root, p) for f in fs) else (root,)
    if len(low) == 1:
        return ()
    if p <= _SCAN_PER_DEGREE_BIT * (len(low) - 1) * p.bit_length() and p * len(low) <= _SCAN_STEPS:
        return _scan_roots(fs, p)
    g = _fp_monic(low, p)
    for f in fs:
        if f is not low:
            g = _fp_gcd(g, f, p)
            if len(g) == 1:
                return ()
    if len(g) == 2:
        return (-g[0] % p,)
    if len(g) == 3 and p > 2:
        return tuple(_fp_quadratic_roots(g, p))
    xp = _fp_powmod([0, 1], p, g, p)
    xp += [0] * (2 - len(xp))
    xp[1] = (xp[1] - 1) % p
    return tuple(_fp_split(_fp_gcd(g, xp, p) if _fp_trim(xp) else g, p))


def _linear_root(h, p: int) -> int:
    """The root in [0, p) of h0 + h1 x over F_p, p not dividing h1."""
    return -h[0] * pow(h[1], -1, p) % p


def _scan_roots(fs: tuple, p: int) -> tuple:
    """The common roots in [0, p) of the polynomials fs over F_p, by a scan of every residue.

    Only the lowest-degree polynomial is evaluated at every residue; the
    others only at its roots.
    """
    low, *rest = sorted(fs, key=len)
    roots = [x for x in range(p) if not _fp_eval(low, x, p)]
    return tuple([x for x in roots if not any(_fp_eval(f, x, p) for f in rest)])


def _strip(coeffs, m: int):
    """Divide the condition h = 0 (mod m) by the content gcd(m, coeffs).

    Returns (coefficients mod m', m') with some coefficient a unit mod p,
    or None when the condition holds for every x.
    """
    g = math.gcd(m, *coeffs)
    if g == m:
        return None
    if g == 1:
        return [c % m for c in coeffs], m
    m //= g
    return [c // g % m for c in coeffs], m


def _lift(h, r: int, p: int, m: int) -> list:
    """Coefficients of h(r + p*s) in s mod m = p^n; those of s^n and up vanish."""
    out, scale = [], 1
    while h and scale < m:
        acc, quo = 0, []
        for c in reversed(h):  # synthetic division by x - r
            acc = (acc * r + c) % m
            quo.append(acc)
        out.append(quo.pop() * scale % m)
        h = quo[::-1]
        scale *= p
    return out


def _eval_deriv(h, x: int, m: int) -> tuple[int, int]:
    """(h(x), h'(x)) mod m."""
    v = d = 0
    for c in reversed(h):
        d = (d * x + v) % m
        v = (v * x + c) % m
    return v, d


def _newton(h, r: int, p: int, m: int) -> int:
    """The t mod m = p^n with t = r (mod p) and h(t) = 0 (mod m), r a simple root of h mod p."""
    t, q = r, p
    while q < m:
        q = min(q * q, m)
        v, d = _eval_deriv(h, t, q)
        t = (t - v * pow(d, -1, q)) % q
    return t


# Bounded: count_roots and the mu-convolution check route share it, and
# verify --suite oracle asks for thousands of distinct keys.
@lru_cache(maxsize=8192)
def _local_root_count(polys_key, p: int, evec: tuple[int, ...], units_only: bool) -> int:
    """Solutions x mod p^max(evec) of g_i(x) = 0 (mod p^e_i) for all i.

    With ``units_only``, additionally p does not divide x.  evec entries
    of 0 impose no condition.  Exact Hensel-tree count: a node is a class
    x = x0 + p^k t, k <= max(evec), with each active condition rewritten
    as h(t) = 0 (mod p^n) and the content of h stripped; a condition whose
    content reaches p^n holds on the whole class and is dropped.  A node
    without conditions holds p^(max(evec) - k) solutions; otherwise its
    children are the common roots t mod p of the h, at most deg(h mod p)
    of them.  A root t0 that is simple for every h is not descended: by
    Hensel's lemma each h = 0 (mod p^n) then holds on exactly one class
    mod p^n above t0, so the node counts p^(k - n) for the largest n when
    that class (found by Newton's iteration) satisfies the other
    conditions, else nothing.  Below a multiple root every coefficient of
    h(t0 + p t) but the constant one is divisible by p^2, so the child
    either has no roots or strips a content of at least p^2.  The cost
    grows with the number of roots and with max(evec), not with
    p^max(evec).
    """
    top = max(evec)
    conds = [(h, m) for h, m, _ in _conditions(polys_key, p, evec) if m > 1]
    stack = [(conds, top, units_only and top >= 1)]
    total = 0
    while stack:
        conds, k, no_zero = stack.pop()
        if not conds:
            total += p**k - p ** (k - 1) if no_zero else p**k
            continue
        roots = _common_roots([h for h, _ in conds], p)
        if no_zero:
            roots = [r for r in roots if r]
        if max(m for _, m in conds) == p:
            total += len(roots) * p ** (k - 1)
            continue
        for r in roots:
            if all(_eval_deriv(h, r, p)[1] for h, _ in conds):
                # Simple for every condition: each fixes one class mod its
                # modulus, so the finest one holds them all or none.
                h0, m0 = max(conds, key=lambda c: c[1])
                if len(conds) > 1:
                    t = _newton(h0, r, p, m0)
                    if any(_fp_eval(h, t, m) for h, m in conds):
                        continue
                total += p**k // m0
                continue
            lifted = [c for h, m in conds if (c := _strip(_lift(h, r, p, m), m))]
            stack.append((lifted, k - 1, False))
    return total


def _unit_slope(h, p: int) -> bool:
    """Whether h = c0 + c1 x (mod p) with c1 a unit.

    Such an h permutes the residues mod every p^n, and for n >= 1 maps the
    p residues mod p^n of each class mod p^(n-1) onto the p residues mod
    p^n of one class mod p^(n-1): h(u + p^(n-1) j) = h(u) + p^(n-1) j h'(u).
    """
    return len(h) > 1 and h[1] % p != 0 and not any(c % p for c in h[2:])


def _canonical_local(polys_key, p: int, avec: tuple[int, ...]) -> tuple:
    """The local system at p in canonical form: sorted triples (h, m, a).

    The local factor at p depends only on the unordered pairs
    (g_i mod p^a_i, a_i) with a_i >= 1.  So the pairs with a_i = 0 are
    dropped, and each other pair becomes the triple of ``_condition``.
    This is one to one on the pairs, and the triples are sorted together,
    so that permuted systems, g_i shifted by multiples of m_i and moduli 1
    share one key.
    """
    local = _conditions(polys_key, p, avec)
    if len(local) > 1:
        local.sort()
    return tuple(local)


def _conditions(polys_key, p: int, avec: tuple[int, ...]) -> list:
    """The triples of ``_condition`` of the pairs (g_i, a_i) with a_i >= 1, in order."""
    return [
        _condition(g, p, a) if len(g) <= _KEPT_LENGTH else _condition.__wrapped__(g, p, a)
        for g, a in zip(polys_key, avec)
        if a
    ]


# Bounded: one tabulate pass of the benchmark normalizes under 500 distinct
# conditions, each of at most _KEPT_LENGTH coefficients.
@lru_cache(maxsize=2048)
def _condition(g, p: int, a: int) -> tuple:
    """The condition g = 0 (mod p^a), a >= 1, as the class walk starts from it.

    g is reduced mod p^a and written as p^c h with its content
    p^c = gcd(p^a, coefficients) divided out: the triple is (h, m, a) with
    h mod m = p^(a - c) without trailing zeros, or ((), 1, a) when p^a
    divides every coefficient.
    """
    c = _strip(g, p**a)
    if c is None:
        return (), 1, a
    h, m = c
    while not h[-1]:
        h.pop()
    return tuple(h), m, a


# Bounded: one pass of the benchmark's tabulate workload asks for under
# 600 distinct canonical keys.
@lru_cache(maxsize=4096)
def _local_class_sum(local, p: int, units_only: bool) -> int:
    """sum over x mod p^top of prod_i c_{p^a_i}(g_i(x)), top = max a_i.

    ``local`` is the canonical form from ``_canonical_local`` of the pairs
    (g_i, a_i) with a_i >= 1; the dropped a_i = 0 give the factor c_1 = 1.
    With ``units_only`` the sum runs over the x not divisible by p only.
    c_{p^a}(n) is phi(p^a) when p^a divides n, -p^(a-1) when
    v_p(n) = a - 1 and 0 below, so each factor depends only on
    min(v_p(g_i(x)), a_i), and the sum walks the classes on which that
    valuation vector is constant.

    A node is a class x = x0 + p^k t; each open condition carries
    h(t) = g_i(x) / p^c with its content p^c stripped and the remaining
    modulus p^n = p^(a_i - c), and a condition whose content reaches
    p^(a_i) is settled on the class with the factor phi(p^(a_i)).  A digit
    t mod p that is a root of no open h gives every h the valuation 0, so
    all such digits form one lumped class whose factors are -p^(a_i - 1)
    when every n is 1, and which is 0 otherwise.  Only the common roots of
    the conditions with n >= 2 open children, which lift those h along the
    Hensel tree as ``_local_root_count`` does; a condition with n = 1 takes
    phi(p^(a_i)) at its roots and -p^(a_i - 1) elsewhere.  A class sums to
    0 when one condition alone has the largest n and its h has unit slope
    mod p (as below every simple root): h maps each class mod p^(n-1)
    onto one, over which c_{p^a} sums to 0, and the other factors are
    constant there.  The cost grows with r, the roots and top, not with
    p^top or 2^r.
    """
    weight, conds, top = 1, [], 0
    for h, m, a in local:
        phi = p**a - p ** (a - 1)
        if m == 1:
            weight *= phi
        else:
            conds.append((h, m, phi, -(p ** (a - 1))))
        top = max(top, a)
    total = 0
    stack = [(conds, top, weight, units_only)]
    while stack:
        conds, k, w, no_zero = stack.pop()
        if not conds:
            total += w * (p**k - p ** (k - 1) if no_zero else p**k)
            continue
        if not no_zero:
            m_top = max(m for _, m, _, _ in conds)
            tops = [h for h, m, _, _ in conds if m == m_top]
            if len(tops) == 1 and _unit_slope(tops[0], p):
                continue
        # the weight with every last-level condition off its roots; each one
        # rooted at a digit turns its -p^(a-1) into phi(p^a), a factor 1 - p
        rooted, deep = {}, []
        for cond in conds:
            h, m, _, neg = cond
            if m == p:
                w *= neg
                for r in _common_roots((h,), p):
                    rooted[r] = rooted.get(r, 0) + 1
            else:
                deep.append(cond)
        if no_zero:
            rooted.pop(0, None)
        if not deep:
            free = p - len(rooted) - no_zero
            total += w * p ** (k - 1) * (free + sum((1 - p) ** n for n in rooted.values()))
            continue
        for r in _common_roots([h for h, _, _, _ in deep], p):
            if no_zero and not r:
                continue
            cw, child = w * (1 - p) ** rooted.get(r, 0), []
            for h, m, phi, neg in deep:
                c = _strip(_lift(h, r, p, m), m)
                if c is None:
                    cw *= phi
                else:
                    child.append((*c, phi, neg))
            stack.append((child, k - 1, cw, False))
    return total


def count_roots(system, moduli, units_only: bool = False, strategy: str = "multiplicative") -> RootCount:
    """Count x mod lcm(moduli) solving g_i(x) = 0 (mod m_i) for all i.

    ``units_only`` restricts to gcd(x, m_i) = 1 for every i, which is
    equivalent to gcd(x, lcm) = 1.  Strategy "direct" still visits every
    residue: it tabulates g_i(x) mod m_i at every x mod m_i with
    ``poly_values_mod``, marks the zeros, and counts the x mod lcm where
    every mark is set.  "multiplicative" multiplies per-prime local counts,
    each the Hensel-tree count ``_local_root_count`` of the system's
    coefficients at p and the exponent vector of p in the moduli.
    """
    key, mt = as_system_and_moduli(system, moduli)
    m = mt.lcm.value
    if strategy == "direct":
        if m > _DIRECT_SCAN_CAP:
            raise ScaleError(f"direct scan capped at lcm <= 10^6, got {m}")
        values = (poly_values_mod(IntPolynomial(c), mi) for c, mi in zip(key, mt.moduli))
        hits = _residue_product([bytes(map((0).__eq__, row)) for row in values])
        if units_only:
            hits = compress(hits, _unit_mask(mt.lcm))
        return RootCount(sum(hits), m)
    if strategy != "multiplicative":
        raise DomainError(f"unknown strategy {strategy!r}")
    count = 1
    for p, evec in mt.profile:
        count *= _local_root_count(key, p, evec, units_only)
        if count == 0:
            break
    return RootCount(count, m)

