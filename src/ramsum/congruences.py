"""Integer polynomials mod n and root counting for congruence systems.

A system G = (g_1, ..., g_r) of integer polynomials paired with moduli
(m_1, ..., m_r) defines the simultaneous congruences g_i(x) = 0 (mod m_i).
``count_roots`` counts solutions x mod lcm(m_1, ..., m_r), optionally
restricted to x coprime to every m_i; both a direct residue scan and a
prime-by-prime multiplicative strategy are provided and must agree.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import ModuliTuple, as_moduli_tuple
from .errors import DomainError, PolynomialSyntaxError, ScaleError

_DIRECT_SCAN_CAP = 10**6
_DEGREE_CAP = 10**6


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial; ``coeffs`` is constant-term first.

    Canonical form has no trailing zero coefficients; the zero polynomial
    is the empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise DomainError("coefficients must not end in zero; strip to canonical form")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def linear_shift_poly(a: int) -> IntPolynomial:
    """The polynomial x - a."""
    return IntPolynomial((-a, 1))


@dataclass(frozen=True)
class PolySystem:
    polys: tuple[IntPolynomial, ...]

    def __post_init__(self):
        if not self.polys:
            raise DomainError("a system needs at least one polynomial")

    def __len__(self) -> int:
        return len(self.polys)


def as_poly_system(system) -> PolySystem:
    """Coerce a PolySystem, a polynomial, a string, or a sequence of either."""
    if isinstance(system, PolySystem):
        return system
    if isinstance(system, (IntPolynomial, str)):
        system = (system,)
    polys = tuple(parse_polynomial(g) if isinstance(g, str) else g for g in system)
    return PolySystem(polys)


def as_system_and_moduli(system, moduli) -> tuple[PolySystem, ModuliTuple]:
    """Coerce a system and its moduli, one modulus per polynomial."""
    sys_ = as_poly_system(system)
    mt = as_moduli_tuple(moduli)
    if len(sys_) != len(mt):
        raise DomainError(f"{len(sys_)} polynomials but {len(mt)} moduli")
    return sys_, mt


@dataclass(frozen=True)
class RootCount:
    count: int
    modulus: int

    def __post_init__(self):
        if not 0 <= self.count <= self.modulus:
            raise DomainError(f"count {self.count} outside [0, {self.modulus}]")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse e.g. "x^2-1", "-2x^3+x-7", "2x-1", "5".

    Grammar: terms joined by '+'/'-', each term an optional integer
    coefficient followed by an optional 'x' with an optional '^' power;
    implicit multiplication as in "2x"; whitespace is insignificant;
    'x' is the only variable.  Raises :class:`PolynomialSyntaxError`
    with the offending position on malformed input, and
    :class:`ScaleError` for a degree above 10^6 (the coefficients are
    stored densely).
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
        raise ScaleError(f"polynomial degree capped at <= 10^6, got {deg}")
    return IntPolynomial(tuple(coeffs.get(e, 0) for e in range(deg + 1)))


def poly_eval_mod(g: IntPolynomial, x: int, n: int) -> int:
    """g(x) mod n by Horner's rule, reducing every intermediate value."""
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    acc = 0
    for c in reversed(g.coeffs):
        acc = (acc * x + c) % n
    return acc


@lru_cache(maxsize=None)
def _local_root_count(polys_key, p: int, evec: tuple[int, ...], units_only: bool) -> int:
    """Solutions x mod p^max(evec) of g_i(x) = 0 (mod p^e_i) for all i.

    With ``units_only``, additionally p does not divide x.  Brute residue
    scan; evec entries of 0 impose no condition.
    """
    polys = [IntPolynomial(c) for c in polys_key]
    mods = [p**e for e in evec]
    emax = max(evec)
    require_unit = units_only and emax >= 1  # gcd(x, p^0) = 1 is vacuous
    count = 0
    for x in range(p**emax):
        if require_unit and x % p == 0:
            continue
        if all(e == 0 or poly_eval_mod(g, x, pe) == 0 for g, e, pe in zip(polys, evec, mods)):
            count += 1
    return count


def count_roots(system, moduli, units_only: bool = False, strategy: str = "multiplicative") -> RootCount:
    """Count x mod lcm(moduli) solving g_i(x) = 0 (mod m_i) for all i.

    ``units_only`` restricts to gcd(x, m_i) = 1 for every i, which is
    equivalent to gcd(x, lcm) = 1.  Strategy "direct" scans the full
    residue range; "multiplicative" multiplies per-prime local counts.
    """
    sys_, mt = as_system_and_moduli(system, moduli)
    m = mt.lcm.value
    if strategy == "direct":
        if m > _DIRECT_SCAN_CAP:
            raise ScaleError(f"direct scan capped at lcm <= 10^6, got {m}")
        count = 0
        for x in range(m):
            if units_only and math.gcd(x, m) != 1:
                continue
            if all(poly_eval_mod(g, x, mi) == 0 for g, mi in zip(sys_.polys, mt.moduli)):
                count += 1
        return RootCount(count, m)
    if strategy != "multiplicative":
        raise DomainError(f"unknown strategy {strategy!r}")
    key = tuple(g.coeffs for g in sys_.polys)
    count = 1
    for p, evec in mt.profile:
        count *= _local_root_count(key, p, evec, units_only)
        if count == 0:
            break
    return RootCount(count, m)


def linear_system_root_count(a, d, units_only: bool = False) -> int:
    """Closed-form count for the linear system x = a_i (mod d_i): 0 or 1.

    The system has a (then unique) solution mod lcm(d_i) iff
    gcd(d_i, d_j) | a_i - a_j for all pairs; with ``units_only`` the
    solution additionally counts only if gcd(d_i, a_i) = 1 for all i.
    """
    a = tuple(int(v) for v in a)
    d = tuple(int(v) for v in d)
    if len(a) != len(d):
        raise DomainError(f"{len(a)} residues but {len(d)} moduli")
    if any(di < 1 for di in d):
        raise DomainError(f"moduli must be positive, got {d}")
    if units_only and any(math.gcd(di, ai) != 1 for ai, di in zip(a, d)):
        return 0
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if (a[i] - a[j]) % math.gcd(d[i], d[j]):
                return 0
    return 1
