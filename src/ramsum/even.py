"""Algebra of s-even functions and the modified orthogonality sum T_a.

An s-even function satisfies f(n) = f(gcd(n, s)) for all n, so it is
determined by its values on the divisors of s and is s-periodic; that is
exactly how it is stored here.  Every such function has unique expansion
coefficients alpha(d), d | s, with f(n) = sum_{d|s} alpha(d) c_d(n), and
Cauchy convolution acts diagonally on them: alpha_{f (x) g} = s alpha_f alpha_g.

The public objects hold ``Fraction`` values.  The transforms work on
integers instead: the values as numerators F(e) = L f(e) over their
least common denominator L (1 for the c_n kernels), so that
s L alpha(d) = sum_{e|s} F(e) c_{s/e}(s/d) is an integer sum, and each
result value costs one division.

The modified orthogonality sum of the paper, generalized to any s-even
kernels, is ``t_even``: it stays in coefficient space from the analysis
of each kernel to one final sum, without the transform back to values
that a chain of ``cauchy_convolve`` calls pays at every step.
``t_a(strategy="spectral")`` is ``t_even`` on the kernels c_{m_i}, and
the spectral side of ``coprime_shift_sum`` is ``t_even`` of its one kernel.
"""

import math
from fractions import Fraction
from itertools import product as cartesian

from .arith import _Record, divisors, euler_phi, factorize, mobius, moduli_tuple
from .errors import ConsistencyError, DomainError, ScaleError
from .ramanujan import ramanujan_row, ramanujan_sum

_T_DIRECT_CAP = 10**7
_SHIFT_SUM_CAP = 10**6


class SEvenFunction(_Record):
    """An s-even function stored by its values on the divisors of s.

    ``values`` is a copy of the given mapping in divisor order, converted to
    Fractions (those given are kept, being immutable); DomainError unless it
    is keyed by exactly the divisors of s.
    """

    __slots__ = _fields = ("s", "values")

    def __init__(self, s: int, values: dict):
        if s < 1:
            raise DomainError(f"period must be positive, got {s}")
        divs = divisors(s)
        if set(values) != set(divs):
            raise DomainError(f"values must be keyed by exactly the divisors of {s}")
        set_s, set_values = self._setters
        set_s(self, s)
        set_values(self, {d: values[d] if type(values[d]) is Fraction else Fraction(values[d]) for d in divs})

    def __call__(self, n: int) -> Fraction:
        return self.values[math.gcd(n % self.s, self.s)]


def ramanujan_even(n: int, s: int | None = None) -> SEvenFunction:
    """c_n viewed as an s-even function for any multiple s of n (default n)."""
    s = n if s is None else s
    if s % n:
        raise DomainError(f"{n} does not divide the requested period {s}")
    return SEvenFunction(s, {d: ramanujan_sum(n, d) for d in divisors(s)})


def _numerators(values: dict) -> tuple[int, dict]:
    """(L, {d: L v_d}): the Fraction values as integers over their least common denominator L."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return den, {d: v.numerator * (den // v.denominator) for d, v in values.items()}


def _analysis(s: int, numerators: dict, at=None) -> dict:
    """{d: sum_{e|s} F(e) c_{s/e}(s/d)} for F = L f, at the divisors d in ``at`` (default: all): s L alpha(d)."""
    terms = [(s // e, fe) for e, fe in numerators.items() if fe]
    return {d: sum(fe * ramanujan_sum(n, s // d) for n, fe in terms) for d in (numerators if at is None else at)}


def _synthesis(coefficients: dict) -> dict:
    """{e: sum_{d|s} A(d) c_d(e)}, keyed like A by the divisors of s: the values of sum_d A(d) c_d."""
    return {e: sum(a * ramanujan_sum(d, e) for d, a in coefficients.items() if a) for e in coefficients}


def fourier_coefficients(f: SEvenFunction) -> dict:
    """{d: alpha(d)} over the divisors d of s, ascending, as Fractions.

    alpha(d) = (1/s) sum_{e|s} f(e) c_{s/e}(s/d), exactly.
    """
    den, num = _numerators(f.values)
    sl = f.s * den
    return {d: Fraction(a, sl) for d, a in _analysis(f.s, num).items()}


def _same_period(f: SEvenFunction, g: SEvenFunction) -> int:
    if f.s != g.s:
        raise DomainError(f"period mismatch: {f.s} != {g.s}")
    return f.s


def cauchy_convolve(f: SEvenFunction, g: SEvenFunction) -> SEvenFunction:
    """(f (x) g)(n) = sum_{k mod s} f(k) g(n - k), spectrally.

    Multiplies expansion coefficients (alpha -> s*alpha_f*alpha_g) and
    transforms back; ``cauchy_convolve_naive`` is the defining sum.  With
    A = s L alpha for each side, s alpha_f alpha_g = A_f A_g / (s L_f L_g),
    so the products and the transform back stay in integers.
    """
    s = _same_period(f, g)
    den_f, num_f = _numerators(f.values)
    den_g, num_g = _numerators(g.values)
    af, ag = _analysis(s, num_f), _analysis(s, num_g)
    den = s * den_f * den_g
    values = _synthesis({d: af[d] * ag[d] for d in af})
    return SEvenFunction(s, {e: Fraction(v, den) for e, v in values.items()})


def cauchy_convolve_naive(f: SEvenFunction, g: SEvenFunction) -> SEvenFunction:
    """The defining sum of ``cauchy_convolve`` on each divisor of s, exactly."""
    s = _same_period(f, g)
    values = {}
    for d in divisors(s):
        acc = Fraction(0)
        for k in range(s):
            fk = f(k)
            if fk:
                acc += fk * g(d - k)
        values[d] = acc
    return SEvenFunction(s, values)


def coprime_shift_sum(f: SEvenFunction, a: int) -> Fraction:
    """sum_{k <= s, gcd(k, s) = 1} f(a - k).

    Computed both directly and through the coefficient identity
    phi(s) * sum_{d|s} alpha(d) mu(d) c_d(a) / phi(d), which is
    ``t_even((f,), a)``; the two sides must agree exactly.  The direct
    side sums L f(a - k) over the units k in integers, L the values'
    common denominator.  It scans all s residues, so s is capped at 10^6.
    """
    s = f.s
    _shift_sum_cap(s)
    den, num = _numerators(f.values)
    gcd = math.gcd
    direct = Fraction(sum(num[gcd((a - k) % s, s)] for k in range(1, s + 1) if gcd(k, s) == 1), den)
    spectral = t_even((f,), a)
    if spectral != direct:
        raise ConsistencyError(f"coprime shift sum mismatch for s={s}, a={a}: {direct} != {spectral}")
    return direct


def _shift_sum_cap(s: int) -> None:
    if s > _SHIFT_SUM_CAP:
        raise ScaleError(f"coprime shift sum capped at s <= 10^6, got {s}")


def t_even(kernels, a: int) -> Fraction:
    """The modified orthogonality sum of s-even kernels f_1, ..., f_r with shift a.

    sum over k_1, ..., k_{r-1} mod s and l mod s coprime to s of
    f_1(k_1) ... f_{r-1}(k_{r-1}) f_r(k_1 + ... + k_{r-1} + l - a).  Since
    f_r is even, the sum over the k_i is the Cauchy product of all r
    kernels at a - l, whose coefficients are s^(r-1) prod_i alpha_i, so
    the coprime shift sum identity gives
    s^(r-1) sum_{d|s} prod_i alpha_i(d) mu(d) c_d(a) phi(s)/phi(d),
    in which only squarefree d count.  Computed in coefficient space: one
    integer analysis A_i = s L_i alpha_i per distinct numerator vector
    L_i f_i, at the squarefree d only, their pointwise product, and one
    sum over d divided by s prod_i L_i.  Nothing is transformed back to
    values.
    """
    kernels = tuple(kernels)
    if not kernels:
        raise DomainError("at least one kernel required")
    s = kernels[0].s
    fs = factorize(s)
    squarefree = divisors(math.prod(p for p, _ in fs.factors))
    product = dict.fromkeys(squarefree, 1)
    den = s
    analysed = {}
    for f in kernels:
        _same_period(kernels[0], f)
        den_f, num = _numerators(f.values)
        den *= den_f
        key = tuple(num.values())  # in divisor order, as every SEvenFunction stores them
        if key not in analysed:
            analysed[key] = _analysis(s, num, squarefree)
        coeffs = analysed[key]
        for d in squarefree:
            product[d] *= coeffs[d]
    phi_s = euler_phi(fs)
    total = 0
    for d, v in product.items():
        if v:
            total += v * mobius(d) * ramanujan_sum(d, a) * (phi_s // euler_phi(d))
    return Fraction(total, den)


def t_a(moduli, a: int, strategy: str = "closed") -> int:
    """The modified orthogonality sum over r moduli with shift a.

    T_a(m_1, ..., m_r) sums c_{m_1}(k_1) ... c_{m_{r-1}}(k_{r-1})
    c_{m_r}(k_1 + ... + k_{r-1} + l - a) over k_i mod m and l mod m
    coprime to m.  It vanishes unless m_1 = ... = m_r = m, where it equals
    m^(r-1) mu(m) c_m(a).

    Strategies: "closed" applies that evaluation; "spectral" is ``t_even``
    on the c_{m_i} as m-even functions, from the analysis of their values
    (capped at m <= 10^6, as the coprime shift sum is); "direct" iterates
    the defining grid (scale-capped).  All agree.
    """
    mt = moduli_tuple(moduli)
    m = mt.lcm.value
    r = len(mt)
    if strategy == "closed":
        if all(mi == m for mi in mt.moduli):
            return m ** (r - 1) * mobius(mt.lcm) * ramanujan_sum(m, a)
        return 0
    if strategy == "spectral":
        _shift_sum_cap(m)
        kernels = {mi: ramanujan_even(mi, m) for mi in set(mt.moduli)}
        val = t_even([kernels[mi] for mi in mt.moduli], a)
        if val.denominator != 1:
            raise ConsistencyError(f"non-integer T value {val}")
        return int(val)
    if strategy == "direct":
        if m**r > _T_DIRECT_CAP:
            raise ScaleError(f"direct grid m^r = {m**r} exceeds 10^7")
        rows = [ramanujan_row(mi) for mi in mt.moduli]
        last, m_last = rows[-1], mt.moduli[-1]
        units = [l for l in range(m) if math.gcd(l, m) == 1]
        total = 0
        for kvec in cartesian(range(m), repeat=r - 1):
            c = 1
            for row, mi, k in zip(rows, mt.moduli, kvec):
                c *= row[k % mi]
            if c:
                base = sum(kvec) - a
                for l in units:
                    total += c * last[(base + l) % m_last]
        return total
    raise DomainError(f"unknown strategy {strategy!r}")
