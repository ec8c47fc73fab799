"""Exact Ramanujan sums and sums of their products over residue classes.

The library computes everything twice where it matters: definitional
residue-scan oracles sit next to fast multiplicative/convolution paths,
and the test suite holds them equal.  All production arithmetic is exact
(unbounded integers, `fractions.Fraction`); floating point appears only
in the exponential-sum cross-check and in final asymptotic reports.
"""

from .arith import (
    FactoredNat,
    ModuliTuple,
    divisors,
    euler_phi,
    factorize,
    mobius,
    moduli_tuple,
    multiplicative_eval,
)
from .asymptotics import (
    AsymptoticReport,
    alpha_r,
    asymptotic_report,
    dirichlet_decomposition_check,
    euler_factor,
    euler_factor_data,
    g_r_partial_sum,
    g_r_sieve,
)
from .congruences import (
    IntPolynomial,
    RootCount,
    as_poly_system,
    count_roots,
    linear_shift_poly,
    parse_polynomial,
    poly_eval_mod,
    poly_values_mod,
)
from .errors import ConsistencyError, DomainError, PolynomialSyntaxError, ScaleError
from .even import (
    SEvenFunction,
    cauchy_convolve,
    cauchy_convolve_naive,
    coprime_shift_sum,
    fourier_coefficients,
    ramanujan_even,
    t_a,
    t_even,
)
from .products import (
    e_g_direct,
    e_g_fast,
    e_shift,
    g_r_value,
    h_value,
    r_g_direct,
    r_g_fast,
    r_prime_power,
    r_shift,
    x_r_value,
)
from .ramanujan import (
    ramanujan_row,
    ramanujan_sum,
    ramanujan_sum_exponential,
    ramanujan_sum_totient_form,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "ConsistencyError",
    "DomainError",
    "FactoredNat",
    "IntPolynomial",
    "ModuliTuple",
    "PolynomialSyntaxError",
    "RootCount",
    "SEvenFunction",
    "ScaleError",
    "alpha_r",
    "as_poly_system",
    "asymptotic_report",
    "cauchy_convolve",
    "cauchy_convolve_naive",
    "coprime_shift_sum",
    "count_roots",
    "dirichlet_decomposition_check",
    "divisors",
    "e_g_direct",
    "e_g_fast",
    "e_shift",
    "euler_factor",
    "euler_factor_data",
    "euler_phi",
    "factorize",
    "fourier_coefficients",
    "g_r_partial_sum",
    "g_r_sieve",
    "g_r_value",
    "h_value",
    "linear_shift_poly",
    "mobius",
    "moduli_tuple",
    "multiplicative_eval",
    "parse_polynomial",
    "poly_eval_mod",
    "poly_values_mod",
    "r_g_direct",
    "r_g_fast",
    "r_prime_power",
    "r_shift",
    "ramanujan_even",
    "ramanujan_row",
    "ramanujan_sum",
    "ramanujan_sum_exponential",
    "ramanujan_sum_totient_form",
    "t_a",
    "t_even",
    "x_r_value",
]
