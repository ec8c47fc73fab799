import types

import ramsum

# the public API, exactly
PUBLIC_NAMES = (
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
)


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(ramsum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ramsum.__all__) == sorted(public) == sorted(PUBLIC_NAMES)
    assert len(set(ramsum.__all__)) == len(ramsum.__all__)
    for name in ramsum.__all__:
        assert getattr(ramsum, name) is not None, name
