import pickle
import subprocess
import sys
import types
import weakref
from fractions import Fraction

import pytest

import ramsum
from ramsum.cli import CommandRequest

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


def _records():
    """One record of each type, its field values in order, and whether it hashes."""
    mt = ramsum.moduli_tuple((12, 18))
    return [
        (ramsum.FactoredNat(12, ((2, 2), (3, 1))), (12, ((2, 2), (3, 1))), True),
        (mt, ((12, 18), ramsum.factorize(36), ((2, (2, 1)), (3, (1, 2)))), True),
        (ramsum.IntPolynomial((-1, 0, 1)), ((-1, 0, 1),), True),
        (ramsum.RootCount(2, 6), (2, 6), True),
        (ramsum.AsymptoticReport(2, 10, Fraction(7, 2), 3.5, 1.0, 100), (2, 10, Fraction(7, 2), 3.5, 1.0, 100), True),
        (ramsum.SEvenFunction(2, {1: 1, 2: 3}), (2, {1: Fraction(1), 2: Fraction(3)}), False),
    ]


def test_records_are_immutable_values():
    for record, values, hashable in _records():
        cls = type(record)
        again = cls(*values)
        assert again == record and again is not record and not again != record, cls
        assert [getattr(record, f) for f in cls._fields] == list(values), cls
        assert record != values and record != object(), cls
        assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}="), cls
        if hashable:
            assert hash(again) == hash(record) and {again: 1}[record] == 1, cls
        else:
            with pytest.raises(TypeError):
                hash(record)
        for name in cls._fields:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 0
        assert pickle.loads(pickle.dumps(record)) == record, cls
    assert len(ramsum.moduli_tuple((4, 6, 9))) == 3
    assert ramsum.RootCount(2, 6) != ramsum.RootCount(2, 7) != ramsum.FactoredNat(2, ((2, 1),))

    class Counted(ramsum.RootCount):
        __slots__ = ()

    # equal fields make equal records of one class only, as for dataclasses
    assert Counted(2, 6) == Counted(2, 6) != ramsum.RootCount(2, 6)
    weakref.ref(ramsum.IntPolynomial((1,)))


def test_record_constructors_keep_their_errors():
    errors = [
        (lambda: ramsum.FactoredNat(0, ()), "^positive integer required, got 0$"),
        (lambda: ramsum.FactoredNat(6, ((3, 1), (2, 1))), "^factors must list increasing primes with exponents >= 1$"),
        (lambda: ramsum.FactoredNat(6, ((2, 1),)), "^factor product 2 does not reconstruct 6$"),
        (lambda: ramsum.IntPolynomial((1, 0)), "^coefficients must not end in zero; strip to canonical form$"),
        (lambda: ramsum.RootCount(7, 6), "^count 7 outside \\[0, 6\\]$"),
        (lambda: ramsum.RootCount(-1, 6), "^count -1 outside \\[0, 6\\]$"),
        (lambda: ramsum.SEvenFunction(0, {}), "^period must be positive, got 0$"),
        (lambda: ramsum.SEvenFunction(6, {1: 1, 2: 0, 3: 0}), "^values must be keyed by exactly the divisors of 6$"),
    ]
    for build, message in errors:
        with pytest.raises(ramsum.DomainError, match=message):
            build()


def test_command_request_is_a_mutable_record():
    req = CommandRequest(subcommand="E", moduli=(6,))
    assert req == CommandRequest("E", (6,)) != CommandRequest(subcommand="R", moduli=(6,))
    assert (req.format, req.polys, req.max) == ("plain", None, None)
    req.format = "json"
    assert req == CommandRequest(subcommand="E", moduli=(6,), format="json")
    with pytest.raises(TypeError):
        hash(req)
    with pytest.raises(TypeError):
        CommandRequest(bogus=1)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, ramsum.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
