"""Command-line front end.

Subcommands: c (single Ramanujan sum), E / R (full-range and coprime
product sums over a polynomial system or a shift vector), T (modified
orthogonality sum), roots (root counts of a congruence system), alpha
(Euler product constant), asymptotic (average-order report) and verify
(named invariant suites).  Output formats: plain, json, csv.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 scale error,
4 verification failure.
"""

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Iterator
from functools import lru_cache, partial
from itertools import islice, product as cartesian

from .arith import euler_phi
from .asymptotics import alpha_r, asymptotic_report
from .congruences import as_poly_system, count_roots, linear_shift_poly, parse_polynomial
from .errors import DomainError, PolynomialSyntaxError, ScaleError
from .even import _t_table, t_a
from .products import (
    _product_sum_table,
    _ramanujan_table,
    _shift_key,
    e_g_direct,
    e_g_fast,
    e_shift,
    r_g_direct,
    r_g_fast,
    r_shift,
)
from .ramanujan import ramanujan_sum
from .verify import run_suite, suite_names

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_SCALE = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class CommandRequest(argparse.Namespace):
    """One command's arguments, at these defaults until its subcommand's parser sets them.

    ``moduli`` and ``shifts`` are int tuples, ``polys`` a tuple of texts.
    """

    def __init__(self, subcommand="", moduli=None, polys=None, shifts=None, a=None, r=None, x=None,
                 prime_bound=None, strategy=None, format="plain", range_max=None, suite=None, max=None):
        super().__init__(subcommand=subcommand, moduli=moduli, polys=polys, shifts=shifts, a=a, r=r, x=x,
                         prime_bound=prime_bound, strategy=strategy, format=format, range_max=range_max,
                         suite=suite, max=max)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main() prints "ramsum: "; keep only the subcommand of "ramsum E"
        cmd = self.prog.partition(" ")[2]
        raise UsageError(f"{cmd}: {message}" if cmd else message)


# Arguments echoed in error messages are cut after this many characters.
_ECHO_CAP = 60


def _echo(text: str) -> str:
    """repr(text), cut after _ECHO_CAP characters with the full length appended."""
    if len(text) <= _ECHO_CAP:
        return repr(text)
    return f"{text[:_ECHO_CAP]!r}... ({len(text)} characters)"


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {_echo(text)}")


def _poly_list(text: str) -> tuple[str, ...]:
    parts = tuple(text.split(";"))
    for p in parts:
        try:
            parse_polynomial(p)
        except (PolynomialSyntaxError, ScaleError) as exc:
            raise argparse.ArgumentTypeError(f"bad polynomial {_echo(p)}: {exc}")
    return parts


_FORMAT = ("--format", {"choices": ("plain", "json", "csv"), "default": "plain"})
_PRODUCT_SUM = (
    ("--moduli", {"type": _int_list}),
    ("--polys", {"type": _poly_list, "help": "semicolon-separated polynomials"}),
    ("--shifts", {"type": _int_list, "help": "linear system shifts a_i"}),
    ("--strategy", {"choices": ("fast", "direct"), "default": "fast"}),
    ("--range", {"type": _int, "dest": "range_max", "help": "tabulate all tuples in [1..N]^r"}),
    _FORMAT,
)

# Each subcommand's help line and its options, as (flag, keyword arguments)
# pairs, in the order of ``ramsum --help``.
_SUBCOMMANDS = {
    "c": (
        "Ramanujan sum c_n(a)",
        (
            ("--moduli", {"type": _int_list, "help": "the single modulus n"}),
            ("--a", {"type": _int, "required": True}),
            ("--range", {"type": _int, "dest": "range_max", "help": "tabulate n = 1..N"}),
            _FORMAT,
        ),
    ),
    "E": ("averaged full-range product sum", _PRODUCT_SUM),
    "R": ("coprime product sum", _PRODUCT_SUM),
    "T": (
        "modified orthogonality sum",
        (
            ("--moduli", {"type": _int_list}),
            ("--a", {"type": _int, "required": True}),
            ("--strategy", {"choices": ("closed", "spectral", "direct"), "default": "closed"}),
            ("--r", {"type": _int, "help": "tuple arity for --range (default 1)"}),
            ("--range", {"type": _int, "dest": "range_max"}),
            _FORMAT,
        ),
    ),
    "roots": (
        "root counts N and eta of a congruence system",
        (
            ("--moduli", {"type": _int_list, "required": True}),
            ("--polys", {"type": _poly_list, "required": True}),
            ("--strategy", {"choices": ("multiplicative", "direct"), "default": "multiplicative"}),
            _FORMAT,
        ),
    ),
    "alpha": (
        "Euler product constant",
        (
            ("--r", {"type": _int, "required": True}),
            ("--prime-bound", {"type": _int, "dest": "prime_bound", "default": 100_000}),
            _FORMAT,
        ),
    ),
    "asymptotic": (
        "average-order report for g_r",
        (
            ("--r", {"type": _int, "required": True}),
            ("--x", {"type": _int, "required": True}),
            ("--prime-bound", {"type": _int, "dest": "prime_bound", "default": 100_000}),
            _FORMAT,
        ),
    ),
    "verify": (
        "run named invariant suites",
        (
            ("--suite", {"required": True, "help": f"one of: {', '.join(suite_names())}, all"}),
            ("--max", {"type": _int, "help": "override the suite's default range (>= 1)"}),
            _FORMAT,
        ),
    ),
}


@lru_cache(maxsize=len(_SUBCOMMANDS) + 1)
def _build_parser(subcommand: str | None = None) -> _Parser:
    """The argument parser with the subparser of ``subcommand`` only, or of every one for None.

    Built once per process and key: parsing leaves it unchanged.  A
    subparser's help, usage and errors do not depend on its siblings.
    """
    parser = _Parser(prog="ramsum", description="exact Ramanujan-sum computations")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS if subcommand is None else (subcommand,):
        help_line, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def parse_args(argv) -> CommandRequest:
    """Parse and validate argv into a CommandRequest; raises UsageError.

    An argv that starts with a subcommand is parsed by that subcommand's
    parser alone; any other (help, no arguments, an unknown name, a
    leading option) by the parser of every subcommand.
    """
    name = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    req = _build_parser(name).parse_args(argv, namespace=CommandRequest())
    cmd = req.subcommand
    if cmd in ("c", "E", "R", "T"):
        if req.range_max is not None and req.moduli is not None:
            raise UsageError(f"{cmd}: --range and --moduli are mutually exclusive")
        if req.range_max is None and req.moduli is None:
            raise UsageError(f"{cmd}: one of --moduli or --range is required")
        if req.range_max is not None and req.range_max < 1:
            raise UsageError(f"{cmd}: --range must be >= 1")
    if cmd == "c" and req.moduli is not None and len(req.moduli) != 1:
        raise UsageError("c: exactly one modulus expected")
    if cmd == "T" and req.r is not None and req.range_max is None:
        raise UsageError("T: --r only applies together with --range")
    if cmd == "T" and req.r is not None and req.r < 1:
        raise UsageError("T: --r must be >= 1")
    if cmd in ("E", "R", "roots"):
        if (req.polys is None) == (req.shifts is None):
            raise UsageError(f"{cmd}: exactly one of --polys or --shifts is required")
        arity = len(req.polys or req.shifts)
        if req.moduli is not None and arity != len(req.moduli):
            kind = "poly" if req.polys else "shift"
            raise UsageError(
                f"{cmd}: {kind} count {arity} != moduli count {len(req.moduli)}"
            )
    if cmd == "verify" and req.max is not None and req.max < 1:
        raise UsageError("verify: --max must be >= 1")
    return req


# ---------------------------------------------------------------------------
# execution


# A --range table has at most this many rows, and a row this many moduli.
_RANGE_CAP = 10**6


def _arity(req: CommandRequest) -> int:
    """The number of moduli in a row of the request's table."""
    if req.subcommand == "c":
        return 1
    if req.subcommand == "T":
        return req.r or 1
    return len(req.polys or req.shifts)


def _tuple_space(req: CommandRequest):
    """The moduli tuples of a --range table; ScaleError above _RANGE_CAP rows or moduli a row.

    The row count N^arity is multiplied up one factor at a time and
    checked after each, so no large power is ever formed.  A table of one
    modulus a row pairs the moduli up lazily, since ``itertools.product``
    would hold all of them.
    """
    arity = _arity(req)
    n, rows = req.range_max, 1
    if arity > _RANGE_CAP:
        raise ScaleError(f"--range row of {arity} moduli exceeds 10^6 moduli")
    for _ in range(arity if n > 1 else 0):
        rows *= n
        if rows > _RANGE_CAP:
            raise ScaleError(f"--range {n} over {arity} moduli exceeds 10^6 table rows")
    if arity == 1:
        return zip(range(1, n + 1))
    return cartesian(range(1, n + 1), repeat=arity)


def _evaluator(req: CommandRequest):
    """The request's value as a function of the moduli tuple.

    The polynomial system (for ``--strategy direct`` with shifts, the
    system of x - a_i) is built once here, not once per tuple.
    """
    if req.subcommand == "c":
        return lambda moduli: ramanujan_sum(moduli[0], req.a)
    if req.subcommand == "T":
        return lambda moduli: t_a(moduli, req.a, strategy=req.strategy)
    # built per call: the names resolve at call time, so patched module globals are used
    fast, direct, shift = {
        "E": (e_g_fast, e_g_direct, e_shift),
        "R": (r_g_fast, r_g_direct, r_shift),
    }[req.subcommand]
    if req.shifts is not None and req.strategy != "direct":
        return partial(shift, req.shifts)
    system = as_poly_system(req.polys or tuple(map(linear_shift_poly, req.shifts)))
    return partial(direct if req.strategy == "direct" else fast, system)


# The work of a --strategy direct table is capped at the largest measured to
# finish in about 10 s in a child process (2-core x86_64, Python 3.11).  Its
# unit is one residue product, about 25 ns: an E or R row costs r * lcm of them,
# and tabulating the row c_m(g_i(x)) of each polynomial once per modulus m <= n
# costs about 5 a residue and degree (65 ns by the difference nest, 105 ns by
# Horner's rule above degree 64).  A T row costs its grid m^(r-1) * phi(m), in
# grid steps of about 300 ns at r = 1, where the units mod m are listed too.
_DIRECT_WORK_CAP = {"E": 400_000_000, "R": 400_000_000, "T": 30_000_000}
_ROW_WEIGHT = 5


def _check_direct_work(req: CommandRequest, tuples) -> None:
    """ScaleError when a --strategy direct table's work passes its cap.

    The rows of c_m(g_i(x)) are counted first, then each tuple's work is
    added in row order, and the sum stops at the cap, before any value of
    the table is computed.
    """
    n, total = req.range_max, 0
    if req.subcommand == "T":

        def work(moduli):
            m = math.lcm(*moduli)
            return m ** (len(moduli) - 1) * euler_phi(m)

    else:
        system = as_poly_system(req.polys or tuple(map(linear_shift_poly, req.shifts)))
        r = len(system)
        total = _ROW_WEIGHT * sum([max(g.degree, 1) for g in system]) * n * (n + 1) // 2

        def work(moduli):
            return r * math.lcm(*moduli)

    cap = _DIRECT_WORK_CAP[req.subcommand]
    for moduli in tuples:
        total += work(moduli)
        if total > cap:
            raise ScaleError(f"--strategy direct --range {n} table exceeds {cap} units of work")


def _table_values(req: CommandRequest, tuples) -> list:
    """The value of every row of a --range table, in the order of ``tuples``.

    c_n(a), E_G, R_G and T_a are multiplicative in the moduli, so a ``c``
    table, a fast ``E``/``R`` table and a closed or spectral ``T`` table
    are one box sieve each; a ``--strategy direct`` table evaluates tuple
    by tuple, once its work is checked against its cap.
    """
    if req.subcommand == "c":
        return _ramanujan_table(req.a, req.range_max)
    if req.strategy == "direct":
        _check_direct_work(req, _tuple_space(req))
        return list(map(_evaluator(req), tuples))
    if req.subcommand == "T":
        return _t_table(req.a, req.range_max, _arity(req), req.strategy)
    if req.shifts is not None:
        key = _shift_key(req.shifts)
    else:
        key = tuple([g.coeffs for g in as_poly_system(req.polys)])
    return _product_sum_table(key, req.range_max, req.subcommand == "R")


def _inputs(req: CommandRequest, moduli) -> dict:
    if req.subcommand == "c":
        cols = {"n": moduli[0]}
    else:
        cols = {f"m_{i + 1}": m for i, m in enumerate(moduli)}
    if req.polys is not None:
        cols["polys"] = ";".join(req.polys)
    if req.shifts is not None:
        cols["shifts"] = ",".join(str(a) for a in req.shifts)
    if req.a is not None:
        cols["a"] = req.a
    return cols


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# A table is written in chunks of this many rows, so no more text than a chunk is held.
_CHUNK_ROWS = 4096


def _emit_rows(req: CommandRequest, header: list, rows):
    """A table, one row per moduli tuple, as chunks of text that join to the output.

    Each row lists its values in header order.  The rows are read and
    formatted one chunk at a time; the output ends in one newline, as
    ``print`` of the whole text would end it.  JSON keys are sorted, so
    the payload's "rows" come before its "subcommand", and a chunk's rows
    are the inside of the list of their objects.
    """
    rows = iter(rows)
    chunks = iter(lambda: list(islice(rows, _CHUNK_ROWS)), [])
    if req.format == "json":
        encode = json.JSONEncoder(sort_keys=True).encode
        sep = '{"rows": ['
        for chunk in chunks:
            yield sep + encode([dict(zip(header, row)) for row in chunk])[1:-1]
            sep = ", "
        yield f'], "subcommand": {encode(req.subcommand)}}}\n'
    elif req.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for chunk in chunks:
            writer.writerows(chunk)
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    else:
        line = " ".join([f"{k}={{}}" for k in header]).format
        for chunk in chunks:
            yield "\n".join([line(*row) for row in chunk]) + "\n"


def _emit_scalar(req: CommandRequest, inputs: dict, outputs: dict, plain: str) -> str:
    """One record: inputs then outputs; ``plain`` is the plain-format text."""
    if req.format == "json":
        payload = {"subcommand": req.subcommand, "inputs": inputs, **outputs}
        return json.dumps(payload, sort_keys=True)
    if req.format == "csv":
        return _csv_text([*inputs, *outputs], [[*inputs.values(), *outputs.values()]])
    return plain


# below 640, the smallest int-to-str digit limit that Python accepts
_DIGIT_CHUNK = 512


def _decimal(n: int) -> str:
    """The decimal digits of an int n >= 0 of any size, as str(n) gives them.

    Divide and conquer: a piece of at most width digits is split on
    10^(width // 2), so str() only sees pieces of at most _DIGIT_CHUNK
    digits and the int-to-str digit limit never applies.  The exact
    partial sum of ``asymptotic`` has about 434000 digits at x = 10^6.
    """
    powers = {}

    def digits(m: int, width: int) -> str:
        # the digits of 0 <= m < 10^width, zero-padded to width
        if width <= _DIGIT_CHUNK:
            return str(m).zfill(width)
        low = width // 2
        if low not in powers:
            powers[low] = 10**low
        high, rest = divmod(m, powers[low])
        return digits(high, width - low) + digits(rest, low)

    # log10(2) < 0.30103, so n < 10^width
    return digits(n, n.bit_length() * 30103 // 100000 + 1).lstrip("0") or "0"


def execute(req: CommandRequest) -> tuple[int, str | Iterator[str]]:
    """Run a validated request; returns (exit status, formatted output).

    The output of a --range table is an iterator of text chunks, made
    after every value of the table is computed; any other output is one
    string.
    """
    cmd = req.subcommand
    if cmd in ("c", "E", "R", "T"):
        if req.range_max is None:
            value = _evaluator(req)(req.moduli)
            return EXIT_OK, _emit_scalar(req, _inputs(req, req.moduli), {"value": value}, str(value))
        values = _table_values(req, _tuple_space(req))
        arity = _arity(req)
        inputs = _inputs(req, (1,) * arity)
        header = [*inputs, "value"]
        constants = tuple(inputs.values())[arity:]
        rows = map(tuple.__add__, _tuple_space(req), map(constants.__add__, zip(values)))
        return EXIT_OK, _emit_rows(req, header, rows)

    if cmd == "roots":
        system = as_poly_system(req.polys)
        full = count_roots(system, req.moduli, units_only=False, strategy=req.strategy)
        units = count_roots(system, req.moduli, units_only=True, strategy=req.strategy)
        outputs = {"modulus": full.modulus, "N": full.count, "eta": units.count}
        plain = f"N={full.count} eta={units.count} (mod {full.modulus})"
        return EXIT_OK, _emit_scalar(req, _inputs(req, req.moduli), outputs, plain)

    if cmd == "alpha":
        value = alpha_r(req.r, req.prime_bound)
        inputs = {"r": req.r, "prime_bound": req.prime_bound}
        return EXIT_OK, _emit_scalar(req, inputs, {"value": value}, str(value))

    if cmd == "asymptotic":
        rep = asymptotic_report(req.r, req.x, req.prime_bound)
        empirical = f"{_decimal(rep.empirical.numerator)}/{_decimal(rep.empirical.denominator)}"
        fields = [
            ("r", rep.r),
            ("x", rep.x),
            ("prime_bound", rep.alpha_truncation),
            ("empirical", empirical),
            ("predicted", rep.predicted),
            ("ratio", rep.ratio),
        ]
        if req.format == "json":
            return EXIT_OK, json.dumps(
                {"subcommand": "asymptotic", **dict(fields)}, sort_keys=True
            )
        if req.format == "csv":
            return EXIT_OK, _csv_text([k for k, _ in fields], [[v for _, v in fields]])
        return EXIT_OK, "\n".join(f"{k}={v}" for k, v in fields)

    if cmd == "verify":
        results = run_suite(req.suite, req.max)
        failed = sum(1 for _, ok in results if not ok)
        if req.format == "json":
            out = json.dumps(
                {
                    "suite": req.suite,
                    "cases": [{"label": label, "ok": ok} for label, ok in results],
                    "passed": len(results) - failed,
                    "failed": failed,
                },
                sort_keys=True,
            )
        elif req.format == "csv":
            out = _csv_text(
                ["suite", "label", "ok"],
                [[req.suite, label, ok] for label, ok in results],
            )
        else:
            lines = [f"{'PASS' if ok else 'FAIL'} {label}" for label, ok in results]
            lines.append(
                f"suite {req.suite}: {len(results) - failed}/{len(results)} checks passed"
            )
            out = "\n".join(lines)
        return (EXIT_VERIFY if failed else EXIT_OK), out

    raise DomainError(f"unknown subcommand {cmd!r}")


def _emit_error(req: CommandRequest | None, kind: str, message: str) -> None:
    if req is not None and req.format == "json":
        print(json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True))
    else:
        print(f"ramsum: {kind} error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        req = parse_args(argv)
    except UsageError as exc:
        print(f"ramsum: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, out = execute(req)
    except DomainError as exc:
        _emit_error(req, "domain", str(exc))
        return EXIT_DOMAIN
    except ScaleError as exc:
        _emit_error(req, "scale", str(exc))
        return EXIT_SCALE
    if isinstance(out, str):
        print(out)
    else:
        for chunk in out:
            sys.stdout.write(chunk)
    return code


if __name__ == "__main__":
    sys.exit(main())
