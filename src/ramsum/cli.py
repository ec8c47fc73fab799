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
import sys
from functools import lru_cache, partial
from itertools import product as cartesian

from .asymptotics import alpha_r, asymptotic_report
from .congruences import as_poly_system, count_roots, linear_shift_poly, parse_polynomial
from .errors import DomainError, PolynomialSyntaxError, ScaleError
from .even import t_a
from .products import e_g_direct, e_g_fast, e_shift, r_g_direct, r_g_fast, r_shift
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


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="ramsum", description="exact Ramanujan-sum computations")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    p = sub.add_parser("c", help="Ramanujan sum c_n(a)")
    p.add_argument("--moduli", type=_int_list, help="the single modulus n")
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--range", type=_int, dest="range_max", help="tabulate n = 1..N")
    add_format(p)

    for name, hlp in (("E", "averaged full-range product sum"), ("R", "coprime product sum")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--moduli", type=_int_list)
        p.add_argument("--polys", type=_poly_list, help="semicolon-separated polynomials")
        p.add_argument("--shifts", type=_int_list, help="linear system shifts a_i")
        p.add_argument("--strategy", choices=("fast", "direct"), default="fast")
        p.add_argument(
            "--range", type=_int, dest="range_max", help="tabulate all tuples in [1..N]^r"
        )
        add_format(p)

    p = sub.add_parser("T", help="modified orthogonality sum")
    p.add_argument("--moduli", type=_int_list)
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--strategy", choices=("closed", "spectral", "direct"), default="closed")
    p.add_argument("--r", type=_int, help="tuple arity for --range (default 1)")
    p.add_argument("--range", type=_int, dest="range_max")
    add_format(p)

    p = sub.add_parser("roots", help="root counts N and eta of a congruence system")
    p.add_argument("--moduli", type=_int_list, required=True)
    p.add_argument("--polys", type=_poly_list, required=True)
    p.add_argument("--strategy", choices=("multiplicative", "direct"), default="multiplicative")
    add_format(p)

    p = sub.add_parser("alpha", help="Euler product constant")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--prime-bound", type=_int, dest="prime_bound", default=100_000)
    add_format(p)

    p = sub.add_parser("asymptotic", help="average-order report for g_r")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--x", type=_int, required=True)
    p.add_argument("--prime-bound", type=_int, dest="prime_bound", default=100_000)
    add_format(p)

    p = sub.add_parser("verify", help="run named invariant suites")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(suite_names())}, all")
    p.add_argument("--max", type=_int, help="override the suite's default range (>= 1)")
    add_format(p)

    return parser


def parse_args(argv) -> CommandRequest:
    """Parse and validate argv into a CommandRequest; raises UsageError."""
    req = _build_parser().parse_args(argv, namespace=CommandRequest())
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


def _tuple_space(req: CommandRequest):
    """The moduli tuples of a --range table; ScaleError above _RANGE_CAP rows or moduli a row.

    The row count N^arity is multiplied up one factor at a time and
    checked after each, so no large power is ever formed.
    """
    if req.subcommand == "c":
        arity = 1
    elif req.subcommand == "T":
        arity = req.r or 1
    else:
        arity = len(req.polys or req.shifts)
    n, rows = req.range_max, 1
    if arity > _RANGE_CAP:
        raise ScaleError(f"--range row of {arity} moduli exceeds 10^6 moduli")
    for _ in range(arity if n > 1 else 0):
        rows *= n
        if rows > _RANGE_CAP:
            raise ScaleError(f"--range {n} over {arity} moduli exceeds 10^6 table rows")
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


def _emit_rows(req: CommandRequest, header: list, rows: list) -> str:
    """One table row per moduli tuple; each row lists its values in header order."""
    if req.format == "json":
        payload = {"subcommand": req.subcommand, "rows": [dict(zip(header, row)) for row in rows]}
        return json.dumps(payload, sort_keys=True)
    if req.format == "csv":
        return _csv_text(header, rows)
    return "\n".join(" ".join(f"{k}={v}" for k, v in zip(header, row)) for row in rows)


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


def execute(req: CommandRequest) -> tuple[int, str]:
    """Run a validated request; returns (exit status, formatted output)."""
    cmd = req.subcommand
    if cmd in ("c", "E", "R", "T"):
        evaluate = _evaluator(req)
        if req.range_max is None:
            value = evaluate(req.moduli)
            return EXIT_OK, _emit_scalar(req, _inputs(req, req.moduli), {"value": value}, str(value))
        tuples = list(_tuple_space(req))
        header = [*_inputs(req, tuples[0]), "value"]
        rows = [[*_inputs(req, ms).values(), evaluate(ms)] for ms in tuples]
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
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
