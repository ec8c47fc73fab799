import csv
import hashlib
import io
import json
import random
import subprocess
import sys
import time

import pytest

from ramsum import cli, verify
from ramsum.cli import CommandRequest, _tuple_space, execute, main, parse_args
from ramsum.errors import DomainError, ScaleError
from ramsum.products import r_shift
from ramsum.ramanujan import ramanujan_sum_totient_form
from ramsum.verify import run_suite


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_parse_args_examples():
    req = parse_args(["T", "--moduli", "6,6", "--a", "0"])
    assert req == CommandRequest(
        subcommand="T", moduli=(6, 6), a=0, strategy="closed", format="plain"
    )
    req = parse_args(["E", "--moduli", "8", "--polys", "x^2-1"])
    assert req.subcommand == "E" and req.moduli == (8,) and req.polys == ("x^2-1",)


def test_parse_args_arity_error():
    with pytest.raises(Exception, match="poly count 1 != moduli count 2"):
        parse_args(["E", "--moduli", "6,6", "--polys", "x"])


def test_scalar_values(capsys):
    assert run_main(capsys, "R", "--moduli", "3,3", "--shifts", "1,1")[:2] == (0, "5")
    assert run_main(capsys, "T", "--moduli", "2,3", "--a", "7")[:2] == (0, "0")
    assert run_main(capsys, "c", "--moduli", "4", "--a", "2")[:2] == (0, "-2")
    assert run_main(capsys, "E", "--moduli", "8", "--polys", "x^2-1")[:2] == (0, "2")
    assert run_main(capsys, "E", "--moduli", "6,6", "--shifts", "0,1")[:2] == (0, "1")
    # 64 shifts: values from e_g_direct/r_g_direct (the lcm is 6)
    moduli, shifts = ",".join(["6"] * 64), ",".join(map(str, range(64)))
    assert run_main(capsys, "E", "--moduli", moduli, f"--shifts={shifts}")[:2] == (0, "0")
    assert run_main(capsys, "R", "--moduli", moduli, f"--shifts={shifts}")[:2] == (0, "-4194304")


def test_roots_output(capsys):
    code, out, _ = run_main(capsys, "roots", "--moduli", "12", "--polys", "x^2-1")
    assert code == 0
    assert out == "N=4 eta=4 (mod 12)"
    code, out, _ = run_main(
        capsys, "roots", "--moduli", "12", "--polys", "x^2-1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["N"] == 4 and payload["eta"] == 4 and payload["modulus"] == 12


def test_strategy_differential(capsys):
    cases = [
        ["E", "--moduli", "12,18", "--polys", "x^2-1;2x-1"],
        ["R", "--moduli", "9,15", "--polys", "x-1;x-1"],
        ["E", "--moduli", "10,12", "--shifts", "3,-2"],
        ["R", "--moduli", "8,6", "--shifts", "1,2"],
    ]
    for argv in cases:
        _, fast, _ = run_main(capsys, *argv)
        _, direct, _ = run_main(capsys, *argv, "--strategy", "direct")
        assert fast == direct, argv
    for strategy in ("spectral", "direct"):
        _, closed, _ = run_main(capsys, "T", "--moduli", "6,6", "--a", "2")
        _, other, _ = run_main(capsys, "T", "--moduli", "6,6", "--a", "2", "--strategy", strategy)
        assert closed == other


def test_json_round_trip(capsys):
    _, out, _ = run_main(
        capsys, "R", "--moduli", "3,3", "--shifts", "1,1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["value"] == 5
    shifts = payload["inputs"]["shifts"]
    moduli = [payload["inputs"]["m_1"], payload["inputs"]["m_2"]]
    argv = ["R", "--moduli", ",".join(map(str, moduli)), "--shifts", shifts, "--format", "json"]
    _, again, _ = run_main(capsys, *argv)
    assert again == out


def test_csv_output(capsys):
    _, out, _ = run_main(
        capsys, "E", "--moduli", "8", "--polys", "x^2-1", "--format", "csv"
    )
    assert out.splitlines() == ["m_1,polys,value", "8,x^2-1,2"]


def test_range_table(capsys):
    code, out, _ = run_main(capsys, "c", "--range", "6", "--a", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a,value"
    assert lines[1] == "1,0,1"
    assert lines[6] == "6,0,2"
    code, out, _ = run_main(
        capsys, "T", "--range", "3", "--r", "2", "--a", "0", "--format", "csv"
    )
    rows = out.splitlines()
    assert rows[0] == "m_1,m_2,a,value"
    assert len(rows) == 1 + 9


def _json_row(m_1, m_2, value):
    return f'{{"m_1": {m_1}, "m_2": {m_2}, "polys": "x;x^2-1", "value": {value}}}'


R_RANGE_VALUES = (1, 1, 4, -1, -1, -4, -2, -2, -4)
E_SHIFT_RANGE_VALUES = (1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0)

EXACT_STDOUT = [
    (
        ["roots", "--moduli", "12,18", "--polys", "x^2-1;x-1", "--format", "csv"],
        "m_1,m_2,polys,modulus,N,eta\n12,18,x^2-1;x-1,36,2,2",
    ),
    (
        ["alpha", "--r", "2", "--prime-bound", "10", "--format", "json"],
        '{"inputs": {"prime_bound": 10, "r": 2}, "subcommand": "alpha", "value": 0.5535894611812979}',
    ),
    (
        ["alpha", "--r", "3", "--prime-bound", "10", "--format", "csv"],
        "r,prime_bound,value\n3,10,0.3373704470873762",
    ),
    (
        ["R", "--polys", "x;x^2-1", "--range", "3", "--format", "json"],
        '{"rows": ['
        + ", ".join(
            _json_row(i // 3 + 1, i % 3 + 1, value) for i, value in enumerate(R_RANGE_VALUES)
        )
        + '], "subcommand": "R"}',
    ),
    (
        ["E", "--shifts", "1,-2", "--range", "4"],
        "\n".join(
            f"m_1={i // 4 + 1} m_2={i % 4 + 1} shifts=1,-2 value={value}"
            for i, value in enumerate(E_SHIFT_RANGE_VALUES)
        ),
    ),
    (
        ["T", "--moduli", "6,6", "--a", "2", "--format", "json"],
        '{"inputs": {"a": 2, "m_1": 6, "m_2": 6}, "subcommand": "T", "value": -6}',
    ),
]


def test_exact_stdout(capsys):
    for argv, expected in EXACT_STDOUT:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, expected + "\n", ""), argv


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["E", "--moduli", "6,6", "--polys", "x"],
        ["E", "--moduli", "6"],
        ["E", "--moduli", "abc", "--polys", "x"],
        ["E", "--moduli", "6", "--polys", "x^", ],
        ["c", "--moduli", "4,5", "--a", "0"],
        ["c", "--a", "0"],
        ["nonsense"],
        ["E", "--moduli", "6", "--polys", "x", "--a", "3"],
        ["R", "--moduli", "6", "--polys", "x", "--shifts", "1"],
        ["T", "--range", "3", "--r", "-1", "--a", "0"],
        ["T", "--range", "3", "--r", "0", "--a", "0"],
        ["verify", "--suite", "cohen", "--max", "0"],
        ["verify", "--suite", "cohen", "--max", "-5"],
        ["E", "--moduli", "6", "--polys", "x^1000001"],
        ["E", "--moduli", "6", "--polys", "x^" + "1" * 5000],
    ):
        code, _, err = run_main(capsys, *argv)
        assert code == 1, argv
        assert err, argv
        assert "Traceback" not in err, argv


def test_usage_error_names_program_once(capsys):
    # one message raised by argparse, one by parse_args
    for argv, expected in (
        (["E", "--moduli", "abc", "--polys", "x"], "ramsum: E: argument --moduli: malformed integer list 'abc'\n"),
        (["E", "--moduli", "6", "--range", "3", "--polys", "x"], "ramsum: E: --range and --moduli are mutually exclusive\n"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", expected), argv


def test_poly_syntax_error_reports_position(capsys):
    code, _, err = run_main(capsys, "E", "--moduli", "6", "--polys", "x^")
    assert code == 1
    assert "position 2" in err


def test_bad_argument_echo_is_cut_after_60_characters(capsys):
    # short arguments are echoed whole, byte for byte as before
    for argv, expected in (
        (
            ["E", "--moduli", "6", "--polys", "x^"],
            "ramsum: E: argument --polys: bad polynomial 'x^': "
            "expected exponent digits after '^' (at position 2)\n",
        ),
        (
            ["E", "--moduli", "1,a", "--polys", "x"],
            "ramsum: E: argument --moduli: malformed integer list '1,a'\n",
        ),
        (["c", "--moduli", "6", "--a", "1x"], "ramsum: c: argument --a: invalid int value: '1x'\n"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", expected), argv
    # long ones are cut, with their length; the parser's position is kept
    text = "x+" + "1" * 5000 + "x^"
    assert main(["E", "--moduli", "6", "--polys", text]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"ramsum: E: argument --polys: bad polynomial {text[:60]!r}... (5004 characters): "
        "integer of 5000 digits at position 2, capped at <= 4300 digits\n"
    )
    text = "x^" + "9" * 4000
    assert main(["E", "--moduli", "6", "--polys", text]) == 1
    err = capsys.readouterr().err
    assert err.endswith(
        "... (4002 characters): polynomial degree capped at <= 10^6, got a degree of 4000 digits\n"
    )
    assert len(err) < 300
    for argv, length in (
        (["c", "--moduli", "6", "--a", "1" * 5000], 5000),
        (["c", "--moduli", "6," + "2" * 5000, "--a", "1"], 5002),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"... ({length} characters)\n") and len(err) < 200


def test_integer_past_digit_limit_is_bad_polynomial(capsys):
    # int() refuses decimal strings of more than 4300 digits
    for text in ("x^" + "1" * 5000, "1" * 5000 + "x"):
        code, _, err = run_main(capsys, "E", "--moduli", "6", "--polys", text)
        assert code == 1
        assert "bad polynomial" in err and "4300 digits" in err
        assert "_poly_list" not in err


def test_domain_error_exit_2(capsys):
    code, _, err = run_main(capsys, "c", "--moduli", "0", "--a", "1")
    assert code == 2
    assert "domain error" in err


def test_scale_error_exit_3(capsys):
    code, _, err = run_main(
        capsys, "E", "--moduli", "1000003,999937", "--polys", "x;x", "--strategy", "direct"
    )
    assert code == 3
    assert "scale error" in err


def test_caps_exit_3(capsys):
    # each input is just above its cap: a prime sieve of 10^7 bytes, a scan of s residues;
    # the last two scan 70000 residues at degree 60000, past n * degree <= 10^8
    for argv in (
        ["alpha", "--r", "2", "--prime-bound", "10000001"],
        ["asymptotic", "--r", "2", "--x", "10", "--prime-bound", "10000001"],
        ["T", "--moduli", "1000003,1000003", "--a", "0", "--strategy", "spectral"],
        ["roots", "--moduli", "70000", "--polys", "x^60000+1", "--strategy", "direct"],
        ["E", "--moduli", "70000", "--polys", "x^60000+1", "--strategy", "direct"],
    ):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("ramsum: scale error: ") and err.count("\n") == 1, argv
        assert "Traceback" not in err, argv


def test_range_tables_capped_exit_3(capsys, monkeypatch):
    # 101^3, 2^30 and 1000001 rows, then one row of 1000001 moduli: each over the cap of 10^6,
    # refused before any tuple exists
    def no_tuples(*args, **kwargs):
        raise AssertionError("a capped table built its tuples")

    monkeypatch.setattr(cli, "cartesian", no_tuples)
    for argv in (
        ["E", "--shifts", "1,2,3", "--range", "101"],
        ["T", "--a", "0", "--r", "30", "--range", "2"],
        ["c", "--a", "1", "--range", "1000001"],
        ["T", "--a", "0", "--r", "1000001", "--range", "1"],
    ):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("ramsum: scale error: ") and err.count("\n") == 1, argv
        code, out, err = run_main(capsys, *argv, "--format", "json")
        assert (code, err) == (3, ""), argv
        assert json.loads(out)["error"]["type"] == "scale", argv


def test_range_table_at_the_cap_is_allowed():
    # exactly 10^6 rows pass the count; the tuples are produced lazily, so none is built here
    for argv in (["T", "--a", "0", "--r", "2", "--range", "1000"], ["c", "--a", "1", "--range", "1000000"]):
        assert next(_tuple_space(parse_args(argv))) in ((1,), (1, 1))
    assert next(_tuple_space(parse_args(["T", "--a", "0", "--r", "1000000", "--range", "1"]))) == (1,) * 10**6


# main(argv) in a child process with 1 GiB of address space
_LIMITED_MAIN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from ramsum.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_huge_range_row_exits_3_in_bounded_memory():
    # one row of 10^9 moduli would make a 10^9-entry pool
    argv = ["T", "--a", "0", "--r", "1000000000", "--range", "1"]
    done = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert done.stderr == "ramsum: scale error: --range row of 1000000000 moduli exceeds 10^6 moduli\n"


def _whole_text(subcommand, fmt, header, rows):
    """A table's output as one string, the way it was formatted before rows were streamed."""
    if fmt == "json":
        return json.dumps({"subcommand": subcommand, "rows": [dict(zip(header, row)) for row in rows]}, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue().rstrip("\n")
    return "\n".join(" ".join(f"{k}={v}" for k, v in zip(header, row)) for row in rows)


def _assert_same_text(out, want):
    # compared through the first differing character, so that a failure
    # shows where, and pytest does not diff 100 kB of text
    at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), min(len(out), len(want)))
    assert at == len(out) == len(want), (at, out[max(at - 60, 0) : at + 60], want[max(at - 60, 0) : at + 60])


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_tables_past_one_chunk_print_the_whole_text(capsys, fmt):
    # two and three chunks of rows join to the one-string text, values per tuple
    n = 2 * cli._CHUNK_ROWS + 5
    assert main(["c", "--a", "12", "--range", str(n), "--format", fmt]) == 0
    rows = [[m, 12, ramanujan_sum_totient_form(m, 12)] for m in range(1, n + 1)]
    _assert_same_text(capsys.readouterr().out, _whole_text("c", fmt, ["n", "a", "value"], rows) + "\n")
    assert main(["R", "--shifts", "1,2", "--range", "70", "--format", fmt]) == 0
    rows = [[m1, m2, "1,2", r_shift((1, 2), (m1, m2))] for m1 in range(1, 71) for m2 in range(1, 71)]
    _assert_same_text(capsys.readouterr().out, _whole_text("R", fmt, ["m_1", "m_2", "shifts", "value"], rows) + "\n")


def test_million_row_table_streams_in_a_quarter_gigabyte():
    # 10^6 rows: one box sieve, and the text written in chunks.  Tuple by
    # tuple, with every row and the whole text held, it took 422 MB max RSS
    # and does not fit in 256 MiB; the sha256 is that route's stdout
    argv = ["E", "--polys", "x;x^2-1", "--range", "1000"]
    child = _LIMITED_MAIN.replace("1 << 30", "1 << 28")
    done = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert hashlib.sha256(done.stdout).hexdigest() == "9129ad4dcfadb3128e2582efdeb47ce2510e0f0a8fac17573234d667b04d086b"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["asymptotic", "--r", "200", "--x", "100", "--prime-bound", "100"], "sieve capped at r <= 51, got 200"),
        (["alpha", "--r", "20000000000", "--prime-bound", "3"], "Euler product capped at r <= 256, got 20000000000"),
    ],
)
def test_r_past_its_cap_exits_3_in_bounded_memory(argv, message):
    # x^r overflowed a double, and p^r took more than the child's address space
    done = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"ramsum: scale error: {message}\n")


@pytest.mark.parametrize("command,want", [("E", "2\n"), ("roots", "N=3 eta=3 (mod 1000003)\n")])
def test_sparse_high_degree_ends_in_seconds(command, want):
    # a residue scan of x^20000 + x + 1 mod 10^6 + 3 takes 2 * 10^10 Horner
    # steps (minutes); x^p mod f answers in under a second
    argv = [command, "--moduli", "1000003", "--polys", "x^20000+x+1"]
    done = subprocess.run([sys.executable, "-m", "ramsum", *argv], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, want), done.stderr


# Run in one process, in this order, then each in a fresh process: one parser
# per subcommand serves them all, across a usage error and a JSON-mode domain
# error, and an unknown name gets the parser of every subcommand.
_IN_PROCESS_SEQUENCE = (
    ["E", "--polys", "x^2-1;x+1", "--range", "4", "--format", "csv"],
    ["E", "--moduli", "6", "--polys", "x^^2"],
    ["T", "--a", "3", "--r", "2", "--range", "4", "--strategy", "spectral"],
    ["c", "--moduli", "0", "--a", "1", "--format", "json"],
    ["R", "--moduli", "6,10", "--polys", "x^2-1;x+1", "--format", "json"],
    ["bogus"],
    ["E", "--shifts", "1,2", "--moduli", "6,4"],
    ["alpha", "--r", "2", "--prime-bound", "100"],
    ["E", "--polys", "x^2-1;x+1", "--range", "4", "--format", "csv"],
)


def test_in_process_runs_print_what_fresh_processes_print(capsys):
    cli._build_parser.cache_clear()
    for argv in _IN_PROCESS_SEQUENCE:
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ramsum", *argv], capture_output=True, timeout=60)
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._build_parser.cache_info().misses == len({argv[0] for argv in _IN_PROCESS_SEQUENCE})


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_one_subcommand_parser_prints_what_the_full_parser_prints(name, capsys):
    # the help and a usage error of each subcommand, through the parser of
    # that subcommand alone and through the parser of every subcommand
    seen = []
    for parser in (cli._build_parser(name), cli._build_parser(None)):
        with pytest.raises(SystemExit) as done:
            parser.parse_args([name, "--help"], namespace=cli.CommandRequest())
        seen.append((done.value.code, capsys.readouterr()))
        with pytest.raises(cli.UsageError) as error:
            parser.parse_args([name, "--format", "xml"], namespace=cli.CommandRequest())
        seen.append(str(error.value))
    assert seen[:2] == seen[2:]
    assert seen[0][1].out.startswith(f"usage: ramsum {name} [-h]")
    assert seen[1].startswith(f"{name}: argument --format: invalid choice: ")


def _dense_text(degree: int, seed: int) -> str:
    """x^degree plus every lower power with a coefficient in [-9, 9]."""
    rng = random.Random(seed)
    terms = [f"x^{degree}"]
    for k in range(degree - 1, -1, -1):
        c = rng.randint(-9, 9)
        if c:
            terms.append(f"{'+' if c > 0 else '-'}{abs(c)}x^{k}")
    return "".join(terms)


def test_dense_high_degree_roots_exit_3_within_seconds():
    # dense degree 2000 at p = 10^9 + 7 answered after 72 s, two root findings
    # (N and eta); the step cap of each power over F_p stops it at about 3 s
    argv = ["roots", "--moduli", "1000000007", "--polys", _dense_text(2000, 1)]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (3, ""), done.stderr[-2000:]
    assert done.stderr == (
        "ramsum: scale error: roots mod 1000000007 at degree 2000: a power or gcd over F_p "
        "capped at 2*10^7 schoolbook steps\n"
    )
    assert time.perf_counter() - start < 15


def test_json_error_object(capsys):
    code = main(["c", "--moduli", "0", "--a", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "domain"


def test_verify_suite_passes(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "orthogonality", "--max", "12")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_unknown_suite(capsys):
    code, _, err = run_main(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_average_order_suite_passes_at_small_max(capsys):
    # the 2% band only holds from x = 114 (r = 2) and x = 320 (r = 3) on
    for max_x in (1, 200, 799):
        results = run_suite("average-order", max_x)
        assert results and all(ok for _, ok in results), (max_x, results)
    assert run_suite("average-order", 1) == [("ratio r=2 x=114", True), ("ratio r=3 x=320", True)]
    assert run_main(capsys, "verify", "--suite", "all", "--max", "1")[0] == 0


def test_run_suite_rejects_nonpositive_range():
    for name in ("cohen", "all"):
        for max_n in (0, -5):
            with pytest.raises(DomainError, match="must be >= 1"):
                run_suite(name, max_n)


def test_direct_table_past_its_work_cap_exits_3_within_seconds():
    # E took 21.7 s at --range 240 and would run for hours at 1000; the
    # T grid is past its cap at --r 2 --range 1000
    for argv in (
        ["E", "--polys", "x;x^2-1", "--strategy", "direct", "--range", "1000"],
        ["T", "--a", "12", "--r", "2", "--strategy", "direct", "--range", "1000"],
    ):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (3, ""), (argv, done.stderr[-2000:])
        cap = cli._DIRECT_WORK_CAP[argv[0]]
        assert done.stderr == f"ramsum: scale error: --strategy direct --range 1000 table exceeds {cap} units of work\n"
        assert time.perf_counter() - start < 10, argv


def test_direct_table_work_is_checked_before_any_value(capsys, monkeypatch):
    # the largest measured table of each kind passes; one more modulus, an r = 1
    # table whose high-degree rows cost more than its products, and a T table
    # of one modulus a row are refused before any oracle runs
    def checked(argv):
        req = parse_args([*argv, "--strategy", "direct"])
        cli._check_direct_work(req, _tuple_space(req))

    checked(["E", "--polys", "x;x^2-1", "--range", "181"])
    checked(["T", "--a", "12", "--range", "9934"])

    def never(*args, **kwargs):
        raise AssertionError("a capped direct table computed a value")

    for name in ("e_g_direct", "r_g_direct", "t_a"):
        monkeypatch.setattr(cli, name, never)
    for argv in (
        ["E", "--polys", "x;x^2-1", "--range", "182"],
        ["R", "--polys", "x^60+3", "--range", "2000"],
        ["R", "--shifts", "1,2,3", "--range", "100"],
        ["T", "--a", "12", "--range", "9935"],
    ):
        code, out, err = run_main(capsys, *argv, "--strategy", "direct")
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"ramsum: scale error: --strategy direct --range {argv[-1]} table exceeds "), argv


def test_verify_max_above_a_suite_ceiling_exits_3_within_seconds():
    # each grows as a power of --max: oracle and t-a enumerate [1, max]^3
    for argv, suite in (
        (["verify", "--suite", "oracle", "--max", "100"], "oracle"),
        (["verify", "--suite", "t-a", "--max", "100"], "t-a"),
        (["verify", "--suite", "all", "--max", "1000"], "orthogonality"),
    ):
        ceiling = verify._SUITES[suite][2]
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (3, ""), (argv, done.stderr[-2000:])
        assert done.stderr == f"ramsum: scale error: suite {suite} range capped at <= {ceiling}, got {argv[-1]}\n"
        assert time.perf_counter() - start < 10, argv


def test_suite_ceilings_keep_every_documented_range():
    # the defaults, the acceptance criteria's ranges and the README's example
    used = {"orthogonality": 60, "cohen": 200, "oracle": 20, "closed-forms": 500, "prime-power": 3, "t-a": 12,
            "multiplicativity": 500, "identities": 500, "dirichlet": 2000, "average-order": 5000}
    for name, (_, default_max, ceiling) in verify._SUITES.items():
        assert ceiling is None or max(default_max, used[name]) <= ceiling, name
    # a library cap bounds the suites without a ceiling
    for name, past_cap in (("dirichlet", 10**4 + 1), ("average-order", 10**6 + 1)):
        assert verify._SUITES[name][2] is None
        with pytest.raises(ScaleError):
            run_suite(name, past_cap)


def test_verify_all_checks_every_ceiling_before_any_check(monkeypatch):
    def never(max_n):
        raise AssertionError("a suite ran past a ceiling")

    suites = {name: (never, *rest) for name, (_, *rest) in verify._SUITES.items()}
    monkeypatch.setattr(verify, "_SUITES", suites)
    over = min(ceiling for _, _, ceiling in suites.values() if ceiling) + 1
    with pytest.raises(ScaleError, match="capped at"):
        run_suite("all", over)


def test_verify_output_is_byte_deterministic():
    argv = [sys.executable, "-m", "ramsum", "verify", "--suite", "multiplicativity", "--max", "40"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_runtime_imports_leave_numpy_out():
    # numpy is a test-only dependency: the package and its CLI never load it
    code = "import sys, ramsum, ramsum.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_execute_returns_status_and_text():
    code, out = execute(parse_args(["alpha", "--r", "2", "--prime-bound", "2"]))
    assert code == 0 and out == "0.6875"


def test_asymptotic_formats(capsys):
    code, out, _ = run_main(capsys, "asymptotic", "--r", "2", "--x", "50", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "r,x,prime_bound,empirical,predicted,ratio"
    assert row.startswith("2,50,100000,")
    code, out, _ = run_main(capsys, "asymptotic", "--r", "2", "--x", "50", "--format", "json")
    payload = json.loads(out)
    assert set(payload) == {"subcommand", "r", "x", "prime_bound", "empirical", "predicted", "ratio"}
    num, den = payload["empirical"].split("/")
    from fractions import Fraction

    from ramsum import g_r_partial_sum

    assert Fraction(int(num), int(den)) == g_r_partial_sum(2, 50)


def _lifted_digit_limit(func, *args):
    # run func with the int/str digit limit off, then restore it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return func(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def test_asymptotic_beyond_digit_limit_prints_exact_fraction(capsys):
    from fractions import Fraction

    from ramsum import g_r_partial_sum

    want = g_r_partial_sum(2, 13000)
    limit = sys.get_int_max_str_digits()
    # both parts of the fraction pass the limit the CLI runs under
    assert min(want.numerator, want.denominator).bit_length() > limit * 3.33
    code, out, err = run_main(capsys, "asymptotic", "--r", "2", "--x", "13000")
    assert code == 0 and err == ""
    (line,) = [row for row in out.splitlines() if row.startswith("empirical=")]
    assert _lifted_digit_limit(Fraction, line.removeprefix("empirical=")) == want
    code, out, err = run_main(capsys, "asymptotic", "--r", "2", "--x", "13000", "--format", "json")
    assert code == 0 and err == ""
    assert _lifted_digit_limit(Fraction, json.loads(out)["empirical"]) == want


@pytest.mark.parametrize("k", [0, 1, 511, 512, 513, 1024, 5000, 20000])
def test_decimal_equals_str(k):
    # zeros on either side of every split must survive the zero padding
    for n in (10**k, 10**k - 1, 10**k + 1, 7 * 10**k // 3):
        assert cli._decimal(n) == _lifted_digit_limit(str, n), (k, n)
