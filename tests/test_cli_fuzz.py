"""Argv fuzz of the CLI: every run ends in an exit code 0..4, never in a traceback.

Each example runs ``ramsum.cli.main`` in one child process, one at a time,
with a timeout and a 1 GiB address-space limit set on that child only.
Generated sizes stay small enough that a valid command finishes in well
under a second; the large values sit past the caps, where the command
must stop with a scale error before it builds anything, or, for the dense
polynomial of degree 8000, within the step cap of its first power over F_p.
"""

import json
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

_CHILD = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from ramsum.cli import main; sys.exit(main(sys.argv[1:]))"
)

# values past a cap (10^6 table rows or moduli a row, x <= 10^6, prime bound <= 10^7)
_HUGE = st.sampled_from((10**6 + 1, 10**7 + 1, 2 * 10**10, 10**40))
_JUNK = st.sampled_from(("", "--bogus", "1e3", "x", "xml"))


def _ints(lo, hi, bad=(0, -1)):
    """Mostly integers in [lo, hi]; sometimes a value below it or past a cap."""
    return st.one_of(st.integers(lo, hi), st.sampled_from(bad), _HUGE)


def _joined(values, sep, n):
    return st.lists(values, min_size=n, max_size=n).map(lambda xs: sep.join(map(str, xs)))


_POLYS = st.sampled_from(("x", "x^2-1", "2x-1", "x^3+x+1", "-x+5", "3", "x^65+1", "x^^2", "x^1000001"))
_MODULI = st.one_of(st.integers(1, 60), st.sampled_from((0, -1, 1000003)))

# the lists of n moduli, polynomials or shifts, and their separators
_SIZED = {
    "--moduli": (_MODULI, ","),
    "--polys": (_POLYS, ";"),
    "--shifts": (st.integers(-5, 5), ","),
}
_STRATEGIES = {
    "E": ("fast", "direct"),
    "R": ("fast", "direct"),
    "T": ("closed", "spectral", "direct"),
    "roots": ("multiplicative", "direct"),
}
_VALUES = {
    "--a": _ints(-30, 30),
    "--r": _ints(2, 5, bad=(1, 0, 51, 52, 256, 257)),
    "--range": _ints(1, 9),
    "--x": _ints(1, 2000),
    "--prime-bound": _ints(1, 1000),
    "--suite": st.sampled_from(("orthogonality", "cohen", "oracle", "average-order", "all", "bogus")),
    "--format": st.sampled_from(("plain", "json", "csv")),
}

# per subcommand, groups of options; each group gives one of its options or none
_GROUPS = {
    "E": (("--moduli", "--range"), ("--polys", "--shifts"), ("--strategy",), ("--format",)),
    "R": (("--moduli", "--range"), ("--polys", "--shifts"), ("--strategy",), ("--format",)),
    "c": (("--moduli", "--range"), ("--a",), ("--format",)),
    "T": (("--moduli", "--range"), ("--a",), ("--r",), ("--strategy",), ("--format",)),
    "roots": (("--moduli",), ("--polys",), ("--strategy",), ("--format",)),
    "alpha": (("--r",), ("--prime-bound",), ("--format",)),
    "asymptotic": (("--r",), ("--x",), ("--prime-bound",), ("--format",)),
    "verify": (("--suite",), ("--format",)),
    "bogus": (("--a",),),
}


@st.composite
def _argv(draw):
    """A subcommand and its options, mostly well formed: one option in ten is
    left out, one value in ten is junk, and one system in ten has a wrong length.

    Hypothesis starts from the simplest draws, 0 and the first of a list,
    and favours the ends of a range: so the well-formed choice is always the
    simplest one, and each rare one is a draw of 5 from 0..9.
    """
    cmd = draw(st.sampled_from(tuple(_GROUPS)))
    n = draw(st.integers(1, 3))
    argv = [cmd]
    for group in _GROUPS[cmd]:
        if draw(st.integers(0, 9)) == 5:
            continue
        opt = draw(st.sampled_from(group))
        if opt in _SIZED:
            size = n + 1 if draw(st.integers(0, 9)) == 5 else n
            values = _joined(*_SIZED[opt], size)
        else:
            values = st.sampled_from(_STRATEGIES[cmd]) if opt == "--strategy" else _VALUES[opt]
        # --opt=value, so that a value may start with "-"
        argv.append(f"{opt}={draw(_JUNK if draw(st.integers(0, 9)) == 5 else values)}")
    if cmd == "verify":
        # a suite's default range takes seconds
        argv.append(f"--max={draw(st.sampled_from((1, 2, 0, -1)))}")
    return argv


def _dense(degree):
    """x^degree plus every lower power with a coefficient in 1..9 and alternating signs."""
    return f"x^{degree}" + "".join(f"{'-+'[k % 2]}{k % 9 + 1}x^{k}" for k in range(degree - 1, -1, -1))


def _format(argv):
    """The --format a parsed request ends up with: the one given, or plain."""
    return next((a.removeprefix("--format=") for a in argv if a.startswith("--format=")), "plain")


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_argv())
@example(["asymptotic", "--r", "200", "--x", "100", "--prime-bound", "100"])
@example(["alpha", "--r", "20000000000", "--prime-bound", "3"])
@example(["roots", "--moduli", "1000000007", "--polys", _dense(8000)])  # past the F_p step cap
@example(["verify", "--suite", "oracle", "--max", "100"])  # past the suite's ceiling
def test_cli_argv_ends_in_an_exit_code_without_traceback(argv):
    done = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True, timeout=60)
    assert 0 <= done.returncode <= 4, (argv, done.returncode, done.stderr[-2000:])
    assert "Traceback" not in done.stderr + done.stdout, (argv, done.stderr[-2000:])
    if done.returncode in (2, 3):
        kind = "domain" if done.returncode == 2 else "scale"
        if _format(argv) == "json":
            error = json.loads(done.stdout)["error"]
            assert error["type"] == kind and error["message"], argv
        else:
            assert done.stderr.startswith(f"ramsum: {kind} error: "), argv
