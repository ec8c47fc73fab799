"""The CLI's bytes, frozen: exit code, stdout and stderr of a fixed corpus of commands.

``tests/data/cli_corpus.json`` holds what each command in ``CORPUS``
printed when it was recorded.  A change that must keep the CLI's output
byte-identical keeps this test passing; a change that alters the output
on purpose re-records the file and says so:

    PYTHONPATH=src python tests/test_cli_corpus.py

Each command runs in this process through ``cli.main``, with stdout and
stderr captured.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ramsum import cli

FIXTURE = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

CORPUS = (
    # tables in each format
    ["E", "--polys", "x^2-1;x+1", "--range", "4", "--format", "plain"],
    ["E", "--polys", "x^2-1;2x-1", "--range", "5", "--format", "csv"],
    ["R", "--polys", "x-1;x^2+x+1", "--range", "5", "--format", "json"],
    ["E", "--shifts", "3,4", "--range", "8", "--format", "csv"],
    ["R", "--shifts", "0,1,2", "--range", "3", "--format", "plain"],
    ["c", "--a", "12", "--range", "20", "--format", "json"],
    ["c", "--a", "7", "--range", "12", "--format", "csv"],
    # spectral T_a, tables and scalars
    ["T", "--a", "3", "--r", "2", "--range", "8", "--strategy", "spectral", "--format", "plain"],
    ["T", "--a", "0", "--r", "3", "--range", "4", "--strategy", "spectral", "--format", "csv"],
    ["T", "--a", "5", "--r", "2", "--range", "6", "--strategy", "spectral", "--format", "json"],
    ["T", "--moduli", "12,12,6", "--a", "4", "--strategy", "spectral"],
    ["T", "--moduli", "30,30", "--a", "7", "--strategy", "spectral", "--format", "json"],
    # other scalars
    ["E", "--moduli", "12,18", "--polys", "x^2-1;2x-1"],
    ["R", "--moduli", "9,15", "--shifts", "1,1", "--format", "json"],
    ["roots", "--moduli", "12", "--polys", "x^2-1", "--format", "json"],
    ["alpha", "--r", "2", "--prime-bound", "100"],
    ["asymptotic", "--r", "2", "--x", "100", "--prime-bound", "1000", "--format", "json"],
    # usage errors
    ["E", "--moduli", "6", "--polys", "x^^2"],
    ["bogus"],
    ["E", "--moduli", "6,6", "--polys", "x"],
    ["E", "--shifts", "1,2", "--moduli", "6"],
    # domain errors
    ["c", "--moduli", "0", "--a", "1"],
    ["E", "--moduli", "0,6", "--shifts", "1,2"],
    ["alpha", "--r", "0", "--prime-bound", "100"],
    # scale errors
    ["T", "--moduli", "1000003,1000003", "--a", "0", "--strategy", "spectral"],
    ["E", "--shifts", "1,2,3", "--range", "101"],
    ["alpha", "--r", "2", "--prime-bound", "10000001"],
    # errors in JSON mode
    ["c", "--moduli", "0", "--a", "1", "--format", "json"],
    ["E", "--moduli", "6", "--polys", "x^^2", "--format", "json"],
    ["asymptotic", "--r", "0", "--x", "10", "--format", "json"],
    ["T", "--moduli", "1000003,1000003", "--a", "0", "--strategy", "spectral", "--format", "json"],
)


def run(argv):
    """{"argv", "code", "stdout", "stderr"} of one in-process ``cli.main`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_corpus_covers_every_exit_code():
    frozen = json.loads(FIXTURE.read_text())
    assert [entry["argv"] for entry in frozen] == [list(argv) for argv in CORPUS]
    assert {entry["code"] for entry in frozen} == {0, 1, 2, 3}


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_cli_bytes_unchanged(index):
    entry = json.loads(FIXTURE.read_text())[index]
    assert run(entry["argv"]) == entry


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps([run(argv) for argv in CORPUS], indent=1) + "\n")
    print(f"recorded {len(CORPUS)} commands in {FIXTURE}", file=sys.stderr)
