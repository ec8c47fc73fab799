import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "pass_profile.py"


def test_pass_profile_prints_each_kind_and_checks_the_digest():
    # deep-moduli seed 1: 40 evaluations of three kinds, one pass
    argv = [sys.executable, str(_TOOL), "--workload", "deep-moduli", "--seed", "1", "--passes", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].endswith("outputs match the recorded digest"), lines[0]
    head = next(i for i, line in enumerate(lines) if line.startswith("cache "))
    rows = {line.split()[0]: int(line.split()[1]) for line in lines[2:head]}
    assert rows == {"e_g_fast": 16, "r_g_fast": 16, "count_roots": 8, "pass": 40}


def test_pass_profile_prints_cache_hits_and_misses():
    # tabulate seed 1, one pass: 571 class walks for 1847 local factors
    argv = [sys.executable, str(_TOOL), "--workload", "tabulate", "--seed", "1", "--passes", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("cache "))
    rows = {line.split()[0]: tuple(map(int, line.split()[1:])) for line in lines[head + 1 :]}
    assert rows["congruences._local_class_sum"] == (1276, 571)
    assert "arith.factorize" in rows and "products._poly_c_values" in rows


def test_the_benchmark_clears_the_class_walk_caches():
    # run.py clears every cache that lru_caches finds before each pass, so
    # each pass starts the per-condition and residue-scan caches cold
    bench = _TOOL.parent.parent / "perfbench"
    code = (
        f"import sys; sys.path.insert(0, {str(bench)!r}); import run; "
        "print(*sorted(run.lru_caches(run.import_ramsum())))"
    )
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = done.stdout.split()
    assert "congruences._condition" in names and "congruences._scanned_roots" in names


@pytest.mark.parametrize("lines_read", [1, 0])
def test_pass_profile_is_quiet_when_its_reader_closes_early(lines_read):
    # a reader that closes after the first line, as `| head -1` does, or
    # before any: the rest of the report and the flush at exit go nowhere,
    # with no traceback, and the exit status is still the digest check's
    argv = [sys.executable, str(_TOOL), "--workload", "deep-moduli", "--seed", "1", "--passes", "1"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = [child.stdout.readline() for _ in range(lines_read)]
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 0, err
    assert err == ""
    assert all(line.endswith(b"outputs match the recorded digest\n") for line in first)
