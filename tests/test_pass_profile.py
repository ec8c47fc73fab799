import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "pass_profile.py"


def test_pass_profile_prints_each_kind_and_checks_the_digest():
    # deep-moduli seed 1: 40 evaluations of three kinds, one pass
    argv = [sys.executable, str(_TOOL), "--workload", "deep-moduli", "--seed", "1", "--passes", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].endswith("outputs match the recorded digest"), lines[0]
    rows = {line.split()[0]: int(line.split()[1]) for line in lines[2:]}
    assert rows == {"e_g_fast": 16, "r_g_fast": 16, "count_roots": 8, "pass": 40}
