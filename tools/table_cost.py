#!/usr/bin/env python3
"""Wall time, max RSS and stdout sha256 of one ``ramsum`` command in a child process.

    python3 tools/table_cost.py E --polys "x;x^2-1" --range 1000

Runs ``python -m ramsum <args>`` with ``src/`` of this checkout first on
``PYTHONPATH`` and prints one line: the exit code, the wall seconds, the
child's max resident set size in MB (``ru_maxrss`` of the children, so
run one command per invocation) and the sha256 of its stdout, which is
hashed as it arrives and never held whole.  Uses the standard library
only.
"""

import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def cost(argv):
    """(exit code, wall seconds, max RSS in MB, stdout sha256) of ``ramsum argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "ramsum", *argv], stdout=subprocess.PIPE, env=env) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
        code = child.wait()
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return code, wall, rss_mb, digest.hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 1
    code, wall, rss_mb, sha = cost(argv)
    print(f"exit {code}  wall {wall:.2f} s  max RSS {rss_mb:.1f} MB  stdout sha256 {sha}  ramsum {' '.join(argv)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
