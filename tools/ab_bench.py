#!/usr/bin/env python3
"""A/B runs of the benchmark: a parent commit against a change.

    python3 tools/ab_bench.py --workload average-order --seed 17 \\
        --out BENCH_<n>.json

The parent is ``HEAD``, exported with ``git archive`` into a temporary
directory and removed afterwards; the change is the working tree this
script runs from, left uncommitted over ``HEAD``.  Each side runs
``perfbench/run.py`` from its own checkout, so each imports its own
``src/``, and each run lasts the benchmark's own run length.  Runs go one
process at a time, in 10 pairs per workload that alternate which side
runs first (the parent in odd pairs).

The output file holds ``what``, ``command``, ``machine``, ``seed``,
``order`` and ``runs``: one entry per run with ``workload``, ``seed``,
``pair``, ``side``, ``first`` and the ``result`` object that run.py
prints as its last line.  It is rewritten after every run, so an
interrupted A/B run keeps the runs made so far.  A summary goes to
stdout: under ``metrics`` the end-to-end metrics of the complete pairs
(medians, the parent's quartiles and the pairs the change wins, by the
``better`` direction in BENCHMARK.json), and under ``operations``, per
workload and side, every run's operations attempted and failed and the
runs that were not correct or did not finish.  Uses the standard library
only.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PARENT = "HEAD"
PAIRS = 10


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def machine():
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = f" ({line.split(':', 1)[1].strip()})"
                break
    return f"{os.cpu_count()}-core {platform.machine()}{model}, Python {platform.python_version()}"


def run_once(root, workload, seed):
    """The result object of one run.py process in the checkout at root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}", "stderr": done.stderr[-2000:]}
    return json.loads(lines[-1])


def pair_sides(pair):
    """The two sides of a 1-based pair in running order: the parent first in odd pairs."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def summarize(runs, better):
    """Per workload and metric: parent and change medians, parent quartiles, change wins."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair = {}
        for run in runs:
            metrics = run["result"].get("metrics")
            if run["workload"] == workload and metrics:
                by_pair.setdefault(run["pair"], {})[run["side"]] = metrics
        pairs = [sides for sides in by_pair.values() if len(sides) == 2]
        rows = {}
        for name, direction in better.items():
            parent = [sides["parent"][name]["value"] for sides in pairs if name in sides["parent"]]
            change = [sides["change"][name]["value"] for sides in pairs if name in sides["change"]]
            if not parent or len(parent) != len(change):
                continue
            sign = 1 if direction == "lower" else -1
            quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
            rows[name] = {
                "parent_median": statistics.median(parent),
                "parent_quartiles": [quartiles[0], quartiles[2]],
                "change_median": statistics.median(change),
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(parent),
            }
        out[workload] = rows
    return out


def operations(runs):
    """Per workload and side: runs, operations attempted and failed, their failed share,
    and ``bad_runs``, the runs with ``correct`` false or an ``error``."""
    out = {}
    for run in runs:
        result = run["result"]
        row = out.setdefault(run["workload"], {}).setdefault(
            run["side"], {"runs": 0, "attempted": 0, "failed": 0, "bad_runs": 0}
        )
        row["runs"] += 1
        row["attempted"] += result.get("attempted", 0)
        row["failed"] += result.get("failed", 0)
        row["bad_runs"] += not result.get("correct")
    for sides in out.values():
        for row in sides.values():
            row["failed_share"] = row["failed"] / row["attempted"] if row["attempted"] else None
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True, help="a benchmark workload; repeatable")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--what", default="", help="what the change is, for the 'what' field")
    ap.add_argument("--workdir", help="where the temporary checkouts go (default: a new temporary directory)")
    args = ap.parse_args(argv)

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    base = Path(tempfile.mkdtemp(prefix="ab_bench-", dir=args.workdir))
    parent = base / "parent"
    try:
        archive = subprocess.run(["git", "archive", PARENT], cwd=repo, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        roots = {"parent": parent, "change": repo}
        parent_desc = git("rev-parse", "--short", PARENT, cwd=repo)
        better = {m["name"]: m["better"] for m in json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]}
        doc = {
            "what": args.what
            or f"Raw perfbench/run.py result lines of A/B runs: parent {parent_desc} against the working tree.",
            "command": (
                f"python3 perfbench/run.py --workload <w> --seed {args.seed} --trace 0, "
                "each side from its own checkout, run by tools/ab_bench.py"
            ),
            "machine": machine(),
            "seed": args.seed,
            "order": (
                f"{PAIRS} pairs per workload, one process at a time; odd pairs run the parent first, "
                "even pairs the change; 'first' names the side that ran first in each pair"
            ),
            "runs": [],
        }
        for workload in args.workload:
            for pair in range(1, PAIRS + 1):
                sides = pair_sides(pair)
                for side in sides:
                    result = run_once(roots[side], workload, args.seed)
                    run = {"workload": workload, "seed": args.seed, "pair": pair, "side": side, "first": sides[0]}
                    doc["runs"].append({**run, "result": result})
                    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
                    print(f"{workload} pair {pair} {side}: {json.dumps(result)}", file=sys.stderr, flush=True)
        summary = {"metrics": summarize(doc["runs"], better), "operations": operations(doc["runs"])}
        print(json.dumps(summary, indent=1))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
