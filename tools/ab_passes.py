#!/usr/bin/env python3
"""In-process A/B passes: a parent's ramsum against the working tree's, side by side.

    python3 tools/ab_passes.py --workload deep-moduli --seed 29 --rounds 30 --passes 20

Exports ``src/ramsum`` of the parent (``HEAD``) with ``git archive`` into a
temporary directory, removed afterwards, and imports it and the working
tree's ``src/ramsum`` in this process as two packages, which works because
ramsum imports its own modules by relative imports only.  It generates one
workload's evaluations with ``perfbench/workloads.py`` and runs rounds: in
each round every side runs ``--passes`` passes, the parent first in odd
rounds and the change first in even ones, and every pass starts with that
side's ``lru_cache``s cleared, as ``perfbench/run.py`` does.  It prints, per
side, the median pass time and the median evaluation time (over the
passes, of each pass's median evaluation), the rounds the side wins on
each by its round's medians, and whether every pass's digest equals the
one ``perfbench/digests.json`` records for the seed.

This sizes an effect; it does not claim one.  The two sides share one
process, so it measures neither resident memory nor set-up, and its times
are raw ``perf_counter`` seconds, not scaled by the benchmark's probe.
Claims stay with ``tools/ab_bench.py``, which runs ``perfbench/run.py`` for
each side in its own processes.  Writes nothing under ``perfbench/``.  Uses
the standard library only.
"""

import argparse
import importlib
import importlib.util
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ and the exported tree as they are
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

PARENT = "HEAD"
SIDES = ("parent", "change")


def import_tree(name, directory):
    """The ramsum package in ``directory``, imported under ``name`` with its CLI."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")  # the package does not import its CLI
    return package


def lru_caches(package):
    """Every lru_cache-wrapped function in the package's modules, each once."""
    prefix = package.__name__ + "."
    caches = {}
    for module in vars(package).values():
        if getattr(module, "__name__", "").startswith(prefix):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    caches[id(obj)] = obj
    return list(caches.values())


def round_sides(rnd):
    """The two sides of a 1-based round in running order: the parent first in odd rounds."""
    return SIDES if rnd % 2 else SIDES[::-1]


def run_passes(package, caches, evals, passes):
    """Per pass: (pass seconds, median evaluation seconds, digest or None when an evaluation raised)."""
    calls = workloads.bind(package)
    clock = time.perf_counter
    out = []
    for _ in range(passes):
        for cache in caches:
            cache.cache_clear()
        times, outputs, failed = [], [], False
        for kind, args in evals:
            t0 = clock()
            try:
                result = calls[kind](*args)
            except Exception as exc:  # reported by a missing digest, as run.py counts it
                result, failed = exc, True
            times.append(clock() - t0)
            outputs.append(result)
        out.append((sum(times), statistics.median(times), None if failed else workloads.digest(outputs)))
    return out


def summarize(rounds):
    """Per side: median pass and evaluation seconds over every pass, and the rounds won on each.

    ``rounds`` holds one {side: [(pass seconds, median evaluation seconds, digest), ...]}
    per round.  A side wins a round on a metric when its median over that
    round's passes is lower than the other side's; a tie wins for neither.
    """
    out = {}
    for side in SIDES:
        runs = [run for rnd in rounds for run in rnd[side]]
        out[side] = {
            "pass_s": statistics.median(run[0] for run in runs),
            "eval_s": statistics.median(run[1] for run in runs),
            "pass_wins": 0,
            "eval_wins": 0,
        }
    for rnd in rounds:
        for i, metric in enumerate(("pass", "eval")):
            medians = {side: statistics.median(run[i] for run in rnd[side]) for side in SIDES}
            for side, other in (SIDES, SIDES[::-1]):
                out[side][f"{metric}_wins"] += medians[side] < medians[other]
    return out


def digest_verdicts(rounds, recorded):
    """Per side: True when every pass's digest equals ``recorded`` (or, when None, the
    first digest of either side), else False; an evaluation that raised is False."""
    reference = recorded or next(run[2] for rnd in rounds for side in SIDES for run in rnd[side])
    return {side: all(run[2] == reference for rnd in rounds for run in rnd[side]) for side in SIDES}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--passes", type=int, default=20, help="passes per side and round")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        ap.error("--rounds and --passes must be >= 1")

    base = Path(tempfile.mkdtemp(prefix="ab_passes-"))
    try:
        archive = subprocess.run(
            ["git", "archive", PARENT, "src/ramsum"], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base)
        packages = {
            "parent": import_tree("ab_parent_ramsum", base / "src" / "ramsum"),
            "change": import_tree("ab_change_ramsum", ROOT / "src" / "ramsum"),
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    caches = {side: lru_caches(package) for side, package in packages.items()}
    evals = workloads.generate(args.workload, args.seed)

    rounds = []
    for rnd in range(1, args.rounds + 1):
        rounds.append(
            {side: run_passes(packages[side], caches[side], evals, args.passes) for side in round_sides(rnd)}
        )
    summary = summarize(rounds)
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text()).get(args.workload, {})
    recorded = recorded.get(str(args.seed))
    verdicts = digest_verdicts(rounds, recorded)

    print(f"workload {args.workload} seed {args.seed}: {len(evals)} evaluations, {args.rounds} rounds of "
          f"{args.passes} passes a side, caches cleared before each pass; raw perf_counter times")
    print(f"{'side':<8}{'pass ms':>10}{'eval us':>10}{'pass wins':>11}{'eval wins':>11}  digests")
    for side in SIDES:
        row = summary[side]
        what = "recorded" if recorded else "the first pass (none recorded)"
        print(f"{side:<8}{row['pass_s'] * 1e3:>10.3f}{row['eval_s'] * 1e6:>10.2f}{row['pass_wins']:>11}"
              f"{row['eval_wins']:>11}  {'equal' if verdicts[side] else 'DIFFER from'} {what}")
    parent, change = summary["parent"], summary["change"]
    print(f"change/parent: pass {change['pass_s'] / parent['pass_s'] - 1:+.1%}, "
          f"evaluation {change['eval_s'] / parent['eval_s'] - 1:+.1%}")
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
