#!/usr/bin/env python3
"""Where a benchmark pass spends its time, per kind of evaluation.

    python3 tools/pass_profile.py --workload tabulate --seed 1 --passes 35

Generates the workload's evaluations with ``perfbench/workloads.py``,
runs them in passes in this process the way ``perfbench/run.py`` does
(every ramsum ``lru_cache`` cleared before each pass, calls bound through
``workloads.bind``) and prints, per kind, the evaluations per pass and
the median over the passes of their summed time, then the median pass.
A CLI evaluation's kind carries its subcommand (``cli T``).  Then it
prints every ramsum ``lru_cache``'s hits and misses in one pass (the
last; each pass starts from empty caches).  Times are
raw ``perf_counter`` seconds, not scaled by the benchmark's speed probe,
so compare two trees only from runs made back to back.  Each pass's
output digest is checked against ``perfbench/digests.json`` when the seed
has one.  Writes nothing under ``perfbench/``.  Uses the standard library
only.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def kind_of(kind, args):
    return f"cli {args[0][0]}" if kind == "cli" else kind


def profile(workload, seed, passes):
    """The evaluations; per pass ({kind: seconds}, pass seconds, digest or None when an
    evaluation raised); and each cache's (hits, misses) in the last pass."""
    rs = run.import_ramsum()
    caches = run.lru_caches(rs)
    evals = workloads.generate(workload, seed)
    calls = workloads.bind(rs)
    clock = time.perf_counter
    out = []
    for _ in range(passes):
        for cache in caches.values():
            cache.cache_clear()
        per_kind, outputs, failed = {}, [], False
        start = clock()
        for kind, args in evals:
            t0 = clock()
            try:
                result = calls[kind](*args)
            except Exception as exc:  # reported, as run.py counts it, by a missing digest
                result, failed = exc, True
            key = kind_of(kind, args)
            per_kind[key] = per_kind.get(key, 0.0) + clock() - t0
            outputs.append(result)
        total = clock() - start
        out.append((per_kind, total, None if failed else workloads.digest(outputs)))
    stats = {name: cache.cache_info()[:2] for name, cache in caches.items()}
    return evals, out, stats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=35)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be >= 1")

    evals, passes, stats = profile(args.workload, args.seed, args.passes)
    counts = {}
    for kind, eargs in evals:
        key = kind_of(kind, eargs)
        counts[key] = counts.get(key, 0) + 1
    recorded = json.loads(run.DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
    digests = {digest for _, _, digest in passes}
    if None in digests:
        ok, verdict = False, "an evaluation raised"
    elif recorded is None:
        ok, verdict = True, "no digest recorded for this seed"
    else:
        ok = digests == {recorded}
        verdict = "match the recorded digest" if ok else "DIFFER from the recorded digest"

    try:
        print(f"workload {args.workload} seed {args.seed}: {len(evals)} evaluations, {args.passes} passes, "
              f"caches cleared before each; outputs {verdict}")
        print(f"{'kind':<22}{'per pass':>9}{'median ms':>12}")
        rows = sorted(((statistics.median(p[0].get(k, 0.0) for p in passes), k) for k in counts), reverse=True)
        for seconds, key in rows:
            print(f"{key:<22}{counts[key]:>9}{seconds * 1e3:>12.3f}")
        print(f"{'pass':<22}{len(evals):>9}{statistics.median(p[1] for p in passes) * 1e3:>12.3f}")
        print(f"{'cache':<36}{'hits':>9}{'misses':>9}")
        for name, (hits, misses) in sorted(stats.items()):
            print(f"{name:<36}{hits:>9}{misses:>9}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head -1``): the rest of the report,
        # and the flush at exit, go to devnull; the digest check still decides.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
