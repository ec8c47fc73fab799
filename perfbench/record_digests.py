"""Record the output digest of one pass per workload and seed in digests.json.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Record only from a commit whose outputs are trusted: every benchmark run
compares its passes with these digests.  Each recorded pass is first held
against the independent route on the same sample a run checks.  A seed
that is already recorded is checked against its digest, never replaced.
"""

import json
import sys

import run
import workloads


def main(first, last):
    rs = run.import_ramsum()
    caches = run.lru_caches(rs)
    known = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for workload in workloads.GENERATORS:
        recorded = known.setdefault(workload, {})
        for seed in range(first, last + 1):
            evals = workloads.generate(workload, seed)
            outputs, _, errors = run.run_pass(evals, workloads.bind(rs), caches)
            if errors:
                raise SystemExit(f"{workload} seed {seed}: {errors} evaluations raised")
            for i in workloads.check_sample(workload, seed, evals):
                kind, args = evals[i]
                if not workloads.check(rs, kind, args, outputs[i]):
                    raise SystemExit(f"{workload} seed {seed}: independent route disagrees on {kind}{args}")
            digest = workloads.digest(outputs)
            if recorded.setdefault(str(seed), digest) != digest:
                raise SystemExit(f"{workload} seed {seed}: digest {digest} != recorded {recorded[str(seed)]}")
            print(workload, seed, digest, flush=True)
        run.DIGESTS.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
