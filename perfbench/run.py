"""The ramsum benchmark: one run of one workload.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ramsum is imported from ``src/`` next to
this directory.  One run is one fresh single-threaded process and a closed
loop with one caller: each evaluation is issued after the previous one
returns.  The workload's inputs come from ``--seed``; ramsum receives only
those inputs.

The timed phase repeats *passes* over the generated evaluations until
``--seconds`` have elapsed (at least one pass).  Every ramsum cache is
cleared before each pass, so each pass pays cold caches the way a
``ramsum`` CLI call does.  After the timed phase the exact outputs of
every pass are hashed and compared with the digest recorded for the seed,
and a seeded sample is recomputed along the independent route.

Timings are in reference-speed seconds.  The machine's speed swings by
up to 2x with load outside this process, so the run times a fixed
stdlib-only reference workload (a *probe*, see ``probe.py``) between
evaluations, at least every ``SEGMENT_S``, and scales each measured time
to the speed at which the probe takes its reference time.

End-to-end metrics: ``setup_s`` is the median time of fresh processes
that import ramsum and generate the inputs, scaled the same way by a
reference process that imports numpy; ``wall_s`` is the median over the
passes of a pass's time; ``ops_per_s`` is evaluations per pass over
``wall_s``; ``op_p50_ms`` is the median over the passes of a pass's median
evaluation time; ``peak_rss_mb`` is the process's maximum resident set at
the end of the timed phase.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced, the per-layer metrics (lower medians over traced passes, in
raw seconds) are printed instead, and the spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 9
# The reference process for set-up, and its seconds at the reference speed
# (close to its fastest on the baseline machine).
SETUP_REF_CMD = [sys.executable, "-c", "import numpy"]
SETUP_REF_S = 0.12
# The longest stretch of evaluations between two probes.
SEGMENT_S = 0.02

# Per workload, the functions predicted to dominate self time: parsing plus
# the convolution (hosted by multiplicative_eval) on tabulate, the residue
# scan on deep-moduli, the definitional product sum on oracle and the
# asymptotics module on average-order.
PREDICTED_DOMINANT = {
    "tabulate": {
        "congruences.parse_polynomial",
        "congruences.as_poly_system",
        "arith.moduli_tuple",
        "arith.multiplicative_eval",
        "products.e_g_fast",
        "products.r_g_fast",
    },
    "deep-moduli": {"congruences._local_root_count"},
    "oracle": {"products._product_sum", "products._poly_c_values"},
    "average-order": {
        "asymptotics.g_r_sieve",
        "asymptotics.asymptotic_report",
        "asymptotics.dirichlet_decomposition_check",
        "asymptotics.alpha_r",
    },
}


def import_ramsum():
    """Import ramsum from this checkout's sources, never from elsewhere."""
    init = SRC / "ramsum" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no ramsum sources at {init}")
    sys.path.insert(0, str(SRC))
    import ramsum

    if Path(ramsum.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported ramsum from {ramsum.__file__}, not {init}")
    import ramsum.cli  # noqa: F401  (the package does not import its CLI)

    return ramsum


def lru_caches(rs):
    """Every lru_cache-wrapped function in ramsum, keyed 'module.name'."""
    out = {}
    for module in vars(rs).values():
        if getattr(module, "__name__", "").startswith("ramsum."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    out[f"{obj.__module__.removeprefix('ramsum.')}.{obj.__name__}"] = obj
    return out


def _timed_process(argv):
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def measure_setup(workload, seed):
    """Median reference-speed time of fresh processes that import ramsum and generate inputs.

    Each is scaled like an evaluation, by the reference process timed
    before and after it: a fresh interpreter that imports numpy.  Process
    start and imports slow far less than probe.py's probes under the same
    contention, so those would over-correct them.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    samples = []
    before = _timed_process(SETUP_REF_CMD)
    for _ in range(SETUP_SAMPLES):
        elapsed = _timed_process(cmd)
        after = _timed_process(SETUP_REF_CMD)
        samples.append(elapsed * SETUP_REF_S * 2 / (before + after))
        before = after
    return statistics.median(samples)


def run_pass(evals, calls, caches, tracer=None, eval_base=0, speed=None):
    """One pass over the evaluations with cold caches; returns (outputs, latencies, errors).

    Latencies are reference-speed seconds: the evaluations between two
    timings of the ``speed`` probe are scaled by its ``scale``.
    """
    speed = speed or Probe()
    for cache in caches.values():
        cache.cache_clear()
    if tracer:
        tracer.reset()
    outputs, latencies, errors = [], [], 0
    clock = time.perf_counter
    before = speed.time()
    segment_start, segment_end = clock(), 0
    for i, (kind, args) in enumerate(evals):
        if tracer:
            tracer.eval_id = eval_base + i
        t0 = clock()
        try:
            out = calls[kind](*args)
        except Exception as exc:  # an evaluation that raises counts as an error
            out = exc
            errors += 1
        latencies.append(clock() - t0)
        outputs.append(out)
        if i + 1 == len(evals) or clock() - segment_start >= SEGMENT_S:
            after = speed.time()
            scale = speed.scale(before, after)
            for j in range(segment_end, i + 1):
                latencies[j] *= scale
            before, segment_start, segment_end = after, clock(), i + 1
    return outputs, latencies, errors


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rs = import_ramsum()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.GENERATORS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    evals = workloads.generate(args.workload, args.seed)
    if args.setup_only:
        return 0

    setup_s = measure_setup(args.workload, args.seed)
    caches = lru_caches(rs)
    tracer = tracing.Tracer(rs) if args.trace else None
    speed = Probe(workloads.PROBE_KIND[args.workload])

    # -- timed phase ----------------------------------------------------
    passes = []  # per pass: (outputs digest or None on errors, per-layer metrics when traced)
    # traced? -> per pass (time, median evaluation, 90th percentile evaluation).
    # Keeping three numbers a pass holds memory flat however many passes run.
    timings = {False: [], True: []}
    attempted = failed = 0
    phase_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, untraced first.
        trace_this = bool(tracer) and len(timings[True]) < len(timings[False])
        if trace_this:
            tracer.install()
        try:
            outputs, pass_latencies, errors = run_pass(
                evals, workloads.bind(rs), caches, tracer if trace_this else None, len(evals) * len(passes), speed
            )
        finally:
            if trace_this:
                tracer.uninstall()
        layer = None
        if trace_this:
            layer = tracer.snapshot()
            for name, cache in caches.items():
                info = cache.cache_info()
                layer[f"{name}.hits"] = info.hits
                layer[f"{name}.misses"] = info.misses
        passes.append((None if errors else workloads.digest(outputs), layer))
        timings[trace_this].append(
            (sum(pass_latencies), statistics.median(pass_latencies), percentile(pass_latencies, 0.9))
        )
        attempted += len(evals)
        failed += errors
        if time.perf_counter() - phase_start >= args.seconds and (not tracer or timings[True]):
            break
    timed_s = time.perf_counter() - phase_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness, outside the timed phase ---------------------------
    notes = []
    known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = known.get(args.workload, {}).get(str(args.seed))
    reference = recorded or next((d for d, _ in passes if d), None)
    if not recorded:
        notes.append(f"no digest recorded for seed {args.seed}; passes compared with each other")
    for digest, _ in passes:
        if digest is not None and digest != reference:
            failed += len(evals)  # the digest cannot say which evaluation differs
            notes.append(f"pass digest {digest[:12]} != expected {reference[:12]}")
    for i in workloads.check_sample(args.workload, args.seed, evals):
        kind, eargs = evals[i]
        out = outputs[i]
        try:
            ok = not isinstance(out, Exception) and workloads.check(rs, kind, eargs, out)
            why = "independent route disagrees"
        except Exception as exc:  # a check that raises is a failed check
            ok, why = False, f"check raised {exc!r}"
        if not ok:
            failed += 1
            notes.append(f"{why} on {kind}{eargs}")
    failed = min(failed, attempted)
    correct = failed == 0

    # -- report ----------------------------------------------------------
    # Each timing is the median over the run's untraced passes.
    walls, p50s, p90s = zip(*timings[False])
    wall_s = statistics.median(walls)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (len(evals) / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(p50s) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(evals)} evaluations per pass, "
          f"{len(walls)} untraced and {len(timings[True])} traced passes in {timed_s:.3f} s; "
          "closed loop, one caller; evaluation times at reference speed")
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    if len(evals) >= 100:
        print(f"  op_p90_ms = {statistics.median(p90s) * 1e3:.6g} ms (n={len(evals)} per pass)")
    else:
        print(f"  op_p90_ms not reported: {len(evals)} evaluations per pass, fewer than 100")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted})")
    for note in notes:
        print(f"  note: {note}")

    if tracer:
        overhead = statistics.median(t[0] for t in timings[True]) / wall_s
        layers = [layer for _, layer in passes if layer is not None]
        metrics = per_layer_report(args, tracer, tracing, layers, overhead)
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer_report(args, tracer, tracing, layers, overhead):
    """Per-layer metrics (lower medians over traced passes); writes the span file."""
    units = tracing.metric_units()
    values = {name: statistics.median_low(layer.get(name, 0) for layer in layers) for name in units}
    values["trace.overhead"] = overhead
    by_self = sorted(((values[f"{name}.self_s"], name) for name in tracer.names), reverse=True)
    predicted = PREDICTED_DOMINANT[args.workload]
    group_s = sum(values[f"{name}.self_s"] for name in predicted)
    other_s, other = next((s, name) for s, name in by_self if name not in predicted)
    dominant = {
        "predicted": sorted(predicted),
        "predicted_self_s": group_s,
        "largest_other": other,
        "largest_other_self_s": other_s,
        "top_function": by_self[0][1],
        "matches": group_s > other_s,
    }
    print(f"  trace: overhead {overhead:.3f}x (traced/untraced wall_s)")
    print(f"  trace: predicted dominant {sorted(predicted)} self {group_s:.4g} s per pass; "
          f"largest other {other} {other_s:.4g} s; prediction "
          f"{'holds' if dominant['matches'] else 'does NOT hold'}; top function {by_self[0][1]}")
    for self_s, name in by_self[:6]:
        print(f"    {name}: self {self_s:.4g} s, calls {values[f'{name}.calls']:.0f}")
    OUT_DIR.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "per_layer": values,
        "dominant": dominant,
        **tracer.span_dump(),
    }
    (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
