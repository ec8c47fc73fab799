"""Tests of the ramsum benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

rs = run.import_ramsum()

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)


def run_pass(evals, trace=None):
    caches = run.lru_caches(rs)
    if trace:
        trace.install()
    try:
        return run.run_pass(evals, workloads.bind(rs), caches, trace)
    finally:
        if trace:
            trace.uninstall()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_generates_identical_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced_and_recorded(workload):
    evals = workloads.generate(workload, 0)
    plain, _, errors = run_pass(evals)
    trace = tracer.Tracer(rs)
    traced, _, traced_errors = run_pass(evals, trace)
    assert errors == traced_errors == 0
    assert workloads.digest(traced) == workloads.digest(plain)
    recorded = json.loads(run.DIGESTS.read_text())[workload]["0"]
    assert workloads.digest(plain) == recorded
    assert sum(calls for calls, _, _ in trace.stats) > 0


def test_tracer_patches_every_binding_and_restores_them():
    original = rs.congruences._local_root_count
    trace = tracer.Tracer(rs)
    trace.install()
    try:
        assert rs.products._local_root_count is rs.congruences._local_root_count
        assert rs.products._local_root_count is not original
    finally:
        trace.uninstall()
    assert rs.products._local_root_count is original
    assert rs.congruences._local_root_count is original


def test_oracle_big_integer_class_and_evicting_sweep():
    evals = workloads.generate("oracle", 3)
    big = [(kind, args) for kind, args in evals if kind != "t_a" and len(args[0]) == 4]
    assert len(big) == workloads.ORACLE_BIG_COUNT
    lo, hi = workloads.ORACLE_BIG_LCM
    for _, (_, moduli) in big:
        assert lo <= max(moduli) < hi
    trace = tracer.Tracer(rs)
    _, _, errors = run_pass(big, trace)
    assert errors == 0
    assert trace.counters["products.direct.bigint_calls"] == len(big)
    assert trace.counters["products.direct.int64_calls"] == 0

    sweep = evals[: len(workloads.CORPUS) * workloads.SWEEP_MODULI]
    assert len({args for _, args in sweep}) == len(sweep) > 1024
    run_pass(sweep)
    cache = rs.products._poly_c_values
    info = cache.cache_info()
    assert info.misses == len(sweep) and info.currsize == info.maxsize == 1024
    (g,), (m,) = sweep[0][1]
    cache(rs.parse_polynomial(g).coeffs, m)
    assert cache.cache_info().misses == info.misses + 1  # the first key was evicted


def test_deep_moduli_heavy_root_count_keys_never_repeat():
    evals = workloads.generate("deep-moduli", 4)
    trace = tracer.Tracer(rs)
    _, _, errors = run_pass(evals, trace)
    assert errors == 0
    scanned = trace.counters["congruences.root_scan.residues"]
    assert scanned > len(evals) * workloads.HEAVY_RESIDUES
    seen = set()
    for kind, args in evals:
        units = args[2] if kind == "count_roots" else False
        for p, _ in workloads.DEEP_HEADS:
            keys = workloads._heavy_keys(kind, args[0], args[1], units, p)
            assert not keys & seen
            seen |= keys


def test_benchmark_json_matches_the_workloads_and_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.metric_units())
    assert [m["unit"] for m in spec["per_layer"]] == list(tracer.metric_units().values())


def test_every_workload_names_a_probe():
    assert sorted(workloads.PROBE_KIND) == WORKLOADS
    assert set(workloads.PROBE_KIND.values()) <= set(probe.KINDS)


def _run(cwd, *argv):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_holds_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "tabulate", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tabulate", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
