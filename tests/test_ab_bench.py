import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def test_pairs_alternate_which_side_runs_first():
    assert [ab_bench.pair_sides(pair)[0] for pair in range(1, 5)] == ["parent", "change", "parent", "change"]
    assert all(sorted(ab_bench.pair_sides(pair)) == ["change", "parent"] for pair in range(1, 5))


def _run(workload, pair, side, wall, rate):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "ops_per_s": {"value": rate, "unit": "1/s"}}
    return {"workload": workload, "pair": pair, "side": side, "result": {"correct": True, "metrics": metrics}}


def test_summary_counts_wins_by_direction():
    runs = []
    for pair, (p_wall, c_wall) in enumerate([(1.0, 0.5), (2.0, 0.6), (3.0, 3.5), (4.0, 0.4)], start=1):
        runs += [_run("w", pair, "parent", p_wall, 1 / p_wall), _run("w", pair, "change", c_wall, 1 / c_wall)]
    # an unfinished pair is left out
    runs.append(_run("w", 5, "parent", 9.0, 1 / 9))
    rows = ab_bench.summarize(runs, {"wall_s": "lower", "ops_per_s": "higher"})["w"]
    assert rows["wall_s"]["pairs"] == 4
    assert rows["wall_s"]["change_wins"] == 3
    assert rows["ops_per_s"]["change_wins"] == 3
    assert rows["wall_s"]["parent_median"] == 2.5
    assert rows["wall_s"]["change_median"] == pytest.approx(0.55)
    assert rows["wall_s"]["parent_quartiles"] == pytest.approx([1.25, 3.75])


def test_failed_runs_are_left_out():
    failed = {"workload": "w", "pair": 1, "side": "change", "result": {"error": "exit 1"}}
    runs = [_run("w", 1, "parent", 1.0, 1.0), failed]
    assert ab_bench.summarize(runs, {"wall_s": "lower"}) == {"w": {}}


def test_operations_count_failures_per_side():
    bad = {"workload": "w", "pair": 2, "side": "change", "result": {"correct": False, "attempted": 30, "failed": 3}}
    crashed = {"workload": "w", "pair": 3, "side": "change", "result": {"error": "exit 1", "stderr": ""}}
    runs = [_run("w", 1, "parent", 1.0, 1.0), _run("w", 1, "change", 1.0, 1.0), bad, crashed]
    for run in runs[:2]:
        run["result"].update(attempted=10, failed=0)
    sides = ab_bench.operations(runs)["w"]
    assert sides["parent"] == {"runs": 1, "attempted": 10, "failed": 0, "bad_runs": 0, "failed_share": 0.0}
    assert sides["change"] == {"runs": 3, "attempted": 40, "failed": 3, "bad_runs": 2, "failed_share": 0.075}
    # a workload whose runs all crashed has no share to report
    assert ab_bench.operations([crashed])["w"]["change"]["failed_share"] is None
