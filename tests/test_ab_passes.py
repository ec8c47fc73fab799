import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_passes.py"
_SPEC = importlib.util.spec_from_file_location("ab_passes", _PATH)
ab_passes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_passes)


def test_rounds_alternate_which_side_runs_first():
    assert [ab_passes.round_sides(rnd)[0] for rnd in range(1, 5)] == ["parent", "change", "parent", "change"]
    assert all(sorted(ab_passes.round_sides(rnd)) == ["change", "parent"] for rnd in range(1, 5))


def _round(parent, change):
    """A round from per-side lists of (pass seconds, median evaluation seconds)."""
    return {side: [(p, e, "d") for p, e in runs] for side, runs in (("parent", parent), ("change", change))}


def test_summary_takes_medians_over_every_pass_and_counts_round_wins():
    rounds = [
        _round([(4.0, 0.4), (6.0, 0.6)], [(3.0, 0.6), (3.0, 0.6)]),  # change wins the pass, loses the evaluation
        _round([(2.0, 0.2), (2.0, 0.2)], [(2.0, 0.1), (2.0, 0.3)]),  # ties win for neither
        _round([(5.0, 0.5), (5.0, 0.5)], [(1.0, 0.1), (1.0, 0.1)]),
    ]
    summary = ab_passes.summarize(rounds)
    assert summary["parent"]["pass_s"] == 4.5  # median of 4, 6, 2, 2, 5, 5
    assert summary["change"]["pass_s"] == 2.0
    assert summary["parent"]["eval_s"] == 0.45
    assert summary["change"]["eval_s"] == 0.2
    assert (summary["change"]["pass_wins"], summary["parent"]["pass_wins"]) == (2, 0)
    assert (summary["change"]["eval_wins"], summary["parent"]["eval_wins"]) == (1, 1)


def test_digest_verdicts_per_side():
    good = {"parent": [(1.0, 0.1, "a")], "change": [(1.0, 0.1, "a")]}
    bad = {"parent": [(1.0, 0.1, "a")], "change": [(1.0, 0.1, None)]}  # an evaluation raised
    assert ab_passes.digest_verdicts([good], "a") == {"parent": True, "change": True}
    assert ab_passes.digest_verdicts([good, bad], "a") == {"parent": True, "change": False}
    assert ab_passes.digest_verdicts([good], "b") == {"parent": False, "change": False}
    # with no recorded digest the sides are held to the first pass
    assert ab_passes.digest_verdicts([good], None) == {"parent": True, "change": True}


class _FixedProbe:
    """A probe whose scale is fixed, so every time it scales becomes that scale times the raw time."""

    def __init__(self, scale):
        self.factor = scale

    def time(self):
        return 1.0

    def scale(self, before, after):
        return self.factor


class _Cache:
    def __init__(self):
        self.cleared = 0

    def cache_clear(self):
        self.cleared += 1


def test_passes_run_through_the_benchmark_pass_with_its_probe():
    calls = {"ok": lambda n: n + 1, "bad": lambda n: 1 // n}
    evals = [("ok", (1,)), ("ok", (2,)), ("bad", (3,))]
    cache = _Cache()
    runs = ab_passes.run_passes(calls, {id(cache): cache}, evals, 3, _FixedProbe(0.0))
    assert cache.cleared == 3  # cold caches before every pass
    # every time is scaled by the probe: a zero scale leaves zero seconds
    assert [run[:2] for run in runs] == [(0.0, 0.0)] * 3
    assert len({run[2] for run in runs}) == 1 and runs[0][2] is not None
    # an evaluation that raises leaves no digest
    assert ab_passes.run_passes(calls, {}, [("bad", (0,))], 1, _FixedProbe(1.0))[0][2] is None
    assert ab_passes.run_pass.__module__ == "run"
