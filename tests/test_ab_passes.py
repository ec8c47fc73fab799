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
