"""scripts/bench_pairs.py's summary arithmetic, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lower_is_better_counts_wins_ties_and_the_gap():
    # quarters are exact in binary, so a gap equal to the spread stays equal
    old = [2.0, 2.25, 1.75, 2.5, 2.0]
    new = [1.5, 2.25, 2.0, 1.75, 1.25]
    summary = _bench_pairs().summarize(old, new, "lower")
    assert summary["old_quartiles"] == [2.0, 2.0, 2.25]
    assert summary["new_quartiles"] == [1.5, 1.75, 2.0]
    assert (summary["new_wins"], summary["old_wins"]) == (3, 1)  # one tie
    assert summary["gap"] == -0.25
    assert summary["old_iqr"] == 0.25
    assert summary["new_median_better"]
    assert not summary["gap_exceeds_old_iqr"]


def test_higher_is_better_interpolates_even_counts():
    old = [10.0, 12.0, 11.0, 13.0]
    new = [14.0, 15.0, 11.0, 12.0]
    summary = _bench_pairs().summarize(old, new, "higher")
    # sorted old 10, 11, 12, 13: cuts at 0.75, 1.5 and 2.25 positions
    assert summary["old_quartiles"] == [10.75, 11.5, 12.25]
    assert summary["new_quartiles"] == [11.75, 13.0, 14.25]
    assert (summary["new_wins"], summary["old_wins"]) == (2, 1)
    assert summary["gap"] == 1.5
    assert summary["old_iqr"] == 1.5
    assert summary["new_median_better"]
    assert not summary["gap_exceeds_old_iqr"]


def test_a_worse_median_beyond_the_spread():
    old = [1.0, 1.0, 1.1, 1.0]
    new = [1.3, 1.4, 1.2, 1.3]
    summary = _bench_pairs().summarize(old, new, "lower")
    assert (summary["new_wins"], summary["old_wins"]) == (0, 4)
    assert summary["gap"] == pytest.approx(0.3)
    assert summary["gap_exceeds_old_iqr"]
    assert not summary["new_median_better"]
