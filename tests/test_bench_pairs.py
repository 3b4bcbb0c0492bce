"""scripts/bench_pairs.py's summary arithmetic and written document, on fixed
numbers."""

import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
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


def test_out_writes_the_result_and_the_environment(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    # old, new per seed: new wins seeds 1 and 3, old wins seed 2
    values = {("old", 1): 2.0, ("new", 1): 1.5, ("old", 2): 2.5, ("new", 2): 3.0,
              ("old", 3): 3.0, ("new", 3): 1.0}
    spec = {"end_to_end": [{"name": "op_p50_s", "unit": "s", "better": "lower"}]}

    def export(rev, dest):
        dest.mkdir()
        (dest / "BENCHMARK.json").write_text(json.dumps(spec))
        return f"commit-{rev}"

    def run(tree, workload, seed, seconds):
        return {"attempted": 10, "failed": 0,
                "metrics": {"op_p50_s": {"value": values[tree.name, seed]}}}

    monkeypatch.setattr(bench_pairs, "_export", export)
    monkeypatch.setattr(bench_pairs, "_run", run)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main(["A", "B", "--workload", "enumerate", "--seeds", "1-3",
                             "--seconds", "2", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert {k: v for k, v in document.items() if k != "environment"} == printed
    assert document["workload"] == "enumerate"
    assert document["seconds"] == 2.0
    assert document["commits"] == {"old": "commit-A", "new": "commit-B"}
    assert [(r["seed"], r["first"]) for r in document["runs"]] == [
        (1, "old"), (2, "new"), (3, "old")]
    summary = document["summaries"]["op_p50_s"]
    assert summary["old"] == [2.0, 2.5, 3.0]
    assert summary["new"] == [1.5, 3.0, 1.0]
    assert summary["old_quartiles"] == [2.25, 2.5, 2.75]
    assert summary["new_quartiles"] == [1.25, 1.5, 2.25]
    assert (summary["new_wins"], summary["old_wins"]) == (2, 1)
    assert summary["gap"] == -1.0
    assert summary["old_iqr"] == 0.5
    assert summary["gap_exceeds_old_iqr"] and summary["new_median_better"]
    environment = document["environment"]
    assert environment == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1",
                         "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                         "MKL_NUM_THREADS": None},
    }
