"""Tests of the benchmark itself; they do not time anything.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pifmap  # noqa: E402
import pifmap.cli  # noqa: E402
import pifmap.experiments  # noqa: E402
import pifmap.featuremap  # noqa: E402
import pifmap.svgplot  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _pifmap_bindings() -> dict[tuple[str, str], object]:
    bindings = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "pifmap" or name.startswith("pifmap.")
        for attr, value in vars(module).items()
    }
    spec = pifmap.featuremap.FeatureMapSpec
    bindings[("FeatureMapSpec", "__post_init__")] = spec.__dict__["__post_init__"]
    return bindings


def _one_op(cls, tmp: Path, recorder=None):
    tmp.mkdir()
    workload = cls(SEED, tmp)
    workload.setup()
    workload.before_op()
    if recorder is not None:
        recorder.reset()
    start = time.perf_counter_ns()
    workload.op()
    wall_ns = time.perf_counter_ns() - start
    trace = recorder.take() if recorder is not None else None
    digest = workload.output_digest()
    workload.check()
    return workload, digest, wall_ns, trace


@pytest.fixture(scope="module")
def scratch():
    """A directory inside the checkout, where the benchmark keeps its files."""
    path = run.TMP / f"tests-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    try:
        run.TMP.rmdir()
    except OSError:
        pass  # a benchmark run is using it


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def ops(request, scratch):
    """One untraced op and two traced ops, each from a fresh workload."""
    cls = workloads.WORKLOADS[request.param]
    base = scratch / request.param
    base.mkdir()
    plain = _one_op(cls, base / "plain")
    recorder = tracer.Tracer()
    recorder.install()
    try:
        traced = [_one_op(cls, base / f"traced{i}", recorder) for i in range(2)]
    finally:
        recorder.uninstall()
    return plain, traced


def test_written_files_identical_with_and_without_tracing(ops):
    plain, traced = ops
    assert plain[1]
    for _, digest, _, _ in traced:
        assert digest == plain[1]


def test_self_times_sum_to_at_most_the_op_wall_time(ops):
    _, traced = ops
    for _, _, wall_ns, trace in traced:
        assert 0 < tracer.self_time_ns(trace) <= wall_ns
        assert all(v >= 0 for v in trace.self_ns.values())


def test_counters_repeat_exactly_across_traced_runs(ops):
    _, (first, second) = ops
    assert first[3].counts == second[3].counts
    assert first[3].calls == second[3].calls


def test_uninstall_restores_every_rebound_function():
    before = _pifmap_bindings()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        # a from-import binding is rebound along with the defining module
        original = before[("pifmap.featuremap", "evaluate_map")]
        assert pifmap.cli.evaluate_map is not original
        assert pifmap.experiments.evaluate_map is not original
        assert pifmap.featuremap.evaluate_map is not original
        assert len(recorder.bindings()) > len(tracer.LAYERS)
    finally:
        recorder.uninstall()
    after = _pifmap_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert recorder.bindings() == []


def test_layer_metric_names_match_benchmark_json():
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    produced = {name for name, _, _ in tracer.LAYER_METRICS}
    produced |= {"import.pifmap_cli_s", "import.scipy_s", "trace.overhead_frac"}
    assert produced == declared


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "enumerate",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_checks_reject_a_wrong_model(scratch):
    workload, _, _, _ = _one_op(workloads.FitRankWide, scratch / "bad-model")
    model = json.loads(workload.model.read_text())
    model["weights"] = [w * (1 + 1e-6) for w in model["weights"]]
    with pytest.raises(workloads.CheckFailed, match="residual"):
        workloads._check_model(model, workload.spec_document, workload.csv,
                               workload.split)


def test_checks_reject_a_missing_monomial(scratch):
    workload, _, _, _ = _one_op(workloads.Enumerate, scratch / "bad-spec")
    e = workloads.ENUMERATIONS[0]
    document = json.loads(workload._out(e).read_text())
    del document["monomials"][5]
    with pytest.raises(workloads.CheckFailed, match="monomials"):
        workloads._check_enumerated(document, e.count, e.digest, e.label)


def test_tail_is_the_highest_rank_with_ten_ops_beyond_it():
    latencies = [float(i) for i in range(1, 41)]
    assert run.tail(latencies) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_importtime_counts_nested_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:        40 |         40 |     scipy.linalg._x",
        "import time:        50 |         90 |   scipy.linalg",
        "import time:         5 |        200 | pifmap.regression",
        "import time:         7 |          7 | numpy",
    ])
    entries = run.parse_importtime(text)
    assert run.outermost_import_s(entries, "scipy") == pytest.approx(120e-6)
    assert run.outermost_import_s(entries, "pifmap") == pytest.approx(200e-6)
