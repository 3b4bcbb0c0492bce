"""pifmap benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src`` next to this
directory, and every file the benchmark writes stays under
``.perfbench_tmp`` in the same checkout.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print the same metrics for people, with units and sample counts.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from an
untraced run.  ``--trace 1`` reports its per-layer metrics: the workload
child runs half its time untraced and half with ``tracer.Tracer``
installed, and ``python -X importtime`` measures the import layer.

Each workload runs in its own child interpreter with BLAS pinned to one
thread, so that a 2-core machine shows the same numbers whether or not
something else is running on the second core.  Times are in seconds at
the reference host's speed (``calibration.py``); raw wall-clock medians
are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_KINDS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Overrides the program reads from the environment; a run must not inherit them.
PROGRAM_ENV_VARS = ("PIFMAP_BUDGET", "PIFMAP_LAMBDA_GRID")

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV_VARS}
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.tmp = TMP / f"{workload}-{os.getpid()}"
        self.env = _child_env()
        self.launches = 0

    def _spawn(self, command: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        try:
            return subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(command)}") from exc

    def child(self, *, setup_only: bool) -> dict:
        self.launches += 1
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--trace", str(self.trace),
            "--tmp", str(self.tmp / str(self.launches)),
        ]
        if setup_only:
            command.append("--setup-only")
        command += ["--launch-ns", str(time.monotonic_ns())]
        proc = self._spawn(command)
        if proc.returncode != 0:
            raise BenchError(f"workload child exited with {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(result["pifmap"]) != ROOT / "src" / "pifmap":
            raise BenchError(f"imported pifmap from {result['pifmap']}, not this checkout")
        return result

    def import_times(self) -> tuple[float, float]:
        """Median (pifmap.cli, scipy) cumulative import seconds."""
        cli_s, scipy_s = [], []
        for _ in range(IMPORTTIME_SAMPLES):
            proc = self._spawn([sys.executable, "-X", "importtime", "-c",
                                "import pifmap.cli"])
            if proc.returncode != 0:
                raise BenchError("import pifmap.cli failed:\n" + proc.stderr[-3000:])
            entries = parse_importtime(proc.stderr)
            cli_s.append(outermost_import_s(entries, "pifmap"))
            scipy_s.append(outermost_import_s(entries, "scipy"))
        return statistics.median(cli_s), statistics.median(scipy_s)


def parse_importtime(text: str) -> list[tuple[int, str, int]]:
    """(depth, module, cumulative microseconds) per ``-X importtime`` line."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, name.strip(), int(cumulative)))
    return entries


def outermost_import_s(entries: list[tuple[int, str, int]], package: str) -> float:
    """Seconds spent importing ``package``, counting nested imports once."""
    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total_us = 0
    ancestors: list[tuple[int, str]] = []
    # -X importtime prints children before parents; reversed, each line's
    # ancestors are the open entries of smaller depth.
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if inside(name) and not any(inside(a) for _, a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e6


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) at the highest rank that has
    TAIL_BEYOND ops above it; with fewer ops than that, the slowest op."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _failed(ops: list[dict]) -> int:
    return sum(1 for op in ops if op["error"] is not None)


def end_to_end(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    # Set-up samples go before and after the main run, so that they meet
    # the host in more than one of its multi-second fast and slow phases.
    # They are scaled by the run's median slowness: a calibration taken
    # right around a short launch proved noisier than the set-up itself.
    before = SETUP_SAMPLES // 2
    children = [runner.child(setup_only=True) for _ in range(before)]
    result = runner.child(setup_only=False)
    children.append(result)
    children += [runner.child(setup_only=True) for _ in range(SETUP_SAMPLES - 1 - before)]
    ops = result["untraced"]
    slowness = statistics.median(op["slowness"] for op in ops)
    setup_wall_s = statistics.median(child["setup_wall_s"] for child in children)
    latencies = [op["ref_s"] for op in ops]
    tail_s, tail_pct, beyond = tail(latencies)
    work = sum(op["work"] for op in ops)
    unit = result["work_unit"]
    metrics = {
        "setup_s": setup_wall_s / slowness,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "work_per_s": work / sum(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    failed = _failed(ops)
    notes = [
        f"setup_s: median of {len(children)} launches; raw wall median "
        f"{setup_wall_s:.4f} s; median host slowness {slowness:.4f}",
        f"op_p50_s: median of {len(ops)} ops; raw wall median "
        f"{statistics.median(op['wall_ns'] for op in ops) / 1e9:.4f} s",
        f"op_tail_s: p{tail_pct:.1f} of {len(ops)} ops ({beyond} ops beyond it)",
        f"work_per_s: {unit} per second of op time, {work:.0f} {unit} in {len(ops)} ops",
        "peak_rss_mb: ru_maxrss of the workload child",
        f"fail_frac: {failed}/{len(ops)} = {failed / len(ops):.4g} "
        "(reported as failed/attempted)",
        "env: " + json.dumps(dict(result["versions"], nproc=os.cpu_count(),
                                  **{v: "1" for v in BLAS_THREAD_VARS})),
    ]
    return metrics, ops, notes


def per_layer(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    cli_s, scipy_s = runner.import_times()
    result = runner.child(setup_only=False)
    traced, untraced = result["traced"], result["untraced"]
    ok = [op for op in traced if op["error"] is None] or traced
    names = [name for name, _, _ in LAYER_METRICS]
    metrics = {name: statistics.median(op["layers"][name] for op in ok) for name in names}
    metrics["import.pifmap_cli_s"] = cli_s
    metrics["import.scipy_s"] = scipy_s
    traced_p50 = statistics.median(op["ref_s"] for op in traced)
    untraced_p50 = statistics.median(op["ref_s"] for op in untraced)
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1
    varying = [name for name, kind, _ in LAYER_METRICS
               if kind in COUNT_KINDS and len({op["layers"][name] for op in ok}) > 1]
    notes = [
        f"per-layer: median over {len(ok)} traced ops; "
        f"overhead vs {len(untraced)} untraced ops",
        f"import: median of {IMPORTTIME_SAMPLES} `python -X importtime` runs, raw seconds",
        "regression.gram_flops and data.csv_bytes are computed from shapes and "
        "file sizes, not measured",
        "counters that differ between ops: " + (", ".join(varying) or "none"),
    ]
    return metrics, untraced + traced, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        runner = Runner(args.workload, args.seed, args.seconds, args.trace)
        try:
            measure = per_layer if args.trace else end_to_end
            metrics, ops, notes = measure(runner)
        finally:
            shutil.rmtree(runner.tmp, ignore_errors=True)
            try:
                TMP.rmdir()
            except OSError:
                pass  # another run still uses it, or it was never made
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            raise BenchError(
                f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                "measured and declared in BENCHMARK.json")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1

    failed = _failed(ops)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={len(ops)} failed={failed}")
    for name in units:
        print(f"  {name:42s} {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(f"  # {note}")
    for op in ops:
        if op["error"] is not None:
            print(f"  ! {op['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
