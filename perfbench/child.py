"""One workload child: set up, run closed-loop ops for a fixed time, report.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  Prints one JSON object as its last stdout line.  ``--launch-ns`` is
the parent's ``time.monotonic_ns()`` just before it started this process;
the monotonic clock is system-wide, so ready minus launch is the set-up
time, interpreter start and imports included.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, so that the tracing overhead can be reported.

Every op is bracketed by runs of the calibration loop; times are reported
both raw and at reference speed (see ``calibration.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import pifmap
import tracer
import workloads
from calibration import calibrate, to_reference_s


def _run_ops(workload, seconds: float, traced_by=None) -> list[dict]:
    ops = []
    deadline = time.perf_counter() + seconds
    slowness_before = calibrate()
    while True:
        workload.before_op()
        if traced_by is not None:
            traced_by.reset()
        error = None
        start = time.perf_counter_ns()
        try:
            workload.op()
        except Exception as exc:  # a failed op is counted, and the loop goes on
            error = f"op raised {exc!r}"
        wall_ns = time.perf_counter_ns() - start
        layers = None
        if traced_by is not None:
            trace = traced_by.take()
            layers = tracer.op_metrics(trace, wall_ns)
        work = 0.0
        if error is None:
            try:
                work = workload.check()
            except Exception as exc:
                error = f"check failed: {exc!r}"
        slowness_after = calibrate()
        slowness = (slowness_before + slowness_after) / 2
        slowness_before = slowness_after
        if layers is not None:
            for name in layers:
                if name.endswith("_s"):
                    layers[name] = to_reference_s(layers[name] * 1e9, slowness)
        ops.append({"wall_ns": wall_ns, "slowness": slowness,
                    "ref_s": to_reference_s(wall_ns, slowness),
                    "work": work, "error": error, "layers": layers})
        if time.perf_counter() >= deadline:
            return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    workload.setup()
    result = {
        "setup_wall_s": (time.monotonic_ns() - args.launch_ns) / 1e9,
        "pifmap": str(Path(pifmap.__file__).resolve().parent),
        "work_unit": workload.work_unit,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.setup_only:
        if args.trace:
            result["untraced"] = _run_ops(workload, args.seconds / 2)
            recorder = tracer.Tracer()
            recorder.install()
            try:
                result["traced"] = _run_ops(workload, args.seconds / 2, recorder)
            finally:
                recorder.uninstall()
        else:
            result["untraced"] = _run_ops(workload, args.seconds)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
