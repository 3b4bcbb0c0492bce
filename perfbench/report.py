"""Run every workload once untraced and once traced; print and save a table.

    python3 perfbench/report.py --seed 1 --seconds 25 [--out perfbench/baseline.json]

Each line of the table is one metric of one workload, with its unit; the
sample counts and the failure fraction come from ``run.py``'s notes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line.strip()[2:] for line in lines if line.strip().startswith("#")]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", default=None, help="also write the results as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = {
            "end_to_end": run_once(workload, args.seed, args.seconds, 0),
            "per_layer": run_once(workload, args.seed, args.seconds, 1),
        }
        for kind, result in results[workload].items():
            print(f"{workload} {kind}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
            for note in result["notes"]:
                print(f"  # {note}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
