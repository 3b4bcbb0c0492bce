#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and compare them.

    python3 scripts/bench_pairs.py OLD_REV NEW_REV --workload W --seeds A-B \
        [--seconds 25] [--out BENCH_<pr>_<workload>.json]

Exports both revisions with ``git archive`` into two sibling folders,
``old`` and ``new``, whose names are equally long, so the two trees' file
paths are too.  For each seed from A to B it runs each tree's own
``perfbench/run.py --trace 0`` once, the old tree first on the first,
third, ... pair and the new tree first on the others.  For every
end-to-end metric the old tree's ``BENCHMARK.json`` declares, it prints
each pair's values, each side's median and quartiles, the pairs each side
won (ties count for neither), and whether the gap between the medians
exceeds the old side's interquartile range.  The last line is one JSON
object with every value; ``--out PATH`` also writes it, indented, with the
host's environment under ``"environment"``: the Python and numpy versions,
``os.cpu_count()``, ``platform.platform()`` and the BLAS thread variables
as this script found them (null where unset; the harness itself runs its
children on one BLAS thread).  The exported trees are deleted at the end;
nothing in the repository is changed but the ``--out`` file.  Standard
library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def summarize(old: list[float], new: list[float], better: str) -> dict:
    """Compare one metric's paired values, ``old[i]`` against ``new[i]``.

    Quartiles interpolate linearly between order statistics (the middle
    one is the median).  A pair is won by the side whose value is better
    in the direction ``better`` (``"lower"`` or ``"higher"``); equal
    values win for neither.  ``gap`` is the new median minus the old one.
    """
    sign = {"lower": 1, "higher": -1}[better]
    q_old = statistics.quantiles(old, n=4, method="inclusive")
    q_new = statistics.quantiles(new, n=4, method="inclusive")
    gap = q_new[1] - q_old[1]
    iqr = q_old[2] - q_old[0]
    return {
        "old_quartiles": q_old,
        "new_quartiles": q_new,
        "new_wins": sum(sign * (o - n) > 0 for o, n in zip(old, new)),
        "old_wins": sum(sign * (n - o) > 0 for o, n in zip(old, new)),
        "gap": gap,
        "old_iqr": iqr,
        "gap_exceeds_old_iqr": abs(gap) > iqr,
        "new_median_better": sign * gap < 0,
    }


def environment() -> dict:
    """The host facts a stored comparison is read against."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need at least two seeds, got {text!r}")
    return seeds


def _export(rev: str, dest: Path) -> str:
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                             capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {tree.name} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_rev")
    parser.add_argument("new_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the result and the environment as JSON")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"old": Path(tmp) / "old", "new": Path(tmp) / "new"}
        commits = {side: _export(rev, trees[side])
                   for side, rev in (("old", args.old_rev), ("new", args.new_rev))}
        spec = json.loads((trees["old"] / "BENCHMARK.json").read_text())
        print(f"workload={args.workload} seconds={args.seconds:g} "
              f"old={commits['old']} new={commits['new']}", flush=True)
        runs = []
        for i, seed in enumerate(args.seeds):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            pair = {side: _run(trees[side], args.workload, seed, args.seconds)
                    for side in order}
            runs.append({"seed": seed, "first": order[0], **pair})
            print(f"  pair {i + 1} seed {seed} ({order[0]} first): " + ", ".join(
                f"{side} attempted {pair[side]['attempted']} failed "
                f"{pair[side]['failed']}" for side in ("old", "new")), flush=True)

    summaries = {}
    for metric in spec["end_to_end"]:
        name, unit, better = metric["name"], metric["unit"], metric["better"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs]
                  for side in ("old", "new")}
        summary = summarize(values["old"], values["new"], better)
        summaries[name] = {**values, **summary}
        print(f"{name} ({unit}, {better} is better)")
        for run, old, new in zip(runs, values["old"], values["new"]):
            print(f"  seed {run['seed']} ({run['first']} first): "
                  f"old {old:.6g}  new {new:.6g}")
        for side in ("old", "new"):
            q1, median, q3 = summary[f"{side}_quartiles"]
            print(f"  {side} median {median:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  pairs won: new {summary['new_wins']}, old {summary['old_wins']} "
              f"of {len(runs)}")
        relative = summary["gap"] / summary["old_quartiles"][1]
        print(f"  median gap {summary['gap']:+.6g} ({relative:+.2%}), "
              f"{'better' if summary['new_median_better'] else 'not better'}; "
              f"old IQR {summary['old_iqr']:.6g}; the gap exceeds it: "
              f"{'yes' if summary['gap_exceeds_old_iqr'] else 'no'}")
    result = {"workload": args.workload, "seconds": args.seconds,
              "commits": commits, "runs": runs, "summaries": summaries}
    print(json.dumps(result))
    if args.out is not None:
        document = {**result, "environment": environment()}
        args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
