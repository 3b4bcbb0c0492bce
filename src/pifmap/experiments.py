"""End-to-end experiment trials: raw-feature vs mapped-feature arms.

Every experiment runs one pipeline: generate a seeded dataset, optionally
noise the labels, split chronologically, and fit ridge models on two
designs: the raw standardized features (arm ``sf``) and the evaluated
physics-informed monomials (arm ``spif``).  Regression experiments then
greedy-rank the monomials and refit the selected set; the classification
experiment thresholds the predictions and scores the confusion matrix.
What differs between experiments is one row of ``_EXPERIMENTS``.  The
rotating-dipole experiment adds a third arm with its leading monomial
removed (``spif_no_pif1``) to probe how much that single
dimensionally-exact term carries.

Reports are plain JSON-ready dicts so the CLI can serialize them
byte-identically; medians are taken over seeds per noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .catalogs import load_catalog
from .data import Dataset
from .errors import InsufficientData
from .featuremap import FeatureMapSpec, evaluate_map, render_monomial
from .metrics import ConfusionMatrix, confusion, mae, mse, scores_to_dict
from .ranking import rank_and_refit
from .regression import (
    DEFAULT_LAMBDA,
    classify,
    fit_standardized,
    ridge_predict,
    standardize_apply,
)
from .synthdata import NoiseConfig, add_noise, gen_bernoulli, gen_binary, gen_pulsar

__all__ = [
    "REGRESSION_NOISE_LEVELS",
    "DEFAULT_SEEDS",
    "TrialSettings",
    "derive_noise_seed",
    "split_point",
    "run_experiment",
    "report_markdown",
    "per_seed_csv",
    "boxplot_series",
]

REGRESSION_NOISE_LEVELS: tuple[float, ...] = (0.1, 0.3, 0.5)
DEFAULT_SEEDS: tuple[int, ...] = tuple(range(1, 21))

_SCORE_FIELDS = ("sensitivity", "specificity", "accuracy", "tss", "hss")


@dataclass(frozen=True)
class _Experiment:
    """One testbed: its data, its feature map and what is scored.

    ``ablations`` maps extra arm names to column slices of the evaluated
    map, so an ablated design is the full design minus some monomials.
    """

    generator: Callable[[int, int], Dataset]
    catalog: str
    classification: bool = False
    allow_inconsistent: bool = False
    ablations: Mapping[str, slice] = field(default_factory=dict)


# The generators are called through their module-level names, not stored
# as function objects, so a wrapper bound over those names (as the
# perfbench tracer installs) sees every call.
_EXPERIMENTS: Mapping[str, _Experiment] = {
    "bernoulli": _Experiment(lambda n, seed: gen_bernoulli(n, seed), "bernoulli"),
    "pulsar": _Experiment(
        lambda n, seed: gen_pulsar(n, seed), "pulsar", allow_inconsistent=True,
        ablations={"spif_no_pif1": slice(1, None)},
    ),
    "binary": _Experiment(
        lambda n, seed: gen_binary(n, seed), "binary", classification=True
    ),
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


@dataclass(frozen=True)
class TrialSettings:
    """Shared per-trial configuration; defaults match the report runs."""

    n: int = 1000
    split: float = 0.7
    lam: float = DEFAULT_LAMBDA
    epsilon: float = 0.01
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.split < 1.0:
            raise ValueError(f"split must be in (0, 1), got {self.split}")


def split_point(n: int, fraction: float) -> int:
    """Chronological split index: first ``round(n * fraction)`` rows train."""
    k = int(round(n * fraction))
    if k < 2 or n - k < 1:
        raise InsufficientData(
            f"split {fraction} of {n} rows leaves train={k}, test={n - k}"
        )
    return k


def derive_noise_seed(seed: int, level: float) -> int:
    """Key the noise stream off (seed, level) so arms never share draws."""
    ss = np.random.SeedSequence([int(seed), int(round(level * 1e6))])
    return int(ss.generate_state(1, np.uint64)[0])


def _noisy_labels(y: np.ndarray, seed: int, level: float) -> np.ndarray:
    if level == 0.0:
        return y
    return add_noise(y, NoiseConfig(level=level, seed=derive_noise_seed(seed, level)))


def _trial(experiment: _Experiment, spec: FeatureMapSpec, seed: int,
           level: float, settings: TrialSettings) -> dict:
    """One seeded run of every arm; regression trials also rank and refit."""
    data = experiment.generator(settings.n, seed)
    y = _noisy_labels(data.y, seed, level)
    k = split_point(data.n_rows, settings.split)
    Phi = evaluate_map(spec, data)
    names = spec.monomial_names
    designs = {"sf": (data.X, data.schema.names), "spif": (Phi, names)}
    for arm, columns in experiment.ablations.items():
        designs[arm] = (Phi[:, columns], names[columns])
    arms = {}
    for arm, (X, column_names) in designs.items():
        model, _ = fit_standardized(
            X[:k], y[:k], settings.lam, feature_names=column_names
        )
        predictions = ridge_predict(
            model, standardize_apply(X[k:], model.standardization)
        )
        if experiment.classification:
            labels = classify(predictions, settings.threshold)
            arms[arm] = scores_to_dict(confusion(y[k:], labels))
        else:
            arms[arm] = {"mae": mae(y[k:], predictions),
                         "mse": mse(y[k:], predictions)}
    trial = {"seed": seed, "noise": level, "arms": arms}
    if not experiment.classification:
        _, ranked = rank_and_refit(
            Phi[:k], y[:k], Phi[k:], y[k:], names, settings.lam, settings.epsilon
        )
        trial["ranking"] = {
            key: ranked[key] for key in ("order", "selected_count", "selected", "curve")
        }
        trial["coefficients"] = {**ranked["coefficients"],
                                 "intercept": ranked["intercept"]}
    return trial


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _noise_key(level: float) -> str:
    return repr(float(level))


def _regression_summary(trials: list[dict], noise_levels) -> dict:
    arm_names = sorted(trials[0]["arms"]) if trials else []
    medians: dict[str, dict] = {}
    selected_counts: dict[str, dict] = {}
    median_coefficients: dict[str, dict] = {}
    for level in noise_levels:
        key = _noise_key(level)
        batch = [t for t in trials if t["noise"] == level]
        medians[key] = {
            arm: {
                metric: _median([t["arms"][arm][metric] for t in batch])
                for metric in ("mae", "mse")
            }
            for arm in arm_names
        }
        counts: dict[str, int] = {}
        for t in batch:
            c = str(t["ranking"]["selected_count"])
            counts[c] = counts.get(c, 0) + 1
        selected_counts[key] = dict(sorted(counts.items()))
        coefficient_names = sorted(
            {n for t in batch for n in t["coefficients"] if n != "intercept"}
        )
        median_coefficients[key] = {
            n: _median([t["coefficients"][n] for t in batch
                        if n in t["coefficients"]])
            for n in coefficient_names
        }
    return {
        "medians": medians,
        "selected_counts": selected_counts,
        "median_coefficients": median_coefficients,
    }


def _classification_summary(trials: list[dict]) -> dict:
    medians = {}
    pooled = {}
    for arm in sorted(trials[0]["arms"]):
        medians[arm] = {}
        for field_name in _SCORE_FIELDS:
            values = [t["arms"][arm]["scores"][field_name] for t in trials]
            finite = [v for v in values if not math.isnan(v)]
            medians[arm][field_name] = _median(finite) if finite else float("nan")
        totals = np.sum(
            [np.asarray(t["arms"][arm]["confusion"]) for t in trials], axis=0
        )
        cm = ConfusionMatrix(
            tp=int(totals[0][0]), fp=int(totals[0][1]),
            fn=int(totals[1][0]), tn=int(totals[1][1]),
        )
        pooled[arm] = scores_to_dict(cm)
    return {"medians": medians, "pooled": pooled}


def run_experiment(
    name: str,
    seeds=DEFAULT_SEEDS,
    noise_levels=REGRESSION_NOISE_LEVELS,
    settings: TrialSettings = TrialSettings(),
) -> dict:
    """Run one experiment end to end and return its JSON-ready report.

    The catalog is loaded once and shared by every trial.  The
    classification experiment ignores ``noise_levels``: its labels are
    exact signs of a conserved quantity, so a multiplicative noise arm
    would reproduce the noiseless one.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    if name not in _EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}"
        )
    experiment = _EXPERIMENTS[name]
    spec = load_catalog(
        experiment.catalog, allow_inconsistent=experiment.allow_inconsistent
    )
    if experiment.classification:
        noise_levels = (0.0,)
        task_setting = {"threshold": settings.threshold}
    else:
        task_setting = {"epsilon": settings.epsilon}
    trials = [
        _trial(experiment, spec, seed, level, settings)
        for level in noise_levels
        for seed in seeds
    ]
    report = {
        "experiment": name,
        "settings": {
            "n": settings.n, "split": settings.split, "lambda": settings.lam,
            **task_setting,
        },
        "seeds": seeds,
        "noise_levels": [float(x) for x in noise_levels],
        "monomials": {
            monomial_name: render_monomial(spec, i)
            for i, monomial_name in enumerate(spec.monomial_names)
        },
        "trials": trials,
    }
    if experiment.classification:
        report.update(_classification_summary(trials))
    else:
        report.update(_regression_summary(trials, noise_levels))
    return report


# --------------------------------------------------------------------------
# Report rendering


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "undefined"
    return f"{x:.6g}"


def report_markdown(report: dict) -> str:
    """Deterministic human-readable summary of one experiment report."""
    name = report["experiment"]
    lines = [f"# {name} experiment", ""]
    settings = report["settings"]
    lines.append(
        "settings: "
        + ", ".join(f"{k}={settings[k]}" for k in sorted(settings))
        + f", seeds={report['seeds'][0]}..{report['seeds'][-1]}"
        f" ({len(report['seeds'])})"
    )
    lines.append("")
    lines.append("## monomials")
    lines.append("")
    lines.append("| name | expression |")
    lines.append("| --- | --- |")
    for mono_name in sorted(report["monomials"]):
        lines.append(f"| {mono_name} | `{report['monomials'][mono_name]}` |")
    lines.append("")
    if name == "binary":
        lines.append("## median skill scores over seeds")
        lines.append("")
        lines.append("| arm | " + " | ".join(_SCORE_FIELDS) + " |")
        lines.append("| --- |" + " --- |" * len(_SCORE_FIELDS))
        for arm in sorted(report["medians"]):
            row = [arm] + [_fmt(report["medians"][arm][f]) for f in _SCORE_FIELDS]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append("## pooled confusion matrices (rows: [tp, fp], [fn, tn])")
        lines.append("")
        for arm in sorted(report["pooled"]):
            cm = report["pooled"][arm]["confusion"]
            scores = report["pooled"][arm]["scores"]
            lines.append(f"- {arm}: {cm[0]} / {cm[1]}; "
                         + ", ".join(f"{f}={_fmt(scores[f])}"
                                     for f in _SCORE_FIELDS))
        lines.append("")
        return "\n".join(lines) + "\n"

    lines.append("## median test error over seeds")
    lines.append("")
    lines.append("| noise | arm | mae | mse |")
    lines.append("| --- | --- | --- | --- |")
    for level in report["noise_levels"]:
        key = repr(float(level))
        for arm in sorted(report["medians"][key]):
            entry = report["medians"][key][arm]
            lines.append(
                f"| {key} | {arm} | {_fmt(entry['mae'])} | {_fmt(entry['mse'])} |"
            )
    lines.append("")
    lines.append("## greedy selection counts (selected size: seeds)")
    lines.append("")
    for level in report["noise_levels"]:
        key = repr(float(level))
        counts = report["selected_counts"][key]
        rendered = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        lines.append(f"- noise {key}: {rendered}")
    lines.append("")
    lines.append("## de-standardized coefficients (median over seeds)")
    lines.append("")
    noise_keys = [repr(float(level)) for level in report["noise_levels"]]
    header = ["monomial"] + [f"noise {k}" for k in noise_keys]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("| --- |" + " --- |" * len(noise_keys))
    names = sorted({n for k in noise_keys for n in report["median_coefficients"][k]})
    for mono_name in names:
        row = [mono_name]
        for k in noise_keys:
            value = report["median_coefficients"][k].get(mono_name)
            row.append(_fmt(value) if value is not None else "-")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return "\n".join(lines) + "\n"


_CSV_COLUMNS = (
    "experiment", "seed", "noise", "arm", "mae", "mse", "selected_count",
    "tp", "fp", "fn", "tn",
) + _SCORE_FIELDS


def per_seed_csv(report: dict) -> str:
    """Flat per-(seed, noise, arm) rows; empty cells where not applicable."""
    rows = [",".join(_CSV_COLUMNS)]
    for trial in report["trials"]:
        for arm in sorted(trial["arms"]):
            entry = trial["arms"][arm]
            cells = {
                "experiment": report["experiment"],
                "seed": str(trial["seed"]),
                "noise": repr(float(trial["noise"])),
                "arm": arm,
            }
            if "mae" in entry:
                cells["mae"] = repr(entry["mae"])
                cells["mse"] = repr(entry["mse"])
                if arm == "spif" and "ranking" in trial:
                    cells["selected_count"] = str(
                        trial["ranking"]["selected_count"]
                    )
            else:
                (tp, fp), (fn, tn) = entry["confusion"]
                cells.update(tp=str(tp), fp=str(fp), fn=str(fn), tn=str(tn))
                for field in _SCORE_FIELDS:
                    value = entry["scores"][field]
                    cells[field] = "" if math.isnan(value) else repr(value)
            rows.append(",".join(cells.get(c, "") for c in _CSV_COLUMNS))
    return "\n".join(rows) + "\n"


def boxplot_series(report: dict) -> list[dict]:
    """Per-metric/noise box-plot inputs: one entry per SVG to emit."""
    out = []
    if report["experiment"] == "binary":
        for field in _SCORE_FIELDS:
            groups = []
            for arm in sorted(report["trials"][0]["arms"]):
                values = [
                    t["arms"][arm]["scores"][field] for t in report["trials"]
                ]
                values = [v for v in values if not math.isnan(v)]
                groups.append((arm, values))
            out.append({
                "stem": f"binary_{field}",
                "title": f"binary: {field} by arm",
                "ylabel": field,
                "groups": groups,
            })
        return out
    for level in report["noise_levels"]:
        key = repr(float(level))
        batch = [t for t in report["trials"] if t["noise"] == level]
        for metric in ("mae", "mse"):
            groups = []
            for arm in sorted(batch[0]["arms"]):
                groups.append(
                    (arm, [t["arms"][arm][metric] for t in batch])
                )
            out.append({
                "stem": f"{report['experiment']}_{metric}_noise{key}",
                "title": f"{report['experiment']}: test {metric}, noise {key}",
                "ylabel": metric,
                "groups": groups,
            })
    return out
