"""End-to-end experiment trials: raw-feature vs mapped-feature arms.

Every experiment prepares and fits its seeds in chunks, each as one
stack.  Each seed's dataset is generated from its own stream and its
labels noised at each level alone; the chunk's rows are concatenated,
the physics-informed monomials evaluated once over them, and each arm's
design (the raw features, arm ``sf``, and the monomials, arm ``spif``)
standardized on every seed's chronological training rows as one
``(seeds, rows, p)`` stack, the one the fit takes.  Each arm is fitted to
every (seed, level) item with one Gram per seed, shared by its levels,
and one stacked ridge solve.  Regression experiments then greedy-rank the
monomials with one lock-step pass over the items and report the greedy
pass's fit of the selected set; the classification experiment scores
thresholded predictions.  A chunk holds the seeds whose designs fit in
``_CHUNK_BYTES``, and at least one; a chunk of several that raises, or
where a seed drops a constant column, is done again one seed at a time.
Each item's numbers equal that seed and level done alone, bit for bit,
and an error is the one a seed-by-seed loop raises.
What differs between experiments is one row of ``_EXPERIMENTS``.  The
rotating-dipole experiment adds a third arm with its leading monomial
removed (``spif_no_pif1``) to probe how much that single
dimensionally-exact term carries.

Reports are plain JSON-ready dicts so the CLI can serialize them
byte-identically; medians are taken over seeds per noise level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .catalogs import load_catalog
from .data import Dataset
from .errors import InsufficientData, InvalidRange
from .featuremap import FeatureMapSpec, evaluate_map, render_monomial
from .metrics import ConfusionMatrix, _errors, confusion, scores_to_dict
from .ranking import _ranked_refits
from .regression import (
    DEFAULT_LAMBDA,
    _ridge_fits,
    _ridge_predictions,
    _standardized,
    classify,
)
from .synthdata import (
    NoiseConfig,
    _check_rows,
    _check_seed,
    add_noise,
    gen_bernoulli,
    gen_binary,
    gen_pulsar,
)

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

# Every trial fits at DEFAULT_LAMBDA, stops the greedy pass at this relative
# improvement and labels class 1 at this score; the report records all three.
_EPSILON = 0.01
_THRESHOLD = 0.5

# A chunk of seeds is prepared and fitted as one stack while its designs
# take at most this many bytes: every default run is one chunk per
# experiment.
_CHUNK_BYTES = 1 << 22


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
    """Rows per seed and train share; defaults match the report runs."""

    n: int = 1000
    split: float = 0.7

    def __post_init__(self) -> None:
        _check_rows(self.n)
        if not 0.0 < self.split < 1.0:
            raise InvalidRange(f"split must be in (0, 1), got {self.split}")


def split_point(n: int, fraction: float) -> int:
    """Chronological split index: first ``round(n * fraction)`` rows train."""
    k = int(round(n * fraction))
    if k < 2 or n - k < 1:
        raise InsufficientData(
            f"split {fraction} of {n} rows leaves train={k}, test={n - k}"
        )
    return k


def derive_noise_seed(seed: int, level: float) -> int:
    """Key the noise stream off (seed, level) so arms never share draws.

    The level is checked as :class:`~pifmap.synthdata.NoiseConfig` checks
    it before it is scaled to an integer key, so an out-of-range level
    raises :class:`~pifmap.errors.InvalidNoiseLevel`, not an overflow.
    """
    NoiseConfig(level=level, seed=seed)
    ss = np.random.SeedSequence([int(seed), int(round(level * 1e6))])
    return int(ss.generate_state(1, np.uint64)[0])


def _noisy_labels(y: np.ndarray, seed: int, level: float) -> np.ndarray:
    if level == 0.0:
        return y
    return add_noise(y, NoiseConfig(level=level, seed=derive_noise_seed(seed, level)))


def _design_width(experiment: _Experiment, spec: FeatureMapSpec) -> int:
    """The columns of one seed's designs over every arm, before any is
    dropped: the raw features, the monomials and each ablation's share."""
    monomials = range(len(spec))
    return len(spec.features) + sum(
        len(monomials[columns])
        for columns in (slice(None), *experiment.ablations.values())
    )


def _prepared_chunk(experiment: _Experiment, spec: FeatureMapSpec,
                    tables: list[Dataset], k: int) -> dict:
    """Per arm, the training and evaluation stacks of a chunk's tables,
    standardized on each seed's first ``k`` rows, with each seed's
    parameters and kept column names.

    The map is evaluated once over the concatenated rows (a chunk of one
    is not copied): its entries are elementwise, so each seed's equal its
    own evaluation's.  The generators' row-major tables concatenate to a
    row-major table, so each seed's ``sf`` sums run as its own would.
    """
    n = tables[0].n_rows
    table = tables[0] if len(tables) == 1 else replace(
        tables[0], X=np.concatenate([t.X for t in tables]),
        y=np.concatenate([t.y for t in tables]))
    Phi = evaluate_map(spec, table)
    names = spec.monomial_names
    # one (seeds, n, p) view per arm: row-major raw features, column-major map
    monomials = Phi.T.reshape(len(spec), len(tables), n).transpose(1, 2, 0)
    raw = {"sf": (table.X.reshape(len(tables), n, -1), table.schema.names),
           "spif": (monomials, names)}
    for arm, columns in experiment.ablations.items():
        raw[arm] = (monomials[:, :, columns], names[columns])
    designs = {}
    for arm, (X, column_names) in raw.items():
        Z_train, Z_eval, params = _standardized(X, k)
        designs[arm] = (Z_train, Z_eval, params,
                        [tuple(column_names[j] for j in p.kept) for p in params])
    return designs


def _chunk_trials(experiment: _Experiment, spec: FeatureMapSpec, seeds: list[int],
                  tables: list[Dataset], noise_levels,
                  split: float) -> list[list[dict]]:
    """A chunk of seeds' trials, one list per seed, as one stack.

    The items of the stack are the chunk's (seed, level) pairs,
    seed-major.  Each arm is fitted, predicted and scored for every item by
    one call each; regression experiments then rank ``spif`` with one
    lock-step greedy pass over every item.
    """
    k = split_point(tables[0].n_rows, split)
    designs = _prepared_chunk(experiment, spec, tables, k)
    y = np.array([_noisy_labels(table.y, seed, level)
                  for seed, table in zip(seeds, tables) for level in noise_levels])
    y_train, y_eval = y[:, :k], y[:, k:]
    trials = [{"seed": seed, "noise": level, "arms": {}}
              for seed in seeds for level in noise_levels]
    models = {}
    spif_stacks = designs["spif"][:2]
    for arm in list(designs):
        # an arm's stacks are let go once it is scored; the rank keeps spif's
        Z_train, Z_eval, params, names = designs.pop(arm)
        models[arm] = _ridge_fits(Z_train, y_train, DEFAULT_LAMBDA,
                                  feature_names=names, standardizations=params)
        predictions = _ridge_predictions(models[arm], Z_eval)
        if experiment.classification:
            labels = classify(predictions, _THRESHOLD)
            for trial, truth, row in zip(trials, y_eval, labels):
                trial["arms"][arm] = scores_to_dict(confusion(truth, row))
        else:
            maes, mses = _errors(y_eval, predictions, np.abs, np.square, axis=-1)
            for trial, mae, mse in zip(trials, maes.tolist(), mses.tolist()):
                trial["arms"][arm] = {"mae": mae, "mse": mse}
    if not experiment.classification:
        Z_train, Z_eval = spif_stacks
        ranked = _ranked_refits(models["spif"], Z_train, y_train, Z_eval, y_eval,
                                _EPSILON)
        for trial, (_, document) in zip(trials, ranked):
            trial["ranking"] = {
                key: document[key]
                for key in ("order", "selected_count", "selected", "curve")
            }
            trial["coefficients"] = {**document["coefficients"],
                                     "intercept": document["intercept"]}
    levels = len(noise_levels)
    return [trials[start:start + levels] for start in range(0, len(trials), levels)]


def _fitted_chunk(experiment: _Experiment, spec: FeatureMapSpec, seeds: list[int],
                  noise_levels, settings: TrialSettings) -> list[list[dict]]:
    """Generate a chunk of seeds' tables and :func:`_chunk_trials` them.

    A chunk of several seeds that raises, or where a seed drops a constant
    column, is done again one seed at a time from the tables generated so
    far, so an error is the first seed's own and no generator runs twice.
    """
    tables = []
    try:
        for seed in seeds:
            tables.append(experiment.generator(settings.n, seed))
        return _chunk_trials(experiment, spec, seeds, tables, noise_levels,
                             settings.split)
    except Exception:
        if len(seeds) == 1:
            raise
    by_seed = []
    for i, seed in enumerate(seeds):
        table = tables[i] if i < len(tables) else experiment.generator(settings.n, seed)
        by_seed += _chunk_trials(experiment, spec, [seed], [table], noise_levels,
                                 settings.split)
    return by_seed


def _trials_by_seed(experiment: _Experiment, spec: FeatureMapSpec, seeds,
                    noise_levels, settings: TrialSettings) -> list[list[dict]]:
    """Every seed's trials, one list per seed in the order given, in
    chunks of as many seeds as fit their designs (``n`` rows of every
    arm's columns, 8 bytes each) in ``_CHUNK_BYTES``, and at least one."""
    size = max(1, _CHUNK_BYTES // (8 * settings.n * _design_width(experiment, spec)))
    return [trials for start in range(0, len(seeds), size)
            for trials in _fitted_chunk(experiment, spec, seeds[start:start + size],
                                        noise_levels, settings)]


def _median(values) -> float:
    """``np.median`` of a non-empty list, bit for bit: the mean of its
    middle one or two values, a sum from 0.0 over their count."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[middle]
    return (0.0 + ordered[middle - 1] + ordered[middle]) / 2


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
            defined = [v for v in values if v is not None]
            medians[arm][field_name] = _median(defined) if defined else None
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

    The catalog is loaded once and shared by every trial.  The seeds are
    taken in chunks whose designs take at most 4 MiB (``_CHUNK_BYTES``),
    or one seed if a seed's take more.  Each chunk's map is evaluated once
    over its concatenated rows and each arm is standardized once, as one
    stack of its seeds shared by their noise levels; the concatenated
    table and map live only until the stacks are written.  A chunk of
    several seeds that raises, or where a seed drops a constant column, is
    prepared and fitted again one seed at a time from the tables already
    generated, so each generator runs once per seed and each warning is
    issued once per seed, in seed order (a chunk's generator warnings
    come before its dropped-column warnings).  Memory does not grow with
    the seeds: where each seed's designs take more than a chunk, the
    ``tracemalloc`` peak over three seeds is under 1.02x one seed's, and
    a default chunk of ten pulsar seeds peaks under 2.4x the stacks of its
    standardized designs.  The classification experiment ignores
    ``noise_levels``: its labels are exact signs of a conserved quantity,
    so a multiplicative noise arm would reproduce the noiseless one.  A
    seed that is not a non-negative integer raises
    :class:`~pifmap.errors.InvalidRange` before any seed runs.
    """
    seeds = [_check_seed(s) for s in seeds]
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
        task_setting = {"threshold": _THRESHOLD}
    else:
        task_setting = {"epsilon": _EPSILON}
    # one list of trials per seed, reported level-major with the seeds as given
    by_seed = _trials_by_seed(experiment, spec, seeds, noise_levels, settings)
    trials = [trial for by_level in zip(*by_seed) for trial in by_level]
    report = {
        "experiment": name,
        "settings": {
            "n": settings.n, "split": settings.split, "lambda": DEFAULT_LAMBDA,
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


def _fmt(x: float | None) -> str:
    if x is None:
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
                    cells[field] = "" if value is None else repr(value)
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
                values = [v for v in values if v is not None]
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
