"""Command-line surface: synth, enumerate, fit, rank, eval, reproduce.

All outputs are byte-deterministic for fixed inputs and seeds: JSON with
sorted keys and a trailing newline, CSV with repr() floats and LF line
endings, SVG from the fixed-geometry emitter.  Exit codes: 0 success,
2 usage or invalid values, 3 unreadable/unparseable files or write
failures, 4 enumeration budget exhausted, 5 numerical failure.

Environment overrides: ``PIFMAP_LAMBDA_GRID`` (comma-separated floats)
replaces the default grid used by ``fit --select``; ``PIFMAP_BUDGET``
replaces the default enumeration budget.  Explicit flags beat both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalogs
from .data import (
    Dataset,
    manifest_path_for,
    read_csv,
    write_csv,
    write_manifest,
)
from .dimension import parse_unit
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZero,
    EmptyInput,
    InsufficientData,
    InvalidNoiseLevel,
    InvalidRange,
    NonBinaryLabel,
    NonFiniteInput,
    NonFiniteResult,
    PifmapError,
    SchemaMismatch,
    SingularSystem,
    UnitSyntaxError,
    UnknownCatalog,
    ZeroScale,
)
from .experiments import (
    EXPERIMENT_NAMES,
    REGRESSION_NOISE_LEVELS,
    TrialSettings,
    boxplot_series,
    derive_noise_seed,
    per_seed_csv,
    report_markdown,
    run_experiment,
    split_point,
)
from .featuremap import (
    STANDARD_CONSTANTS,
    FeatureMapSpec,
    enumerate_monomials,
    evaluate_map,
    spec_from_dict,
    spec_to_dict,
)
from .metrics import confusion, mae, mse, scores_to_dict
from .ranking import curve_to_csv, rank_and_refit
from .regression import (
    DEFAULT_LAMBDA,
    DEFAULT_LAMBDA_GRID,
    RidgeModel,
    classify,
    fit_standardized,
    model_from_dict,
    model_to_dict,
    ridge_predict,
    select_lambda,
    standardize_apply,
)
from .synthdata import NoiseConfig, add_noise, gen_bernoulli, gen_binary, gen_pulsar

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5

_USAGE_ERRORS = (
    InvalidRange,
    InvalidNoiseLevel,
    UnknownCatalog,
    InsufficientData,
    EmptyInput,
    NonBinaryLabel,
    ValueError,
)
_NUMERICAL_ERRORS = (
    SingularSystem,
    NonFiniteResult,
    NonFiniteInput,
    DivisionByZero,
    ZeroScale,
)


class _InputFileError(Exception):
    """A named input file could not be read or parsed."""


def _fail(message: str) -> None:
    print(f"pifmap: error: {message}", file=sys.stderr)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputFileError(f"cannot read {path}: {exc}") from exc


def _read_dataset(path: str) -> Dataset:
    try:
        return read_csv(path)
    except OSError as exc:
        raise _InputFileError(f"cannot read {path}: {exc}") from exc
    except PifmapError as exc:
        raise _InputFileError(f"malformed dataset {path}: {exc}") from exc


# A JSON document of the wrong shape (a missing key, a list where an object
# belongs, a float exponent) fails inside the parser with one of these.
_SHAPE_ERRORS = (KeyError, TypeError, AttributeError)


def _malformed(kind: str, path: str, exc: Exception) -> _InputFileError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return _InputFileError(f"malformed {kind} {path}: {detail}")


def _load_spec_file(path: str, allow_inconsistent: bool) -> FeatureMapSpec:
    document = _read_json(path)
    try:
        return spec_from_dict(document, allow_inconsistent=allow_inconsistent)
    except DimensionMismatch:
        raise
    except (PifmapError, *_SHAPE_ERRORS) as exc:
        raise _malformed("spec", path, exc) from exc


def _load_model_file(path: str) -> tuple[RidgeModel, FeatureMapSpec | None]:
    document = _read_json(path)
    try:
        model = model_from_dict(document)
        design = document.get("design", {"kind": "raw", "spec": None})
        spec = None
        if design.get("kind") == "spec":
            spec = spec_from_dict(design["spec"], allow_inconsistent=True)
    except (PifmapError, *_SHAPE_ERRORS) as exc:
        raise _malformed("model", path, exc) from exc
    return model, spec


def _env_budget(default: int) -> int:
    raw = os.environ.get("PIFMAP_BUDGET")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"PIFMAP_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"PIFMAP_BUDGET must be positive, got {value}")
    return value


def _env_lambda_grid() -> tuple[float, ...]:
    raw = os.environ.get("PIFMAP_LAMBDA_GRID")
    if raw is None:
        return DEFAULT_LAMBDA_GRID
    try:
        grid = tuple(float(cell) for cell in raw.split(",") if cell.strip())
    except ValueError as exc:
        raise ValueError(
            f"PIFMAP_LAMBDA_GRID must be comma-separated floats, got {raw!r}"
        ) from exc
    if not grid:
        raise ValueError("PIFMAP_LAMBDA_GRID is empty")
    return grid


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Either ``a:b`` (inclusive range) or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"seed range {text!r} is reversed")
        return tuple(range(lo, hi + 1))
    seeds = tuple(int(cell) for cell in text.split(",") if cell.strip())
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def _parse_levels(text: str) -> tuple[float, ...]:
    levels = tuple(float(cell) for cell in text.split(",") if cell.strip())
    if not levels:
        raise ValueError("no noise levels given")
    return levels


# --------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args: argparse.Namespace) -> int:
    generators = {
        "bernoulli": gen_bernoulli,
        "pulsar": gen_pulsar,
        "binary": gen_binary,
    }
    dataset = generators[args.generator](args.n, args.seed)
    if args.noise is not None:
        if args.generator == "binary":
            raise ValueError(
                "binary labels are exact signs and cannot be noised"
            )
        noise_seed = (
            args.noise_seed
            if args.noise_seed is not None
            else derive_noise_seed(args.seed, args.noise)
        )
        noisy = add_noise(dataset.y, NoiseConfig(level=args.noise, seed=noise_seed))
        provenance = dict(dataset.provenance)
        provenance["noise"] = {"level": args.noise, "seed": noise_seed}
        dataset = Dataset(
            schema=dataset.schema,
            X=dataset.X,
            y=noisy,
            label_dimension=dataset.label_dimension,
            provenance=provenance,
        )
    try:
        write_csv(dataset, args.out)
        write_manifest(dataset.provenance, manifest_path_for(args.out))
    except OSError as exc:
        raise _InputFileError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def _schema_from_file(path: str):
    if path.endswith(".csv"):
        return _read_dataset(path).schema
    document = _read_json(path)
    try:
        from .data import schema_of

        return schema_of(tuple((name, unit) for name, unit in document["features"]))
    except (KeyError, TypeError) as exc:
        raise _InputFileError(
            f"schema file {path} must carry a 'features' list of [name, unit] pairs"
        ) from exc


def _cmd_enumerate(args: argparse.Namespace) -> int:
    schema = _schema_from_file(args.schema)
    target = parse_unit(args.target)
    constants = []
    if args.constants:
        for name in args.constants.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in STANDARD_CONSTANTS:
                raise ValueError(
                    f"unknown constant {name!r}; available: "
                    f"{sorted(STANDARD_CONSTANTS)}"
                )
            constants.append(STANDARD_CONSTANTS[name])
    budget = args.budget if args.budget is not None else _env_budget(1_000_000)
    monomials = enumerate_monomials(
        schema,
        tuple(constants),
        target,
        max_abs_exponent=args.max_exponent,
        max_active_features=args.max_active,
        max_constant_exponent=args.max_constant_exponent,
        budget=budget,
    )
    if not monomials:
        print(
            f"pifmap: warning: no combination of {list(schema.names)} reaches "
            f"[{target}] within the bounds",
            file=sys.stderr,
        )
    spec = FeatureMapSpec(
        name=args.name,
        features=tuple(schema.features),
        constants=tuple(constants),
        monomials=tuple(monomials),
        target_dimension=target,
        metadata={"source": "enumeration", "budget": budget},
    )
    text = _dump_json(spec_to_dict(spec))
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _design_matrix(dataset: Dataset, spec: FeatureMapSpec | None):
    if spec is None:
        return np.asarray(dataset.X, dtype=float), list(dataset.schema.names)
    return evaluate_map(spec, dataset), list(spec.monomial_names)


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = _read_dataset(args.data)
    spec = None
    if args.spec is not None:
        spec = _load_spec_file(args.spec, args.allow_inconsistent)
    X, names = _design_matrix(dataset, spec)
    k = split_point(dataset.n_rows, args.split)
    y = dataset.y
    grid = None
    if args.select:
        grid = _env_lambda_grid()
        from .regression import standardize_fit

        Z_train, _ = standardize_fit(X[:k])
        lam = select_lambda(Z_train, y[:k], grid)
    else:
        lam = args.lam
    model, Z_train = fit_standardized(X[:k], y[:k], lam, feature_names=names)
    document = model_to_dict(model)
    document["design"] = {
        "kind": "raw" if spec is None else "spec",
        "spec": None if spec is None else spec_to_dict(spec),
    }
    try:
        _write_text(args.out, _dump_json(document))
    except OSError as exc:
        raise _InputFileError(f"cannot write {args.out}: {exc}") from exc
    Z_test = standardize_apply(X[k:], model.standardization)
    pred_train = ridge_predict(model, Z_train)
    pred_test = ridge_predict(model, Z_test)
    metrics = {
        "arm": "raw" if spec is None else spec.name,
        "lambda": lam,
        "n_train": k,
        "n_test": dataset.n_rows - k,
        "train": {"mae": mae(y[:k], pred_train), "mse": mse(y[:k], pred_train)},
        "test": {"mae": mae(y[k:], pred_test), "mse": mse(y[k:], pred_test)},
    }
    if grid is not None:
        metrics["lambda_grid"] = list(grid)
    sys.stdout.write(_dump_json(metrics))
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    dataset = _read_dataset(args.data)
    spec = _load_spec_file(args.spec, args.allow_inconsistent)
    Phi = evaluate_map(spec, dataset)
    k = split_point(dataset.n_rows, args.split)
    y = dataset.y
    result, ranked = rank_and_refit(
        Phi[:k], y[:k], Phi[k:], y[k:], spec.monomial_names, args.lam,
        args.epsilon,
    )
    text = _dump_json({"spec": spec.name, **ranked})
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.curve:
        _write_text(args.curve, curve_to_csv(result))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    model, spec = _load_model_file(args.model)
    dataset = _read_dataset(args.data)
    X, _ = _design_matrix(dataset, spec)
    Z = standardize_apply(X, model.standardization)
    scores = ridge_predict(model, Z)
    if args.classify is not None:
        threshold = args.classify
        predictions = classify(scores, threshold)
        out = scores_to_dict(confusion(dataset.y, predictions))
        out["threshold"] = threshold
    else:
        out = {"mae": mae(dataset.y, scores), "mse": mse(dataset.y, scores),
               "n": dataset.n_rows}
    sys.stdout.write(_dump_json(out))
    return EXIT_OK


def _write_report(report: dict, out_dir: str, csv_only: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "report.json"), _dump_json(report))
    _write_text(os.path.join(out_dir, "report.md"), report_markdown(report))
    _write_text(os.path.join(out_dir, "per_seed.csv"), per_seed_csv(report))
    if csv_only:
        return
    from .svgplot import render_boxplot

    plot_dir = os.path.join(out_dir, "plots")
    os.makedirs(plot_dir, exist_ok=True)
    for series in boxplot_series(report):
        svg = render_boxplot(series["title"], series["ylabel"], series["groups"])
        _write_text(os.path.join(plot_dir, series["stem"] + ".svg"), svg)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    names = EXPERIMENT_NAMES if args.experiment == "all" else [args.experiment]
    seeds = _parse_seeds(args.seeds)
    levels = _parse_levels(args.noise_levels)
    settings = TrialSettings(n=args.n, split=args.split)
    try:
        for name in names:
            report = run_experiment(name, seeds, levels, settings)
            _write_report(report, os.path.join(args.out, name), args.csv_only)
    except OSError as exc:
        raise _InputFileError(f"cannot write under {args.out}: {exc}") from exc
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pifmap",
        description="Physics-informed feature maps: generate, enumerate, "
        "fit, rank, evaluate, reproduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p_synth.add_argument("generator", choices=["bernoulli", "pulsar", "binary"])
    p_synth.add_argument("--n", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--noise", type=float, default=None,
                         help="relative uniform label noise level in [0,1)")
    p_synth.add_argument("--noise-seed", type=int, default=None,
                         help="override the derived noise stream seed")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=_cmd_synth)

    p_enum = sub.add_parser(
        "enumerate", help="list dimensionally consistent monomials"
    )
    p_enum.add_argument("--schema", required=True,
                        help="schema JSON ({'features': [[name, unit], ...]}) "
                        "or a dataset CSV")
    p_enum.add_argument("--target", required=True, help="target unit, e.g. Pa")
    p_enum.add_argument("--max-exponent", type=int, default=4)
    p_enum.add_argument("--max-active", type=int, default=4)
    p_enum.add_argument("--max-constant-exponent", type=int, default=None)
    p_enum.add_argument("--constants", default="",
                        help="comma-separated constant names, e.g. g,mu0,c")
    p_enum.add_argument("--budget", type=int, default=None,
                        help="search-node budget (default 1e6 or PIFMAP_BUDGET)")
    p_enum.add_argument("--name", default="enumerated")
    p_enum.add_argument("--out", default=None, help="spec JSON path (default stdout)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_fit = sub.add_parser("fit", help="fit ridge on raw or mapped features")
    p_fit.add_argument("--data", required=True)
    group = p_fit.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="feature-map spec JSON")
    group.add_argument("--raw", action="store_true",
                       help="fit on the raw standardized features")
    p_fit.add_argument("--lam", type=float, default=DEFAULT_LAMBDA)
    p_fit.add_argument("--select", action="store_true",
                       help="pick lambda on a validation tail of the train split")
    p_fit.add_argument("--split", type=float, default=0.7)
    p_fit.add_argument("--allow-inconsistent", action="store_true")
    p_fit.add_argument("--out", required=True, help="model JSON path")
    p_fit.set_defaults(func=_cmd_fit)

    p_rank = sub.add_parser("rank", help="greedy-rank mapped features")
    p_rank.add_argument("--data", required=True)
    p_rank.add_argument("--spec", required=True)
    p_rank.add_argument("--epsilon", type=float, default=0.01)
    p_rank.add_argument("--lam", type=float, default=DEFAULT_LAMBDA)
    p_rank.add_argument("--split", type=float, default=0.7)
    p_rank.add_argument("--allow-inconsistent", action="store_true")
    p_rank.add_argument("--out", default=None, help="ranking JSON path (default stdout)")
    p_rank.add_argument("--curve", default=None, help="optional error-curve CSV path")
    p_rank.set_defaults(func=_cmd_rank)

    p_eval = sub.add_parser("eval", help="evaluate a stored model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--classify", type=float, nargs="?", const=0.5,
                        default=None,
                        help="threshold the predictions (default 0.5) and "
                        "report the confusion matrix with skill scores")
    p_eval.set_defaults(func=_cmd_eval)

    p_rep = sub.add_parser("reproduce", help="run a full experiment report")
    p_rep.add_argument("experiment",
                       choices=[*EXPERIMENT_NAMES, "all"])
    p_rep.add_argument("--seeds", default="1:20",
                       help="'a:b' inclusive range or comma list (default 1:20)")
    p_rep.add_argument("--noise-levels",
                       default=",".join(repr(x) for x in REGRESSION_NOISE_LEVELS))
    p_rep.add_argument("--n", type=int, default=1000)
    p_rep.add_argument("--split", type=float, default=0.7)
    p_rep.add_argument("--out", default="reports")
    p_rep.add_argument("--csv-only", action="store_true",
                       help="skip the SVG box plots")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        _fail(str(exc))
        return EXIT_BUDGET
    except _NUMERICAL_ERRORS as exc:
        _fail(str(exc))
        return EXIT_NUMERICAL
    except _InputFileError as exc:
        _fail(str(exc))
        return EXIT_IO
    except (UnitSyntaxError, DimensionMismatch, SchemaMismatch) as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except _USAGE_ERRORS as exc:
        _fail(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
