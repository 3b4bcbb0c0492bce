"""Command-line surface: synth, enumerate, fit, rank, eval, reproduce.

All outputs are byte-deterministic for fixed inputs and seeds: JSON, the
manifest included, from ``_dump_json`` with sorted keys, two-space indents
and a trailing newline, each monomial of a spec on one line; CSV with repr()
floats and LF line endings, SVG from the fixed-geometry emitter.

Exit codes: 0 success; 2 usage or invalid values, including a bad
``--target`` unit, a spec whose monomials miss its target, a dataset whose
width does not match the model and a size too large to allocate; 3 any input
file that cannot be read or parsed (a bad unit, a repeated or invalid column
or constant name, the wrong shape) and any output path that cannot be
written; 4 enumeration budget exhausted; 5 numerical failure.  Each error
class carries its code (``PifmapError.exit_code``), and every failure prints
one ``pifmap: error:`` line.  Each distinct warning message prints one
``pifmap: warning:`` line, whatever the warnings filters say, and leaves the
exit code as it is.

Environment override: ``PIFMAP_LAMBDA_GRID`` (comma-separated floats)
replaces the default grid used by ``fit --select``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    manifest_path_for,
    read_csv,
    read_schema,
    schema_of,
    write_csv,
)
from .dimension import parse_unit
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidRange,
    PifmapError,
    SchemaMismatch,
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
from .ranking import _identical_column_groups, curve_to_csv, rank_and_refit
from .regression import (
    DEFAULT_LAMBDA,
    DEFAULT_LAMBDA_GRID,
    RidgeModel,
    classify,
    fit_standardized,
    model_from_dict,
    model_to_dict,
    ridge_fit,
    ridge_predict,
    select_lambda,
    standardize_apply,
    standardize_fit,
)
from .synthdata import NoiseConfig, add_noise, gen_bernoulli, gen_binary, gen_pulsar

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5


class _InputFileError(PifmapError):
    """A named input file could not be read or parsed."""

    exit_code = EXIT_IO


def _fail(message: str) -> None:
    print(f"pifmap: error: {message}", file=sys.stderr)


# Writes a spec's monomial list compactly, in one pass of the json module's C
# encoder; a spec document is a tree, so it need not look for cycles.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False)
_encode_str = json.encoder.encode_basestring_ascii


def _dump_json(obj) -> str:
    """Sorted JSON indented by two spaces, each monomial of a spec on one line.

    Every JSON artifact is written here, to the bytes of ``json.dumps(obj,
    sort_keys=True, indent=2) + "\\n"`` except that each element of a
    non-empty list under a ``"monomials"`` key is compact on a line of its
    own.  A non-finite number is an :class:`InvalidRange`, a key that is not
    a string a ``TypeError``.
    """
    return _json(obj, "\n") + "\n"


def _json(node, newline: str) -> str:
    """``node`` as indented JSON whose inner lines start with ``newline``."""
    if isinstance(node, str):
        return _encode_str(node)
    if isinstance(node, float):
        if not math.isfinite(node):
            raise InvalidRange(f"Out of range float values are not JSON compliant: {node!r}")
        return float.__repr__(node)
    inner = newline + "  "
    if isinstance(node, dict):
        items = []
        for key, value in sorted(node.items()):
            if key == "monomials" and isinstance(value, list) and value:
                # Spec monomials are objects, so the encoder's text is theirs
                # joined by "}, {"; when that occurs nowhere else, a line
                # break goes in at each, else each element is encoded alone.
                line = inner + "  "
                try:
                    text = _LINE_ENCODER.encode(value)[1:-1]
                    if (text.count("}, {") == len(value) - 1
                            and all(isinstance(item, dict) for item in value)):
                        text = text.replace("}, {", "}," + line + "{")
                    else:
                        text = ("," + line).join(map(_LINE_ENCODER.encode, value))
                except ValueError as exc:
                    raise InvalidRange(str(exc)) from exc
                text = "[" + line + text + inner + "]"
            else:
                text = _json(value, inner)
            items.append(f"{inner}{_encode_str(key)}: {text}")
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    if isinstance(node, (list, tuple)):
        items = [_json(value, inner) for value in node]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if node is None or node is True or node is False:
        return "null" if node is None else "true" if node else "false"
    if isinstance(node, int):
        return int.__repr__(node)
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _parse_input(kind: str, path: str, parse):
    """Return ``parse(path)``; any failure names the file and exits 3.

    A file of the wrong shape (a missing key, a list where an object
    belongs, a float exponent) or with a bad value (a sign of 2, a repeated
    column) fails inside the parser with one of the errors caught below.  A
    spec file whose monomials miss its target is a usage error and stays one.
    """
    try:
        return parse(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputFileError(f"cannot read {path}: {exc}") from exc
    except (PifmapError, LookupError, TypeError, AttributeError, ValueError,
            ArithmeticError) as exc:
        if kind == "spec" and isinstance(exc, DimensionMismatch):
            raise
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise _InputFileError(f"malformed {kind} {path}: {detail}") from exc


def _json_document(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_spec_file(path: str, allow_inconsistent: bool) -> FeatureMapSpec:
    return _parse_input("spec", path, lambda p: spec_from_dict(
        _json_document(p), allow_inconsistent=allow_inconsistent
    ))


def _model_from_file(path: str) -> tuple[RidgeModel, FeatureMapSpec | None]:
    document = _json_document(path)
    model = model_from_dict(document)
    kind = document.get("design", {"kind": "raw"})["kind"]
    if kind == "raw":
        return model, None
    if kind != "spec":
        raise ValueError(f"design kind {kind!r} is neither 'raw' nor 'spec'")
    return model, spec_from_dict(document["design"]["spec"], allow_inconsistent=True)


def _env_lambda_grid() -> tuple[float, ...]:
    raw = os.environ.get("PIFMAP_LAMBDA_GRID")
    if raw is None:
        return DEFAULT_LAMBDA_GRID
    value = _finite_number("PIFMAP_LAMBDA_GRID", "non-negative")
    grid = tuple(value(cell) for cell in raw.split(",") if cell.strip())
    if not grid:
        raise InvalidRange("PIFMAP_LAMBDA_GRID is empty")
    return grid


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Either ``a:b`` (inclusive range) or a comma-separated list."""
    seed = _integer("--seeds", "non-negative")
    text = text.strip()
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = seed(lo_text), seed(hi_text)
        if hi < lo:
            raise InvalidRange(f"--seeds range {text!r} is reversed")
        return tuple(range(lo, hi + 1))
    seeds = tuple(seed(cell) for cell in text.split(",") if cell.strip())
    if not seeds:
        raise InvalidRange("--seeds lists no seeds")
    return seeds


# The ranges an option can be limited to, by the words its error message uses.
_BOUNDS = {
    "non-negative": lambda value: value >= 0,
    "positive": lambda value: value > 0,
    "in [0, 1)": lambda value: 0 <= value < 1,
    "in (0, 1)": lambda value: 0 < value < 1,
}


def _check_bound(option: str, bound: str | None, value, text: str) -> None:
    if bound is not None and not _BOUNDS[bound](value):
        raise InvalidRange(f"{option} must be {bound}, got {text!r}")


def _finite_number(option: str, bound: str | None = None):
    """An argparse type for ``option``: a finite float, or one error line.

    ``bound`` names a range from ``_BOUNDS``.  The error is a
    :class:`~pifmap.errors.InvalidRange`, which argparse does not catch,
    so it reaches :func:`main` and names the option.
    """

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidRange(f"{option} must be a finite number, got {text!r}")
        _check_bound(option, bound, value, text)
        return value

    return parse


def _integer(option: str, bound: str | None = None):
    """An argparse type for ``option``: an integer, or one error line.

    Like :func:`_finite_number`, it checks ``bound`` and raises
    :class:`~pifmap.errors.InvalidRange`, which names the option.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise InvalidRange(f"{option} must be an integer, got {text!r}") from None
        _check_bound(option, bound, value, text)
        return value

    return parse


def _parse_levels(text: str) -> tuple[float, ...]:
    level = _finite_number("--noise-levels", "in [0, 1)")
    levels = tuple(level(cell) for cell in text.split(",") if cell.strip())
    if not levels:
        raise InvalidRange("--noise-levels lists no noise levels")
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
            raise InvalidRange(
                "--noise cannot be used with binary: its labels are exact "
                "signs and cannot be noised"
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
    write_csv(dataset, args.out)
    _write_text(manifest_path_for(args.out), _dump_json(dataset.provenance))
    return EXIT_OK


def _schema_from_file(path: str):
    if path.endswith(".csv"):
        return read_schema(path)
    document = _json_document(path)
    if not isinstance(document, dict) or "features" not in document:
        raise SchemaMismatch(
            'expected {"features": [[name, unit], ...]} or '
            '{"features": [{"name": name, "unit": unit}, ...]}'
        )
    return schema_of(document["features"])


def _cmd_enumerate(args: argparse.Namespace) -> int:
    schema = _parse_input("schema", args.schema, _schema_from_file)
    target = parse_unit(args.target)
    constants = []
    if args.constants:
        for name in args.constants.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in STANDARD_CONSTANTS:
                raise InvalidRange(
                    f"--constants names unknown constant {name!r}; available: "
                    f"{sorted(STANDARD_CONSTANTS)}"
                )
            if STANDARD_CONSTANTS[name] in constants:
                raise InvalidRange(f"--constants names {name!r} twice")
            constants.append(STANDARD_CONSTANTS[name])
    exponents = enumerate_monomials(
        schema,
        tuple(constants),
        target,
        max_abs_exponent=args.max_exponent,
        max_active_features=args.max_active,
        max_constant_exponent=args.max_constant_exponent,
        budget=args.budget,
    )
    if not len(exponents):
        warnings.warn(
            f"no combination of {list(schema.names)} reaches [{target}] within the bounds"
        )
    spec = FeatureMapSpec(
        name=args.name,
        features=tuple(schema.features),
        constants=tuple(constants),
        exponents=exponents,
        target_dimension=target,
        metadata={"source": "enumeration", "budget": args.budget},
    )
    text = _dump_json(spec_to_dict(spec))
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _split_rows(n_rows: int, split: float) -> int:
    """:func:`split_point` of ``--split``; its error names the option."""
    try:
        return split_point(n_rows, split)
    except InsufficientData as exc:
        # "split 0.01 of 40 rows leaves ..." becomes "--split 0.01 of 40 ..."
        raise InsufficientData(f"--{exc}") from None


def _design_matrix(dataset: Dataset, spec: FeatureMapSpec | None):
    if spec is None:
        return np.asarray(dataset.X, dtype=float), list(dataset.schema.names)
    return evaluate_map(spec, dataset), list(spec.monomial_names)


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = _parse_input("dataset", args.data, read_csv)
    spec = None
    if args.spec is not None:
        spec = _load_spec_file(args.spec, args.allow_inconsistent)
    X, names = _design_matrix(dataset, spec)
    k = _split_rows(dataset.n_rows, args.split)
    y = dataset.y
    grid = _env_lambda_grid() if args.select else None
    Z_train, params = standardize_fit(X[:k])
    lam = select_lambda(Z_train, y[:k], grid) if args.select else args.lam
    model = ridge_fit(
        Z_train, y[:k], lam, feature_names=[names[j] for j in params.kept],
        standardization=params,
    )
    document = model_to_dict(model)
    document["design"] = {
        "kind": "raw" if spec is None else "spec",
        "spec": None if spec is None else spec_to_dict(spec),
    }
    _write_text(args.out, _dump_json(document))
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
    dataset = _parse_input("dataset", args.data, read_csv)
    spec = _load_spec_file(args.spec, args.allow_inconsistent)
    Phi = evaluate_map(spec, dataset)
    k = _split_rows(dataset.n_rows, args.split)
    y = dataset.y
    model, Z_train = fit_standardized(
        Phi[:k], y[:k], args.lam, feature_names=spec.monomial_names
    )
    Z_eval = standardize_apply(Phi[k:], model.standardization)
    result, ranked = rank_and_refit(
        model, _identical_column_groups(Z_train), Z_train, y[:k], Z_eval,
        y[k:], args.epsilon,
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
    model, spec = _parse_input("model", args.model, _model_from_file)
    dataset = _parse_input("dataset", args.data, read_csv)
    X, _ = _design_matrix(dataset, spec)
    Z = standardize_apply(X, model.standardization)
    scores = ridge_predict(model, Z)
    if args.classify is not None:
        labels = dataset.y[~np.isin(dataset.y, (0.0, 1.0))]
        if labels.size:
            raise InvalidRange(
                f"--classify needs labels 0 and 1, but {args.data} has label "
                f"{float(labels[0])!r}"
            )
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
    _split_rows(args.n, args.split)
    settings = TrialSettings(n=args.n, split=args.split)
    for name in names:
        report = run_experiment(name, seeds, levels, settings)
        _write_report(report, os.path.join(args.out, name), args.csv_only)
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error (a missing option, an unknown choice) instead
    of exiting, so :func:`main` prints it as one ``pifmap: error:`` line
    with exit code 2.  Subcommand parsers inherit this class.
    """

    def error(self, message: str):
        raise PifmapError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pifmap",
        description="Physics-informed feature maps: generate, enumerate, "
        "fit, rank, evaluate, reproduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p_synth.add_argument("generator", choices=["bernoulli", "pulsar", "binary"])
    p_synth.add_argument("--n", type=_integer("--n", "positive"), default=1000)
    p_synth.add_argument("--seed", type=_integer("--seed", "non-negative"),
                         default=1)
    p_synth.add_argument("--noise", type=_finite_number("--noise", "in [0, 1)"),
                         default=None,
                         help="relative uniform label noise level in [0,1)")
    p_synth.add_argument("--noise-seed",
                         type=_integer("--noise-seed", "non-negative"),
                         default=None,
                         help="override the derived noise stream seed")
    p_synth.add_argument("--out", required=True, help="output CSV path")

    p_enum = sub.add_parser(
        "enumerate", help="list dimensionally consistent monomials"
    )
    p_enum.add_argument("--schema", required=True,
                        help="schema JSON ({'features': [[name, unit], ...]} "
                        "or {'features': [{'name': ..., 'unit': ...}, ...]}, "
                        "as in a spec file) or a dataset CSV")
    p_enum.add_argument("--target", required=True, help="target unit, e.g. Pa")
    p_enum.add_argument("--max-exponent",
                        type=_integer("--max-exponent", "positive"), default=4)
    p_enum.add_argument("--max-active", type=_integer("--max-active", "positive"),
                        default=4)
    p_enum.add_argument("--max-constant-exponent",
                        type=_integer("--max-constant-exponent", "non-negative"),
                        default=None)
    p_enum.add_argument("--constants", default="",
                        help="comma-separated constant names, e.g. g,mu0,c")
    p_enum.add_argument("--budget", type=_integer("--budget", "positive"),
                        default=1_000_000,
                        help="half-grid rows plus join candidates, checked "
                        "before allocation (default 1e6)")
    p_enum.add_argument("--name", default="enumerated")
    p_enum.add_argument("--out", default=None, help="spec JSON path (default stdout)")

    p_fit = sub.add_parser("fit", help="fit ridge on raw or mapped features")
    p_fit.add_argument("--data", required=True)
    group = p_fit.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="feature-map spec JSON")
    group.add_argument("--raw", action="store_true",
                       help="fit on the raw standardized features")
    p_fit.add_argument("--lam", type=_finite_number("--lam", "non-negative"),
                       default=DEFAULT_LAMBDA)
    p_fit.add_argument("--select", action="store_true",
                       help="pick lambda on a validation tail of the train split")
    p_fit.add_argument("--split", type=_finite_number("--split", "in (0, 1)"),
                       default=0.7)
    p_fit.add_argument("--allow-inconsistent", action="store_true")
    p_fit.add_argument("--out", required=True, help="model JSON path")

    p_rank = sub.add_parser("rank", help="greedy-rank mapped features")
    p_rank.add_argument("--data", required=True)
    p_rank.add_argument("--spec", required=True)
    p_rank.add_argument("--epsilon", type=_finite_number("--epsilon", "positive"),
                        default=0.01)
    p_rank.add_argument("--lam", type=_finite_number("--lam", "non-negative"),
                        default=DEFAULT_LAMBDA)
    p_rank.add_argument("--split", type=_finite_number("--split", "in (0, 1)"),
                       default=0.7)
    p_rank.add_argument("--allow-inconsistent", action="store_true")
    p_rank.add_argument("--out", default=None, help="ranking JSON path (default stdout)")
    p_rank.add_argument("--curve", default=None, help="optional error-curve CSV path")

    p_eval = sub.add_parser("eval", help="evaluate a stored model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--classify", type=_finite_number("--classify"),
                        nargs="?", const=0.5,
                        default=None,
                        help="threshold the predictions (default 0.5) and "
                        "report the confusion matrix with skill scores")

    p_rep = sub.add_parser("reproduce", help="run a full experiment report")
    p_rep.add_argument("experiment",
                       choices=[*EXPERIMENT_NAMES, "all"])
    p_rep.add_argument("--seeds", default="1:20",
                       help="'a:b' inclusive range or comma list (default 1:20)")
    p_rep.add_argument("--noise-levels",
                       default=",".join(repr(x) for x in REGRESSION_NOISE_LEVELS))
    p_rep.add_argument("--n", type=_integer("--n", "positive"), default=1000)
    p_rep.add_argument("--split", type=_finite_number("--split", "in (0, 1)"),
                       default=0.7)
    p_rep.add_argument("--out", default="reports")
    p_rep.add_argument("--csv-only", action="store_true",
                       help="skip the SVG box plots")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser as it was, so one serves every call of main.
    return _build_parser()


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # an "error" filter would end in a traceback
        try:
            args = _parser().parse_args(argv)
            # looked up per call, not bound into the cached parser
            return globals()[f"_cmd_{args.command}"](args)
        except SystemExit as exc:  # argparse's --help
            return int(exc.code or 0)
        except PifmapError as exc:
            _fail(str(exc))
            return exc.exit_code
        except OSError as exc:
            # Every input file is read through _parse_input, so this is a write.
            _fail(f"cannot write {exc.filename}: {exc.strerror}")
            return EXIT_IO
        except MemoryError as exc:
            # a size too large to hold; numpy's message names the allocation
            _fail(f"out of memory: {exc}" if str(exc) else "out of memory")
            return EXIT_USAGE
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"pifmap: warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
