"""Outside-in span tracer for pifmap's public layer functions.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper, both
in the module that defines it and in every other loaded ``pifmap`` module
that bound it by name (``from .featuremap import evaluate_map`` leaves a
second reference in ``pifmap.cli``), so every call path is seen.
``uninstall`` puts every original back.  The program itself is unchanged.

A wrapper records one span per call: wall time from
``time.perf_counter_ns``, and self time, which is the span's duration minus
the time covered by its direct child spans.  Some layers also add exact
counters derived from the call's arguments and result; flops and bytes are
computed from shapes and file sizes, not measured by hardware counters.
Functions marked ``count_only`` are counted without a span, because they
are called thousands of times per operation.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

_now = time.perf_counter_ns


def _enumerated(counts, args, kwargs, result):
    counts["featuremap.enumerate_monomials.monomials"] += len(result)


def _cells(counts, args, kwargs, result):
    counts["featuremap.evaluate_map.cells"] += int(result.size)


def _rows(counts, args, kwargs, result):
    counts["synthdata.gen.rows"] += int(result.n_rows)


def _bytes_written(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["data.csv_bytes"] += os.path.getsize(path)


def _bytes_read(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["data.csv_bytes"] += os.path.getsize(path)


def _gram_flops(counts, args, kwargs, result):
    # n*p^2 for Z'Z plus p^3/3 for the Cholesky factor; kept as 3x the
    # value so the running sum stays an exact integer.
    n, p = args[0].shape
    counts["regression.gram_flops_x3"] += 3 * n * p * p + p ** 3


def _prefix_fits(counts, args, kwargs, result):
    counts["ranking.greedy_select.prefix_fits"] += len(result.curve)


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str  # "function" or "Class.method"
    span: str  # name used in metric names
    groups: tuple[str, ...] = ()
    counter: Callable | None = None
    count_only: bool = False


# Groups sum the time of their outermost spans: a span nested inside
# another span of the same group is not counted twice.
SPEC_PARSING = "spec_parsing"
METRICS = "metrics"
RENDER = "render"

LAYERS: tuple[Layer, ...] = (
    Layer("pifmap.cli", "main", "cli.main"),
    Layer("pifmap.catalogs", "load_catalog", "catalogs.load_catalog", (SPEC_PARSING,)),
    Layer("pifmap.dimension", "parse_unit", "dimension.parse_unit", (SPEC_PARSING,)),
    Layer("pifmap.featuremap", "spec_from_dict", "featuremap.spec_from_dict", (SPEC_PARSING,)),
    Layer("pifmap.featuremap", "FeatureMapSpec.__post_init__",
          "featuremap.FeatureMapSpec.init", (SPEC_PARSING,)),
    Layer("pifmap.featuremap", "monomial_dimension", "featuremap.monomial_dimension",
          count_only=True),
    Layer("pifmap.featuremap", "enumerate_monomials", "featuremap.enumerate_monomials",
          counter=_enumerated),
    Layer("pifmap.featuremap", "evaluate_map", "featuremap.evaluate_map", counter=_cells),
    Layer("pifmap.featuremap", "spec_to_dict", "featuremap.spec_to_dict"),
    Layer("pifmap.synthdata", "gen_bernoulli", "synthdata.gen", counter=_rows),
    Layer("pifmap.synthdata", "gen_pulsar", "synthdata.gen", counter=_rows),
    Layer("pifmap.synthdata", "gen_binary", "synthdata.gen", counter=_rows),
    Layer("pifmap.synthdata", "add_noise", "synthdata.add_noise"),
    Layer("pifmap.data", "write_csv", "data.write_csv", counter=_bytes_written),
    Layer("pifmap.data", "read_csv", "data.read_csv", counter=_bytes_read),
    Layer("pifmap.regression", "standardize_fit", "regression.standardize_fit"),
    Layer("pifmap.regression", "ridge_fit", "regression.ridge_fit", counter=_gram_flops),
    Layer("pifmap.regression", "select_lambda", "regression.select_lambda"),
    Layer("pifmap.ranking", "greedy_select", "ranking.greedy_select", counter=_prefix_fits),
    Layer("pifmap.metrics", "mae", "metrics.mae", (METRICS,)),
    Layer("pifmap.metrics", "mse", "metrics.mse", (METRICS,)),
    Layer("pifmap.metrics", "confusion", "metrics.confusion", (METRICS,)),
    Layer("pifmap.metrics", "skill_scores", "metrics.skill_scores", (METRICS,)),
    Layer("pifmap.metrics", "scores_to_dict", "metrics.scores_to_dict", (METRICS,)),
    Layer("pifmap.experiments", "run_experiment", "experiments.run_experiment"),
    Layer("pifmap.experiments", "report_markdown", "experiments.report_markdown", (RENDER,)),
    Layer("pifmap.experiments", "per_seed_csv", "experiments.per_seed_csv", (RENDER,)),
    Layer("pifmap.experiments", "boxplot_series", "experiments.boxplot_series", (RENDER,)),
    Layer("pifmap.svgplot", "render_boxplot", "svgplot.render_boxplot"),
)

COUNTER_NAMES = (
    "featuremap.enumerate_monomials.monomials",
    "featuremap.evaluate_map.cells",
    "synthdata.gen.rows",
    "data.csv_bytes",
    "regression.gram_flops_x3",
    "ranking.greedy_select.prefix_fits",
)


@dataclass
class OpTrace:
    """Everything recorded during one operation, in nanoseconds and counts."""

    calls: dict[str, int] = field(default_factory=dict)
    total_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    group_ns: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def _resolve(layer: Layer):
    owner = importlib.import_module(layer.module)
    if "." in layer.attr:
        class_name, method = layer.attr.split(".")
        return getattr(owner, class_name), method
    return owner, layer.attr


class Tracer:
    """Rebinds the layer functions while installed; one instance per run."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        spans = {layer.span for layer in LAYERS}
        groups = {g for layer in LAYERS for g in layer.groups}
        self._trace = OpTrace(
            calls=dict.fromkeys(spans, 0),
            total_ns=dict.fromkeys(spans, 0),
            self_ns=dict.fromkeys(spans, 0),
            group_ns=dict.fromkeys(groups, 0),
            counts=dict.fromkeys(COUNTER_NAMES, 0),
        )
        self._depth = dict.fromkeys(groups, 0)
        self._child_ns: list[int] = []

    def take(self) -> OpTrace:
        """Return what was recorded since the last reset and start afresh."""
        trace = self._trace
        self.reset()
        return trace

    def _wrap(self, fn, layer: Layer):
        tracer = self
        name = layer.span
        groups = layer.groups
        counter = layer.counter

        if layer.count_only:
            def counted(*args, **kwargs):
                tracer._trace.calls[name] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        def spanned(*args, **kwargs):
            trace = tracer._trace
            depth = tracer._depth
            stack = tracer._child_ns
            outermost = [g for g in groups if depth[g] == 0]
            for g in groups:
                depth[g] += 1
            stack.append(0)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _now() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                for g in groups:
                    depth[g] -= 1
                for g in outermost:
                    trace.group_ns[g] += duration
                trace.calls[name] += 1
                trace.total_ns[name] += duration
                trace.self_ns[name] += duration - child
            if counter is not None:
                counter(trace.counts, args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("pifmap.cli")
        importlib.import_module("pifmap.svgplot")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pifmap" or name.startswith("pifmap."))
        ]
        for layer in LAYERS:
            owner, attr = _resolve(layer)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer)
            self._patch(owner, attr, original, wrapper)
            if "." in layer.attr:
                continue
            for module in modules:
                if module is owner:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, obj, attr, original, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patches.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def bindings(self) -> list[tuple[object, str, object]]:
        """The (object, attribute, original) triples currently rebound."""
        return list(self._patches)


# Per-layer metrics of the traced run: (metric name, kind, key).  Each is
# computed per op and reported as the median over the traced ops; times in
# seconds, shares as a fraction of the op's wall time.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("catalogs.load_catalog.calls", "calls", "catalogs.load_catalog"),
    ("catalogs.load_catalog.self_s", "self", "catalogs.load_catalog"),
    ("dimension.parse_unit.calls", "calls", "dimension.parse_unit"),
    ("dimension.parse_unit.self_s", "self", "dimension.parse_unit"),
    ("featuremap.spec_from_dict.self_s", "self", "featuremap.spec_from_dict"),
    ("featuremap.FeatureMapSpec.init_s", "total", "featuremap.FeatureMapSpec.init"),
    ("featuremap.monomial_dimension.calls", "calls", "featuremap.monomial_dimension"),
    ("featuremap.enumerate_monomials.self_s", "self", "featuremap.enumerate_monomials"),
    ("featuremap.enumerate_monomials.monomials", "count",
     "featuremap.enumerate_monomials.monomials"),
    ("featuremap.evaluate_map.self_s", "self", "featuremap.evaluate_map"),
    ("featuremap.evaluate_map.cells", "count", "featuremap.evaluate_map.cells"),
    ("featuremap.spec_to_dict.self_s", "self", "featuremap.spec_to_dict"),
    ("synthdata.gen.self_s", "self", "synthdata.gen"),
    ("synthdata.gen.rows", "count", "synthdata.gen.rows"),
    ("synthdata.add_noise.self_s", "self", "synthdata.add_noise"),
    ("data.write_csv.self_s", "self", "data.write_csv"),
    ("data.read_csv.self_s", "self", "data.read_csv"),
    ("data.csv_bytes", "count", "data.csv_bytes"),
    ("regression.standardize_fit.self_s", "self", "regression.standardize_fit"),
    ("regression.ridge_fit.calls", "calls", "regression.ridge_fit"),
    ("regression.ridge_fit.self_s", "self", "regression.ridge_fit"),
    ("regression.gram_flops", "count_x3", "regression.gram_flops_x3"),
    ("regression.select_lambda.total_s", "total", "regression.select_lambda"),
    ("ranking.greedy_select.total_s", "total", "ranking.greedy_select"),
    ("ranking.greedy_select.prefix_fits", "count", "ranking.greedy_select.prefix_fits"),
    ("metrics.total_s", "group", METRICS),
    ("experiments.run_experiment.self_s", "self", "experiments.run_experiment"),
    ("experiments.render_s", "group", RENDER),
    ("svgplot.render_boxplot.calls", "calls", "svgplot.render_boxplot"),
    ("svgplot.render_boxplot.self_s", "self", "svgplot.render_boxplot"),
    ("cli.main.self_s", "self", "cli.main"),
    ("share.spec_parsing", "group_share", SPEC_PARSING),
    ("share.enumerate_search", "total_share", "featuremap.enumerate_monomials"),
    ("share.spec_validation", "total_share", "featuremap.FeatureMapSpec.init"),
)


# Kinds whose values are exact counts, identical from op to op and run to run.
COUNT_KINDS = ("calls", "count", "count_x3")


def op_metrics(trace: OpTrace, wall_ns: int) -> dict[str, float]:
    """The per-layer metrics of one traced op."""
    values: dict[str, float] = {}
    for metric, kind, key in LAYER_METRICS:
        if kind == "calls":
            value = trace.calls[key]
        elif kind == "self":
            value = trace.self_ns[key] / 1e9
        elif kind == "total":
            value = trace.total_ns[key] / 1e9
        elif kind == "group":
            value = trace.group_ns[key] / 1e9
        elif kind == "count":
            value = trace.counts[key]
        elif kind == "count_x3":
            value = trace.counts[key] / 3
        elif kind == "group_share":
            value = trace.group_ns[key] / wall_ns
        else:  # total_share
            value = trace.total_ns[key] / wall_ns
        values[metric] = value
    return values


def self_time_ns(trace: OpTrace) -> int:
    """Sum of self times over every span of one op."""
    return sum(trace.self_ns.values())
