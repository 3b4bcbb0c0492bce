"""Byte-for-byte golden outputs of the CLI.

The files under ``tests/golden/`` were written once by the commands below
and are never regenerated: a refactor that moves any reported number,
digit or byte fails here.  They are pinned under one BLAS thread, which
``conftest.py`` sets.  There are four exceptions:

- The layout of a spec's monomial list: ``fit/model.json`` and
  ``fit_wide/model.json`` were re-pinned when the JSON writer began to put
  each monomial on one line.  That re-pin moved only whitespace;
  ``json.loads`` of each file is unchanged.
- The destandardized coefficients of a greedy selection:
  ``reproduce/bernoulli/report.json``, ``reproduce/pulsar/report.json``,
  ``reproduce_order/bernoulli/report.json`` and ``rank/ranking.json`` were
  re-pinned when the rank step began to report the greedy pass's own fit
  of the selected columns instead of refitting them after a fresh
  standardization.  The two fits agree in exact arithmetic; only values
  under ``coefficients`` and ``median_coefficients`` moved, by at most
  2.5e-13 relative, and every other key and file is unchanged.
- The summation order of the column means and scales: the twelve files
  under ``fit/``, ``rank/``, ``fit_wide/`` and the ``per_seed.csv`` and
  ``report.json`` of ``reproduce/bernoulli``, ``reproduce/pulsar`` and
  ``reproduce_order/bernoulli`` were re-pinned when ``evaluate_map``
  began to return a Fortran-ordered design, whose column sums numpy takes
  pairwise along each contiguous column rather than row by row.  Only
  float values moved (means, scales, weights, coefficients, error-curve
  and metric values): by at most 2.2e-10 relative, on near-cancelling
  weights in ``fit/model.json`` and on the small residual errors of the
  ``rank`` curve, and by at most 2.5e-13 relative in the ``reproduce``
  reports.  Every lambda, column list, order, selection, ``report.md``
  and every other file is unchanged.
- The tall pins' first curve point: ``tall/pins.json`` was re-pinned when
  the suite began to run under one BLAS thread.  The one-column prefix's
  Gram and ``Z'y`` are 14,000-long dot products, which OpenBLAS had split
  across the host's threads; its ``mae`` and ``mse`` moved by 2.2e-15
  relative, and every other pin is unchanged.

- ``reproduce all --seeds 1:3 --n 200 --csv-only``: the nine report files
  under ``golden/reproduce/<experiment>/``.
- ``reproduce all --seeds 1:3 --n 200``: the seventeen SVG box plots of
  ``<experiment>/plots/``, under ``golden/reproduce_plots/<experiment>/``;
  the reports written beside them equal the ``--csv-only`` ones.
- ``fit --spec <bernoulli catalog> --select`` on the table written by
  ``synth bernoulli --n 400 --seed 5``: the model JSON and the metrics
  printed on stdout, under ``golden/fit/``.
- ``rank --spec <bernoulli catalog> --out --curve`` on the same table: the
  ranking JSON and the error-curve CSV, under ``golden/rank/``.
- ``reproduce bernoulli --seeds 2,1,2 --noise-levels 0.5,0.1 --n 200
  --csv-only``: unsorted and repeated seeds and levels pin the trial order,
  under ``golden/reproduce_order/bernoulli/``.
- ``fit --raw --select`` on the table written by ``synth bernoulli --n 200
  --seed 1`` with its ``h`` column set to the constant 2.5: the kept-column
  names after a dropped column, under ``golden/fit_dropped/``.
- ``fit --spec <enumerated> --select`` on the table written by ``synth
  bernoulli --n 400 --seed 5 --noise 0.1``, where the spec is ``enumerate
  --target Pa --constants g --max-exponent 3 --max-active 3`` over that
  table (41 monomials, many sharing a column and exponent): the model JSON
  and the metrics printed on stdout, under ``golden/fit_wide/``.
- ``enumerate --target W --constants mu0,c --max-exponent 3 --max-active 3
  --out`` over the schema ``{"features": PULSAR_SCHEMA}`` below (131
  monomials; a dimensionless column, constants and units that no item
  uses): the spec JSON, under ``golden/enumerate/``.
- ``synth bernoulli --n 5 --seed 3 --noise 0.1``, ``synth pulsar --n 5
  --seed 3 --noise 0.1`` and ``synth binary --n 5 --seed 3``: each table
  and its manifest (the sampling ranges, seeds and class counts), under
  ``golden/synth/``.
- The tall in-process path on ``gen_pulsar(20_000, 3)`` with noise 0.1
  (seed 4) and a 0.7 split, whose rows cross ``evaluate_map``'s 8,192-row
  blocks: the sha256 of the evaluated map's bytes, the identical-column
  labels of the standardized training design, ``select_lambda``'s lambda
  and ``greedy_select``'s order, count and curve as float ``repr``
  strings, under ``golden/tall/``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pifmap.catalogs import load_catalog
from pifmap.cli import EXIT_OK, main
from pifmap.data import read_csv, write_csv
from pifmap.featuremap import evaluate_map, spec_to_dict
from pifmap.ranking import _identical_column_groups, greedy_select
from pifmap.regression import (
    fit_standardized,
    select_lambda,
    standardize_apply,
    standardize_fit,
)
from pifmap.synthdata import NoiseConfig, add_noise, gen_pulsar

GOLDEN = Path(__file__).resolve().parent / "golden"

PULSAR_SCHEMA = [
    ["r", "m"], ["B", "T"], ["omega", "1/s"], ["alpha", "rad"], ["P", "s"],
    ["m", "kg"], ["I", "kg*m^2"], ["E", "kg*m^2/s^2"],
]


def _files_under(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def write_reproduce(out: Path) -> dict[str, bytes]:
    assert main(["reproduce", "all", "--seeds", "1:3", "--n", "200",
                 "--csv-only", "--out", str(out)]) == EXIT_OK
    return _files_under(out)


def write_reproduce_plots(out: Path) -> dict[str, bytes]:
    assert main(["reproduce", "all", "--seeds", "1:3", "--n", "200",
                 "--out", str(out)]) == EXIT_OK
    return _files_under(out)


def write_reproduce_order(out: Path) -> dict[str, bytes]:
    assert main(["reproduce", "bernoulli", "--seeds", "2,1,2",
                 "--noise-levels", "0.5,0.1", "--n", "200", "--csv-only",
                 "--out", str(out)]) == EXIT_OK
    return _files_under(out)


def write_fit_and_rank(work: Path, capsys) -> dict[str, bytes]:
    table = work / "bernoulli.csv"
    spec = work / "bernoulli_spec.json"
    assert main(["synth", "bernoulli", "--n", "400", "--seed", "5",
                 "--out", str(table)]) == EXIT_OK
    spec.write_text(json.dumps(spec_to_dict(load_catalog("bernoulli"))),
                    encoding="utf-8")
    capsys.readouterr()
    model = work / "model.json"
    assert main(["fit", "--data", str(table), "--spec", str(spec),
                 "--select", "--out", str(model)]) == EXIT_OK
    fit_stdout = capsys.readouterr().out.encode("utf-8")
    ranking = work / "ranking.json"
    curve = work / "curve.csv"
    assert main(["rank", "--data", str(table), "--spec", str(spec),
                 "--out", str(ranking), "--curve", str(curve)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    return {
        "fit/model.json": model.read_bytes(),
        "fit/stdout.json": fit_stdout,
        "rank/ranking.json": ranking.read_bytes(),
        "rank/curve.csv": curve.read_bytes(),
    }


def write_fit_dropped(work: Path, capsys) -> dict[str, bytes]:
    table = work / "bernoulli.csv"
    assert main(["synth", "bernoulli", "--n", "200", "--seed", "1",
                 "--out", str(table)]) == EXIT_OK
    dataset = read_csv(table)
    dataset.X[:, dataset.schema.index("h")] = 2.5
    write_csv(dataset, table)
    capsys.readouterr()
    model = work / "model.json"
    assert main(["fit", "--data", str(table), "--raw", "--select",
                 "--out", str(model)]) == EXIT_OK
    return {
        "model.json": model.read_bytes(),
        "stdout.json": capsys.readouterr().out.encode("utf-8"),
    }


def write_fit_wide(work: Path, capsys) -> dict[str, bytes]:
    table = work / "bernoulli.csv"
    spec = work / "enumerated.json"
    assert main(["synth", "bernoulli", "--n", "400", "--seed", "5",
                 "--noise", "0.1", "--out", str(table)]) == EXIT_OK
    assert main(["enumerate", "--schema", str(table), "--target", "Pa",
                 "--constants", "g", "--max-exponent", "3", "--max-active", "3",
                 "--out", str(spec)]) == EXIT_OK
    assert len(json.loads(spec.read_text(encoding="utf-8"))["monomials"]) == 41
    capsys.readouterr()
    model = work / "model.json"
    assert main(["fit", "--data", str(table), "--spec", str(spec),
                 "--select", "--out", str(model)]) == EXIT_OK
    return {
        "model.json": model.read_bytes(),
        "stdout.json": capsys.readouterr().out.encode("utf-8"),
    }


def write_enumerate(work: Path) -> dict[str, bytes]:
    schema = work / "pulsar.json"
    spec = work / "spec.json"
    schema.write_text(json.dumps({"features": PULSAR_SCHEMA}), encoding="utf-8")
    assert main(["enumerate", "--schema", str(schema), "--target", "W",
                 "--constants", "mu0,c", "--max-exponent", "3",
                 "--max-active", "3", "--out", str(spec)]) == EXIT_OK
    assert len(json.loads(spec.read_text(encoding="utf-8"))["monomials"]) == 131
    return {"spec.json": spec.read_bytes()}


SYNTH_CASES = [
    ["bernoulli", "--noise", "0.1"],
    ["pulsar", "--noise", "0.1"],
    ["binary"],
]


def write_synth(work: Path) -> dict[str, bytes]:
    for generator, *noise in SYNTH_CASES:
        assert main(["synth", generator, "--n", "5", "--seed", "3", *noise,
                     "--out", str(work / f"{generator}.csv")]) == EXIT_OK
    return _files_under(work)


def write_tall() -> dict[str, bytes]:
    spec = load_catalog("pulsar", allow_inconsistent=True)
    data = gen_pulsar(20_000, 3)
    y = add_noise(data.y, NoiseConfig(level=0.1, seed=4))
    Phi = evaluate_map(spec, data)
    k = int(round(20_000 * 0.7))
    Z_select, _ = standardize_fit(Phi[:k])
    lam = select_lambda(Z_select, y[:k])
    model, Z_train = fit_standardized(Phi[:k], y[:k], lam,
                                      feature_names=spec.monomial_names)
    Z_test = standardize_apply(Phi[k:], model.standardization)
    ranking = greedy_select(Z_train, y[:k], Z_test, y[k:], lam)
    pins = {
        "evaluate_map_sha256": hashlib.sha256(Phi.tobytes(order="A")).hexdigest(),
        "groups": _identical_column_groups(Z_train).tolist(),
        "lambda": repr(lam),
        "order": list(ranking.order),
        "selected_count": ranking.selected_count,
        "curve": [[point.k, repr(point.mae), repr(point.mse)]
                  for point in ranking.curve],
    }
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in pins.items()]
    return {"pins.json": ("{\n" + ",\n".join(lines) + "\n}\n").encode("utf-8")}


def _golden(subdir: str) -> dict[str, bytes]:
    return _files_under(GOLDEN / subdir)


@pytest.fixture(autouse=True)
def _default_environment(monkeypatch):
    monkeypatch.delenv("PIFMAP_LAMBDA_GRID", raising=False)


def test_reproduce_all_matches_golden_reports(tmp_path):
    produced = write_reproduce(tmp_path / "reports")
    expected = _golden("reproduce")
    assert len(expected) == 9
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_reproduce_all_matches_golden_plots(tmp_path):
    produced = write_reproduce_plots(tmp_path / "reports")
    expected = {
        name.replace("/", "/plots/", 1): data
        for name, data in _golden("reproduce_plots").items()
    }
    assert len(expected) == 17
    reports = {name: data for name, data in produced.items() if "/plots/" not in name}
    assert reports == _golden("reproduce")
    plots = {name: data for name, data in produced.items() if "/plots/" in name}
    assert sorted(plots) == sorted(expected)
    for name, data in expected.items():
        assert plots[name] == data, name


def test_fit_and_rank_match_golden_outputs(tmp_path, capsys):
    produced = write_fit_and_rank(tmp_path, capsys)
    expected = {
        f"{sub}/{name}": data
        for sub in ("fit", "rank")
        for name, data in _golden(sub).items()
    }
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_reproduce_trial_order_matches_golden_reports(tmp_path):
    produced = write_reproduce_order(tmp_path / "reports")
    expected = _golden("reproduce_order")
    assert len(expected) == 3
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_fit_with_dropped_column_matches_golden_outputs(tmp_path, capsys):
    produced = write_fit_dropped(tmp_path, capsys)
    expected = _golden("fit_dropped")
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_fit_on_a_wide_enumerated_spec_matches_golden_outputs(tmp_path, capsys):
    produced = write_fit_wide(tmp_path, capsys)
    expected = _golden("fit_wide")
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_enumerate_matches_golden_spec(tmp_path):
    produced = write_enumerate(tmp_path)
    expected = _golden("enumerate")
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_synth_matches_golden_tables_and_manifests(tmp_path):
    produced = write_synth(tmp_path)
    expected = _golden("synth")
    assert len(expected) == 6
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_tall_path_matches_golden_pins():
    assert write_tall() == _golden("tall")
