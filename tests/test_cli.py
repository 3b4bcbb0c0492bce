"""End-to-end command-line behavior, run in process through main(argv)."""

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pifmap import cli, regression
from pifmap.catalogs import load_catalog
from pifmap.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from pifmap.data import _BLOCK_ROWS, read_csv, write_csv
from pifmap.errors import (
    BudgetExceeded,
    DroppedColumnWarning,
    InvalidRange,
    NonFiniteInput,
    NonFiniteResult,
    PifmapError,
    SingularSystem,
)
from pifmap.featuremap import evaluate_map, spec_from_dict, spec_to_dict
from pifmap.regression import (
    DEFAULT_LAMBDA_GRID,
    ridge_fit,
    ridge_predict,
    select_lambda,
    standardize_apply,
    standardize_fit,
)
from pifmap.synthdata import gen_bernoulli


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def bernoulli_csv(tmp_path):
    path = tmp_path / "bern.csv"
    assert run("synth", "bernoulli", "--n", "200", "--seed", "3",
               "--out", str(path)) == EXIT_OK
    return path


# the warning line for a bernoulli table whose column 6, h, is constant
_DROPPED_H = "pifmap: warning: dropping constant columns [6] (zero variance)"


def _hold_h_constant(path):
    dataset = read_csv(path)
    dataset.X[:, dataset.schema.index("h")] = 2.5
    write_csv(dataset, path)


@pytest.fixture()
def bernoulli_spec(tmp_path):
    path = tmp_path / "bern_spec.json"
    path.write_text(
        json.dumps(spec_to_dict(load_catalog("bernoulli"))), encoding="utf-8"
    )
    return path


class TestSynth:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run("synth", "pulsar", "--n", "50", "--seed", "9",
                   "--out", str(out)) == EXIT_OK
        dataset = read_csv(out)
        assert dataset.n_rows == 50
        manifest = json.loads((tmp_path / "data.manifest.json").read_text())
        assert manifest["generator"] == "pulsar"
        assert manifest["seed"] == 9
        assert manifest["noise"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "a.csv"
        run("synth", "bernoulli", "--n", "40", "--seed", "2", "--out", str(out))
        first = out.read_bytes()
        manifest_first = (tmp_path / "a.manifest.json").read_bytes()
        run("synth", "bernoulli", "--n", "40", "--seed", "2", "--out", str(out))
        assert out.read_bytes() == first
        assert (tmp_path / "a.manifest.json").read_bytes() == manifest_first

    def test_noise_recorded_with_derived_seed(self, tmp_path):
        clean = tmp_path / "clean.csv"
        noisy = tmp_path / "noisy.csv"
        run("synth", "bernoulli", "--n", "60", "--seed", "4", "--out", str(clean))
        assert run("synth", "bernoulli", "--n", "60", "--seed", "4",
                   "--noise", "0.3", "--out", str(noisy)) == EXIT_OK
        manifest = json.loads((tmp_path / "noisy.manifest.json").read_text())
        assert manifest["noise"]["level"] == 0.3
        assert isinstance(manifest["noise"]["seed"], int)
        y_clean = read_csv(clean).y
        y_noisy = read_csv(noisy).y
        assert not np.array_equal(y_clean, y_noisy)
        assert np.all(np.abs(y_noisy - y_clean) <= 0.3 * np.abs(y_clean) + 1e-9)
        # features unchanged by label noise
        assert np.array_equal(read_csv(clean).X, read_csv(noisy).X)

    def test_explicit_noise_seed_wins(self, tmp_path):
        out = tmp_path / "n.csv"
        run("synth", "bernoulli", "--n", "30", "--seed", "1",
            "--noise", "0.1", "--noise-seed", "777", "--out", str(out))
        manifest = json.loads((tmp_path / "n.manifest.json").read_text())
        assert manifest["noise"]["seed"] == 777

    def test_binary_refuses_noise(self, tmp_path, capsys):
        code = run("synth", "binary", "--n", "30", "--seed", "1",
                   "--noise", "0.1", "--out", str(tmp_path / "b.csv"))
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_invalid_noise_level(self, tmp_path):
        assert run("synth", "bernoulli", "--noise", "1.5",
                   "--out", str(tmp_path / "x.csv")) == EXIT_USAGE

    def test_nonpositive_n(self, tmp_path):
        assert run("synth", "bernoulli", "--n", "0",
                   "--out", str(tmp_path / "x.csv")) == EXIT_USAGE

    def test_unwritable_out_path(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run("synth", "bernoulli", "--n", "10",
                   "--out", str(missing_dir)) == EXIT_IO

    def test_unknown_generator_is_usage_error(self, tmp_path):
        assert run("synth", "tides", "--out", str(tmp_path / "x.csv")) == EXIT_USAGE

    @pytest.mark.parametrize("noise", [(), ("--noise", "0.2")],
                             ids=["clean", "noisy"])
    def test_manifest_has_the_one_json_layout(self, noise, tmp_path):
        out = tmp_path / "d.csv"
        assert run("synth", "bernoulli", "--n", "20", "--seed", "3", *noise,
                   "--out", str(out)) == EXIT_OK
        text = (tmp_path / "d.manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert (json.loads(text)["noise"] is None) == (not noise)


class TestEnumerate:
    def _schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(
            {"features": [["rho", "kg/m^3"], ["v", "m/s"], ["h", "m"]]}
        ), encoding="utf-8")
        return path

    def test_stdout_spec(self, tmp_path, capsys):
        schema = self._schema_file(tmp_path)
        assert run("enumerate", "--schema", str(schema), "--target", "Pa",
                   "--constants", "g") == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["name"] == "enumerated"
        assert document["monomials"], "expected at least rho*v^2 and rho*g*h"
        assert document["metadata"]["source"] == "enumeration"

    def test_out_file_and_determinism(self, tmp_path):
        schema = self._schema_file(tmp_path)
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        base = ["enumerate", "--schema", str(schema), "--target", "Pa",
                "--constants", "g"]
        assert run(*base, "--out", str(out1)) == EXIT_OK
        assert run(*base, "--out", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_dataset_csv_as_schema(self, bernoulli_csv, capsys):
        assert run("enumerate", "--schema", str(bernoulli_csv),
                   "--target", "Pa", "--constants", "g",
                   "--max-active", "3") == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        names = [f["name"] for f in document["features"]]
        assert names[:3] == ["p", "rho", "v"]

    def test_dataset_csv_schema_is_read_from_the_header_alone(
            self, bernoulli_csv, tmp_path, capsys):
        base = ["enumerate", "--target", "Pa", "--constants", "g",
                "--max-active", "3"]
        clean = tmp_path / "clean.json"
        assert run(*base, "--schema", str(bernoulli_csv),
                   "--out", str(clean)) == EXIT_OK
        lines = bernoulli_csv.read_text(encoding="utf-8").split("\n")
        lines[3] = lines[3].replace(lines[3].split(",")[1], "abc", 1)
        bernoulli_csv.write_text("\n".join(lines), encoding="utf-8")
        dirty = tmp_path / "dirty.json"
        assert run(*base, "--schema", str(bernoulli_csv),
                   "--out", str(dirty)) == EXIT_OK
        assert dirty.read_bytes() == clean.read_bytes()
        capsys.readouterr()
        assert run("fit", "--data", str(bernoulli_csv), "--raw",
                   "--out", str(tmp_path / "m.json")) == EXIT_IO
        assert "holds 'abc', which is not a number" in capsys.readouterr().err

    def test_empty_result_warns_but_succeeds(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"features": [["t", "s"]]}), encoding="utf-8")
        assert run("enumerate", "--schema", str(schema), "--target", "kg",
                   "--max-exponent", "2") == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "pifmap: warning: no combination of ['t'] reaches [kg] within the bounds"]
        assert json.loads(captured.out)["monomials"] == []

    def test_budget_exhaustion(self, tmp_path):
        schema = self._schema_file(tmp_path)
        assert run("enumerate", "--schema", str(schema), "--target", "Pa",
                   "--constants", "g", "--budget", "3") == BudgetExceeded.exit_code

    def test_unknown_constant(self, tmp_path):
        schema = self._schema_file(tmp_path)
        assert run("enumerate", "--schema", str(schema), "--target", "Pa",
                   "--constants", "planck") == EXIT_USAGE

    def test_bad_target_unit(self, tmp_path):
        schema = self._schema_file(tmp_path)
        assert run("enumerate", "--schema", str(schema),
                   "--target", "kg^^2") == EXIT_USAGE

    def test_missing_schema_file(self, tmp_path):
        assert run("enumerate", "--schema", str(tmp_path / "nope.json"),
                   "--target", "Pa") == EXIT_IO

    def test_malformed_schema_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"columns": []}), encoding="utf-8")
        assert run("enumerate", "--schema", str(bad), "--target", "Pa") == EXIT_IO

    def test_enumerated_spec_file_as_schema(self, tmp_path, capsys):
        # a spec file writes its features as {"name", "unit"} objects
        spec = tmp_path / "spec.json"
        base = ["enumerate", "--target", "Pa", "--constants", "g"]
        assert run(*base, "--schema", str(self._schema_file(tmp_path)),
                   "--out", str(spec)) == EXIT_OK
        again = tmp_path / "again.json"
        assert run(*base, "--schema", str(spec), "--out", str(again)) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert again.read_bytes() == spec.read_bytes()

    @pytest.mark.parametrize("document, message", [
        ({"features": [["rho", "kg/m^3", "extra"]]},
         'expected [name, unit] or {"name": name, "unit": unit} for each '
         "feature, got ['rho', 'kg/m^3', 'extra']"),
        ({"features": [{"name": "rho", "units": "kg/m^3"}]},
         'expected [name, unit] or {"name": name, "unit": unit} for each '
         "feature, got {'name': 'rho', 'units': 'kg/m^3'}"),
        ({"features": {"rho": "kg/m^3"}},
         "expected a list of features, got {'rho': 'kg/m^3'}"),
        ([["rho", "kg/m^3"]],
         'expected {"features": [[name, unit], ...]} or '
         '{"features": [{"name": name, "unit": unit}, ...]}'),
    ], ids=["long-pair", "object-without-unit", "object-of-features", "bare-list"])
    def test_schema_of_another_shape_names_the_expected_shapes(
            self, document, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        assert run("enumerate", "--schema", str(bad), "--target", "Pa") == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: malformed schema {bad}: {message}"
        ]

    def test_spec_lists_one_monomial_per_line(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run("enumerate", "--schema", str(self._schema_file(tmp_path)),
                   "--target", "Pa", "--constants", "g", "--out", str(out)) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        document = json.loads(text)
        lines = text.splitlines()
        start = lines.index('  "monomials": [')
        rows = lines[start + 1:start + 1 + len(document["monomials"])]
        assert [json.loads(row.rstrip(",")) for row in rows] == document["monomials"]
        assert all(row.startswith("    {") for row in rows)
        assert lines[start + 1 + len(rows)] == "  ],"
        # everything but the monomial lines is json.dumps(indent=2)
        document["monomials"] = []
        assert json.dumps(document, sort_keys=True, indent=2) + "\n" == (
            "\n".join(lines[:start] + ['  "monomials": [],']
                      + lines[start + 2 + len(rows):]) + "\n")


class TestFit:
    def test_raw_fit_writes_model_and_metrics(self, bernoulli_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run("fit", "--data", str(bernoulli_csv), "--raw",
                   "--out", str(model_path)) == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["arm"] == "raw"
        assert metrics["lambda"] == 1e-3
        assert metrics["n_train"] == 140 and metrics["n_test"] == 60
        assert set(metrics["train"]) == {"mae", "mse"}
        document = json.loads(model_path.read_text(encoding="utf-8"))
        assert document["design"]["kind"] == "raw"
        assert document["design"]["spec"] is None

    def test_spec_fit_beats_raw(self, bernoulli_csv, bernoulli_spec, tmp_path, capsys):
        raw_model = tmp_path / "raw.json"
        run("fit", "--data", str(bernoulli_csv), "--raw", "--out", str(raw_model))
        raw_metrics = json.loads(capsys.readouterr().out)
        spec_model = tmp_path / "spec.json"
        assert run("fit", "--data", str(bernoulli_csv),
                   "--spec", str(bernoulli_spec),
                   "--out", str(spec_model)) == EXIT_OK
        spec_metrics = json.loads(capsys.readouterr().out)
        assert spec_metrics["arm"] == "bernoulli"
        assert spec_metrics["test"]["mae"] < raw_metrics["test"]["mae"]
        document = json.loads(spec_model.read_text(encoding="utf-8"))
        assert document["design"]["kind"] == "spec"
        assert document["design"]["spec"]["name"] == "bernoulli"

    def test_select_uses_env_grid(self, bernoulli_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PIFMAP_LAMBDA_GRID", "0.5,0.125")
        assert run("fit", "--data", str(bernoulli_csv), "--raw", "--select",
                   "--out", str(tmp_path / "m.json")) == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["lambda_grid"] == [0.5, 0.125]
        assert metrics["lambda"] in (0.5, 0.125)

    def test_env_grid_invalid(self, bernoulli_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("PIFMAP_LAMBDA_GRID", "a,b")
        assert run("fit", "--data", str(bernoulli_csv), "--raw", "--select",
                   "--out", str(tmp_path / "m.json")) == EXIT_USAGE

    def test_select_warns_once_about_a_dropped_column(self, bernoulli_csv, tmp_path,
                                                      capsys):
        _hold_h_constant(bernoulli_csv)
        capsys.readouterr()
        assert run("fit", "--data", str(bernoulli_csv), "--raw", "--select",
                   "--out", str(tmp_path / "m.json")) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [_DROPPED_H]
        document = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        assert document["dropped_columns"] == [6]

    def test_a_warning_is_one_line_under_an_error_filter(self, bernoulli_csv, tmp_path,
                                                         capsys):
        _hold_h_constant(bernoulli_csv)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", "--data", str(bernoulli_csv), "--raw",
                       "--out", str(tmp_path / "m.json")) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [_DROPPED_H]

    def test_dimensionally_inconsistent_spec_is_usage_error(
            self, bernoulli_csv, bernoulli_spec, tmp_path, capsys):
        document = json.loads(bernoulli_spec.read_text(encoding="utf-8"))
        document["monomials"][0]["feature_exponents"][0] += 1
        bernoulli_spec.write_text(json.dumps(document), encoding="utf-8")
        assert run("fit", "--data", str(bernoulli_csv), "--spec", str(bernoulli_spec),
                   "--out", str(tmp_path / "m.json")) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("pifmap: error: dimensionally inconsistent monomials")

    def test_missing_data_file(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "nope.csv"), "--raw",
                   "--out", str(tmp_path / "m.json")) == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ("fit", "--raw", "--data", "{csv}", "--split", "0.01", "--out", "{out}"),
        ("reproduce", "bernoulli", "--n", "40", "--seeds", "1", "--split", "0.01",
         "--out", "{out}"),
    ], ids=["fit", "reproduce"])
    def test_split_leaving_no_training_rows_names_the_option(
            self, argv, tmp_path, capsys):
        table = tmp_path / "small.csv"
        assert run("synth", "bernoulli", "--n", "40", "--out", str(table)) == EXIT_OK
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(*(cell.format(csv=table, out=out) for cell in argv)) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "pifmap: error: --split 0.01 of 40 rows leaves train=0, test=40"
        ]
        assert not out.exists()

    def test_negative_lambda(self, bernoulli_csv, tmp_path):
        assert run("fit", "--data", str(bernoulli_csv), "--raw",
                   "--lam", "-1", "--out", str(tmp_path / "m.json")) == EXIT_USAGE

    def test_schema_mismatch_between_spec_and_data(self, bernoulli_spec, tmp_path):
        other = tmp_path / "pulsar.csv"
        run("synth", "pulsar", "--n", "40", "--seed", "1", "--out", str(other))
        assert run("fit", "--data", str(other), "--spec", str(bernoulli_spec),
                   "--out", str(tmp_path / "m.json")) == EXIT_USAGE

    def test_overflowing_feature_map_is_numerical_error(self, tmp_path, capsys):
        # v^4 at 1e100 overflows float64 inside the map evaluation
        data = tmp_path / "huge.csv"
        rows = ["v[m/s],label[m^4*s^-4]"]
        for i in range(1, 11):
            rows.append(f"{i * 1e100!r},{1.0!r}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps({"features": [["v", "m/s"]]}), encoding="utf-8"
        )
        spec = tmp_path / "quartic.json"
        assert run("enumerate", "--schema", str(schema),
                   "--target", "m^4*s^-4", "--out", str(spec)) == EXIT_OK
        capsys.readouterr()
        assert run("fit", "--data", str(data), "--spec", str(spec),
                   "--out", str(tmp_path / "m.json")) == NonFiniteResult.exit_code


    @staticmethod
    def _fit_raw_on_column_of(scale, tmp_path):
        data = tmp_path / "huge.csv"
        rows = ["a[m],b[m],label[m]"]
        for i in range(1, 11):
            rows.append(f"{i * scale!r},{float(i)!r},{i * scale!r}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        src = Path(cli.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "pifmap.cli", "fit", "--raw",
             "--data", str(data), "--out", str(tmp_path / "m.json")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True,
        )
        assert done.returncode == NonFiniteResult.exit_code
        assert done.stderr.splitlines() == [
            "pifmap: error: column 0 is too large to standardize: its "
            "standard deviation overflows"
        ]
        assert not (tmp_path / "m.json").exists()

    def test_overflowing_standardization_is_one_numerical_error_line(
            self, tmp_path):
        # squaring the centered 1e200-scale column overflows float64
        self._fit_raw_on_column_of(1e200, tmp_path)

    def test_finite_values_whose_sum_overflows_warn_of_nothing(self, tmp_path):
        # the column sums to 5.5e308: the finiteness checks on the way to
        # standardization must not print an overflow warning of their own
        self._fit_raw_on_column_of(1e307, tmp_path)

    @pytest.mark.parametrize("select", [[], ["--select"]], ids=["lam", "select"])
    def test_an_overflowing_solve_is_one_error_line(self, select, tmp_path, capsys):
        # labels near 1e307 overflow the right-hand side and the residual;
        # the solve's error reports that, and numpy warns of nothing
        data = tmp_path / "huge.csv"
        rows = ["a[1],b[1],label[1]"]
        for i in range(1, 14):
            rows.append(f"{float(i)!r},{float(i * i % 7)!r},"
                        f"{(1 + i / 10) * 1e307 * (-1) ** i!r}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("fit", "--raw", *select, "--data", str(data),
                   "--out", str(tmp_path / "m.json")) == SingularSystem.exit_code
        assert capsys.readouterr().err.splitlines() == [
            "pifmap: error: normal-equation residual exceeds 1e-8 relative; "
            "the system is too ill-conditioned to trust"
        ]
        assert not (tmp_path / "m.json").exists()

    def test_an_overflowing_error_is_one_error_line_and_writes_no_model(
            self, tmp_path, capsys):
        # the fit holds, but the errors of labels near 2e307 square past
        # float64: the metrics fail before the model is written
        rng = np.random.Generator(np.random.PCG64(0))
        features = rng.uniform(1.0, 2.0, (18, 2))
        magnitudes = np.linspace(1.1e307, 2.8e307, 18)
        rows = ["a[m],b[s],label[1]"]
        for i, ((a, b), magnitude) in enumerate(zip(features.tolist(),
                                                     magnitudes.tolist())):
            rows.append(f"{a!r},{b!r},{magnitude * (-1) ** i!r}")
        data = tmp_path / "big.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("fit", "--raw", "--data", str(data),
                   "--out", str(tmp_path / "m.json")) == NonFiniteResult.exit_code
        assert capsys.readouterr().err.splitlines() == [
            "pifmap: error: the error of finite values overflows"
        ]
        assert not (tmp_path / "m.json").exists()


class TestRank:
    def test_rank_json_and_curve(self, bernoulli_csv, bernoulli_spec, tmp_path):
        out = tmp_path / "rank.json"
        curve = tmp_path / "curve.csv"
        assert run("rank", "--data", str(bernoulli_csv),
                   "--spec", str(bernoulli_spec),
                   "--out", str(out), "--curve", str(curve)) == EXIT_OK
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["spec"] == "bernoulli"
        assert document["epsilon"] == 0.01
        assert document["selected_count"] == len(document["selected"])
        assert set(document["selected"]) <= set(document["order"])
        assert document["curve"][0]["k"] == 1
        assert "intercept" in document
        assert set(document["coefficients"]) == set(document["selected"])
        lines = curve.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "k,mae,mse"
        assert len(lines) == len(document["curve"]) + 1

    def test_rank_stdout_default(self, bernoulli_csv, bernoulli_spec, capsys):
        assert run("rank", "--data", str(bernoulli_csv),
                   "--spec", str(bernoulli_spec)) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["order"]

    def test_bad_epsilon(self, bernoulli_csv, bernoulli_spec, tmp_path):
        assert run("rank", "--data", str(bernoulli_csv),
                   "--spec", str(bernoulli_spec), "--epsilon", "0") == EXIT_USAGE


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _bernoulli_design(constant_column):
    """The bernoulli map on 400 rows, Fortran-ordered as ``evaluate_map``
    returns it; with rho and h held, monomial 2 (rho g h) is constant."""
    data = gen_bernoulli(400, 3)
    if constant_column:
        data.X[:, [data.schema.index("rho"), data.schema.index("h")]] = [1.2, 2.5]
    spec = load_catalog("bernoulli")
    return evaluate_map(spec, data), data.y, spec.monomial_names


def _public_split_fit(X, y, names, split, lam, grid):
    """``cli._split_fit``'s steps through the public functions."""
    k = cli._split_rows(len(X), split)
    Z_train, params = standardize_fit(X[:k])
    Z_test = standardize_apply(X[k:], params)
    if grid is not None:
        lam = select_lambda(Z_train, y[:k], grid)
    model = ridge_fit(Z_train, y[:k], lam, feature_names=[names[j] for j in params.kept],
                      standardization=params)
    return k, model, Z_train, Z_test


class TestSplitFit:
    """``fit`` and ``rank``'s split step equals the public functions bit for
    bit, standardizing a column-major design in place and a row-major one
    into new arrays."""

    @staticmethod
    def _assert_same_fit(split_fit, public):
        (k, model, Z_train, Z_test), (k_, model_, Z_train_, Z_test_) = split_fit, public
        assert k == k_
        for a, b in [(Z_train, Z_train_), (Z_test, Z_test_),
                     (model.standardization.means, model_.standardization.means),
                     (model.standardization.scales, model_.standardization.scales),
                     (model.weights, model_.weights),
                     (ridge_predict(model, Z_train), ridge_predict(model_, Z_train_)),
                     (ridge_predict(model, Z_test), ridge_predict(model_, Z_test_))]:
            assert a.shape == b.shape
            assert np.array_equal(_bits(a), _bits(b))
        assert model.standardization.kept == model_.standardization.kept
        assert model.standardization.dropped == model_.standardization.dropped
        assert _bits(model.lam) == _bits(model_.lam)
        assert _bits(model.intercept) == _bits(model_.intercept)
        assert model.feature_names == model_.feature_names

    @pytest.mark.parametrize("constant_column, grid", [
        (False, None), (False, DEFAULT_LAMBDA_GRID), (True, DEFAULT_LAMBDA_GRID),
    ], ids=["spec", "spec-select", "spec-dropped-column-select"])
    def test_column_major_design_is_standardized_in_place(self, constant_column, grid):
        Phi, y, names = _bernoulli_design(constant_column)
        assert Phi.flags.f_contiguous
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            public = _public_split_fit(Phi.copy(order="F"), y, names, 0.7, 1e-3, grid)
            result = cli._split_fit(Phi, y, names, 0.7, 1e-3, grid)
        dropped = [w for w in caught if w.category is DroppedColumnWarning]
        assert len(dropped) == (2 if constant_column else 0)
        self._assert_same_fit(result, public)
        k, model, Z_train, Z_test = result
        p = len(model.weights)
        assert p == Phi.shape[1] - constant_column
        # the leading and trailing rows of the kept columns' block of Phi
        assert Z_train.base is not None and np.shares_memory(Z_train, Phi)
        assert np.array_equal(_bits(Phi[:k, :p]), _bits(Z_train))
        assert np.array_equal(_bits(Phi[k:, :p]), _bits(Z_test))
        assert Z_train.strides == Z_test.strides == (8, 8 * len(Phi))

    def test_row_major_design_is_left_as_it_is(self, bernoulli_csv):
        dataset = read_csv(bernoulli_csv)
        X = np.asarray(dataset.X, dtype=float)
        assert not X.flags.f_contiguous
        before = X.copy()
        names = list(dataset.schema.names)
        public = _public_split_fit(X, dataset.y, names, 0.7, 1e-3, DEFAULT_LAMBDA_GRID)
        result = cli._split_fit(X, dataset.y, names, 0.7, 1e-3, DEFAULT_LAMBDA_GRID)
        self._assert_same_fit(result, public)
        assert np.array_equal(_bits(X), _bits(before))
        for Z in result[2:]:
            assert Z.flags.f_contiguous and not np.shares_memory(Z, X)

    @pytest.mark.parametrize("layout", ["column-major", "row-major"])
    def test_the_fit_checks_no_standardized_design_again(self, layout, monkeypatch):
        # _standardized's training designs are finite by construction
        Phi, y, names = _bernoulli_design(False)
        if layout == "row-major":
            Phi = np.ascontiguousarray(Phi)
        checked = []
        check = regression._check_finite
        monkeypatch.setattr(regression, "_check_finite",
                            lambda X, name: checked.append(X.shape) or check(X, name))
        cli._split_fit(Phi, y, names, 0.7, 1e-3, DEFAULT_LAMBDA_GRID)
        assert checked == []

    def test_non_finite_training_entry_raises_before_any_write(self):
        Phi, y, names = _bernoulli_design(False)
        Phi[5, 3] = np.nan
        before = Phi.copy(order="F")
        with pytest.raises(NonFiniteInput):
            cli._split_fit(Phi, y, names, 0.7, 1e-3, DEFAULT_LAMBDA_GRID)
        assert np.array_equal(_bits(Phi), _bits(before))


class TestEval:
    def test_regression_eval(self, bernoulli_csv, bernoulli_spec, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run("fit", "--data", str(bernoulli_csv), "--spec", str(bernoulli_spec),
            "--out", str(model_path))
        capsys.readouterr()
        assert run("eval", "--model", str(model_path),
                   "--data", str(bernoulli_csv)) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"mae", "mse", "n"}
        assert out["n"] == 200

    def test_classification_eval_default_threshold(self, tmp_path, capsys):
        data = tmp_path / "bin.csv"
        run("synth", "binary", "--n", "200", "--seed", "5", "--out", str(data))
        model_path = tmp_path / "model.json"
        run("fit", "--data", str(data), "--raw", "--out", str(model_path))
        capsys.readouterr()
        assert run("eval", "--model", str(model_path), "--data", str(data),
                   "--classify") == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["threshold"] == 0.5
        counts = np.array(out["confusion"])
        assert counts.sum() == 200
        assert set(out["scores"]) == {
            "sensitivity", "specificity", "accuracy", "tss", "hss",
        }

    def test_classification_of_one_label_class_writes_null_scores(
            self, tmp_path, capsys):
        data = tmp_path / "bin.csv"
        run("synth", "binary", "--n", "200", "--seed", "5", "--out", str(data))
        model_path = tmp_path / "model.json"
        run("fit", "--data", str(data), "--raw", "--out", str(model_path))
        dataset = read_csv(data)
        negatives = dataset.y == 0
        dataset.X, dataset.y = dataset.X[negatives], dataset.y[negatives]
        write_csv(dataset, data)
        capsys.readouterr()
        assert run("eval", "--model", str(model_path), "--data", str(data),
                   "--classify") == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["scores"]["sensitivity"] is None
        assert out["scores"]["tss"] is None
        assert {"sensitivity", "tss"} <= set(out["undefined"])

    def test_classification_custom_threshold(self, tmp_path, capsys):
        data = tmp_path / "bin.csv"
        run("synth", "binary", "--n", "100", "--seed", "6", "--out", str(data))
        model_path = tmp_path / "model.json"
        run("fit", "--data", str(data), "--raw", "--out", str(model_path))
        capsys.readouterr()
        assert run("eval", "--model", str(model_path), "--data", str(data),
                   "--classify", "0.75") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["threshold"] == 0.75

    def test_classify_on_labels_other_than_0_and_1_names_the_file(
            self, bernoulli_csv, tmp_path, capsys):
        model = _raw_model(tmp_path, bernoulli_csv)
        label = read_csv(bernoulli_csv).y[0]
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--data", str(bernoulli_csv),
                   "--classify") == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: --classify needs labels 0 and 1, but "
            f"{bernoulli_csv} has label {float(label)!r}"
        ]

    def test_missing_model(self, bernoulli_csv, tmp_path):
        assert run("eval", "--model", str(tmp_path / "no.json"),
                   "--data", str(bernoulli_csv)) == EXIT_IO

    def test_unparseable_model(self, bernoulli_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run("eval", "--model", str(bad),
                   "--data", str(bernoulli_csv)) == EXIT_IO


def _enumerate_run(tmp_path, data, spec):
    return ("enumerate", "--schema", str(data), "--target", "Pa",
            "--out", str(tmp_path / "enumerated.json")), EXIT_OK


def _fit_spec_run(tmp_path, data, spec):
    return ("fit", "--data", str(data), "--spec", str(spec),
            "--out", str(tmp_path / "model.json")), EXIT_OK


def _eval_model_run(tmp_path, data, spec):
    model = tmp_path / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("fit", "--data", str(data), "--spec", str(spec),
                   "--out", str(model)) == EXIT_OK
    return ("eval", "--model", str(model), "--data", str(data)), EXIT_OK


def _malformed_spec_run(tmp_path, data, spec):
    bad = tmp_path / "bad_spec.json"
    bad.write_text('{"name": "x", "features": [["rho", "kg/m^3"]]}', encoding="utf-8")
    return ("fit", "--data", str(data), "--spec", str(bad),
            "--out", str(tmp_path / "model.json")), EXIT_IO


def _synth_run(tmp_path, data, spec):
    return ("synth", "bernoulli", "--n", "200", "--seed", "3",
            "--out", str(tmp_path / "synth.csv")), EXIT_OK


def _fit_select_run(tmp_path, data, spec):
    return ("fit", "--data", str(data), "--spec", str(spec), "--select",
            "--out", str(tmp_path / "model.json")), EXIT_OK


def _fit_raw_run(tmp_path, data, spec):
    return ("fit", "--data", str(data), "--raw",
            "--out", str(tmp_path / "model.json")), EXIT_OK


def _rank_curve_run(tmp_path, data, spec):
    return ("rank", "--data", str(data), "--spec", str(spec),
            "--out", str(tmp_path / "rank.json"),
            "--curve", str(tmp_path / "curve.csv")), EXIT_OK


def _reproduce_run(tmp_path, data, spec):
    return ("reproduce", "all", "--seeds", "1:2", "--n", "60",
            "--out", str(tmp_path / "reports")), EXIT_OK


def _budget_run(tmp_path, data, spec):
    return ("enumerate", "--schema", str(data), "--target", "Pa", "--constants", "g",
            "--budget", "3"), BudgetExceeded.exit_code


class TestCollectorState:
    """The CLI pauses the cyclic garbage collector for the whole command and
    leaves it as the caller left it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        """Sets the collector on or off for the test, and back afterwards."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("command", [_enumerate_run, _fit_spec_run, _eval_model_run,
                                         _malformed_spec_run])
    def test_main_leaves_the_state_the_caller_set(self, command, collector,
                                                  bernoulli_csv, bernoulli_spec,
                                                  tmp_path, capsys):
        argv, code = command(tmp_path, bernoulli_csv, bernoulli_spec)
        assert run(*argv) == code
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True], ids=["enabled"], indirect=True)
    def test_specs_are_read_and_written_with_the_collector_paused(
            self, collector, bernoulli_csv, bernoulli_spec, tmp_path, monkeypatch,
            capsys):
        states = []

        def spy(function):
            def call(*args, **kwargs):
                states.append((function.__name__, gc.isenabled()))
                return function(*args, **kwargs)
            return call

        for name in ("spec_from_dict", "spec_to_dict", "model_from_dict"):
            monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
        for command in (_enumerate_run, _eval_model_run):
            argv, code = command(tmp_path, bernoulli_csv, bernoulli_spec)
            assert run(*argv) == code
        assert sorted(set(states)) == [("model_from_dict", False),
                                       ("spec_from_dict", False),
                                       ("spec_to_dict", False)]

    @pytest.mark.parametrize("collector", [False], ids=["disabled"], indirect=True)
    @pytest.mark.parametrize("command", [
        _synth_run, _enumerate_run, _fit_select_run, _fit_raw_run, _rank_curve_run,
        _eval_model_run, _reproduce_run, _malformed_spec_run, _budget_run])
    def test_no_command_leaves_cyclic_garbage(self, command, collector, bernoulli_csv,
                                              bernoulli_spec, tmp_path, capsys):
        # The pause holds memory only if reference counting frees all that a
        # command drops.  A process's first run may keep one-time set-up, so
        # the second is the one counted.
        argv, code = command(tmp_path, bernoulli_csv, bernoulli_spec)
        assert run(*argv) == code
        gc.collect()
        assert run(*argv) == code
        assert gc.collect() == 0


def _drop_monomials(doc):
    del doc["monomials"]


def _drop_feature_unit(doc):
    del doc["features"][0]["unit"]


def _fractional_exponent(doc):
    doc["monomials"][0]["feature_exponents"][0] = 1.5


def _boolean_exponent(doc):
    doc["monomials"][0]["feature_exponents"][0] = True


def _ragged_exponent_row(doc):
    doc["monomials"][1]["feature_exponents"].append(0)


def _sign_of_two(doc):
    doc["monomials"][0]["sign"] = 2


def _sign_of(value):
    def corrupt(doc):
        doc["monomials"][0]["sign"] = value
    corrupt.__name__ = f"_sign_of_{type(value).__name__}"
    return corrupt


def _kept_column_of(value):
    # in place of the index it truncates to, so that only the exact-integer
    # check can fail
    def corrupt(doc):
        columns = doc["kept_columns"]
        columns[columns.index(int(value))] = value
    corrupt.__name__ = f"_kept_column_of_{type(value).__name__}"
    return corrupt


def _constant_value_of(value, design=False):
    # in place of the value float() reads from it, so that only the
    # exact-number check can fail
    def corrupt(doc):
        spec = doc["design"]["spec"] if design else doc
        spec["constants"][0]["value"] = value
    where = "design_" if design else ""
    corrupt.__name__ = f"_{where}constant_value_of_{type(value).__name__}"
    return corrupt


def _model_number_of(key, convert):
    def corrupt(doc):
        if isinstance(doc[key], list):
            doc[key][0] = convert(doc[key][0])
        else:
            doc[key] = convert(doc[key])
    corrupt.__name__ = f"_{key}_of_{convert.__name__}"
    return corrupt


def _repeated_constant(doc):
    doc["constants"].append(doc["constants"][0])
    for monomial in doc["monomials"]:
        monomial["constant_exponents"].append(0)


def _drop_means(doc):
    del doc["means"]


def _bogus_design_kind(doc):
    doc["design"]["kind"] = "bogus"


class TestMalformedDocuments:
    """Wrong-shaped JSON is a malformed file: exit 3, one line, no traceback."""

    @pytest.mark.parametrize("command, corrupt", [
        ("fit", _drop_monomials),
        ("rank", _drop_monomials),
        ("fit", _drop_feature_unit),
        ("rank", _drop_feature_unit),
        ("fit", _fractional_exponent),
        ("rank", _fractional_exponent),
        ("fit", _boolean_exponent),
        ("rank", _boolean_exponent),
        ("fit", _ragged_exponent_row),
        ("rank", _ragged_exponent_row),
        ("fit", _sign_of_two),
        *((command, _sign_of(value)) for value in (1.5, True, "-1")
          for command in ("fit", "rank")),
        ("fit", _repeated_constant),
        ("eval", _drop_means),
        ("eval", _bogus_design_kind),
        ("eval", _kept_column_of(0.7)),
        ("eval", _kept_column_of(True)),
        *((command, _constant_value_of(value)) for value in (True, "9.80665")
          for command in ("fit", "rank")),
        ("eval", _constant_value_of("9.80665", design=True)),
        ("eval", _model_number_of("lambda", bool)),
        ("eval", _model_number_of("weights", str)),
        ("eval", _model_number_of("intercept", str)),
        ("eval", _model_number_of("means", bool)),
    ])
    def test_exit_3_with_one_error_line(self, command, corrupt, bernoulli_csv,
                                        bernoulli_spec, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run("fit", "--data", str(bernoulli_csv),
                   "--spec", str(bernoulli_spec), "--out", str(model)) == EXIT_OK
        kind, path = ("model", model) if command == "eval" else ("spec", bernoulli_spec)
        document = json.loads(path.read_text(encoding="utf-8"))
        corrupt(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        if command == "eval":
            argv = ("eval", "--model", str(model), "--data", str(bernoulli_csv))
        else:
            argv = (command, "--data", str(bernoulli_csv), "--spec", str(path),
                    "--out", str(tmp_path / "out.json"))
        assert run(*argv) == EXIT_IO
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"pifmap: error: malformed {kind} {path}: ")

    @pytest.mark.parametrize("transforms", [
        {" 3": "sin2"},
        {"+3": "sin2"},
        {"03": "sin2"},
        {"\u0663": "sin2"},
        {"3": "sin2", "03": "identity"},
    ], ids=["space", "plus", "leading-zero", "arabic-indic-digit", "two-keys-one-column"])
    def test_transform_key_must_be_the_column_index(self, transforms, tmp_path,
                                                    capsys):
        # the pulsar map's first monomial puts sin2 on column 3, alpha
        document = spec_to_dict(load_catalog("pulsar", allow_inconsistent=True))
        assert document["monomials"][0]["transforms"] == {"3": "sin2"}
        document["monomials"][0]["transforms"] = transforms
        with pytest.raises(ValueError, match="transform key '.*' is not a column index"):
            spec_from_dict(document, allow_inconsistent=True)
        data, spec = tmp_path / "p.csv", tmp_path / "spec.json"
        assert run("synth", "pulsar", "--n", "40", "--out", str(data)) == EXIT_OK
        spec.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert run("fit", "--data", str(data), "--spec", str(spec),
                   "--allow-inconsistent", "--out", str(tmp_path / "m.json")) == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"pifmap: error: malformed spec {spec}: transform key ")

    def test_unparseable_csv_cell_exits_3(self, bernoulli_csv, tmp_path, capsys):
        lines = bernoulli_csv.read_text(encoding="utf-8").split("\n")
        cells = lines[3].split(",")
        cells[1] = "abc"
        lines[3] = ",".join(cells)
        bernoulli_csv.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("fit", "--data", str(bernoulli_csv), "--raw",
                   "--out", str(tmp_path / "m.json")) == EXIT_IO
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"pifmap: error: malformed dataset {bernoulli_csv}:4: "
            "column 'rho' holds 'abc', which is not a number"
        ]

    def test_digit_group_underscore_cell_exits_3(self, bernoulli_csv, tmp_path, capsys):
        lines = bernoulli_csv.read_text(encoding="utf-8").split("\n")
        cells = lines[3].split(",")
        cells[1] = "1_0"
        lines[3] = ",".join(cells)
        bernoulli_csv.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("fit", "--data", str(bernoulli_csv), "--raw",
                   "--out", str(tmp_path / "m.json")) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: malformed dataset {bernoulli_csv}:4: "
            "column 'rho' holds '1_0', which is not a number"
        ]

    @pytest.mark.parametrize("cell", ["１２", "1\x1c"])
    def test_a_cell_float_or_the_reader_alone_accepts_exits_3(self, cell, bernoulli_csv,
                                                             tmp_path, capsys):
        # float reads the full-width digits as 12.0; the C reader strips \x1c
        lines = bernoulli_csv.read_text(encoding="utf-8").split("\n")
        cells = lines[3].split(",")
        cells[1] = cell
        lines[3] = ",".join(cells)
        bernoulli_csv.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("fit", "--data", str(bernoulli_csv), "--raw",
                   "--out", str(tmp_path / "m.json")) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: malformed dataset {bernoulli_csv}:4: "
            f"column 'rho' holds {cell!r}, which is not a number"
        ]

    @pytest.mark.parametrize("row", [2 * _BLOCK_ROWS + 5, -1],
                             ids=["data-line-in-a-later-block", "header-cell"])
    def test_a_byte_that_is_not_utf8_exits_3(self, row, tmp_path, capsys):
        path = tmp_path / "bern.csv"
        assert run("synth", "bernoulli", "--n", str(3 * _BLOCK_ROWS),
                   "--out", str(path)) == EXIT_OK
        lines = path.read_bytes().split(b"\n")
        lines[1 + row] = lines[1 + row].replace(b",", b"\xff,", 1)
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run("fit", "--data", str(path), "--raw",
                   "--out", str(tmp_path / "m.json")) == EXIT_IO
        cell = lines[1 + row].split(b",")[0].decode("utf-8", "surrogateescape")
        detail = (f"{path}:1: malformed header cell {cell!r} at column 0" if row < 0 else
                  f"{path}:{row + 2}: column 'p' holds {cell!r}, which is not a number")
        error = f"pifmap: error: malformed dataset {detail}"
        assert capsys.readouterr().err.splitlines() == [error]

    @pytest.mark.parametrize("command", ["fit", "enumerate"])
    def test_a_repeated_header_name_exits_3_naming_its_line(self, command, tmp_path,
                                                           capsys):
        path = tmp_path / "dup.csv"
        path.write_text("\n\nv[m],v[m],label[Pa]\n1.0,2.0,3.0\n", encoding="utf-8")
        arguments, kind = {
            "fit": (("fit", "--data", str(path), "--raw",
                     "--out", str(tmp_path / "m.json")), "dataset"),
            "enumerate": (("enumerate", "--schema", str(path), "--target", "m^2"),
                          "schema"),
        }[command]
        capsys.readouterr()
        assert run(*arguments) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: malformed {kind} {path}:3: "
            "duplicate feature name 'v' at column 1"
        ]


def _enumerate_to_missing_dir(tmp_path, data, spec):
    return ("enumerate", "--schema", str(data), "--target", "Pa",
            "--out", str(tmp_path / "no" / "spec.json")), EXIT_IO


def _rank_out_to_missing_dir(tmp_path, data, spec):
    return ("rank", "--data", str(data), "--spec", str(spec),
            "--out", str(tmp_path / "no" / "rank.json")), EXIT_IO


def _rank_curve_to_missing_dir(tmp_path, data, spec):
    return ("rank", "--data", str(data), "--spec", str(spec),
            "--out", str(tmp_path / "rank.json"),
            "--curve", str(tmp_path / "no" / "curve.csv")), EXIT_IO


def _raw_model(tmp_path, data, corrupt=None):
    model = tmp_path / "model.json"
    assert run("fit", "--data", str(data), "--raw", "--out", str(model)) == EXIT_OK
    if corrupt is not None:
        document = json.loads(model.read_text(encoding="utf-8"))
        corrupt(document)
        model.write_text(json.dumps(document), encoding="utf-8")
    return model


def _eval_on_wrong_width(tmp_path, data, spec):
    other = tmp_path / "pulsar.csv"
    assert run("synth", "pulsar", "--n", "40", "--out", str(other)) == EXIT_OK
    return ("eval", "--model", str(_raw_model(tmp_path, data)),
            "--data", str(other)), EXIT_USAGE


def _fit_on_repeated_column(tmp_path, data, spec):
    lines = data.read_text(encoding="utf-8").split("\n")
    cells = lines[0].split(",")
    cells[1] = cells[0]
    lines[0] = ",".join(cells)
    data.write_text("\n".join(lines), encoding="utf-8")
    return ("fit", "--data", str(data), "--raw",
            "--out", str(tmp_path / "m.json")), EXIT_IO


def _enumerate_invalid_feature_name(tmp_path, data, spec):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"features": [["1bad", "m"]]}), encoding="utf-8")
    return ("enumerate", "--schema", str(schema), "--target", "m"), EXIT_IO


def _drop_last_weight_and_name(doc):
    doc["weights"].pop()
    doc["feature_names"].pop()


def _keep_column_nine(doc):
    doc["kept_columns"][-1] = 9


def _eval_model(corrupt):
    def case(tmp_path, data, spec):
        model = _raw_model(tmp_path, data, corrupt)
        return ("eval", "--model", str(model), "--data", str(data)), EXIT_IO
    return case


def _bad_option(command, option, value):
    """A run whose ``option`` gets the bad ``value``; it must exit 2."""
    def case(tmp_path, data, spec):
        out = str(tmp_path / "out")
        argv = {
            "synth": ("synth", "bernoulli", "--n", "40", "--out", out),
            "enumerate": ("enumerate", "--schema", str(data), "--target", "Pa",
                          "--out", out),
            "fit": ("fit", "--data", str(data), "--raw", "--out", out),
            "rank": ("rank", "--data", str(data), "--spec", str(spec),
                     "--out", out),
            "reproduce": ("reproduce", "bernoulli", "--seeds", "1",
                          "--n", "40", "--csv-only", "--out", out),
        }[command]
        # One argument, so a value such as -3:-1 is not taken for an option.
        return (*argv, f"{option}={value}"), EXIT_USAGE
    return case


_NON_INTEGER_OPTIONS = [
    ("synth", "--n", "abc"),
    ("synth", "--seed", "1.5"),
    ("synth", "--noise-seed", "x"),
    ("enumerate", "--max-exponent", "two"),
    ("enumerate", "--max-active", "nan"),
    ("enumerate", "--max-constant-exponent", "inf"),
    ("enumerate", "--budget", "1e6"),
    ("reproduce", "--n", "40.0"),
    ("reproduce", "--seeds", "nan"),
    ("reproduce", "--seeds", "1:x"),
]

_NON_FINITE_OPTIONS = [
    ("fit", "--lam", "inf"),
    ("rank", "--lam", "nan"),
    ("fit", "--split", "nan"),
    ("synth", "--noise", "nan"),
    ("reproduce", "--noise-levels", "nan"),
]

# (command, option, value, the bound the message names)
_OUT_OF_RANGE_OPTIONS = [
    ("fit", "--lam", "-1", "non-negative"),
    ("rank", "--lam", "-0.5", "non-negative"),
    ("rank", "--epsilon", "0", "positive"),
    ("synth", "--n", "-5", "positive"),
    ("reproduce", "--n", "0", "positive"),
    ("enumerate", "--max-exponent", "0", "positive"),
    ("enumerate", "--max-active", "-1", "positive"),
    ("enumerate", "--budget", "0", "positive"),
    ("enumerate", "--max-constant-exponent", "-1", "non-negative"),
    ("synth", "--seed", "-1", "non-negative"),
    ("synth", "--noise-seed", "-1", "non-negative"),
    ("synth", "--noise", "-0.5", "in [0, 1)"),
    ("synth", "--noise", "1e308", "in [0, 1)"),
    ("reproduce", "--seeds", "-3:-1", "non-negative"),
    ("reproduce", "--noise-levels", "-0.5", "in [0, 1)"),
    ("reproduce", "--noise-levels", "1e308", "in [0, 1)"),
    ("reproduce", "--split", "1", "in (0, 1)"),
    ("fit", "--split", "1e308", "in (0, 1)"),
]


class TestExitCodeContract:
    """Each failure exits with its documented code and one error line."""

    @pytest.mark.parametrize("case", [
        _enumerate_to_missing_dir,
        _rank_out_to_missing_dir,
        _rank_curve_to_missing_dir,
        _eval_on_wrong_width,
        _fit_on_repeated_column,
        _enumerate_invalid_feature_name,
        _eval_model(_drop_last_weight_and_name),
        _eval_model(_keep_column_nine),
        *(_bad_option(*case) for case in _NON_FINITE_OPTIONS),
        *(_bad_option(*case) for case in _NON_INTEGER_OPTIONS),
        *(_bad_option(*case[:3]) for case in _OUT_OF_RANGE_OPTIONS),
    ], ids=[
        "enumerate-out-unwritable",
        "rank-out-unwritable",
        "rank-curve-unwritable",
        "eval-wrong-width",
        "csv-repeated-column",
        "schema-invalid-name",
        "model-weight-and-name-removed",
        "model-kept-column-out-of-range",
        *("-".join(case) for case in _NON_FINITE_OPTIONS),
        *("-".join(case) for case in _NON_INTEGER_OPTIONS),
        *("-".join(case[:3]) for case in _OUT_OF_RANGE_OPTIONS),
    ])
    def test_one_error_line_and_documented_code(self, case, bernoulli_csv,
                                                bernoulli_spec, tmp_path, capsys):
        argv, code = case(tmp_path, bernoulli_csv, bernoulli_spec)
        capsys.readouterr()
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("pifmap: error: ")

    @pytest.mark.parametrize("command, option, value", _NON_FINITE_OPTIONS + [
        ("rank", "--epsilon", "inf"),
        ("reproduce", "--split", "nan"),
        ("reproduce", "--noise-levels", "0.1,inf"),
    ])
    def test_non_finite_option_is_named_with_its_value(
            self, command, option, value, bernoulli_csv, bernoulli_spec,
            tmp_path, capsys):
        argv, code = _bad_option(command, option, value)(
            tmp_path, bernoulli_csv, bernoulli_spec)
        capsys.readouterr()
        assert run(*argv) == code
        bad = value.split(",")[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: {option} must be a finite number, got {bad!r}"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option, value", _NON_INTEGER_OPTIONS)
    def test_non_integer_option_is_named_with_its_value(
            self, command, option, value, bernoulli_csv, bernoulli_spec,
            tmp_path, capsys):
        argv, code = _bad_option(command, option, value)(
            tmp_path, bernoulli_csv, bernoulli_spec)
        capsys.readouterr()
        assert run(*argv) == code
        bad = value.split(":")[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: {option} must be an integer, got {bad!r}"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option, value, bound",
                             _OUT_OF_RANGE_OPTIONS)
    def test_out_of_range_option_is_named_with_its_value(
            self, command, option, value, bound, bernoulli_csv, bernoulli_spec,
            tmp_path, capsys):
        argv, code = _bad_option(command, option, value)(
            tmp_path, bernoulli_csv, bernoulli_spec)
        capsys.readouterr()
        assert run(*argv) == code
        bad = value.split(":")[0]  # a seed range fails on its first bound
        assert capsys.readouterr().err.splitlines() == [
            f"pifmap: error: {option} must be {bound}, got {bad!r}"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (("synth", "binary", "--noise", "0.1"),
         "--noise cannot be used with binary: its labels are exact signs and "
         "cannot be noised"),
        (("enumerate", "--target", "Pa", "--constants", "g,planck"),
         "--constants names unknown constant 'planck'; available: "
         "['G', 'c', 'g', 'mu0']"),
        (("reproduce", "bernoulli", "--noise-levels", ","),
         "--noise-levels lists no noise levels"),
        (("enumerate", "--target", "Pa", "--constants", "g,c, g"),
         "--constants names 'g' twice"),
    ], ids=["synth-binary-noise", "enumerate-unknown-constant",
            "reproduce-no-noise-levels", "enumerate-repeated-constant"])
    def test_subcommand_check_is_one_named_line(self, argv, message,
                                                bernoulli_csv, tmp_path, capsys):
        out = str(tmp_path / "out")
        if argv[0] == "enumerate":
            argv = (*argv, "--schema", str(bernoulli_csv))
        capsys.readouterr()
        assert run(*argv, "--out", out) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"pifmap: error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.28 PiB for an array with shape "
                     "(1000000000000000,) and data type float64"),
         "pifmap: error: out of memory: Unable to allocate 7.28 PiB for an "
         "array with shape (1000000000000000,) and data type float64"),
        (MemoryError(), "pifmap: error: out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_is_one_line_naming_the_allocation(
            self, error, message, monkeypatch, tmp_path, capsys):
        # the generator raises as numpy would; nothing large is allocated
        def too_large(n, seed):
            raise error

        monkeypatch.setattr(cli, "gen_bernoulli", too_large)
        capsys.readouterr()
        assert run("synth", "bernoulli", "--n", "1000000000000000",
                   "--out", str(tmp_path / "big.csv")) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "big.csv").exists()

    def test_value_error_from_a_subcommand_propagates(self, monkeypatch):
        def broken(args):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "_cmd_synth", broken)
        with pytest.raises(ValueError, match="a bug"):
            run("synth", "bernoulli", "--out", "unused.csv")

    @pytest.mark.parametrize("variable, value, message", [
        ("PIFMAP_LAMBDA_GRID", "0.1,inf",
         "PIFMAP_LAMBDA_GRID must be a finite number, got 'inf'"),
        ("PIFMAP_LAMBDA_GRID", "nan",
         "PIFMAP_LAMBDA_GRID must be a finite number, got 'nan'"),
        ("PIFMAP_LAMBDA_GRID", "0.1,-1",
         "PIFMAP_LAMBDA_GRID must be non-negative, got '-1'"),
        ("PIFMAP_LAMBDA_GRID", " , ", "PIFMAP_LAMBDA_GRID is empty"),
    ])
    def test_bad_environment_value_is_named(self, variable, value, message,
                                            bernoulli_csv, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setenv(variable, value)
        argv = ("fit", "--data", str(bernoulli_csv), "--raw", "--select",
                "--out", str(tmp_path / "out"))
        capsys.readouterr()
        assert run(*argv) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"pifmap: error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (("synth", "bernoulli"),
         "the following arguments are required: --out"),
        (("synth", "tides", "--out", "x.csv"),
         "argument generator: invalid choice: 'tides' "
         "(choose from 'bernoulli', 'pulsar', 'binary')"),
    ])
    def test_argparse_usage_error_is_one_line(self, argv, message, capsys):
        assert run(*argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"pifmap: error: {message}"]
        assert captured.out == ""

    def test_eval_classify_threshold_must_be_finite(self, bernoulli_csv,
                                                    tmp_path, capsys):
        model = _raw_model(tmp_path, bernoulli_csv)
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--data", str(bernoulli_csv),
                   "--classify", "nan") == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "pifmap: error: --classify must be a finite number, got 'nan'"
        ]

    def test_json_writer_refuses_non_finite_values(self):
        with pytest.raises(InvalidRange):
            cli._dump_json({"lambda": float("inf")})

    @pytest.mark.parametrize("monomials", [
        [{"tag": "}, {"}, {"tag": 1}],
        ["x}, {y", [3]],
    ], ids=["separator-inside-an-element", "not-all-objects"])
    def test_json_writer_puts_any_monomial_element_on_its_own_line(
            self, monomials):
        text = cli._dump_json({"monomials": monomials})
        assert text == "{\n  \"monomials\": [\n" + ",\n".join(
            "    " + json.dumps(item, sort_keys=True) for item in monomials
        ) + "\n  ]\n}\n"

    def test_every_error_class_has_a_documented_exit_code(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        codes = {cls.__name__: cls.exit_code
                 for cls in (PifmapError, *subclasses(PifmapError))}
        # README "Exit codes": 2 usage, 3 file, 4 budget, 5 numerical
        assert set(codes.values()) <= {EXIT_USAGE, EXIT_IO, 4, 5}
        assert codes["PifmapError"] == EXIT_USAGE
        assert codes["_InputFileError"] == EXIT_IO
        assert codes["BudgetExceeded"] == 4
        for name in ("SingularSystem", "NonFiniteResult", "NonFiniteInput",
                     "DivisionByZero", "ZeroScale"):
            assert codes[name] == 5


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A small dataset, the bernoulli spec and a spec-design model, as bytes."""
    base = tmp_path_factory.mktemp("valid")
    data, spec, model = base / "data.csv", base / "spec.json", base / "model.json"
    assert run("synth", "bernoulli", "--n", "40", "--seed", "2",
               "--out", str(data)) == EXIT_OK
    spec.write_text(json.dumps(spec_to_dict(load_catalog("bernoulli"))),
                    encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("fit", "--data", str(data), "--spec", str(spec),
                   "--out", str(model)) == EXIT_OK
    return {"dataset": data.read_bytes(), "spec": spec.read_bytes(),
            "model": model.read_bytes()}


def _key_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from _key_paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _key_paths(value, (*path, index))


@st.composite
def _corruptions(draw, content, is_json):
    """Truncate ``content``, splice bytes into it or drop one JSON key."""
    kinds = ["truncate", "splice", "drop_key"] if is_json else ["truncate", "splice"]
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return content[:draw(st.integers(0, len(content) - 1))]
    if kind == "splice":
        at = draw(st.integers(0, len(content)))
        width = draw(st.integers(0, 8))
        return (content[:at] + draw(st.binary(min_size=1, max_size=8))
                + content[at + width:])
    document = json.loads(content)
    *parents, key = draw(st.sampled_from(list(_key_paths(document))))
    node = document
    for step in parents:
        node = node[step]
    del node[key]
    return json.dumps(document).encode("utf-8")


# (corrupted file, command) pairs; every command reads the dataset.
_FUZZ_TARGETS = [("dataset", "fit"), ("dataset", "rank"), ("dataset", "eval"),
                 ("spec", "fit"), ("spec", "rank"), ("model", "eval")]


class TestCorruptedInputs:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_exit_code_and_one_error_line(self, valid_inputs, data):
        target, command = data.draw(st.sampled_from(_FUZZ_TARGETS))
        files = dict(valid_inputs)
        files[target] = data.draw(_corruptions(files[target], target != "dataset"))
        with tempfile.TemporaryDirectory() as base:
            paths = {kind: os.path.join(base, kind) for kind in files}
            for kind, content in files.items():
                with open(paths[kind], "wb") as handle:
                    handle.write(content)
            if command == "eval":
                argv = ["eval", "--model", paths["model"], "--data", paths["dataset"]]
            else:
                argv = [command, "--data", paths["dataset"], "--spec", paths["spec"],
                        "--out", os.path.join(base, "out.json")]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        err = stderr.getvalue()
        assert code in {EXIT_OK, EXIT_USAGE, EXIT_IO, SingularSystem.exit_code}
        assert "Traceback" not in err
        lines = [line for line in err.splitlines()
                 if not line.startswith("pifmap: warning: ")]
        assert len(lines) <= 1
        assert all(line.startswith("pifmap: error: ") for line in lines)


# Every numeric option: (command, option, integer?, the range it names).
_NUMERIC_OPTIONS = [
    ("synth", "--n", True, "positive"),
    ("synth", "--seed", True, "non-negative"),
    ("synth", "--noise", False, "in [0, 1)"),
    ("synth", "--noise-seed", True, "non-negative"),
    ("enumerate", "--max-exponent", True, "positive"),
    ("enumerate", "--max-active", True, "positive"),
    ("enumerate", "--max-constant-exponent", True, "non-negative"),
    ("enumerate", "--budget", True, "positive"),
    ("fit", "--lam", False, "non-negative"),
    ("fit", "--split", False, "in (0, 1)"),
    ("rank", "--epsilon", False, "positive"),
    ("rank", "--lam", False, "non-negative"),
    ("rank", "--split", False, "in (0, 1)"),
    ("eval", "--classify", False, None),
    ("reproduce", "--seeds", True, "non-negative"),
    ("reproduce", "--noise-levels", False, "in [0, 1)"),
    ("reproduce", "--n", True, "positive"),
    ("reproduce", "--split", False, "in (0, 1)"),
]

_IN_RANGE = {
    "positive": lambda value: value > 0,
    "non-negative": lambda value: value >= 0,
    "in [0, 1)": lambda value: 0 <= value < 1,
    "in (0, 1)": lambda value: 0 < value < 1,
    None: lambda value: True,
}


def _expected_error(option, integer, bound, text):
    """The one error line a value gets, or None if the run must succeed."""
    if integer:
        try:
            value = int(text)
        except ValueError:
            return f"pifmap: error: {option} must be an integer, got {text!r}"
    else:
        value = float(text)
        if not np.isfinite(value):
            return f"pifmap: error: {option} must be a finite number, got {text!r}"
    if not _IN_RANGE[bound](value):
        return f"pifmap: error: {option} must be {bound}, got {text!r}"
    return None


@pytest.fixture(scope="module")
def option_inputs(tmp_path_factory):
    """A regression table, the bernoulli spec, a binary table and its model."""
    base = tmp_path_factory.mktemp("options")
    paths = {kind: base / name for kind, name in [
        ("data", "data.csv"), ("spec", "spec.json"), ("binary", "binary.csv"),
        ("model", "model.json")]}
    assert run("synth", "bernoulli", "--n", "40", "--seed", "2",
               "--out", str(paths["data"])) == EXIT_OK
    assert run("synth", "binary", "--n", "40", "--seed", "2",
               "--out", str(paths["binary"])) == EXIT_OK
    paths["spec"].write_text(json.dumps(spec_to_dict(load_catalog("bernoulli"))),
                             encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("fit", "--data", str(paths["binary"]), "--raw",
                   "--out", str(paths["model"])) == EXIT_OK
    return {kind: str(path) for kind, path in paths.items()}


class TestNumericOptionValues:
    """Every numeric option, given nan, +-inf, -0.0, 1e308 or a negative
    number, either runs (exit 0) or exits 2 with one error line that names
    the option and the value; it never ends in a traceback."""

    @pytest.mark.parametrize("command, option, integer, bound", _NUMERIC_OPTIONS,
                             ids=[" ".join(case[:2]) for case in _NUMERIC_OPTIONS])
    @settings(max_examples=6)
    @example(text="nan")
    @example(text="inf")
    @example(text="-inf")
    @example(text="-0.0")
    @example(text="1e308")
    @given(text=st.one_of(
        st.integers(max_value=-1).map(str),
        st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
        .map(repr),
    ))
    def test_runs_or_names_the_option(self, command, option, integer, bound,
                                      text, option_inputs):
        expected = _expected_error(option, integer, bound, text)
        with tempfile.TemporaryDirectory() as base:
            out = os.path.join(base, "out")
            argv = {
                "synth": ["synth", "bernoulli", "--n", "40", "--out", out],
                "enumerate": ["enumerate", "--schema", option_inputs["data"],
                              "--target", "Pa", "--max-exponent", "2",
                              "--out", out],
                "fit": ["fit", "--data", option_inputs["data"], "--raw",
                        "--out", out],
                "rank": ["rank", "--data", option_inputs["data"],
                         "--spec", option_inputs["spec"], "--out", out],
                "eval": ["eval", "--model", option_inputs["model"],
                         "--data", option_inputs["binary"]],
                "reproduce": ["reproduce", "bernoulli", "--seeds", "1",
                              "--n", "40", "--csv-only", "--out", out],
            }[command]
            # one argument, so that a negative value is not taken for an option
            argv.append(f"{option}={text}")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            wrote = os.path.exists(out)
        # a dropped constant column is the one warning a value may cause
        lines = [line for line in stderr.getvalue().splitlines()
                 if not line.startswith("pifmap: warning: dropping constant columns ")]
        if expected is None:
            assert (code, lines) == (EXIT_OK, [])
        else:
            assert (code, lines) == (EXIT_USAGE, [expected])
            assert not wrote


class TestReproduce:
    def test_csv_only_outputs(self, tmp_path):
        out = tmp_path / "reports"
        assert run("reproduce", "bernoulli", "--seeds", "1,2", "--n", "80",
                   "--noise-levels", "0.1", "--out", str(out),
                   "--csv-only") == EXIT_OK
        base = out / "bernoulli"
        assert (base / "report.json").is_file()
        assert (base / "report.md").is_file()
        assert (base / "per_seed.csv").is_file()
        assert not (base / "plots").exists()
        report = json.loads((base / "report.json").read_text(encoding="utf-8"))
        assert report["seeds"] == [1, 2]

    def test_plots_written_by_default(self, tmp_path):
        out = tmp_path / "reports"
        assert run("reproduce", "binary", "--seeds", "1,2", "--n", "80",
                   "--out", str(out)) == EXIT_OK
        plots = sorted(p.name for p in (out / "binary" / "plots").iterdir())
        assert "binary_hss.svg" in plots
        assert all(name.endswith(".svg") for name in plots)

    def test_an_arm_with_no_defined_score_is_plotted_without_a_box(self, tmp_path,
                                                                  capsys):
        # one test row: every trial's tss is undefined in both arms
        out = tmp_path / "reports"
        assert run("reproduce", "binary", "--seeds", "1:5", "--n", "4",
                   "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().err == ""
        base = out / "binary"
        report = json.loads((base / "report.json").read_text(encoding="utf-8"))
        assert {trial["arms"][arm]["scores"]["tss"]
                for trial in report["trials"] for arm in trial["arms"]} == {None}
        plots = {path.name: path.read_text(encoding="utf-8")
                 for path in (base / "plots").iterdir()}
        fields = ("accuracy", "hss", "sensitivity", "specificity", "tss")
        assert sorted(plots) == [f"binary_{field}.svg" for field in fields]
        tss = plots["binary_tss.svg"]
        assert "<line" in tss and tss.count("<rect") == 1  # the background only
        assert ">sf (undefined)</text>" in tss and ">spif (undefined)</text>" in tss

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "reports"
        argv = ("reproduce", "bernoulli", "--seeds", "2:3", "--n", "60",
                "--noise-levels", "0.3", "--out", str(out))
        assert run(*argv) == EXIT_OK
        base = out / "bernoulli"
        snapshots = {
            path.name: path.read_bytes()
            for path in base.rglob("*") if path.is_file()
        }
        assert run(*argv) == EXIT_OK
        for path in base.rglob("*"):
            if path.is_file():
                assert path.read_bytes() == snapshots[path.name], path.name

    def test_seed_range_parsing(self, tmp_path):
        out = tmp_path / "r"
        assert run("reproduce", "bernoulli", "--seeds", "5:3", "--n", "60",
                   "--out", str(out)) == EXIT_USAGE
        assert run("reproduce", "bernoulli", "--seeds", "", "--n", "60",
                   "--out", str(out)) == EXIT_USAGE

    def test_unknown_experiment(self, tmp_path):
        assert run("reproduce", "tides", "--out", str(tmp_path)) == EXIT_USAGE


def _json_trees():
    keys = st.text().filter(lambda key: key != "monomials")
    leaves = (st.none() | st.booleans() | st.text()
              | st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7])
              | st.integers() | st.integers(min_value=2**63, max_value=2**80)
              | st.integers(min_value=-2**80, max_value=-2**63 - 1))
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
    ), max_leaves=20)


class TestJsonWriter:
    @settings(max_examples=300)
    @example({"": [], "a": {}, "b": (), "c": [-0.0, 5e-324, 1e16, 1e-7],
              "d": [2**64, -2**70], "\u00e9\x00\n\u2028": "\x1f\u00fc\U0001f600",
              "e": ([(1,), {"f": ()}],)})
    @given(_json_trees())
    def test_writes_what_json_dumps_writes(self, tree):
        assert cli._dump_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, {"a": 1j}, {"a": {1, 2}},
                                       {"a": np.int64(1)}],
                             ids=["int-key", "nested-none-key", "complex", "set", "np-int64"])
    def test_refuses_what_it_cannot_write(self, value):
        with pytest.raises(TypeError):
            cli._dump_json(value)

    def test_no_other_json_writer_in_the_package(self):
        # every artifact goes out through cli._dump_json; its "monomials"
        # branch owns the package's only encoder object, cli._LINE_ENCODER
        writers = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parents = {child: node for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1]
                        in ("dumps", "dump", "JSONEncoder")):
                    parent = parents[node]
                    target = (ast.unparse(parent.targets[0])
                              if isinstance(parent, ast.Assign) else None)
                    writers.append((path.name, ast.unparse(node.func), target))
        assert writers == [("cli.py", "json.JSONEncoder", "_LINE_ENCODER")]


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run() == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run("--help") == EXIT_OK
        assert "synth" in capsys.readouterr().out

    def test_one_parser_serves_every_call(self, bernoulli_csv, bernoulli_spec,
                                          monkeypatch, tmp_path, capsys):
        out = tmp_path / "out"
        calls = [
            ("fit", "--data", str(bernoulli_csv), "--raw"),  # no --out
            ("--help",),
            ("fit", "--data", str(bernoulli_csv), "--raw", "--out", str(out)),
            ("fit", "--data", str(bernoulli_csv), "--spec", str(bernoulli_spec),
             "--out", str(out)),
            ("synth", "pulsar", "--n", "20", "--out", str(out)),
        ]

        def outcomes(fresh_parser):
            seen = []
            for argv in calls:
                if fresh_parser:
                    cli._parser.cache_clear()
                code = run(*argv)
                captured = capsys.readouterr()
                written = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                seen.append((code, captured.out, captured.err, written))
            return seen

        fresh = outcomes(fresh_parser=True)
        assert [code for code, *_ in fresh] == [EXIT_USAGE, EXIT_OK, EXIT_OK,
                                               EXIT_OK, EXIT_OK]
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser",
                            lambda: built.append(None) or build())
        cli._parser.cache_clear()
        assert outcomes(fresh_parser=False) == fresh
        assert len(built) == 1

    def test_import_loads_no_scipy(self):
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, pifmap.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert loaded == "[]\n"

    def test_console_script_registered(self):
        """Declared entry point always; installed registration if installed."""
        import sys
        from importlib.metadata import (
            EntryPoint,
            PackageNotFoundError,
            distribution,
        )
        from pathlib import Path

        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert scripts.get("pifmap") == "pifmap.cli:main"

        declared = EntryPoint(name="pifmap", value=scripts["pifmap"],
                              group="console_scripts")
        assert declared.load() is main

        try:
            dist = distribution("pifmap")
        except PackageNotFoundError:
            return
        installed = {ep.name: ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts"}
        assert installed.get("pifmap") == scripts["pifmap"]
