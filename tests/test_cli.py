"""End-to-end command-line behavior, run in process through main(argv)."""

import json
import os

import numpy as np
import pytest

from pifmap.catalogs import load_catalog
from pifmap.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from pifmap.data import read_csv, read_manifest
from pifmap.featuremap import spec_to_dict


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def bernoulli_csv(tmp_path):
    path = tmp_path / "bern.csv"
    assert run("synth", "bernoulli", "--n", "200", "--seed", "3",
               "--out", str(path)) == EXIT_OK
    return path


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
        manifest = read_manifest(tmp_path / "data.manifest.json")
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
        manifest = read_manifest(tmp_path / "noisy.manifest.json")
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
        manifest = read_manifest(tmp_path / "n.manifest.json")
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

    def test_empty_result_warns_but_succeeds(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"features": [["t", "s"]]}), encoding="utf-8")
        assert run("enumerate", "--schema", str(schema), "--target", "kg",
                   "--max-exponent", "2") == EXIT_OK
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert json.loads(captured.out)["monomials"] == []

    def test_budget_exhaustion(self, tmp_path):
        schema = self._schema_file(tmp_path)
        assert run("enumerate", "--schema", str(schema), "--target", "Pa",
                   "--constants", "g", "--budget", "3") == EXIT_BUDGET

    def test_env_budget_override(self, tmp_path, monkeypatch):
        schema = self._schema_file(tmp_path)
        monkeypatch.setenv("PIFMAP_BUDGET", "3")
        assert run("enumerate", "--schema", str(schema),
                   "--target", "Pa") == EXIT_BUDGET
        # explicit flag beats the environment
        assert run("enumerate", "--schema", str(schema), "--target", "Pa",
                   "--budget", "1000000", "--out",
                   str(tmp_path / "ok.json")) == EXIT_OK

    def test_env_budget_invalid(self, tmp_path, monkeypatch):
        schema = self._schema_file(tmp_path)
        monkeypatch.setenv("PIFMAP_BUDGET", "many")
        assert run("enumerate", "--schema", str(schema),
                   "--target", "Pa") == EXIT_USAGE

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

    def test_missing_data_file(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "nope.csv"), "--raw",
                   "--out", str(tmp_path / "m.json")) == EXIT_IO

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
                   "--out", str(tmp_path / "m.json")) == EXIT_NUMERICAL


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

    def test_classification_custom_threshold(self, tmp_path, capsys):
        data = tmp_path / "bin.csv"
        run("synth", "binary", "--n", "100", "--seed", "6", "--out", str(data))
        model_path = tmp_path / "model.json"
        run("fit", "--data", str(data), "--raw", "--out", str(model_path))
        capsys.readouterr()
        assert run("eval", "--model", str(model_path), "--data", str(data),
                   "--classify", "0.75") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["threshold"] == 0.75

    def test_missing_model(self, bernoulli_csv, tmp_path):
        assert run("eval", "--model", str(tmp_path / "no.json"),
                   "--data", str(bernoulli_csv)) == EXIT_IO

    def test_unparseable_model(self, bernoulli_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run("eval", "--model", str(bad),
                   "--data", str(bernoulli_csv)) == EXIT_IO


def _drop_monomials(doc):
    del doc["monomials"]


def _drop_feature_unit(doc):
    del doc["features"][0]["unit"]


def _fractional_exponent(doc):
    doc["monomials"][0]["feature_exponents"][0] = 1.5


def _drop_means(doc):
    del doc["means"]


class TestMalformedDocuments:
    """Wrong-shaped JSON is a malformed file: exit 3, one line, no traceback."""

    @pytest.mark.parametrize("command, corrupt", [
        ("fit", _drop_monomials),
        ("rank", _drop_monomials),
        ("fit", _drop_feature_unit),
        ("rank", _drop_feature_unit),
        ("fit", _fractional_exponent),
        ("rank", _fractional_exponent),
        ("eval", _drop_means),
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


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run() == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run("--help") == EXIT_OK
        assert "synth" in capsys.readouterr().out

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
