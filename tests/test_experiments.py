"""Trial runners, aggregation, and report rendering at small scale."""

import json

import numpy as np
import pytest

from pifmap import experiments
from pifmap.catalogs import load_catalog
from pifmap.errors import InsufficientData
from pifmap.experiments import (
    DEFAULT_SEEDS,
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

SMALL = TrialSettings(n=120)


def one_trial(name, seed, level, settings=SMALL):
    return run_experiment(
        name, seeds=(seed,), noise_levels=(level,), settings=settings
    )["trials"][0]


@pytest.fixture(scope="module")
def bernoulli_report():
    return run_experiment(
        "bernoulli", seeds=(1, 2, 3), noise_levels=(0.1, 0.5), settings=SMALL
    )


@pytest.fixture(scope="module")
def binary_report():
    return run_experiment("binary", seeds=(1, 2, 3), settings=SMALL)


class TestDefaults:
    def test_module_constants(self):
        assert REGRESSION_NOISE_LEVELS == (0.1, 0.3, 0.5)
        assert DEFAULT_SEEDS == tuple(range(1, 21))
        assert EXPERIMENT_NAMES == ("bernoulli", "pulsar", "binary")

    def test_settings_defaults(self):
        s = TrialSettings()
        assert s.n == 1000
        assert s.split == 0.7
        assert s.lam == 1e-3
        assert s.epsilon == 0.01
        assert s.threshold == 0.5

    def test_split_validated(self):
        with pytest.raises(ValueError):
            TrialSettings(split=0.0)
        with pytest.raises(ValueError):
            TrialSettings(split=1.0)


class TestSplitPoint:
    def test_round_not_floor(self):
        assert split_point(1000, 0.7) == 700
        assert split_point(10, 0.75) == 8  # round(7.5) banker's -> 8? no: int(round(...))
        assert split_point(101, 0.7) == 71

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientData):
            split_point(2, 0.5)  # train side would hold a single row
        with pytest.raises(InsufficientData):
            split_point(3, 0.99)  # test side would be empty


class TestNoiseSeeds:
    def test_deterministic(self):
        assert derive_noise_seed(7, 0.1) == derive_noise_seed(7, 0.1)

    def test_distinct_across_levels_and_seeds(self):
        seeds = {
            derive_noise_seed(seed, level)
            for seed in (1, 2, 3)
            for level in (0.1, 0.3, 0.5)
        }
        assert len(seeds) == 9

    def test_level_scale_independent(self):
        # derived from round(level * 1e6): distinguishes 0.1 from 0.1000001
        assert derive_noise_seed(1, 0.1) != derive_noise_seed(1, 0.100001)


class TestTrials:
    def test_bernoulli_trial_shape(self):
        trial = one_trial("bernoulli", 3, 0.1)
        assert trial["seed"] == 3
        assert trial["noise"] == 0.1
        assert set(trial["arms"]) == {"sf", "spif"}
        for arm in trial["arms"].values():
            assert set(arm) == {"mae", "mse"}
            assert arm["mae"] >= 0.0
        assert trial["ranking"]["selected_count"] == len(
            trial["ranking"]["selected"]
        )
        assert "intercept" in trial["coefficients"]

    def test_bernoulli_trial_deterministic(self):
        a = one_trial("bernoulli", 5, 0.3)
        b = one_trial("bernoulli", 5, 0.3)
        assert a == b

    def test_pulsar_trial_has_ablation_arm(self):
        trial = one_trial("pulsar", 1, 0.1, settings=TrialSettings(n=80))
        assert set(trial["arms"]) == {"sf", "spif", "spif_no_pif1"}

    def test_binary_trial_never_noised(self):
        # a requested noise level is ignored for exact-sign labels
        trial = one_trial("binary", 2, 0.3)
        assert trial["noise"] == 0.0
        assert set(trial["arms"]) == {"sf", "spif"}
        for arm in trial["arms"].values():
            counts = np.array(arm["confusion"])
            assert counts.sum() == SMALL.n - split_point(SMALL.n, SMALL.split)

    def test_trial_json_serializable(self):
        trial = one_trial("bernoulli", 1, 0.5)
        json.dumps(trial)  # must not raise


class TestRunExperiment:
    def test_regression_report_shape(self, bernoulli_report):
        report = bernoulli_report
        assert report["experiment"] == "bernoulli"
        assert report["seeds"] == [1, 2, 3]
        assert report["noise_levels"] == [0.1, 0.5]
        assert set(report["medians"]) == {"0.1", "0.5"}
        assert set(report["medians"]["0.1"]) == {"sf", "spif"}
        assert len(report["trials"]) == 6  # seeds x levels
        assert len(report["monomials"]) == 7

    def test_medians_match_trials(self, bernoulli_report):
        report = bernoulli_report
        maes = [
            trial["arms"]["spif"]["mae"]
            for trial in report["trials"]
            if trial["noise"] == 0.1
        ]
        assert report["medians"]["0.1"]["spif"]["mae"] == pytest.approx(
            float(np.median(maes))
        )

    def test_selected_counts_tally(self, bernoulli_report):
        counts = bernoulli_report["selected_counts"]["0.1"]
        assert sum(counts.values()) == 3  # one entry per seed
        assert all(isinstance(v, int) for v in counts.values())

    def test_median_coefficients_keys(self, bernoulli_report):
        # at this tiny n an extra column may sneak into some seed's
        # selection; the planted trio must always be there
        coefficients = bernoulli_report["median_coefficients"]["0.1"]
        assert {"pif_1", "pif_2", "pif_3"} <= set(coefficients)
        assert all(isinstance(v, float) for v in coefficients.values())

    def test_binary_report_shape(self, binary_report):
        report = binary_report
        assert report["noise_levels"] == [0.0]  # labels are exact signs
        assert set(report["medians"]) == {"sf", "spif"}
        assert set(report["medians"]["sf"]) == {
            "sensitivity", "specificity", "accuracy", "tss", "hss",
        }
        assert len(report["trials"]) == 3

    def test_binary_pooled_matrix_sums_trials(self, binary_report):
        report = binary_report
        pooled = np.array(report["pooled"]["spif"]["confusion"])
        summed = sum(
            np.array(trial["arms"]["spif"]["confusion"])
            for trial in report["trials"]
        )
        assert np.array_equal(pooled, summed)

    def test_catalog_loaded_once_per_run(self, monkeypatch):
        loaded = []

        def counting(name, **kwargs):
            loaded.append(name)
            return load_catalog(name, **kwargs)

        monkeypatch.setattr(experiments, "load_catalog", counting)
        report = run_experiment("pulsar", seeds=(1, 2), noise_levels=(0.1, 0.3),
                                settings=TrialSettings(n=80))
        assert len(report["trials"]) == 4
        assert loaded == ["pulsar"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("tides", seeds=(1,), settings=SMALL)

    def test_report_json_serializable(self, bernoulli_report, binary_report):
        json.dumps(bernoulli_report)
        json.dumps(binary_report)


class TestRendering:
    def test_markdown_sections(self, bernoulli_report):
        text = report_markdown(bernoulli_report)
        assert text.startswith("# ")
        assert "| monomial |" in text or "| expression |" in text
        assert "0.1" in text and "0.5" in text
        assert "pif_1" in text
        assert text.endswith("\n")

    def test_markdown_binary(self, binary_report):
        text = report_markdown(binary_report)
        assert "hss" in text
        assert "pooled" in text.lower()

    def test_csv_columns_and_rows(self, bernoulli_report):
        text = per_seed_csv(bernoulli_report)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["experiment", "seed", "noise", "arm"]
        assert "hss" in header
        # one row per (seed, level, arm)
        assert len(lines) - 1 == 6 * 2
        sf_row = next(l for l in lines[1:] if ",sf," in l)
        cells = dict(zip(header, sf_row.split(",")))
        assert cells["experiment"] == "bernoulli"
        assert cells["tp"] == ""  # classification fields blank for regression
        assert float(cells["mae"]) > 0.0

    def test_csv_binary_rows(self, binary_report):
        text = per_seed_csv(binary_report)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["mae"] == ""  # regression fields blank for classification
        assert int(row["tp"]) >= 0
        assert float(row["hss"]) <= 1.0

    def test_csv_deterministic(self, bernoulli_report):
        assert per_seed_csv(bernoulli_report) == per_seed_csv(bernoulli_report)

    def test_boxplot_series_regression(self, bernoulli_report):
        series = boxplot_series(bernoulli_report)
        stems = {s["stem"] for s in series}
        assert "bernoulli_mae_noise0.1" in stems
        assert "bernoulli_mse_noise0.5" in stems
        for s in series:
            assert s["groups"], s["stem"]
            for label, values in s["groups"]:
                assert label in ("sf", "spif", "spif_no_pif1")
                assert len(values) == 3  # one per seed

    def test_boxplot_series_binary(self, binary_report):
        series = boxplot_series(binary_report)
        stems = {s["stem"] for s in series}
        assert stems == {
            "binary_sensitivity", "binary_specificity", "binary_accuracy",
            "binary_tss", "binary_hss",
        }
