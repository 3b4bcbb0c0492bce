"""Trial runners, aggregation, and report rendering at small scale."""

import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pifmap import dimension, experiments, ranking, regression
from pifmap.catalogs import load_catalog
from pifmap.errors import InsufficientData, InvalidNoiseLevel, InvalidRange
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
from pifmap.featuremap import evaluate_map
from pifmap.metrics import ConfusionMatrix, scores_to_dict
from pifmap.regression import standardize_fit
from pifmap.synthdata import gen_bernoulli

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

    @pytest.mark.parametrize("n", [2.5, 0, True])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(InvalidRange, match=f"n must be a positive integer, got {n}"):
            TrialSettings(n=n)

    def test_numpy_integer_n_accepted(self):
        assert TrialSettings(n=np.int32(80)).n == 80

    def test_split_validated(self):
        with pytest.raises(InvalidRange):
            TrialSettings(split=0.0)
        with pytest.raises(InvalidRange):
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

    @pytest.mark.parametrize("level", [1e308, float("inf"), float("nan"),
                                       1.0, -0.5])
    def test_level_is_range_checked_before_it_is_scaled(self, level):
        # 1e308 * 1e6 is inf, which int() cannot convert
        with pytest.raises(InvalidNoiseLevel, match="0 <= level < 1"):
            derive_noise_seed(1, level)


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

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidRange, match=f"seed must be a non-negative integer, got {seed}"):
            run_experiment("bernoulli", seeds=[seed])

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

    def test_each_seed_generated_once_and_map_and_spif_fit_once_per_chunk(
            self, monkeypatch):
        settings = TrialSettings()
        seeds, levels = (1, 2), (0.1, 0.3, 0.5)
        spec = load_catalog("bernoulli")
        k = split_point(settings.n, settings.split)
        # The spif training design of each seed, raw and standardized: a fit
        # of either one, in this column order, is a fit of the full design.
        full_designs = []
        for seed in seeds:
            Phi_train = evaluate_map(spec, gen_bernoulli(settings.n, seed))[:k]
            full_designs += [Phi_train, standardize_fit(Phi_train)[0]]
        calls = {"generator": 0, "evaluate_map": 0, "full spif fits": []}

        def count(module, name, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        def count_full_spif_fits(module, name):
            # one entry per fit call of full spif designs (one design, or a
            # stack of them): the number of designs and the label rows
            original = getattr(module, name)

            def wrapper(X, y, *args, **kwargs):
                designs = X if np.ndim(X) == 3 else [X]
                if all(any(np.array_equal(Z, full) for full in full_designs)
                       for Z in designs):
                    calls["full spif fits"].append((len(designs), np.shape(y)[:-1]))
                return original(X, y, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count(experiments, "gen_bernoulli", "generator")
        count(experiments, "evaluate_map", "evaluate_map")
        for module in (experiments, ranking):
            for name in ("_ridge_fits", "ridge_fit", "fit_standardized"):
                if hasattr(module, name):
                    count_full_spif_fits(module, name)
        report = run_experiment("bernoulli", seeds=seeds, noise_levels=levels,
                                settings=settings)
        assert len(report["trials"]) == 6
        # both seeds' map evaluated once and fitted by one stacked fit, one
        # label row per (seed, level)
        assert calls == {"generator": 2, "evaluate_map": 1,
                         "full spif fits": [(2, (6,))]}

    @pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)])
    @pytest.mark.parametrize("levels", [(0.1,), REGRESSION_NOISE_LEVELS])
    def test_designs_standardized_once_per_chunk_and_grouped_once_per_seed(
            self, seeds, levels, monkeypatch):
        # counts calls, times nothing: each arm is standardized once per
        # chunk, as one stack of its seeds, and the spif design's identical
        # columns are found once per seed, whatever the number of noise
        # levels; nothing standardizes afresh
        originals = {
            "stacked": regression._standardized,
            "standardize_fit": regression.standardize_fit,
            "fit_standardized": regression.fit_standardized,
            "groups": ranking._identical_column_groups,
        }
        calls = dict.fromkeys(originals, 0)
        for key, original in originals.items():
            def counted(*args, _key=key, _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name == "pifmap" or module_name.startswith("pifmap."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counted)
        report = run_experiment("bernoulli", seeds=seeds, noise_levels=levels)
        assert len(report["trials"]) == len(seeds) * len(levels)
        assert calls == {"stacked": 2, "standardize_fit": 0, "fit_standardized": 0,
                         "groups": len(seeds)}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("tides", seeds=(1,), settings=SMALL)

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_unit_parsing_does_not_grow_with_seeds(self, name, monkeypatch):
        # counts calls, times nothing: the catalog's units are parsed once
        # per run and the generator's once per process, never once per seed
        original = dimension.parse_unit
        calls = []

        def counted(text):
            calls.append(text)
            return original(text)

        for module_name, module in list(sys.modules.items()):
            if module_name == "pifmap" or module_name.startswith("pifmap."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        # the first run may be the process's first call of the generator
        counts = []
        for seeds in ((1,), (1,), (1, 2, 3)):
            calls.clear()
            run_experiment(name, seeds=seeds, noise_levels=(0.1,), settings=SMALL)
            counts.append(len(calls))
        assert counts[1] == counts[2] > 0

    @pytest.mark.parametrize("name", ["bernoulli", "binary"])
    def test_standardized_training_stacks_are_fitted_unchecked(self, name, monkeypatch):
        # each arm's training stack is finite by construction
        # (regression._standardized), so no fit checks it again; the
        # predictions still check each evaluation stack
        checked = []
        check = regression._check_finite
        monkeypatch.setattr(regression, "_check_finite",
                            lambda X, what: checked.append(X.shape) or check(X, what))
        settings = TrialSettings(n=200)
        run_experiment(name, seeds=(1, 2), settings=settings)
        k = split_point(settings.n, settings.split)
        stacks = [shape for shape in checked if len(shape) == 3]
        assert stacks and all(shape[:2] == (2, settings.n - k) for shape in stacks)

    def test_report_json_serializable(self, bernoulli_report, binary_report):
        json.dumps(bernoulli_report)
        json.dumps(binary_report)


class TestMedian:
    @settings(max_examples=400)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([1e308, 1e308])
    def test_equals_numpy_median_bit_for_bit(self, values):
        with np.errstate(over="ignore"):
            expected = float(np.median(np.array(values)))
        median = experiments._median(values)
        assert type(median) is float
        assert median.hex() == expected.hex()


class TestRendering:
    def test_undefined_scores_stay_null_through_the_report(self, binary_report):
        # every test label is 0, so sensitivity and TSS are undefined
        cm = ConfusionMatrix(tp=0, fp=2, fn=0, tn=8)
        trials = [
            {"seed": seed, "noise": 0.0, "arms": {"sf": scores_to_dict(cm)}}
            for seed in (1, 2)
        ]
        report = {**binary_report, "trials": trials,
                  **experiments._classification_summary(trials)}
        assert report["medians"]["sf"]["sensitivity"] is None
        assert report["medians"]["sf"]["specificity"] == pytest.approx(0.8)
        assert report["pooled"]["sf"]["scores"]["tss"] is None
        json.dumps(report, allow_nan=False)
        assert "sensitivity=undefined" in report_markdown(report)
        header, row = per_seed_csv(report).strip().split("\n")[:2]
        assert dict(zip(header.split(","), row.split(",")))["tss"] == ""
        sensitivity = next(s for s in boxplot_series(report)
                           if s["stem"] == "binary_sensitivity")
        assert sensitivity["groups"] == [("sf", [])]

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
