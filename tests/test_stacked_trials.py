"""The stacked preparation, fit and rank of a chunk of seeds against
one-level calls.

``run_experiment`` prepares a chunk of seeds as one stack (one map
evaluation over the chunk's rows, one standardization per arm) and fits
every (seed, level) item of it as one stack: one stacked ridge solve per
arm, one Gram per seed, and one lock-step greedy pass over the items.  The
reference here rebuilds each trial with the public one-item calls
(``evaluate_map`` and ``standardize_fit``/``standardize_apply`` per seed,
``ridge_fit``, ``ridge_predict``, ``mae``/``mse`` and ``rank_and_refit``),
seed by seed and one level at a time, and the reports, the errors raised
and the warnings issued must agree to the byte.
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pifmap import experiments
from pifmap.cli import _dump_json
from pifmap.errors import (
    DivisionByZero,
    DroppedColumnWarning,
    InsufficientData,
    NonFiniteInput,
    SingularSystem,
)
from pifmap.featuremap import evaluate_map
from pifmap.metrics import confusion, mae, mse, scores_to_dict
from pifmap.ranking import (
    _greedy_passes,
    _ranked_refits,
    greedy_select,
    rank_and_refit,
)
from pifmap.regression import (
    _ridge_fits,
    _solve_normal_equations,
    _standardized,
    classify,
    ridge_fit,
    ridge_predict,
    standardize_apply,
    standardize_fit,
)
from pifmap.synthdata import gen_bernoulli


def _one_level_seed_trials(experiment, spec, seed, noise_levels, settings):
    """A seed's trials, each level fitted, scored and ranked on its own."""
    data = experiment.generator(settings.n, seed)
    k = experiments.split_point(data.n_rows, settings.split)
    Phi = evaluate_map(spec, data)
    names = spec.monomial_names
    raw = {"sf": (data.X, data.schema.names), "spif": (Phi, names)}
    for arm, columns in experiment.ablations.items():
        raw[arm] = (Phi[:, columns], names[columns])
    designs = {}
    for arm, (X, column_names) in raw.items():
        Z_train, params = standardize_fit(X[:k])
        designs[arm] = (Z_train, standardize_apply(X[k:], params), params,
                        tuple(column_names[j] for j in params.kept))
    trials = []
    for level in noise_levels:
        y = experiments._noisy_labels(data.y, seed, level)
        arms, models = {}, {}
        for arm, (Z_train, Z_eval, params, kept_names) in designs.items():
            model = models[arm] = ridge_fit(Z_train, y[:k], experiments.DEFAULT_LAMBDA,
                                            feature_names=kept_names,
                                            standardization=params)
            predictions = ridge_predict(model, Z_eval)
            if experiment.classification:
                labels = classify(predictions, experiments._THRESHOLD)
                arms[arm] = scores_to_dict(confusion(y[k:], labels))
            else:
                arms[arm] = {"mae": mae(y[k:], predictions),
                             "mse": mse(y[k:], predictions)}
        trial = {"seed": seed, "noise": level, "arms": arms}
        if not experiment.classification:
            Z_train, Z_eval = designs["spif"][:2]
            _, ranked = rank_and_refit(models["spif"], Z_train, y[:k], Z_eval, y[k:],
                                       experiments._EPSILON)
            trial["ranking"] = {key: ranked[key] for key in
                                ("order", "selected_count", "selected", "curve")}
            trial["coefficients"] = {**ranked["coefficients"],
                                     "intercept": ranked["intercept"]}
        trials.append(trial)
    return trials


def _one_level_trials_by_seed(experiment, spec, seeds, noise_levels, settings):
    """Every seed's trials, seed by seed, each level on its own."""
    return [_one_level_seed_trials(experiment, spec, seed, noise_levels, settings)
            for seed in seeds]


def _reports(name, monkeypatch, **kwargs):
    """The stacked report's JSON and the one-level reference's."""
    stacked = _dump_json(experiments.run_experiment(name, **kwargs))
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_trials_by_seed", _one_level_trials_by_seed)
        reference = _dump_json(experiments.run_experiment(name, **kwargs))
    return stacked, reference


def _record_chunks(monkeypatch):
    """The seeds of every chunk ``run_experiment`` prepares and fits, in
    order; a retried chunk is followed by each of its seeds alone."""
    chunks = []
    original = experiments._chunk_trials

    def recorded(experiment, spec, seeds, tables, noise_levels, split):
        chunks.append(list(seeds))
        return original(experiment, spec, seeds, tables, noise_levels, split)

    monkeypatch.setattr(experiments, "_chunk_trials", recorded)
    return chunks


@pytest.mark.parametrize("name", ["bernoulli", "pulsar", "binary"])
def test_report_bytes_equal_one_level_calls(name, monkeypatch):
    chunks = _record_chunks(monkeypatch)
    stacked, reference = _reports(name, monkeypatch, seeds=(1, 2, 3),
                                  noise_levels=(0.0, 0.1, 0.5))
    assert stacked == reference
    assert chunks == [[1, 2, 3]]


def test_report_bytes_equal_one_level_calls_at_an_odd_row_count(monkeypatch):
    # 211 training and 90 evaluation rows: the stacked designs' items start
    # at addresses only 8-byte aligned
    stacked, reference = _reports("pulsar", monkeypatch, seeds=(4, 5, 6, 7),
                                  noise_levels=(0.1, 0.3),
                                  settings=experiments.TrialSettings(n=301))
    assert stacked == reference


@pytest.mark.parametrize("name", ["bernoulli", "pulsar", "binary"])
def test_every_default_run_is_one_chunk(name, monkeypatch):
    chunks = _record_chunks(monkeypatch)
    experiments.run_experiment(name)
    assert chunks == [list(experiments.DEFAULT_SEEDS)]


def _one_seed_bytes(name, settings):
    """The bytes one seed's designs take in the chunk plan."""
    experiment = experiments._EXPERIMENTS[name]
    spec = experiments.load_catalog(experiment.catalog,
                                    allow_inconsistent=experiment.allow_inconsistent)
    return 8 * settings.n * experiments._design_width(experiment, spec)


@pytest.mark.parametrize("chunk_bytes, expected", [
    # one seed's bytes, one byte short of two, exactly two, one short of three
    ((1, 0), [[1], [2], [3], [4], [5]]),
    ((2, -1), [[1], [2], [3], [4], [5]]),
    ((2, 0), [[1, 2], [3, 4], [5]]),
    ((3, -1), [[1, 2], [3, 4], [5]]),
], ids=["one-seed", "below-two-seeds", "two-seeds", "below-three-seeds"])
def test_report_bytes_equal_one_level_calls_in_bounded_chunks(
        chunk_bytes, expected, monkeypatch):
    settings = experiments.TrialSettings(n=200)
    # pulsar's designs: 8 raw features, 7 monomials and 6 in the ablation
    assert _one_seed_bytes("pulsar", settings) == 8 * 200 * (8 + 7 + 6)
    seeds, extra = chunk_bytes
    monkeypatch.setattr(experiments, "_CHUNK_BYTES",
                        seeds * _one_seed_bytes("pulsar", settings) + extra)
    chunks = _record_chunks(monkeypatch)
    stacked, reference = _reports("pulsar", monkeypatch, seeds=(1, 2, 3, 4, 5),
                                  noise_levels=(0.1, 0.5), settings=settings)
    assert stacked == reference
    assert chunks == expected


def _constant_h(seeds):
    """bernoulli data whose ``h`` is constant for the given seeds, so their
    raw-feature designs drop that column."""
    def generate(n, seed):
        data = gen_bernoulli(n, seed)
        if seed in seeds:
            data.X[:, data.schema.index("h")] = 2.5
        return data
    return generate


def _recorded_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


def test_a_seed_with_a_dropped_column_retries_its_chunk_one_seed_at_a_time(
        monkeypatch):
    # only the middle seed's h is constant, so its sf design has one
    # column less and the chunk cannot be one stack
    bernoulli = experiments._EXPERIMENTS["bernoulli"]
    monkeypatch.setitem(experiments._EXPERIMENTS, "bernoulli",
                        replace(bernoulli, generator=_constant_h({2})))
    chunks = _record_chunks(monkeypatch)
    with pytest.warns(DroppedColumnWarning):
        stacked, reference = _reports("bernoulli", monkeypatch, seeds=(1, 3, 2, 4, 5),
                                      noise_levels=(0.1, 0.3))
    assert stacked == reference
    assert chunks == [[1, 3, 2, 4, 5], [1], [3], [2], [4], [5]]


def test_a_retried_chunk_warns_once_per_seed_in_seed_order(monkeypatch):
    bernoulli = experiments._EXPERIMENTS["bernoulli"]
    generated = []

    def counted(n, seed):
        generated.append(seed)
        return _constant_h({2, 4})(n, seed)

    monkeypatch.setitem(experiments._EXPERIMENTS, "bernoulli",
                        replace(bernoulli, generator=counted))
    kwargs = dict(seeds=(4, 1, 2, 3), noise_levels=(0.1, 0.3),
                  settings=experiments.TrialSettings(n=120))
    chunks = _record_chunks(monkeypatch)
    stacked, caught = _recorded_warnings(
        lambda: _dump_json(experiments.run_experiment("bernoulli", **kwargs)))
    # each table is generated once: the retry reuses the chunk's tables
    assert generated == [4, 1, 2, 3]
    assert chunks == [[4, 1, 2, 3], [4], [1], [2], [3]]
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_trials_by_seed", _one_level_trials_by_seed)
        reference, expected = _recorded_warnings(
            lambda: _dump_json(experiments.run_experiment("bernoulli", **kwargs)))
    assert stacked == reference
    assert [category for category, _ in caught] == [DroppedColumnWarning] * 2
    assert caught == expected


def test_a_failing_map_names_the_row_of_its_own_seed(monkeypatch):
    # seed 3's sixth row fails the map: row 5 of its own table, row 245 of
    # the chunk's concatenated one
    bernoulli = experiments._EXPERIMENTS["bernoulli"]
    failing = _failing_bernoulli({3: "evaluate"})
    monkeypatch.setitem(experiments._EXPERIMENTS, "bernoulli",
                        replace(bernoulli, generator=failing))
    chunks = _record_chunks(monkeypatch)
    with pytest.raises(DivisionByZero, match="^monomial 4 raises a zero value to "
                                             "power -1 at row 5$"):
        experiments.run_experiment("bernoulli", seeds=(1, 2, 3, 4),
                                   settings=experiments.TrialSettings(n=120))
    assert chunks == [[1, 2, 3, 4], [1], [2], [3]]


def _failing_bernoulli(failures):
    """bernoulli data that fails for some seeds: ``failures`` maps a seed to
    how its data or labels fail."""
    def generate(n, seed):
        failure = failures.get(seed)
        if failure == "generate":
            raise InsufficientData(f"no rows for seed {seed}")
        data = gen_bernoulli(n, seed)
        if failure == "evaluate":
            data.X[5, data.schema.index("A")] = 0.0  # a zero raised to power -1
        elif failure == "train label":
            data.y[3] = np.nan
        elif failure == "eval label":
            data.y[-3] = np.nan
        return data
    return generate


@pytest.mark.parametrize("failures, error", [
    ({2: "generate"}, InsufficientData),
    ({2: "evaluate"}, DivisionByZero),
    ({3: "train label"}, NonFiniteInput),
    # a fit of seed 1 fails before seed 2's data
    ({1: "train label", 2: "generate"}, NonFiniteInput),
    # seed 1 fails when scored, after its fit; seed 2 when fitted: a chunk
    # that fitted both before scoring would raise seed 2's error
    ({1: "eval label", 2: "train label"}, NonFiniteInput),
], ids=["generate", "evaluate", "fit", "fit-before-later-data",
        "score-before-later-fit"])
def test_a_failing_seed_raises_the_error_of_the_seed_by_seed_loop(
        failures, error, monkeypatch):
    bernoulli = experiments._EXPERIMENTS["bernoulli"]
    monkeypatch.setitem(experiments._EXPERIMENTS, "bernoulli",
                        replace(bernoulli, generator=_failing_bernoulli(failures)))
    kwargs = dict(seeds=(1, 2, 3, 4), noise_levels=(0.0, 0.1),
                  settings=experiments.TrialSettings(n=120))
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_trials_by_seed", _one_level_trials_by_seed)
        with pytest.raises(error) as reference:
            experiments.run_experiment("bernoulli", **kwargs)
    with pytest.raises(error, match=f"^{re.escape(str(reference.value))}$"):
        experiments.run_experiment("bernoulli", **kwargs)


def test_report_bytes_equal_one_level_calls_with_a_dropped_column(monkeypatch):
    # a constant h is dropped from the raw-feature arm; spif keeps h in
    # products with varying features
    bernoulli = experiments._EXPERIMENTS["bernoulli"]

    def constant_h(n, seed):
        data = gen_bernoulli(n, seed)
        data.X[:, data.schema.index("h")] = 2.5
        return data

    monkeypatch.setitem(experiments._EXPERIMENTS, "bernoulli",
                        replace(bernoulli, generator=constant_h))
    with pytest.warns(DroppedColumnWarning):
        stacked, reference = _reports("bernoulli", monkeypatch, seeds=(1, 2),
                                      noise_levels=(0.1, 0.5, 0.1))
    assert stacked == reference
    assert '"sf": {' in stacked


@pytest.mark.parametrize("layout", ["row-major", "column-major"])
@pytest.mark.parametrize("n, k", [(301, 211), (20_000, 14_000)],
                         ids=["odd-rows", "many-blocks"])
def test_a_stacked_standardization_equals_each_design_alone(layout, n, k):
    # three designs' rows concatenated as a chunk's are: a row-major table,
    # whose items sum row by row, or a column-major map, whose items sum
    # each column pairwise; an offset mean makes the order show
    rng = np.random.Generator(np.random.PCG64(11))
    designs = rng.standard_normal((3, n, 5)) * np.logspace(-3, 3, 5) + 1e3
    rows = np.concatenate(list(designs))
    if layout == "row-major":
        X, alone = rows.reshape(3, n, 5), [np.ascontiguousarray(d) for d in designs]
    else:
        X = np.asfortranarray(rows).T.reshape(5, 3, n).transpose(1, 2, 0)
        alone = [np.asfortranarray(d) for d in designs]
    Z_train, Z_eval, params = _standardized(X, k)
    for item, design in enumerate(alone):
        Z, expected = standardize_fit(design[:k])
        assert params[item].means.tobytes() == expected.means.tobytes()
        assert params[item].scales.tobytes() == expected.scales.tobytes()
        assert Z_train[item].flags.f_contiguous and Z_eval[item].flags.f_contiguous
        assert Z_train[item].tobytes() == Z.tobytes()
        Z_apply = standardize_apply(design[k:], expected)
        assert Z_eval[item].tobytes() == Z_apply.tobytes()


def _planted_stack():
    """A design whose three label vectors each depend on a different number
    of its columns, so their greedy passes stop at different prefix sizes."""
    rng = np.random.Generator(np.random.PCG64(17))
    X = rng.standard_normal((400, 6)) * np.arange(1.0, 7.0)
    y = np.stack([X[:, :used] @ np.arange(1.0, used + 1.0) + 0.05 * rng.standard_normal(400)
                  for used in (1, 3, 5)])
    Z, params = standardize_fit(X[:300])
    return Z, standardize_apply(X[300:], params), params, y[:, :300], y[:, 300:]


def test_lock_step_passes_that_stop_at_different_sizes_equal_single_passes():
    Z_train, Z_eval, params, y_train, y_eval = _planted_stack()
    names = tuple(f"x{j}" for j in range(Z_train.shape[1]))
    models = _ridge_fits(Z_train[None], y_train, 1e-3, feature_names=[names],
                         standardizations=[params])
    stacked = _ranked_refits(models, Z_train[None], y_train, Z_eval[None], y_eval, 0.01)
    assert len({len(result.curve) for result, _ in stacked}) == 3
    for item, (result, document) in enumerate(stacked):
        model = ridge_fit(Z_train, y_train[item], 1e-3, feature_names=names,
                          standardization=params)
        assert model.weights.tobytes() == models[item].weights.tobytes()
        assert model.intercept.hex() == models[item].intercept.hex()
        single, single_document = rank_and_refit(model, Z_train, y_train[item], Z_eval,
                                                 y_eval[item], 0.01)
        assert _dump_json(document) == _dump_json(single_document)
        assert result.curve == single.curve
        assert (result.selected_fit.weights.tobytes()
                == single.selected_fit.weights.tobytes())


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_prefix_raises_the_error_of_its_own_pass(failing):
    # at lam=0 a prefix holding both copies of column 0 is singular: one
    # pass reaches it at size 2, the other not before size 4
    Z_train, Z_eval, _, y_train, y_eval = _planted_stack()
    Z_train[:, 2], Z_eval[:, 2] = Z_train[:, 0], Z_eval[:, 0]
    orders = [(1, 0, 3, 2, 4, 5)] * 2
    orders[failing] = (0, 2, 1, 3, 4, 5)
    with pytest.raises(SingularSystem) as single:
        greedy_select(Z_train, y_train[failing], Z_eval, y_eval[failing], 0.0,
                      orders[failing], epsilon=1e-300)
    assert len(greedy_select(Z_train[:, [1, 0, 3]], y_train[1 - failing],
                             Z_eval[:, [1, 0, 3]], y_eval[1 - failing], 0.0,
                             epsilon=1e-300).curve) == 3
    with pytest.raises(SingularSystem, match=re.escape(str(single.value))):
        _greedy_passes(Z_train[None], y_train[:2], Z_eval[None], y_eval[:2], 0.0,
                       orders, 1e-300)


_INDEFINITE = [[1.0, 2.0], [2.0, 1.0]]  # no Cholesky factor
_RANK_ONE = [[1.0, 1.0], [1.0, 1.0 + 4e-16]]  # a pivot within rounding


@pytest.mark.parametrize("failures", [
    {0: _INDEFINITE}, {1: _INDEFINITE}, {2: _INDEFINITE},
    {0: _INDEFINITE, 2: _RANK_ONE}, {1: _RANK_ONE, 2: _INDEFINITE},
])
def test_a_failing_stacked_solve_raises_the_error_of_its_first_failing_item(failures):
    grams = np.stack([np.eye(2) * 4.0] * 3)
    for item, gram in failures.items():
        grams[item] = gram
    rhs = np.arange(6.0).reshape(3, 2)
    first = min(failures)
    with pytest.raises(SingularSystem) as single:
        _solve_normal_equations(grams[first], rhs[first], 0.0)
    with pytest.raises(SingularSystem, match=re.escape(str(single.value))):
        _solve_normal_equations(grams, rhs, 0.0)


_ILL_CONDITIONED = ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], [1.0, -1.0])  # misses the bound
_OVERFLOWING = ([[1e-300, 0.0], [0.0, 1.0]], [1e300, 1.0])  # weights of 1e315


@pytest.mark.parametrize("failures, message", [
    ({0: _ILL_CONDITIONED}, "residual exceeds"),
    ({2: _ILL_CONDITIONED}, "residual exceeds"),
    ({1: _OVERFLOWING}, "non-finite weights"),
    ({0: _ILL_CONDITIONED, 1: _OVERFLOWING}, "residual exceeds"),
    ({1: _OVERFLOWING, 2: _ILL_CONDITIONED}, "non-finite weights"),
], ids=["residual-first", "residual-last", "non-finite", "residual-then-non-finite",
        "non-finite-then-residual"])
def test_a_failing_stacked_solve_raises_the_residual_error_of_its_first_failing_item(
        failures, message):
    # lam = 1e-15 lifts every Gram, so no item takes the definiteness check
    grams = np.stack([np.eye(2) * 4.0] * 3)
    rhs = np.arange(6.0).reshape(3, 2)
    for item, (gram, right) in failures.items():
        grams[item], rhs[item] = gram, right
    first = min(failures)
    with pytest.raises(SingularSystem, match=message) as single:
        _solve_normal_equations(grams[first], rhs[first], 1e-15)
    with pytest.raises(SingularSystem, match=re.escape(str(single.value))):
        _solve_normal_equations(grams, rhs, 1e-15)


@pytest.mark.parametrize("failing, message", [
    ([[1.0, -1.0], [1e300, -1e300]], "residual exceeds"),
    ([[1e300, -1e300], [1.0, -1.0]], "non-finite weights"),
], ids=["residual-first", "non-finite-first"])
def test_a_shared_gram_raises_the_error_of_its_first_failing_right_hand_side(
        failing, message):
    # design 0's Gram serves three passing items, design 1's one passing
    # item and then two failing ones
    grams = np.stack([np.eye(2) * 4.0, _ILL_CONDITIONED[0]])[:, None]
    rhs = np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                    [[1.0, 1.0], *failing]])
    with pytest.raises(SingularSystem, match=message):
        _solve_normal_equations(grams[1, 0], rhs[1, 1], 1e-15)
    with pytest.raises(SingularSystem, match=message):
        _solve_normal_equations(grams, rhs, 1e-15)


@pytest.mark.parametrize("items", [1, 4])
def test_a_failing_stack_is_solved_once(items, monkeypatch):
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: calls.append(args) or solve(*args))
    # shaped as a ridge fit's solve: one design, its items, p = 2
    gram = np.array(_ILL_CONDITIONED[0])[None, None]
    rhs = np.tile(_ILL_CONDITIONED[1], (1, items, 1))
    with pytest.raises(SingularSystem, match="residual exceeds"):
        _solve_normal_equations(gram, rhs, 1e-15)
    assert len(calls) == 1


def test_one_gram_serves_a_stack_of_right_hand_sides():
    rng = np.random.Generator(np.random.PCG64(3))
    Z = np.asfortranarray(rng.standard_normal((50, 4)))
    gram, rhs = Z.T @ Z, rng.standard_normal((5, 4))
    stacked = _solve_normal_equations(gram, rhs, 1e-3)
    assert stacked.shape == (5, 4)
    for row, weights in zip(rhs, stacked):
        assert _solve_normal_equations(gram, row, 1e-3).tobytes() == weights.tobytes()
