"""Each tall-table layer's ``tracemalloc`` peak over its output, and the search's.

Every row runs one layer on 200,000 rows (``read_csv`` also on the 5,000
rows of the benchmark's wide table), or the monomial search on one
schema, and checks its peak against the bound the function's docstring
states, so a bound cannot move in one place only.  The search's bound is
over the count its budget caps (half-grid rows plus join candidates)
times the row width times 8 bytes, or over its output where the output
is the larger part.  The CLI's split fit's bound is over
the evaluated design it is handed, which it standardizes in place.  The
stacked rank's bound is over the prefix buffers and labels it holds, not
over its output; a three-seed experiment's is over the peak of the same
experiment on one seed, a default chunk's over the stacks of its
standardized designs, and the column grouping's over one column of its
design.  ``evaluate_map``'s bound on a table that fails is checked in
``test_featuremap``.
"""

import tracemalloc

import numpy as np
import pytest

from pifmap import cli, experiments
from pifmap.catalogs import load_catalog
from pifmap.data import read_csv, write_csv
from pifmap.errors import BudgetExceeded
from pifmap.featuremap import enumerate_monomials, evaluate_map
from pifmap.ranking import _identical_column_groups, _ranked_refits
from pifmap.regression import (
    DEFAULT_LAMBDA_GRID,
    _ridge_fits,
    standardize_apply,
    standardize_fit,
)
from pifmap.synthdata import NoiseConfig, add_noise, gen_bernoulli, gen_binary, gen_pulsar

_ROWS = 200_000


def _generate(generate):
    def prepare():
        return lambda: generate(_ROWS, 5), lambda ds: ds.X.nbytes + ds.y.nbytes
    return prepare


def _csv_read(rows):
    def prepare():
        write_csv(gen_bernoulli(rows, 5), "bernoulli.csv")
        return lambda: read_csv("bernoulli.csv"), lambda ds: ds.X.nbytes + ds.y.nbytes
    return prepare


def _pulsar_map():
    spec = load_catalog("pulsar", allow_inconsistent=True)
    data = gen_pulsar(_ROWS, 5)
    return lambda: evaluate_map(spec, data), lambda Phi: _ROWS * len(spec) * 8


def _noise():
    y = gen_pulsar(_ROWS, 5).y
    return lambda: add_noise(y, NoiseConfig(level=0.1, seed=6)), lambda out: out.nbytes


def _column_major_standardize():
    rng = np.random.Generator(np.random.PCG64(7))
    X = np.asfortranarray(rng.standard_normal((_ROWS, 9)) * np.arange(1.0, 10.0))
    return lambda: standardize_fit(X), lambda result: result[0].nbytes


def _row_major_standardize():
    rng = np.random.Generator(np.random.PCG64(7))
    X = np.ascontiguousarray(rng.standard_normal((_ROWS, 9)) * np.arange(1.0, 10.0))
    return lambda: standardize_fit(X), lambda result: result[0].nbytes


def _split_fit():
    # fit --select's step on an evaluated pulsar map, at a 0.7 split
    spec = load_catalog("pulsar", allow_inconsistent=True)
    data = gen_pulsar(_ROWS, 5)
    Phi = evaluate_map(spec, data)
    design = Phi.nbytes
    return (lambda: cli._split_fit(Phi, data.y, spec.monomial_names, 0.7, 1e-3,
                                   DEFAULT_LAMBDA_GRID),
            lambda result: design)


def _three_seed_experiment():
    # each seed's designs (8 + 7 + 6 columns) take more than one chunk's
    # bytes, so the seeds are fitted one at a time
    settings = experiments.TrialSettings(n=40_000)
    assert settings.n * 21 * 8 > experiments._CHUNK_BYTES

    def run(seeds):
        return experiments.run_experiment("pulsar", seeds=seeds, settings=settings)

    run((1,))  # load the catalog before measuring
    tracemalloc.start()
    try:
        run((1,))
        _, one_seed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return lambda: run((1, 2, 3)), lambda result: one_seed


def _default_chunk():
    # ten pulsar seeds at the default n=1000 are one chunk, whose stacks
    # hold every seed's designs of every arm (8 + 7 + 6 columns)
    seeds = tuple(range(1, 11))
    stacks = len(seeds) * experiments.TrialSettings().n * 21 * 8
    assert stacks <= experiments._CHUNK_BYTES
    experiments.run_experiment("pulsar", seeds=seeds[:1])  # load the catalog
    return (lambda: experiments.run_experiment("pulsar", seeds=seeds),
            lambda result: stacks)


def _stacked_rank():
    # three noise levels of one seed, ranked in lock step on a 0.7 split
    data = gen_pulsar(_ROWS, 5)
    k = int(0.7 * _ROWS)
    Phi = evaluate_map(load_catalog("pulsar", allow_inconsistent=True), data)
    Z_train, params = standardize_fit(Phi[:k])
    Z_eval = standardize_apply(Phi[k:], params)
    y = np.stack([add_noise(data.y, NoiseConfig(level=level, seed=6))
                  for level in (0.1, 0.3, 0.5)])
    models = _ridge_fits(Z_train[None], y[:, :k], 1e-3)
    held = len(y) * _ROWS * (Z_train.shape[1] + 1) * 8
    return (lambda: _ranked_refits(models, Z_train[None], y[:, :k], Z_eval[None],
                                   y[:, k:], 0.01),
            lambda result: held)


def _column_groups():
    # nine standardized-like columns; 3, 5 and 8 are identical, 6 is 3 flipped
    rng = np.random.Generator(np.random.PCG64(8))
    Z = np.asfortranarray(rng.standard_normal((_ROWS, 9)))
    Z[:, 5] = Z[:, 8] = Z[:, 3]
    Z[:, 6] = -Z[:, 3]
    assert _identical_column_groups(Z).tolist() == [0, 1, 2, 3, 4, 3, 6, 7, 3]
    return lambda: _identical_column_groups(Z), lambda labels: _ROWS * 8


def _pulsar_search():
    # pulsar's eight features with mu0 and c at bounds 4/4; the budget
    # accepts exactly this count of half-grid rows plus join candidates
    spec = load_catalog("pulsar", allow_inconsistent=True)
    counted = 113_762

    def search(budget=1_000_000):
        return enumerate_monomials(spec.features, spec.constants,
                                   spec.target_dimension, 4, 4, budget=budget)

    search(counted)
    with pytest.raises(BudgetExceeded):
        search(counted - 1)
    return search, lambda rows: counted * rows.shape[1] * 8


def _flare_search():
    # flare's nine features at bounds 4/9, where the output (63,272 rows)
    # outweighs the halves
    spec = load_catalog("flare", allow_inconsistent=True)

    def search():
        return enumerate_monomials(spec.features, spec.constants,
                                   spec.target_dimension, 4, 9)

    assert search().shape == (63_272, 9)
    return search, lambda rows: rows.nbytes


@pytest.mark.parametrize("function, prepare, bound", [
    (gen_pulsar, _generate(gen_pulsar), 1.07),
    (gen_bernoulli, _generate(gen_bernoulli), 1.07),
    (gen_binary, _generate(gen_binary), 1.07),
    (read_csv, _csv_read(_ROWS), 2.05),
    (read_csv, _csv_read(5_000), 2.3),
    (evaluate_map, _pulsar_map, 1.1),
    (add_noise, _noise, 1.01),
    (standardize_fit, _column_major_standardize, 1.15),
    (standardize_fit, _row_major_standardize, 1.05),
    (cli._split_fit, _split_fit, 0.102),
    (_ranked_refits, _stacked_rank, 1.15),
    (experiments.run_experiment, _three_seed_experiment, 1.02),
    (experiments.run_experiment, _default_chunk, 2.4),
    (_identical_column_groups, _column_groups, 1.1),
    (enumerate_monomials, _pulsar_search, 0.8),
    (enumerate_monomials, _flare_search, 2.1),
], ids=["gen_pulsar", "gen_bernoulli", "gen_binary", "read_csv", "read_csv-5000",
        "evaluate_map", "add_noise", "standardize_fit-column-major",
        "standardize_fit-row-major", "split_fit", "stacked-rank",
        "run_experiment-chunked", "run_experiment-default-chunk",
        "identical_column_groups", "enumerate_monomials", "enumerate_monomials-output"])
def test_peak_over_output_is_within_the_documented_bound(function, prepare, bound,
                                                        tmp_path, monkeypatch):
    assert f"under {bound}x" in " ".join(function.__doc__.split())
    monkeypatch.chdir(tmp_path)  # a row's files go to a temporary folder
    call, output_bytes = prepare()
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * output_bytes(result)
