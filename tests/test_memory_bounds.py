"""Each tall-table layer's ``tracemalloc`` peak over its output.

Every row runs one layer on 200,000 rows and checks its peak against the
bound the function's docstring states, so a bound cannot move in one
place only.  ``evaluate_map``'s bounds are checked in ``test_featuremap``.
"""

import tracemalloc

import numpy as np
import pytest

from pifmap.regression import standardize_fit
from pifmap.synthdata import NoiseConfig, add_noise, gen_bernoulli, gen_binary, gen_pulsar

_ROWS = 200_000


def _generate(generate):
    def prepare():
        return lambda: generate(_ROWS, 5), lambda ds: ds.X.nbytes + ds.y.nbytes
    return prepare


def _noise():
    y = gen_pulsar(_ROWS, 5).y
    return lambda: add_noise(y, NoiseConfig(level=0.1, seed=6)), lambda out: out.nbytes


def _column_major_standardize():
    rng = np.random.Generator(np.random.PCG64(7))
    X = np.asfortranarray(rng.standard_normal((_ROWS, 9)) * np.arange(1.0, 10.0))
    return lambda: standardize_fit(X), lambda result: result[0].nbytes


@pytest.mark.parametrize("function, prepare, bound", [
    (gen_pulsar, _generate(gen_pulsar), 1.15),
    (gen_bernoulli, _generate(gen_bernoulli), 1.15),
    (gen_binary, _generate(gen_binary), 1.15),
    (add_noise, _noise, 1.01),
    (standardize_fit, _column_major_standardize, 1.15),
], ids=["gen_pulsar", "gen_bernoulli", "gen_binary", "add_noise",
        "standardize_fit-column-major"])
def test_peak_over_output_is_within_the_documented_bound(function, prepare, bound):
    assert f"under {bound}x" in " ".join(function.__doc__.split())
    call, output_bytes = prepare()
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * output_bytes(result)
