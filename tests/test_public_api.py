"""The public names: each one listed resolves and is listed once."""

import importlib
import pkgutil

import pytest

import pifmap

MODULES = ["pifmap"] + [
    f"pifmap.{info.name}" for info in pkgutil.iter_modules(pifmap.__path__)
]

# Names removed from the package; see README "Removed names".
REMOVED = ["Range", "BernoulliRanges", "PulsarRanges", "BinaryRanges", "Monomial",
           "gram_matrix", "rank_by_coefficient"]
REMOVED_RANGES = REMOVED[:4]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves_once(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(listed) == len(set(listed))
    for attribute in listed:
        assert hasattr(module, attribute), f"{name}.{attribute}"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(pifmap, name)
    assert name not in pifmap.__all__


@pytest.mark.parametrize("name", REMOVED_RANGES)
def test_the_sampling_range_classes_are_gone_from_synthdata(name):
    assert not hasattr(pifmap.synthdata, name)
