import importlib

import pytest

import pafmsm

MODULES = ("cohort", "continuous", "cox", "curves", "discrete", "errors", "paf", "simulate")


def test_public_names_are_the_modules_lists_once_each():
    modules = [importlib.import_module(f"pafmsm.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert pafmsm.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(pafmsm, name) is getattr(module, name)


@pytest.mark.parametrize("module, name", [
    ("simulate", "brute_force_estimates"),
    ("simulate", "BruteForceCurves"),
    ("cohort", "subjects_from_transitions"),
    ("cohort.DailyPanel", "eps"),
    ("discrete.WeightTable", "weights"),
    ("discrete.ExposureModel", "daily_probabilities"),
])
def test_test_only_code_is_not_in_the_package(module, name):
    module, _, cls = module.partition(".")
    owner = importlib.import_module(f"pafmsm.{module}")
    owner = getattr(owner, cls) if cls else owner
    assert not hasattr(owner, name)
    assert name not in pafmsm.__all__ and not hasattr(pafmsm, name)
