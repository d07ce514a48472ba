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
    assert_gone(module, name)


def assert_gone(owner, name):
    """``name`` is neither on ``owner`` ("module" or "module.Class") nor public."""
    module, _, cls = owner.partition(".")
    owner = importlib.import_module(f"pafmsm.{module}")
    owner = getattr(owner, cls) if cls else owner
    assert not hasattr(owner, name)
    assert name not in pafmsm.__all__ and not hasattr(pafmsm, name)


@pytest.mark.parametrize("owner, name", [
    ("cohort", "TransitionRecords"),
    ("cohort.Cohort", "from_arrays"),
    ("cohort.Cohort", "subject_arrays"),
])
def test_the_cohort_is_the_one_continuous_time_representation(owner, name):
    assert_gone(owner, name)
    assert len(pafmsm.__all__) == 62
