import ast
import importlib
from pathlib import Path

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
    ("discrete.WeightTable", "to_csv"),
    ("discrete", "PersonDayRecords"),
    ("discrete", "expand_person_days"),
    ("discrete.ExposureModel", "daily_probabilities"),
    ("paf", "PafCurve"),
    ("continuous", "kaplan_meier"),
    ("continuous", "nelson_aalen"),
    ("continuous", "HazardIncrements"),
    ("curves.StepCurve", "left_value"),
    ("curves.StepCurve", "is_defined"),
    ("curves.StepCurve", "to_json"),
    ("continuous.OccupationCurves", "sum_at"),
    ("simulate.PiecewiseHazard", "cumulative"),
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
    assert len(pafmsm.__all__) == 56


_TWO = pafmsm.Cohort.from_columns(["A", "B"], [float("nan"), 1.0], [1.0, 2.0], [1, 1])


@pytest.mark.parametrize("call", [
    lambda: pafmsm.TiePolicy("bogus"),
    lambda: pafmsm.TiePolicy("shift", eps=0.0),
    lambda: pafmsm.TiePolicy.parse("bogus"),
    lambda: pafmsm.TiePolicy.parse("shift:x"),
    lambda: pafmsm.fit_cox_td(_TWO, "relapse"),
    lambda: pafmsm.markov_test(_TWO, "death"),
    lambda: pafmsm.StepCurve([0.0, 1.0], [0.0]),
    lambda: pafmsm.StepCurve([1.0, 0.0], [0.0, 0.0]),
    lambda: pafmsm.estimate_paf(_TWO, "paf_x"),
    lambda: pafmsm.estimate_paf(_TWO, "paf_o", "ipw"),
    lambda: pafmsm.bootstrap_ci(_TWO, "paf_c", "naive"),
    lambda: pafmsm.bootstrap_ci(_TWO, "paf_c", B=1),
    lambda: pafmsm.bootstrap_ci(_TWO, "paf_c", grid=[3.0, 1.0]),
    lambda: pafmsm.bootstrap_ci(_TWO, "paf_c", grid=[[1.0, 2.0]]),
], ids=["tie-kind", "tie-eps", "tie-parse", "tie-parse-eps", "cox-outcome", "markov-outcome",
        "curve-shape", "curve-order", "estimand", "estimator", "bootstrap-pair", "bootstrap-b",
        "bootstrap-grid-order", "bootstrap-grid-shape"])
def test_a_bad_argument_to_a_library_function_is_a_value_error(call):
    # a ValueError is the caller's argument; a DataError is the input data
    with pytest.raises(ValueError) as caught:
        call()
    assert not isinstance(caught.value, pafmsm.PafmsmError)


def unused_imports(source):
    """(line, name) of each name the module ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_package_imports_nothing_it_does_not_use():
    assert unused_imports("import json\nfrom dataclasses import dataclass, field\n"
                          "import numpy.linalg\n@dataclass\nclass A:\n    x: numpy.ndarray\n"
                          ) == [(1, "json"), (2, "field")]
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(Path(pafmsm.__file__).parent.glob("*.py"))}
    assert {name: unused for name, unused in found.items() if unused} == {}
