"""Memory per subject of the registry and person-day operations.

Each bound is the ``tracemalloc`` peak that the operation reached when the
test was written (Python 3.11, numpy 2.4), in bytes per subject of a
2e5-row registry file or of a whole-day file of 2e5 simulated subjects
less the censored, plus 5%.  A change may lower a bound, never raise it.
"""

import tracemalloc

import numpy as np
import pytest

from pafmsm import (Cohort, HazardSpec, aalen_johansen_extended, cli, cohort_to_csv, fit_cox_td,
                    icu_like_spec, parse_cohort, simulate_cohort)
from pafmsm.cohort import STATUS_CENSORED

N = 200_000


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    """The path of a 2e5-row registry file, as the benchmark makes them."""
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    path = tmp_path_factory.mktemp("registry") / "registry.csv"
    path.write_text(cohort_to_csv(simulate_cohort(spec, N, seed=1)))
    return path


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """The path and row count of a whole-day file as the benchmark makes
    them: 2e5 simulated subjects, the censored dropped, a binary x."""
    drawn = simulate_cohort(icu_like_spec(round_days=True), N, seed=1)
    kept = drawn.subset(drawn.status != STATUS_CENSORED)
    x = np.random.default_rng(1).integers(0, 2, len(kept)).astype(float)
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(cohort_to_csv(Cohort.from_columns(kept.ids, kept.inf, kept.end, kept.status,
                                                      {"x": x})))
    return path, len(kept)


def peak_per_subject(call, n=N):
    """The ``tracemalloc`` peak of ``call()`` above what it starts with, per
    subject of ``n``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def test_estimate_paf_c_from_the_file(registry, tmp_path):
    # the parse, the two curves and their merge, and a streamed write:
    # 146 B per subject when the CSV text was held whole, 130 B now
    argv = ["estimate", "--input", str(registry), "--estimand", "paf_c", "--out", str(tmp_path)]
    codes = []
    assert peak_per_subject(lambda: codes.append(cli.run(argv))) <= 136.5
    assert codes == [0] and (tmp_path / "paf_c_multistate.csv").stat().st_size > 0


def test_aalen_johansen_of_the_parsed_cohort(registry):
    # 172 B per subject with the (7 x T) exit table, 95.7 B with counts
    # read one row at a time from the sorted exits
    cohort = parse_cohort(registry)
    assert peak_per_subject(lambda: aalen_johansen_extended(cohort)) <= 100.5


def test_cox_death_of_the_parsed_cohort(registry):
    # 91 B per subject with the five-row exit table, 48.1 B now
    cohort = parse_cohort(registry)
    assert peak_per_subject(lambda: fit_cox_td(cohort, "death")) <= 50.5


def test_estimate_paf_c_by_ipw_from_the_file(panel, tmp_path):
    # the parse, the panel, the empirical weights and their patterns: 146 B
    # per subject with the patterns ranked by np.unique of packed int64 keys,
    # 91.4 B now
    path, n = panel
    argv = ["estimate", "--input", str(path), "--estimand", "paf_c", "--estimator", "ipw",
            "--out", str(tmp_path)]
    codes = []
    assert peak_per_subject(lambda: codes.append(cli.run(argv)), n) <= 95.9
    assert codes == [0] and (tmp_path / "paf_c_ipw.csv").stat().st_size > 0


def test_check_of_the_file(panel, capsys):
    # the parse, then the panel and each estimator beside the cohort: 163 B
    # per subject with int64 exit kinds and the times held for the whole
    # check, 94.2 B now
    path, n = panel
    codes = []
    assert peak_per_subject(lambda: codes.append(cli.run(["check", "--input", str(path)])),
                            n) <= 98.9
    assert codes == [0] and capsys.readouterr().out.count("PASS") == 3
