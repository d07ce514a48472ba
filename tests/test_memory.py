"""Memory per subject of the registry operations.

Each bound is the ``tracemalloc`` peak that the operation reached when the
test was written (Python 3.11, numpy 2.4), in bytes per subject of a
2e5-row registry file, plus 5%.  A change may lower a bound, never raise it.
"""

import tracemalloc

import pytest

from pafmsm import (HazardSpec, aalen_johansen_extended, cli, cohort_to_csv, fit_cox_td,
                    parse_cohort, simulate_cohort)

N = 200_000


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    """The path of a 2e5-row registry file, as the benchmark makes them."""
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    path = tmp_path_factory.mktemp("registry") / "registry.csv"
    path.write_text(cohort_to_csv(simulate_cohort(spec, N, seed=1)))
    return path


def peak_per_subject(call):
    """The ``tracemalloc`` peak of ``call()`` above what it starts with, per subject."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / N
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
