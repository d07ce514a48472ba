import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pafmsm import Cohort, HazardSpec, parse_cohort, simulate_cohort

REPO_ROOT = Path(__file__).resolve().parents[1]

# every run draws the same examples (no replay of saved failures), and a
# slow first example is not a failure
settings.register_profile("pafmsm", derandomize=True, deadline=None, database=None)
settings.load_profile("pafmsm")

SIR3_NOTICE = (
    "SIR-3 cohort file not found. The reproduction tests need the public "
    "icu.pneu data (kmi R package) exported as CSV with columns "
    "id,inf_time,end_time,end_status; place it at data/sir3.csv or point "
    "the PAF_MSM_SIR3 environment variable at it."
)


def _sir3_path():
    env = os.environ.get("PAF_MSM_SIR3")
    if env:
        return Path(env)
    return REPO_ROOT / "data" / "sir3.csv"


@pytest.fixture(scope="session")
def sir3_cohort():
    path = _sir3_path()
    if not path.exists():
        pytest.skip(SIR3_NOTICE)
    return parse_cohort(path)


def integer_cohort(seed, n=200, censored=False):
    """A mixed-shape integer-day cohort for equivalence testing.

    The exposure hazard stops early so that the state-0 risk set is never
    exhausted by exposures, which keeps the inverse-probability weights
    bounded.
    """
    rng = np.random.default_rng(seed)
    from pafmsm.simulate import PiecewiseHazard

    a01 = PiecewiseHazard(np.array([6.0, 10.0]), np.array([rng.uniform(0.05, 0.2), 0.0]))
    spec = HazardSpec(
        alpha01=a01,
        alpha02=PiecewiseHazard(np.array([5.0, 30.0]), rng.uniform(0.03, 0.15, 2)),
        alpha03=PiecewiseHazard(np.array([8.0, 30.0]), rng.uniform(0.02, 0.1, 2)),
        alpha14=PiecewiseHazard(np.array([30.0]), rng.uniform(0.03, 0.12, 1)),
        alpha15=PiecewiseHazard(np.array([30.0]), rng.uniform(0.02, 0.1, 1)),
        tau=60.0,
        round_days=True,
    )
    cohort = simulate_cohort(spec, n, seed)
    if censored:
        return cohort
    kept = tuple(s for s in cohort.subjects if s.end_status != "censored")
    return Cohort(kept, horizon=cohort.horizon)
