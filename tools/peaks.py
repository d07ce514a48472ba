"""Memory of each stage of the registry and person-day operations, under ``tracemalloc``.

    python tools/peaks.py --n 100000 --seed 1
    python tools/peaks.py --n 1000000

It first simulates the constant-hazard registry cohort of the bench's
``registry_1e5`` workload (rates 0.05, 0.05, 0.02, 0.05, 0.03, tau
100, censoring 0.01) at ``--n`` subjects, writes it to a CSV file in a
temporary directory and runs each stage of the registry operations on it
in turn, each on what the stages before it left:

    parse         parse_cohort of the file
    overall       overall_death_risk, cpf_unexposed and cif_counterfactual
    cpf             of the parsed cohort
    counterfact
    merge         paf._ratio of the overall and counterfactual curves (PAF_c)
    writer        the write stage of ``estimate``: cli.run with the parse and
                  the estimate replaced by the held cohort and PAF_c curve
    aj            aalen_johansen_extended
    cox           fit_cox_td(cohort, "death")
    cli estimate  cli.run(["estimate", "--estimand", "paf_c", ...]) of the file

Then it does the same for the whole-day file of the bench's
``panel_1e5`` workload (``icu_like_spec(round_days=True)`` at ``--n``
subjects, censored rows dropped, a binary covariate ``x``) and the
person-day operations:

    parse         parse_cohort of the file
    discretize    discretize of the parsed cohort
    empirical     empirical_weights of the panel
    patterns      the weight patterns that ipw_f01 builds (discrete._Patterns)
    ipw           ipw_f01 with the empirical weights
    naive         naive_f01, and the three continuous estimators that
    cpf             ``check`` compares with the panel's
    counterfact
    ht
    cli ipw       cli.run(["estimate", "--estimand", "paf_c", "--estimator",
                  "ipw", ...]) of the file
    cli check     cli.run(["check", ...]) of the file

For each stage it prints the ``tracemalloc`` peak above what was
allocated when the stage started (its input), in MB and in bytes per
subject of the file, and the MB that its result retains.  Standard library and the package
only; it imports the package from this checkout's ``src/`` and lives
outside ``testpaths``, so pytest never collects it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from pafmsm import cli, continuous, cox, discrete, paf  # noqa: E402
from pafmsm.cohort import (STATUS_CENSORED, Cohort, cohort_to_csv, discretize,  # noqa: E402
                           parse_cohort)
from pafmsm.simulate import HazardSpec, icu_like_spec, simulate_cohort  # noqa: E402

RATES, CENSOR_RATE = (0.05, 0.05, 0.02, 0.05, 0.03), 0.01


def traced(fn):
    """``fn()``, its tracemalloc peak above the memory allocated before it,
    and the memory its result holds, in bytes."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn()
    current, peak = tracemalloc.get_traced_memory()
    return result, peak - before, current - before


def _stage(held):
    """A function that runs one stage, keeps its result in ``held`` by
    name, and returns the name, the peak and the retained bytes."""
    def stage(name, fn):
        held[name], peak, kept = traced(fn)
        return name, peak, kept
    return stage


def registry_file(path: Path, n: int, seed: int):
    spec = HazardSpec.constant(*RATES, tau=100.0, censor_rate=CENSOR_RATE)
    path.write_text(cohort_to_csv(simulate_cohort(spec, n, seed)), encoding="utf-8")


def panel_file(path: Path, n: int, seed: int):
    drawn = simulate_cohort(icu_like_spec(round_days=True), n, seed)
    kept = drawn.subset(drawn.status != STATUS_CENSORED)
    x = np.random.default_rng(seed).integers(0, 2, len(kept)).astype(float)
    cohort = Cohort.from_columns(kept.ids, kept.inf, kept.end, kept.status, {"x": x})
    path.write_text(cohort_to_csv(cohort), encoding="utf-8")


def stages(path: Path, out: Path):
    """Each registry stage's name and its (peak, retained), in order."""
    held = {}
    stage = _stage(held)
    yield stage("parse", lambda: parse_cohort(path))
    cohort = held["parse"]
    yield stage("overall", lambda: continuous.overall_death_risk(cohort))
    yield stage("cpf", lambda: continuous.cpf_unexposed(cohort))
    yield stage("counterfact", lambda: continuous.cif_counterfactual(cohort))
    del held["cpf"]
    yield stage("merge", lambda: paf._ratio(held["overall"], held["counterfact"]))
    curve = held["merge"]
    del held["overall"], held["counterfact"]
    argv = ["estimate", "--input", str(path), "--estimand", "paf_c", "--grid", "jumps",
            "--out", str(out)]
    with mock.patch.object(cli, "_load_cohort", lambda args: cohort), \
            mock.patch.object(cli, "estimate_paf", lambda *args, **kwargs: curve):
        yield stage("writer", lambda: cli.run(argv))
    del held["merge"], curve
    yield stage("aj", lambda: continuous.aalen_johansen_extended(cohort))
    del held["aj"]
    yield stage("cox", lambda: cox.fit_cox_td(cohort, "death"))
    del held["parse"], held["cox"], cohort
    yield stage("cli estimate", lambda: cli.run(argv))


def panel_stages(path: Path, out: Path):
    """Each person-day stage's name and its (peak, retained), in order."""
    held = {}
    stage = _stage(held)
    yield stage("parse", lambda: parse_cohort(path))
    cohort = held["parse"]
    yield stage("discretize", lambda: discretize(cohort))
    panel = held["discretize"]
    yield stage("empirical", lambda: discrete.empirical_weights(panel))
    weights = held["empirical"]
    death = discrete._death_days(panel)
    yield stage("patterns", lambda: weights._patterns(death))
    del held["patterns"], death
    yield stage("ipw", lambda: discrete.ipw_f01(panel, weights))
    yield stage("naive", lambda: discrete.naive_f01(panel))
    yield stage("cpf", lambda: continuous.cpf_unexposed(cohort))
    yield stage("counterfact", lambda: continuous.cif_counterfactual(cohort))
    yield stage("ht", lambda: continuous.ht_cif(cohort))
    held.clear()
    del cohort, panel, weights
    yield stage("cli ipw", lambda: cli.run(["estimate", "--input", str(path), "--estimand", "paf_c",
                                            "--estimator", "ipw", "--out", str(out)]))

    def check():  # its report goes nowhere
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(["check", "--input", str(path)])

    yield stage("cli check", check)


COHORTS = (("registry", registry_file, stages), ("panel", panel_file, panel_stages))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=100_000, help="subjects (default 1e5)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for name, write, run in COHORTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.csv"
            write(path, args.n, args.seed)
            rows = sum(1 for _ in path.open(encoding="utf-8")) - 1
            print(f"{name} n={args.n} seed={args.seed}: {rows} rows, "
                  f"{path.stat().st_size / 1e6:.2f} MB of CSV")
            print(f"{'stage':14s}{'peak MB':>10s}{'B/subject':>11s}{'retained MB':>13s}")
            tracemalloc.start()
            try:
                for stage, peak, kept in run(path, Path(tmp) / "out"):
                    print(f"{stage:14s}{peak / 1e6:10.2f}{peak / rows:11.1f}{kept / 1e6:13.2f}",
                          flush=True)
            finally:
                tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
