"""Memory of each stage of the registry operations, under ``tracemalloc``.

    python tools/peaks.py --n 100000 --seed 1

Simulates the constant-hazard registry cohort of the bench's
``registry_1e5`` workload (rates 0.05, 0.05, 0.02, 0.05, 0.03, tau 100,
censoring 0.01) at ``--n`` subjects, writes it to a CSV file in a
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

For each it prints the ``tracemalloc`` peak above what was allocated when
the stage started (its input), in MB and in bytes per subject, and the MB
that its result retains.  Standard library and the package only; it
imports the package from this checkout's ``src/`` and lives outside
``testpaths``, so pytest never collects it.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pafmsm import cli, continuous, cox, paf  # noqa: E402
from pafmsm.cohort import cohort_to_csv, parse_cohort  # noqa: E402
from pafmsm.simulate import HazardSpec, simulate_cohort  # noqa: E402

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


def stages(path: Path, out: Path):
    """Each stage's name and its (result, peak, retained), in order."""
    held = {}

    def stage(name, fn):
        held[name], peak, kept = traced(fn)
        return name, peak, kept

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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=100_000, help="subjects (default 1e5)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = HazardSpec.constant(*RATES, tau=100.0, censor_rate=CENSOR_RATE)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "registry.csv"
        path.write_text(cohort_to_csv(simulate_cohort(spec, args.n, args.seed)), encoding="utf-8")
        print(f"registry n={args.n} seed={args.seed}: {path.stat().st_size / 1e6:.2f} MB of CSV")
        print(f"{'stage':14s}{'peak MB':>10s}{'B/subject':>11s}{'retained MB':>13s}")
        tracemalloc.start()
        try:
            for name, peak, kept in stages(path, Path(tmp) / "out"):
                print(f"{name:14s}{peak / 1e6:10.2f}{peak / args.n:11.1f}{kept / 1e6:13.2f}",
                      flush=True)
        finally:
            tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
