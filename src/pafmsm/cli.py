"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All randomness is seeded explicitly; identical invocations on identical
input bytes produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np

from ._bytes import _csv_chunks
from .cohort import (
    _MAX_GRID_POINTS,
    Cohort,
    TiePolicy,
    _cohort_csv_chunks,
    _horizon_days,
    discretize,
    parse_cohort,
    summarize,
)
from .continuous import cif_counterfactual, cpf_unexposed, ht_cif
from .cox import fit_cox_td, markov_test
from .curves import StepCurve
from .discrete import empirical_weights, ipw_f01, naive_f01
from .errors import DataError, NumericalError
from .paf import ESTIMAND_ESTIMATORS, bootstrap_ci, estimate_paf
from .simulate import HazardSpec, analytic_curves, simulate_cohort

__all__ = ["main", "run"]

_EXIT_OK, _EXIT_USAGE, _EXIT_DATA, _EXIT_NUMERICAL = 0, 1, 2, 3

# The most an option may ask for (_MAX_GRID_POINTS also bounds the days of a
# day grid).  Memory grows with each: about 2 kB per oracle grid point,
# 0.4 kB per simulated subject, and 8 bytes per replicate and grid point of
# the bootstrap bands' (B x grid) matrix, which may hold at most 3 GB.
_MAX_SUBJECTS = 10**7
_MAX_REPLICATES = 10**6
_MAX_BAND_CELLS = 3 * 10**9 // 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="paf-msm", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_, cohort=True):
        p = sub.add_parser(name, help=help_)
        if cohort:
            p.add_argument("--input", required=True, help="cohort CSV path")
            p.add_argument("--tie-policy", default="shift:0.001", help="reject or shift:<eps>")
        return p

    add("validate", "check a cohort file and report invariants")
    add("summary", "tabulate exposure and outcome counts")

    p = add("estimate", "estimate a PAF curve")
    p.add_argument("--estimand", required=True, choices=sorted(ESTIMAND_ESTIMATORS))
    p.add_argument("--estimator", default="multistate", choices=["multistate", "naive", "ipw"])
    p.add_argument("--grid", default="jumps", choices=["days", "jumps"])
    p.add_argument("--at", type=float, default=None, help="print the value at one time only")
    p.add_argument("--covariates", default="", help="comma-separated exposure-model covariates")
    p.add_argument("--allow-drop-censored", action="store_true")
    p.add_argument("--out", default=None, help="output directory (default stdout)")

    p = add("bootstrap", "PAF curve with percentile confidence bands")
    p.add_argument("--estimand", required=True, choices=sorted(ESTIMAND_ESTIMATORS))
    p.add_argument("--estimator", default="multistate", choices=["multistate", "naive", "ipw"])
    p.add_argument("--grid", default="days", choices=["days", "jumps"])
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--covariates", default="")
    p.add_argument("--allow-drop-censored", action="store_true")
    p.add_argument("--out", default=None)

    p = add("cox", "hazard ratios for the time-dependent exposure")
    p.add_argument("--outcome", default="death", choices=["death", "discharge"])
    p.add_argument("--covariates", default="")
    p.add_argument("--markov-test", action="store_true", help="test inf_time as a post-exposure covariate")
    p.add_argument("--out", default=None)

    p = add("simulate", "draw a cohort from a hazard specification", cohort=False)
    p.add_argument("--spec", required=True, help="HazardSpec JSON path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    p = add("oracle", "exact analytic model curves", cohort=False)
    p.add_argument("--spec", required=True, help="HazardSpec JSON path")
    p.add_argument("--step", type=float, default=1.0, help="grid step in days")
    p.add_argument("--out", default=None)

    add("check", "run the exact-equivalence suite on a cohort")
    return parser


def _load_cohort(args) -> Cohort:
    try:
        policy = TiePolicy.parse(args.tie_policy)
    except ValueError as exc:
        raise _UsageError(f"--tie-policy {args.tie_policy!r}: {exc}") from None
    return _read_input(args.input, "input", lambda path: parse_cohort(path, tie_policy=policy))


def _read_input(path, what, read):
    """``read(path)``, with a file that cannot be read as text as a data error
    (``parse_cohort`` reports a file that is not UTF-8 itself)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        return read(path)
    except OSError as exc:  # a directory, say
        raise DataError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {path} is not UTF-8 text: {exc}") from None


def _check_out(out):
    """Before any work: a usage error if ``--out`` names a file or a path
    under one, with the message ``mkdir`` would give.  Creates nothing."""
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        code = errno.EEXIST if existing == path else errno.ENOTDIR
        raise _UsageError(f"--out {out}: {os.strerror(code)}")


def _emit(chunks, out, filename: str):
    """Write the text ``chunks`` to standard output, or to ``filename`` in
    the directory ``out``, a chunk at a time: a table is never held whole."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    directory = Path(out)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / filename, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:  # an existing file, say
        raise _UsageError(f"--out {out}: {exc.strerror}") from None


def _covariate_list(args):
    names = tuple(c for c in args.covariates.split(",") if c) if getattr(args, "covariates", "") else ()
    for k, name in enumerate(names):
        if name in names[:k]:
            raise _UsageError(f"--covariates: {name!r} is repeated")
    return names


def _cmd_validate(args) -> int:
    cohort = _load_cohort(args)
    for diag in cohort.diagnostics:
        print(f"adjusted {diag.subject_id}: {diag.message}")
    print(f"ok: n={len(cohort)} exposed={cohort.exposed.sum()} horizon={cohort.horizon:g}")
    return _EXIT_OK


def _cmd_summary(args) -> int:
    s = summarize(_load_cohort(args))
    print("field,value")
    for f in fields(s):
        value = getattr(s, f.name)  # the counts as integers, person_days to 0.01 day
        text = format(round(value, 2), ".12g") if isinstance(value, float) else str(value)
        print(f"{f.name},{text}")
    return _EXIT_OK


def _check_pair(args):
    if args.estimator not in ESTIMAND_ESTIMATORS[args.estimand]:
        raise _UsageError(
            f"--estimator {args.estimator} does not estimate {args.estimand}; "
            f"valid: {', '.join(ESTIMAND_ESTIMATORS[args.estimand])}"
        )
    if _covariate_list(args) and args.estimator != "ipw":
        raise _UsageError(f"--covariates: --estimator {args.estimator} uses no covariates; "
                          "only ipw does")


def _check_size(option, size, bound, unit):
    """A usage error naming ``option`` if its ``size`` (computed from the
    arguments, before anything is allocated) is over ``bound``."""
    if not size <= bound:
        raise _UsageError(f"{option} asks for {size:.4g} {unit}; at most {bound} are allowed")


def _check_seed(args):
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")


def _on_grid(curve: StepCurve, kind: str, horizon: float) -> StepCurve:
    if kind == "jumps":
        return curve
    days = np.arange(1.0, _horizon_days(horizon) + 1.0)
    return StepCurve(days, np.atleast_1d(curve(days)), initial=curve.initial,
                     undefined_from=curve.undefined_from)


def _cmd_estimate(args) -> int:
    _check_pair(args)
    if args.at is not None and not math.isfinite(args.at):
        raise _UsageError("--at must be a finite number")
    cohort = _load_cohort(args)
    paf = estimate_paf(
        cohort, args.estimand, args.estimator,
        covariates=_covariate_list(args), allow_drop=args.allow_drop_censored,
    )
    if args.at is not None:
        value = paf(args.at)
        print("nan" if np.isnan(value) else format(value, ".6g"))
        return _EXIT_OK
    curve = _on_grid(paf, args.grid, cohort.horizon)
    _emit(curve._csv_chunks(), args.out, f"{args.estimand}_{args.estimator}.csv")
    return _EXIT_OK


def _cmd_bootstrap(args) -> int:
    _check_pair(args)
    _check_seed(args)
    if args.B < 2:
        raise _UsageError("--B must be >= 2")
    _check_size("--B", args.B, _MAX_REPLICATES, "replicates")
    cohort = _load_cohort(args)
    # the panel estimators' curves step on exactly the days
    if args.grid == "jumps" and args.estimator == "multistate":
        grid = estimate_paf(cohort, args.estimand, args.estimator).times
    else:
        grid = np.arange(1.0, _horizon_days(cohort.horizon) + 1.0)
    _check_size("--B", args.B * len(grid), _MAX_BAND_CELLS, "band cells (replicates x grid points)")
    bands = bootstrap_ci(
        cohort, args.estimand, args.estimator, B=args.B, seed=args.seed,
        grid=grid, covariates=_covariate_list(args), allow_drop=args.allow_drop_censored,
    )
    _emit(bands._csv_chunks(), args.out, f"{args.estimand}_{args.estimator}_bands.csv")
    if args.out is not None:
        manifest = dict(subcommand="bootstrap", input=args.input, tie_policy=args.tie_policy,
                        estimand=args.estimand, estimator=args.estimator, B=args.B,
                        seed=args.seed, covariates=list(_covariate_list(args)),
                        failed_replicates=bands.failed)
        _emit([json.dumps(manifest, indent=2) + "\n"], args.out, "manifest.json")
    return _EXIT_OK


def _cmd_cox(args) -> int:
    covariates = _covariate_list(args)
    if args.markov_test and covariates:
        raise _UsageError("--covariates: --markov-test uses no covariates")
    cohort = _load_cohort(args)
    if args.markov_test:
        fit = markov_test(cohort, f"{args.outcome}_after")
        name = f"markov_{args.outcome}.csv"
    else:
        fit = fit_cox_td(cohort, args.outcome, extra_covariates=covariates)
        name = f"cox_{args.outcome}.csv"
    _emit([fit.summary_csv()], args.out, name)
    return _EXIT_OK


def _read_spec(path) -> HazardSpec:
    return HazardSpec.from_json(_read_input(path, "spec", lambda p: p.read_text(encoding="utf-8")))


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    _check_size("--n", args.n, _MAX_SUBJECTS, "subjects")
    _check_seed(args)
    spec = _read_spec(args.spec)
    cohort = simulate_cohort(spec, args.n, args.seed)
    _emit(_cohort_csv_chunks(cohort), args.out, "cohort.csv")
    return _EXIT_OK


def _cmd_oracle(args) -> int:
    spec = _read_spec(args.spec)
    if not (math.isfinite(args.step) and args.step > 0):
        raise _UsageError("--step must be a finite number > 0")
    _check_size("--step", (spec.tau + args.step / 2) / args.step, _MAX_GRID_POINTS, "grid points")
    grid = np.arange(0.0, spec.tau + args.step / 2, args.step)
    oc = analytic_curves(spec, grid)
    curves = oc.as_dict()
    _emit(_csv_chunks(["t", *curves], [oc.grid, *(c.values for c in curves.values())]),
          args.out, "oracle.csv")
    return _EXIT_OK


def _cmd_check(args) -> int:
    cohort = _load_cohort(args)
    times = np.column_stack([cohort.inf, cohort.end])
    fractional = (times != np.trunc(times)) & ~np.isnan(times)
    if fractional.any():  # the first subject, inf_time before end_time
        i, j = np.unravel_index(np.argmax(fractional), times.shape)
        raise DataError(
            f"subject {cohort.ids[i]}: {('inf_time', 'end_time')[j]} {times[i, j]:g} "
            "is not an integer day; the exact equivalences hold on integer-time cohorts"
        )
    del times, fractional
    panel = discretize(cohort)  # rejects censored cohorts
    days = np.arange(1.0, panel.n_days + 1.0)

    def compare(a, b, days=days):
        av, bv = np.atleast_1d(a(days)), np.atleast_1d(b(days))
        if not np.array_equal(np.isnan(av), np.isnan(bv)):
            return math.inf
        mask = ~np.isnan(av)
        return float(np.max(np.abs(av[mask] - bv[mask]))) if mask.any() else 0.0

    weights = empirical_weights(panel)
    counterfactual = cif_counterfactual(cohort)
    # from truncated_from, the first day with empirical exposure hazard 1, no
    # subject is left on the unexposed path and the ipw identity does not apply
    cut = counterfactual.truncated_from
    ipw_days, ipw_note = (days, "") if cut is None else (
        days[days < cut], f" (not applicable from day {cut:g}: no subject left unexposed)")
    checks = [
        ("naive == cpf_unexposed", compare(naive_f01(panel), cpf_unexposed(cohort)), ""),
        ("ipw == counterfactual_cif", compare(ipw_f01(panel, weights), counterfactual, ipw_days),
         ipw_note),
        ("horvitz_thompson == counterfactual_cif", compare(ht_cif(cohort), counterfactual), ""),
    ]
    failed = False
    for label, dev, note in checks:
        ok = dev < 1e-12
        failed = failed or not ok
        print(f"{label}: max deviation {dev:.3e} {'PASS' if ok else 'FAIL'}{note}")
    if failed:
        print("check failed: an exact equivalence exceeded 1e-12")
        return _EXIT_NUMERICAL
    print("all equivalences hold")
    return _EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "summary": _cmd_summary,
    "estimate": _cmd_estimate,
    "bootstrap": _cmd_bootstrap,
    "cox": _cmd_cox,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))
