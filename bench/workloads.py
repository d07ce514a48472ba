"""The three workloads: how each makes its inputs, what one pass runs and
how its outputs are checked.

An operation is one ``pafmsm.cli.run(argv)`` call or one library call.
Every call goes through a module attribute at call time, so the span
recorder and the result capture in ``spans.Hooks`` see it.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import checks
import reference

# Constant-hazard registry model: 01, 02, 03, 14, 15.
REGISTRY_RATES = (0.05, 0.05, 0.02, 0.05, 0.03)
REGISTRY_CENSOR_RATE = 0.01


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str

    @property
    def failed(self):
        return self.code != 0


def _cli(pkg, argv):
    def op():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.run(argv)
        return CliResult(code, out.getvalue(), err.getvalue())
    return op


def _seeds(seed, k):
    """k reproducible 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def layer_targets(pkg):
    """Span name -> (owner, attribute) of every traced public function."""
    c = pkg  # short, to keep the table on one line per layer
    return {
        "cli": (c.cli, "run"),
        "cohort.parse_cohort": (c.cohort, "parse_cohort"),
        "cohort.to_transitions": (c.cohort, "to_transitions"),
        "cohort.discretize": (c.cohort, "discretize"),
        "continuous.aalen_johansen_extended": (c.continuous, "aalen_johansen_extended"),
        "continuous.overall_death_risk": (c.continuous, "overall_death_risk"),
        "continuous.cpf_unexposed": (c.continuous, "cpf_unexposed"),
        "continuous.cif_counterfactual": (c.continuous, "cif_counterfactual"),
        "continuous.ht_cif": (c.continuous, "ht_cif"),
        "paf.estimate_paf": (c.paf, "estimate_paf"),
        "paf.bootstrap_ci": (c.paf, "bootstrap_ci"),
        "discrete.nonparametric_daily_hazard": (c.discrete, "nonparametric_daily_hazard"),
        "discrete.compute_weights": (c.discrete, "compute_weights"),
        "discrete.ipw_f01": (c.discrete, "ipw_f01"),
        "discrete.naive_f01": (c.discrete, "naive_f01"),
        "cox.fit_cox_td": (c.cox, "fit_cox_td"),
        "cox.markov_test": (c.cox, "markov_test"),
        "simulate.analytic_curves": (c.simulate, "analytic_curves"),
        "simulate.simulate_cohort": (c.simulate, "simulate_cohort"),
        "curves.to_csv": (c.curves.StepCurve, "to_csv"),
    }


def span_name(target):
    """Span name for a target; cli spans are named after the subcommand,
    as in cli.estimate and cli.cox."""
    if target == "cli":
        return lambda args: f"cli.{args[0][0]}"
    return target


def _one(name):
    return lambda args, kwargs, result: {name: 1}


COUNTERS = {
    "cohort.discretize": lambda a, k, r: {"discrete.panel_cells": r.a.size},
    "continuous.aalen_johansen_extended": lambda a, k, r: {"continuous.event_times": r.p00.times.size},
    "continuous.overall_death_risk": _one("continuous.calls"),
    "continuous.cpf_unexposed": _one("continuous.calls"),
    "continuous.cif_counterfactual": _one("continuous.calls"),
    "continuous.ht_cif": _one("continuous.calls"),
    "paf.bootstrap_ci": lambda a, k, r: {"paf.bootstrap_replicates": r.B},
    "cox.fit_cox_td": lambda a, k, r: {"cox.iterations": r.iterations},
    "cox.markov_test": lambda a, k, r: {"cox.iterations": r.iterations},
}


class Workload:
    """Inputs are made by ``setup``; ``operations`` lists one pass; ``check``
    verifies a pass's results.  ``capture`` names the layer functions whose
    return values the checks need, beyond the operations' own results."""

    capture = ()

    def __init__(self, pkg, workdir):
        self.pkg = pkg
        self.workdir = workdir

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)


class Registry(Workload):
    """The analyst's path: CLI estimate, cox and a library AJ call on one
    large continuous-time cohort file."""

    name = "registry_1e5"
    capture = ("continuous.overall_death_risk", "continuous.cpf_unexposed",
               "continuous.cif_counterfactual", "cox.fit_cox_td", "cox.markov_test")

    def setup(self, seed, tiny=False):
        pkg = self.pkg
        n = 300 if tiny else 100_000
        spec = pkg.simulate.HazardSpec.constant(
            *REGISTRY_RATES, tau=100.0, censor_rate=REGISTRY_CENSOR_RATE)
        cohort = pkg.simulate.simulate_cohort(spec, n, seed)
        tag = "tiny" if tiny else "full"
        path = self.path(f"registry_{tag}.csv")
        _write(path, pkg.cohort.cohort_to_csv(cohort))
        return {"path": path, "out": self.path(f"out_{tag}"),
                "records": pkg.cohort.to_transitions(cohort)}

    def operations(self, inputs):
        pkg, path, out = self.pkg, inputs["path"], inputs["out"]
        estimate = ["estimate", "--input", path, "--grid", "jumps", "--out", out]
        return [
            ("estimate paf_o", _cli(pkg, estimate + ["--estimand", "paf_o"])),
            ("estimate paf_c", _cli(pkg, estimate + ["--estimand", "paf_c"])),
            ("cox death", _cli(pkg, ["cox", "--input", path, "--outcome", "death", "--out", out])),
            ("cox markov", _cli(pkg, ["cox", "--input", path, "--markov-test", "--out", out])),
            ("aalen_johansen_extended",
             lambda: pkg.continuous.aalen_johansen_extended(inputs["records"])),
        ]

    def check(self, inputs, results, captured):
        held = []
        inf, end, status = checks.read_cohort_csv(inputs["path"])
        days = np.arange(1.0, 101.0)
        truth = reference.constant_hazard_curves(*REGISTRY_RATES, days)
        # sampling tolerances at n = 1e5 with ~12% censoring: the largest
        # gaps seen over 12 seeds were 0.0084 (probabilities) and 0.024 (PAF)
        prob_tol, paf_tol = 0.025, 0.06
        for estimand in ("paf_o", "paf_c"):
            _, table = checks.read_table_csv(
                os.path.join(inputs["out"], f"{estimand}_multistate.csv"))
            t, v = checks.snap_times(table[:, 0], inf, end), table[:, 1]
            held.append(checks.paf_matches_reference(
                f"estimate {estimand} CSV", estimand, t, v, inf, end, status, 1e-9))
            held.append(checks.close(f"estimate {estimand} vs model truth on days 1..100",
                                     reference.step_at(t, v, days, np.nan), truth[estimand], paf_tol))
        blocks = (
            ("continuous.overall_death_risk", "estimate paf_o", reference.death_risk, "overall_death"),
            ("continuous.cpf_unexposed", "estimate paf_o", reference.still_unexposed_risk, "cpf"),
            ("continuous.cif_counterfactual", "estimate paf_c", reference.counterfactual_risk, "p030"),
        )
        for span, op, ref, key in blocks:
            curve = captured[(op, span)][0]
            held.append(checks.close(f"{span} == reference", curve(days),
                                     ref(inf, end, status, days), 1e-12))
            held.append(checks.close(f"{span} vs model truth", curve(days), truth[key], prob_tol))
        occ = results["aalen_johansen_extended"]
        table = np.column_stack([c.values for c in occ.as_tuple()])
        held.append(checks.occupation_sums_to_one(table))
        for k, c in enumerate(occ.as_tuple()):
            held.append(checks.close(f"aalen_johansen p0{k} vs model truth", c(days),
                                     truth[f"p0{k}"], prob_tol))
        held.extend(self._check_cox(inputs, captured, inf, end, status))
        return held

    def _check_cox(self, inputs, captured, inf, end, status):
        exposed = ~np.isnan(inf)
        e = np.nonzero(exposed)[0]
        # rows: (0, exit from state 0] for everyone, then (inf, end] if exposed
        start = np.concatenate([np.zeros(end.size), inf[e]])
        stop = np.concatenate([np.where(exposed, inf, end), end[e]])
        after = np.concatenate([np.zeros(end.size), np.ones(e.size)])
        death = status == reference.DEATH
        event = np.concatenate([death & ~exposed, death[e]])
        held = []
        fit = captured[("cox death", "cox.fit_cox_td")][0]
        held.append(checks.cox_at_root("cox death", start, stop, event, after,
                                       fit.coefficients, fit.standard_errors))
        markov = captured[("cox markov", "cox.markov_test")][0]
        held.append(checks.cox_at_root("cox markov test", inf[e], end[e], death[e], inf[e],
                                       markov.coefficients, markov.standard_errors))
        for op, reported, name in (("cox death", fit, "cox_death.csv"),
                                   ("cox markov", markov, "markov_death.csv")):
            with open(os.path.join(inputs["out"], name), encoding="utf-8") as fh:
                if fh.read() != reported.summary_csv():
                    raise checks.CheckFailed(f"{op}: CLI output differs from the fit it reports")
        held.append("cox CSV outputs report the checked fits")
        return held


def _icu_spec_table(text):
    """Common segment ends and the five rate arrays of a spec JSON file."""
    obj = json.loads(text)
    names = ("alpha01", "alpha02", "alpha03", "alpha14", "alpha15")
    until = np.array([p["until"] for p in obj[names[0]]], dtype=float)
    table = {"until": until}
    for name in names:
        if not np.array_equal([p["until"] for p in obj[name]], until):
            raise ValueError("the oracle check needs hazards on common segments")
        table[name] = np.array([p["rate"] for p in obj[name]], dtype=float)
    return table


def _subject_arrays(cohort, keep_censored=True):
    codes = {"censored": reference.CENSORED, "death": reference.DEATH,
             "discharge": reference.DISCHARGE}
    subjects = [s for s in cohort.subjects if keep_censored or s.end_status != "censored"]
    inf = np.array([np.nan if s.inf_time is None else s.inf_time for s in subjects])
    end = np.array([s.end_time for s in subjects])
    status = np.array([codes[s.end_status] for s in subjects])
    return inf, end, status


class SimStudy(Workload):
    """The methodologist's path: the oracle, then many small estimator and
    bootstrap calls on freshly simulated n = 1e3 cohorts."""

    name = "simstudy_1e3"
    cohorts = 3
    c_grid = np.array([7.0, 14.0, 28.0])

    def setup(self, seed, tiny=False):
        pkg = self.pkg
        tag = "tiny" if tiny else "full"
        if tiny:  # a short constant-hazard spec keeps the warm-up quadrature cheap
            spec = pkg.simulate.HazardSpec.constant(*REGISTRY_RATES, tau=10.0)
        else:
            spec = pkg.simulate.icu_like_spec()
        spec_path = self.path(f"spec_{tag}.json")
        _write(spec_path, spec.to_json())
        seeds = _seeds(seed, 2 * self.cohorts + 2)
        return {
            "spec_path": spec_path, "out": self.path(f"oracle_{tag}"),
            "spec": pkg.simulate.icu_like_spec(),
            "integer_spec": pkg.simulate.icu_like_spec(round_days=True),
            "n": 100 if tiny else 1000, "B": 5 if tiny else 500, "B_ipw": 5 if tiny else 200,
            "cohort_seeds": seeds[:self.cohorts], "boot_seeds": seeds[self.cohorts:2 * self.cohorts],
            "integer_seed": seeds[-2], "ipw_boot_seed": seeds[-1],
        }

    def operations(self, inputs):
        pkg, ops = self.pkg, []
        ops.append(("oracle", _cli(pkg, ["oracle", "--spec", inputs["spec_path"],
                                         "--out", inputs["out"]])))
        cohorts = {}
        for k, (cs, bs) in enumerate(zip(inputs["cohort_seeds"], inputs["boot_seeds"])):
            def draw(k=k, cs=cs):
                cohorts[k] = pkg.simulate.simulate_cohort(inputs["spec"], inputs["n"], cs)
                return cohorts[k]
            ops.append((f"simulate {k}", draw))
            for estimand in ("paf_o", "paf_c"):
                ops.append((f"estimate {estimand} {k}",
                            lambda k=k, e=estimand: pkg.paf.estimate_paf(cohorts[k], e)))
            ops.append((f"bootstrap paf_c {k}", lambda k=k, bs=bs: pkg.paf.bootstrap_ci(
                cohorts[k], "paf_c", B=inputs["B"], seed=bs, grid=self.c_grid)))
            ops.append((f"bootstrap paf_o {k}", lambda k=k, bs=bs: pkg.paf.bootstrap_ci(
                cohorts[k], "paf_o", B=inputs["B"], seed=bs)))

        def draw_integer():
            cohorts["integer"] = pkg.simulate.simulate_cohort(
                inputs["integer_spec"], inputs["n"], inputs["integer_seed"])
            return cohorts["integer"]
        ops.append(("simulate integer", draw_integer))
        # administratively censored rows are dropped by the discrete estimators
        ops.append(("bootstrap ipw paf_c", lambda: pkg.paf.bootstrap_ci(
            cohorts["integer"], "paf_c", "ipw", B=inputs["B_ipw"], seed=inputs["ipw_boot_seed"],
            allow_drop=True)))
        return ops

    def check(self, inputs, results, captured):
        pkg, held = self.pkg, []
        with open(inputs["spec_path"], encoding="utf-8") as fh:
            spec_table = _icu_spec_table(fh.read())
        header, table = checks.read_table_csv(os.path.join(inputs["out"], "oracle.csv"))
        held.append(checks.oracle_matches_exact(header, table, spec_table))
        for k in range(self.cohorts):
            cohort = results[f"simulate {k}"]
            inf, end, status = _subject_arrays(cohort)
            days = np.arange(1.0, math.ceil(cohort.horizon) + 1.0)
            for estimand in ("paf_o", "paf_c"):
                curve = results[f"estimate {estimand} {k}"]
                grid = np.union1d(curve.times, days)
                held.append(checks.paf_matches_reference(
                    f"estimate_paf {estimand} cohort {k}", estimand, grid, curve(grid),
                    inf, end, status, 1e-12))
            for estimand, grid in (("paf_c", self.c_grid), ("paf_o", days)):
                bands = results[f"bootstrap {estimand} {k}"]
                held.append(checks.band_matches_reference(
                    f"bootstrap {estimand} cohort {k}", estimand, bands.lower.values,
                    bands.upper.values, inf, end, status, grid, inputs["B"],
                    inputs["boot_seeds"][k], 1e-10))
        cohort = results["simulate integer"]
        inf, end, status = _subject_arrays(cohort, keep_censored=False)
        bands = results["bootstrap ipw paf_c"]
        days = np.arange(1.0, math.ceil(cohort.horizon) + 1.0)
        # on uncensored whole-day data the IPW estimator equals the
        # censor-at-exposure Aalen-Johansen estimator
        held.append(checks.band_matches_reference(
            "bootstrap ipw paf_c", "paf_c", bands.lower.values, bands.upper.values,
            inf, end, status, days, inputs["B_ipw"], inputs["ipw_boot_seed"], 1e-9))
        again = pkg.simulate.simulate_cohort(inputs["spec"], inputs["n"], inputs["cohort_seeds"][0])
        if pkg.cohort.cohort_to_csv(again) != pkg.cohort.cohort_to_csv(results["simulate 0"]):
            raise checks.CheckFailed("simulate_cohort is not deterministic for a fixed seed")
        repeat = pkg.paf.bootstrap_ci(results["simulate 0"], "paf_c", B=inputs["B"],
                                      seed=inputs["boot_seeds"][0], grid=self.c_grid)
        if repeat.to_csv() != results["bootstrap paf_c 0"].to_csv():
            raise checks.CheckFailed("bootstrap_ci is not deterministic for a fixed seed")
        held.append("simulate_cohort and bootstrap_ci repeat byte for byte with the same seed")
        return held


class Panel(Workload):
    """The person-day side at scale: IPW, naive and the equivalence check
    on a large whole-day cohort.

    ``estimate --covariates x`` is left out: the pooled-logistic fit stalls
    on some seeds (see bench/README.md), and a workload must not fail on
    some seeds only.  The covariate column stays in the file, so parsing
    still converts one covariate per row.
    """

    name = "panel_1e5"
    capture = ("continuous.cpf_unexposed", "continuous.cif_counterfactual",
               "continuous.ht_cif", "discrete.naive_f01", "discrete.ipw_f01")

    def setup(self, seed, tiny=False):
        pkg = self.pkg
        n = 300 if tiny else 100_000
        drawn = pkg.simulate.simulate_cohort(pkg.simulate.icu_like_spec(round_days=True), n, seed)
        rng = np.random.default_rng(_seeds(seed, 1)[0])
        # administratively censored rows go: the discrete estimators and
        # check need complete follow-up
        kept = [pkg.cohort.Subject(s.id, s.inf_time, s.end_time, s.end_status,
                                   {"x": float(rng.integers(0, 2))})
                for s in drawn.subjects if s.end_status != "censored"]
        tag = "tiny" if tiny else "full"
        path = self.path(f"panel_{tag}.csv")
        _write(path, pkg.cohort.cohort_to_csv(pkg.cohort.Cohort(tuple(kept))))
        return {"path": path, "out": self.path(f"out_{tag}")}

    def operations(self, inputs):
        pkg, path, out = self.pkg, inputs["path"], inputs["out"]
        estimate = ["estimate", "--input", path, "--out", out]
        return [
            ("estimate ipw", _cli(pkg, estimate + ["--estimand", "paf_c", "--estimator", "ipw"])),
            ("estimate naive", _cli(pkg, estimate + ["--estimand", "paf_o", "--estimator", "naive"])),
            ("check", _cli(pkg, ["check", "--input", path])),
        ]

    def check(self, inputs, results, captured):
        held = []
        inf, end, status = checks.read_cohort_csv(inputs["path"])
        days = np.arange(1.0, math.ceil(end.max()) + 1.0)
        report = results["check"]
        if report.code != 0 or report.stdout.count("PASS") != 3:
            raise checks.CheckFailed(f"paf-msm check failed:\n{report.stdout}{report.stderr}")
        held.append("paf-msm check exits 0 with three PASS lines")
        pairs = (("discrete.naive_f01", "continuous.cpf_unexposed", reference.still_unexposed_risk),
                 ("discrete.ipw_f01", "continuous.cif_counterfactual", reference.counterfactual_risk))
        for discrete, continuous, ref in pairs:
            d = captured[("check", discrete)][0](days)
            c = captured[("check", continuous)][0](days)
            held.append(checks.close(f"{discrete} == {continuous}", d, c, 1e-12))
            held.append(checks.close(f"{continuous} == reference", c, ref(inf, end, status, days), 1e-12))
        ht = captured[("check", "continuous.ht_cif")][0](days)
        held.append(checks.close("continuous.ht_cif == reference counterfactual", ht,
                                 reference.counterfactual_risk(inf, end, status, days), 1e-12))
        # on uncensored whole-day data the IPW estimator equals the
        # censor-at-exposure Aalen-Johansen estimator, and naive the CPF
        for estimand, name in (("paf_c", "paf_c_ipw.csv"), ("paf_o", "paf_o_naive.csv")):
            _, table = checks.read_table_csv(os.path.join(inputs["out"], name))
            held.append(checks.paf_matches_reference(f"estimate {name}", estimand, table[:, 0],
                                                     table[:, 1], inf, end, status, 1e-9))
        return held


WORKLOADS = {w.name: w for w in (Registry, SimStudy, Panel)}
