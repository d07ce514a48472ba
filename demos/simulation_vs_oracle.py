"""Monte-Carlo check of the estimators against exact model curves.

A large cohort is drawn from constant cause-specific hazards, where
every transition probability has an exact answer.
The nonparametric estimators should approach those answers at the
sqrt(n) rate; at n = 50 000 the sup-distance is a fraction of a percent.
"""

import numpy as np

from pafmsm import (
    HazardSpec,
    analytic_curves,
    estimate_paf,
    simulate_cohort,
)
from pafmsm.continuous import cif_counterfactual, cpf_unexposed, overall_death_risk

spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100.0)
n = 50_000

cohort = simulate_cohort(spec, n, seed=2024)
oracle = analytic_curves(spec, np.arange(0.0, 101.0))
grid = np.arange(1.0, 101.0)

curves = {
    "P(D)": (overall_death_risk(cohort), oracle.overall_death),
    "CPF": (cpf_unexposed(cohort), oracle.cpf),
    "P030": (cif_counterfactual(cohort), oracle.p030),
    "PAF_o": (estimate_paf(cohort, "paf_o"), oracle.paf_o),
    "PAF_c": (estimate_paf(cohort, "paf_c"), oracle.paf_c),
}

print(f"n = {n}, constant hazards, grid = days 1..100")
print(f"{'curve':8s}  {'estimate(100)':>13s}  {'truth(100)':>10s}  {'sup distance':>12s}")
for name, (estimated, truth) in curves.items():
    sup = np.nanmax(np.abs(estimated(grid) - truth(grid)))
    print(f"{name:8s}  {estimated(100.0):13.4f}  {truth(100.0):10.4f}  {sup:12.5f}")

print()
print("with constant hazards the two estimands coincide once everyone")
print("has left the hospital:")
po, pc = oracle.paf_o(100.0), oracle.paf_c(100.0)
print(f"  analytic PAF_o(100) = {po:.6f},  analytic PAF_c(100) = {pc:.6f}")
