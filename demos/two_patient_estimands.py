"""The two-patient cohort that pulls the two estimands apart.

Patient A is never exposed and dies on day 1.  Patient B is exposed on
day 1 and dies on day 2.  Both deaths are observed, there is no
censoring and no confounding, yet the two attributable fractions
disagree at day 2:

* PAF_o conditions on being unexposed at t.  By day 2 the only patient
  still classifiable as unexposed died, so the death risk "without
  exposure" looks just as bad as the overall risk and PAF_o = 0.
* PAF_c asks what would have happened had exposure been impossible.
  Censoring B at the exposure time leaves an estimated no-exposure death
  risk of 1/2, so PAF_c = (1 - 1/2) / 1 = 1/2.

The gap is a property of the estimands, not an estimation artifact.
"""

import numpy as np

from pafmsm import Cohort, Subject, estimate_paf
from pafmsm.continuous import cif_counterfactual, cpf_unexposed, overall_death_risk

cohort = Cohort(
    (
        Subject("A", None, 1.0, "death"),
        Subject("B", 1.0, 2.0, "death"),
    ),
    horizon=2,
)

death = overall_death_risk(cohort)
cpf = cpf_unexposed(cohort)
counterfactual = cif_counterfactual(cohort)

print("building blocks at t = 2")
print(f"  overall death risk      P(D(2)=1)        = {death(2.0):.3f}")
print(f"  still-unexposed risk    P(D|E(2)=0)      = {cpf(2.0):.3f}")
print(f"  counterfactual risk     P(D_0(2)=1)      = {counterfactual(2.0):.3f}")
print()

paf_o = estimate_paf(cohort, "paf_o")
paf_c = estimate_paf(cohort, "paf_c")
for t in (1.0, 2.0):
    print(f"t = {t:.0f}:  PAF_o = {paf_o(t):.3f}   PAF_c = {paf_c(t):.3f}")

assert paf_o(2.0) == 0.0
assert paf_c(2.0) == 0.5
print()
print("PAF_o conditions on surviving unexposed; PAF_c removes the exposure.")
