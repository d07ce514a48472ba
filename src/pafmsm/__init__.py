"""Time-dependent population-attributable fractions for hospital cohorts.

Estimates how much of the death risk by time t is attributable to a
time-dependent binary exposure (e.g. a hospital-acquired infection) in an
extended illness-death model with discharge as a competing event.  Two
estimands are supported: the observable PAF against the still-unexposed
(paf_o) and the counterfactual PAF against the no-exposure world (paf_c),
each with a continuous-time multistate estimator and a discrete-time
person-day estimator.

The public names are those each module lists in its ``__all__``.
"""

from . import cohort, continuous, cox, curves, discrete, errors, paf, simulate
from .cohort import *
from .continuous import *
from .cox import *
from .curves import *
from .discrete import *
from .errors import *
from .paf import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [name for module in (cohort, continuous, cox, curves, discrete, errors, paf, simulate)
           for name in module.__all__]
