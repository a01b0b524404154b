"""Exact local solubility and density computations for diagonal forms.

The package decides whether sum a_i x_i^k = 0 has nontrivial zeros over
Q_p and R, computes the exact rational density of soluble coefficient
vectors at each place, and certifies enclosures for the product of those
densities over all places.  Everything numeric is exact rational
arithmetic; floating point appears only in rendered output.
"""

from .density import Density, generic_sum, rho_infinity, rho_p, rho_p_exact
from .errors import (CacheCorrupt, ClassificationMismatch, DegenerateInput,
                     DivergentTail, LocsolError, OracleOverflow,
                     PreconditionViolated, ResourceBound, UnsupportedPair)
from .padic import CoefficientVector, classify_type, signature, valuation
from .product import (CertifiedInterval, TailBound, decimalize,
                      rho_loc_interval, tail_hypothesis)
from .solubility import (EverywhereLocalReport, SolubilityVerdict,
                         decide_everywhere_local, decide_qp, decide_real,
                         relevant_primes)
from .survey import SurveyReport, convergence_sweep, survey_box

__version__ = "0.1.0"

__all__ = [
    "CacheCorrupt", "CertifiedInterval", "ClassificationMismatch",
    "CoefficientVector", "DegenerateInput", "Density", "DivergentTail",
    "EverywhereLocalReport", "LocsolError", "OracleOverflow",
    "PreconditionViolated", "ResourceBound", "SolubilityVerdict",
    "SurveyReport", "TailBound", "UnsupportedPair", "classify_type",
    "convergence_sweep", "decide_everywhere_local", "decide_qp",
    "decide_real", "decimalize", "generic_sum", "relevant_primes",
    "rho_infinity", "rho_loc_interval", "rho_p", "rho_p_exact", "signature",
    "survey_box", "tail_hypothesis", "valuation",
]
