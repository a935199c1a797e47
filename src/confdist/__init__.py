"""Confidence densities and confidence statements from pivotal quantities.

Where an exact pivot exists (normal linear regression) the confidence
density is exact; where it does not (gamma regression) higher-order
corrections refine the first-order asymptotic statements.  A Monte Carlo
harness verifies the defining property throughout: the confidence attached
to an observed interval equals the coverage of the procedure that produced
it.
"""

from .coverage import CoverageReport, Scenario, compare_methods, run_scenario
from .data import Dataset
from .errors import ConfdistError
from .gamma import GammaFit, fit_irls, gamma_loglik
from .higher_order import (
    CorrectedDeviance,
    ModifiedRoot,
    fraser_root_known_mu,
    skovgaard_beta,
    skovgaard_precision,
)
from .linear import Contrast, LinearFit, contrast, contrast_pivot, fit_ols, variance_pivot
from .numerics import RealGrid, RngStream, rng_draws
from .pivots import (
    ConfidenceDensity,
    ConfidenceStatement,
    Pivot,
    PivotLaw,
    confidence_of,
    extended_likelihood,
    interval_endpoint,
    parameter_density,
    pvalue_pivot,
)

__version__ = "0.1.0"

__all__ = [
    "ConfdistError",
    "ConfidenceDensity",
    "ConfidenceStatement",
    "Contrast",
    "CorrectedDeviance",
    "CoverageReport",
    "Dataset",
    "GammaFit",
    "LinearFit",
    "ModifiedRoot",
    "Pivot",
    "PivotLaw",
    "RealGrid",
    "RngStream",
    "Scenario",
    "compare_methods",
    "confidence_of",
    "contrast",
    "contrast_pivot",
    "extended_likelihood",
    "fit_irls",
    "fit_ols",
    "fraser_root_known_mu",
    "gamma_loglik",
    "interval_endpoint",
    "parameter_density",
    "pvalue_pivot",
    "rng_draws",
    "run_scenario",
    "skovgaard_beta",
    "skovgaard_precision",
    "variance_pivot",
]
