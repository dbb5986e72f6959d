"""q-Gaussian tail fitting for financial returns across time scales.

Fits heavy-tailed exceedance curves of absolute normalized returns with
the two-parameter (q, beta) distribution family and extracts the
power-law scaling of both parameters against the sampling interval.
"""

from .datasets import DEFAULT_DT_LADDER, TABLE1_ROWS, table1_fits
from .estimation import (
    PowerLawFit,
    ScaleFitResult,
    ScalingReport,
    estimate_tail_exponent,
    fit_power_law,
    fit_qgaussian_ccdf,
    scaling_report,
)
from .qgaussian import (
    QGaussianParams,
    TailExponent,
    ccdf_abs,
    exp_q,
    normalization,
    pdf,
    q_to_tail,
    sample,
    tail_to_q,
)
from .returns import (
    EmpiricalCCDF,
    GridSpec,
    PriceSeries,
    empirical_ccdf,
    log_returns,
    normalize,
    numerical_pdf,
    pool,
)
from .special import gamma_ratio, hyp2f1

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DT_LADDER",
    "TABLE1_ROWS",
    "table1_fits",
    "PowerLawFit",
    "ScaleFitResult",
    "ScalingReport",
    "estimate_tail_exponent",
    "fit_power_law",
    "fit_qgaussian_ccdf",
    "scaling_report",
    "QGaussianParams",
    "TailExponent",
    "ccdf_abs",
    "exp_q",
    "normalization",
    "pdf",
    "q_to_tail",
    "sample",
    "tail_to_q",
    "EmpiricalCCDF",
    "GridSpec",
    "PriceSeries",
    "empirical_ccdf",
    "log_returns",
    "normalize",
    "numerical_pdf",
    "pool",
    "gamma_ratio",
    "hyp2f1",
]
