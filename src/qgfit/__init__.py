"""q-Gaussian tail fitting for financial returns across time scales.

Fits heavy-tailed exceedance curves of absolute normalized returns with
the two-parameter (q, beta) distribution family and extracts the
power-law scaling of both parameters against the sampling interval.
"""

import gc as _gc

# numpy and scipy.optimize leave ~50,000 long-lived objects; the cyclic
# collector would scan them repeatedly while they load.  The caller's
# setting is restored afterwards, so a caller that had it off keeps it off.
# The pause's allocations would start a collection of all of them at once;
# freeze and unfreeze move every young object, the caller's too, to the
# oldest generation unscanned instead.  They would also unfreeze what a
# caller froze, so a caller that froze objects pays that collection.
_gc_was_enabled = _gc.isenabled()
_gc.disable()
try:
    from .datasets import DEFAULT_DT_LADDER, TABLE1_ROWS
    from .estimation import (
        PowerLawFit,
        ScaleFitResult,
        ScalingReport,
        estimate_tail_exponent,
        fit_ladder,
        fit_power_law,
        fit_qgaussian_ccdf,
        scaling_report,
    )
    from .qgaussian import (
        QGaussianParams,
        ccdf_abs,
        normalization,
        pdf,
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
finally:
    if not _gc.get_freeze_count():
        _gc.freeze()
        _gc.unfreeze()
    if _gc_was_enabled:
        _gc.enable()
    del _gc, _gc_was_enabled

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DT_LADDER",
    "TABLE1_ROWS",
    "PowerLawFit",
    "ScaleFitResult",
    "ScalingReport",
    "estimate_tail_exponent",
    "fit_ladder",
    "fit_power_law",
    "fit_qgaussian_ccdf",
    "scaling_report",
    "QGaussianParams",
    "ccdf_abs",
    "normalization",
    "pdf",
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
]
