"""Least-squares fitting of (q, beta) to exceedance curves and the scaling laws.

`fit_ladder` runs the whole per-scale computation: for each time scale of a
ladder it pools the normalized log returns of every series, builds their
exceedance curve and fits (q, beta) to it.  Two routes to the tail index
are provided: a full least-squares fit of the model CCDF in log space, and
a direct log-log regression of the tail region combined with the exact
tail-exponent relation.  Power-law regressions of the fitted parameters
against the time scale extract the three scaling exponents.
"""

from __future__ import annotations

import json
import math
import typing
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .qgaussian import QGaussianParams, ccdf_abs, tail_to_q
from .returns import (
    EmpiricalCCDF,
    GridSpec,
    PriceSeries,
    _check_json_number,
    _naming,
    _read_csv_columns,
    _reading,
    empirical_ccdf,
    log_returns,
    normalize,
    pool,
)

__all__ = [
    "ScaleFitResult",
    "PowerLawFit",
    "ScalingReport",
    "Q_BOUNDS",
    "BETA_BOUNDS",
    "fit_qgaussian_ccdf",
    "fit_ladder",
    "estimate_tail_exponent",
    "fit_power_law",
    "scaling_report",
    "load_scale_fits",
]

# Search box of the least-squares fit.
Q_BOUNDS = (1.01, 2.99)
BETA_BOUNDS = (1e-4, 1e4)
# Relative distance from a search-box edge at which a fit counts as pinned.
_BOX_EDGE_RTOL = 1e-6

# Fraction of grid points (largest thresholds) used by the tail regression.
_TAIL_FRACTION = 0.3

_MIN_FIT_POINTS = 8
_MIN_TAIL_POINTS = 5
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class ScaleFitResult:
    """Fitted (q, beta) for one time scale, with fit diagnostics."""

    dt: int
    q: float
    beta: float
    # Placeholders for a fit read from a dt,q,beta table, which has no diagnostics.
    residual: float = 0.0
    n_points: int = 0
    converged: bool = True

    def __post_init__(self):
        if self.dt < 1:
            raise ValueError(f"dt must be a positive integer, got {self.dt}")
        if self.dt > np.iinfo(np.int64).max:  # as in the int64 dt column of a fits CSV
            raise ValueError(f"dt must be at most 2**63 - 1, got {self.dt}")
        if not math.isfinite(self.residual):
            raise ValueError("fit residual must be finite")
        if self.residual < 0.0:  # a sum of squares
            raise ValueError(f"fit residual must be non-negative, got {self.residual}")
        if self.n_points < 0:
            raise ValueError(f"n_points must be non-negative, got {self.n_points}")
        if not (math.isfinite(self.q) and math.isfinite(self.beta)):
            raise ValueError(f"fitted q={self.q} and beta={self.beta} must be finite")
        if not Q_BOUNDS[0] <= self.q <= Q_BOUNDS[1]:
            raise ValueError(f"fitted q={self.q} escaped the search box")
        if not BETA_BOUNDS[0] <= self.beta <= BETA_BOUNDS[1]:
            raise ValueError(f"fitted beta={self.beta} escaped the search box")

    @property
    def at_bound(self) -> bool:
        """True when q or beta lies within 1e-6 relative of a search-box edge."""
        return any(
            abs(value - edge) <= _BOX_EDGE_RTOL * edge
            for value, bounds in ((self.q, Q_BOUNDS), (self.beta, BETA_BOUNDS))
            for edge in bounds
        )


# The fields of a fits file and their types; a fit must give those without a default.
_FIELD_TYPES = typing.get_type_hints(ScaleFitResult)
_REQUIRED_FIELDS = [f.name for f in fields(ScaleFitResult) if f.default is MISSING]


@dataclass(frozen=True)
class PowerLawFit:
    """Log-log regression result y = amplitude * x^exponent."""

    exponent: float
    amplitude: float
    exponent_stderr: float
    r_squared: float

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be positive")
        if self.exponent_stderr < 0.0:
            raise ValueError("standard error cannot be negative")

    def fitted(self, xs) -> list[float]:
        """The line amplitude * x^exponent at each x, as Python floats.

        Its domain is x > 0: an x that is 0, negative or NaN is a ValueError,
        as is a value past float64's range, to infinity or to 0.
        """
        xs = np.asarray(xs, dtype=float)
        positive = xs > 0.0  # False at NaN
        if not positive.all():
            raise ValueError(f"the fitted line needs x > 0, got x={float(xs[positive.argmin()])!r}")
        with np.errstate(over="ignore", under="ignore"):
            values = self.amplitude * xs**self.exponent
        inside = (values > 0.0) & (values < np.inf)
        if not inside.all():
            x = float(xs[inside.argmin()])  # the first x outside
            raise ValueError(f"the fitted line leaves float64's range at x={x!r}")
        return values.tolist()


@dataclass(frozen=True)
class ScalingReport:
    """The three scaling regressions across time scales, and the columns they regressed."""

    tau_fit: PowerLawFit  # q - 1 against dt
    gamma_fit: PowerLawFit  # 1/beta against dt
    delta_fit: PowerLawFit  # 1/beta against q - 1
    # dt, q_minus_1 and inv_beta as Python floats, one per fit in input order
    columns: dict[str, list[float]] = field(default_factory=dict, compare=False, repr=False)


# Each law in report order: ScalingReport field, error-message name, plot file, x and y columns.
_SCALING_LAWS = (
    ("tau_fit", "q - 1 against dt (tau)", "scaling_q_vs_dt", "dt", "q_minus_1"),
    ("gamma_fit", "1/beta against dt (gamma)", "scaling_invbeta_vs_dt", "dt", "inv_beta"),
    ("delta_fit", "1/beta against q - 1 (delta)", "scaling_invbeta_vs_q", "q_minus_1", "inv_beta"),
)


def fit_qgaussian_ccdf(ccdf: EmpiricalCCDF) -> ScaleFitResult:
    """Least-squares fit of the model CCDF to an empirical exceedance curve.

    Minimizes the sum of squared log10 residuals over the threshold grid in
    (q, log10 beta) with one bounded L-BFGS-B run, whose box is `Q_BOUNDS`
    and `BETA_BOUNDS`; a fit may end exactly on an edge (see
    `ScaleFitResult.at_bound`).  Each candidate (q, beta) costs one
    `ccdf_abs` call on the whole grid.  The run starts at the tail-slope q
    and beta = 1, inside the box.  Non-convergence is reported through the
    converged flag, not raised.
    """
    if len(ccdf) < _MIN_FIT_POINTS:
        raise ValueError(f"need at least {_MIN_FIT_POINTS} CCDF points, got {len(ccdf)}")

    xs = ccdf.thresholds
    target = np.log10(ccdf.probabilities)

    def objective(p: np.ndarray) -> float:
        model = ccdf_abs(QGaussianParams(p[0], 10.0 ** p[1]), xs)
        diff = np.log10(np.maximum(model, _LOG_FLOOR)) - target
        return float(diff @ diff)

    start = np.array([_start_q(ccdf), 0.0])  # log10 beta = 0
    bounds = np.array([Q_BOUNDS, np.log10(BETA_BOUNDS)])
    options = {"ftol": 1e-12, "gtol": 1e-5, "maxfun": 6000}
    result = minimize(objective, start, method="L-BFGS-B", bounds=bounds, options=options)

    q_fit, log_beta = result.x
    return ScaleFitResult(
        dt=ccdf.dt,
        q=float(q_fit),
        beta=10.0 ** float(log_beta),
        residual=float(result.fun),
        n_points=len(ccdf),
        converged=bool(result.success),
    )


def fit_ladder(
    series: Mapping[str, PriceSeries], ladder: Sequence[int], grid: GridSpec = GridSpec()
) -> Iterator[tuple[EmpiricalCCDF, ScaleFitResult]]:
    """Each scale's exceedance curve and fit, one scale at a time in `ladder` order.

    At each dt the log returns of every series are normalized, pooled, and
    turned into an exceedance curve on `grid`, which `fit_qgaussian_ccdf`
    fits.  A series too short for dt, or constant over it, is a ValueError
    naming its key and dt; a pooled scale that fails is a ValueError or
    MemoryError naming dt.  A scale's returns are freed before it is
    yielded, so a caller that writes each scale as it comes holds one
    scale's curve at a time, and sees every earlier scale before a later
    one fails.
    """
    for dt in ladder:
        batches = []
        for name, s in series.items():
            with _naming(f"{name} at dt={dt}"):  # a series too short for dt, or constant over it
                batches.append(normalize(log_returns(s, dt)))
        pooled = pool(batches)
        del batches  # pool copies several batches: these are not held while the scale is fitted
        # besides one copy of |pooled|, this scale's arrays hold grid.count points
        size = f"pooled returns at dt={dt}: {len(pooled)} returns on a {grid.count}-point grid"
        # a grid past the data, or too few points left on it
        with _naming(size, MemoryError, MemoryError), _naming(f"pooled returns at dt={dt}"):
            ccdf = empirical_ccdf(pooled, dt, grid)
            del pooled  # not held while this scale is fitted and the next one built
            fit = fit_qgaussian_ccdf(ccdf)
        yield ccdf, fit


def _start_q(ccdf: EmpiricalCCDF) -> float:
    """Tail-slope starting point for q, inside the search box."""
    try:
        alpha = estimate_tail_exponent(ccdf)
        return min(max(tail_to_q(alpha), 1.05), 2.9)
    except ValueError:
        return 1.5


def estimate_tail_exponent(ccdf: EmpiricalCCDF) -> float:
    """Tail exponent alpha > 0 from an OLS slope of ln P against ln x over the tail.

    The tail region is the largest 30% of grid thresholds, rounded up, and
    must hold at least five; via `tail_to_q` this yields a q estimate
    independent of the least-squares fit.  A slope that is not negative has
    no such exponent: ValueError.
    """
    k = math.ceil(_TAIL_FRACTION * len(ccdf))
    if k < _MIN_TAIL_POINTS:
        raise ValueError(f"tail region holds {k} points, need at least {_MIN_TAIL_POINTS}")
    log_x = np.log(ccdf.thresholds[-k:])
    log_p = np.log(ccdf.probabilities[-k:])
    slope, _, _, _ = _ols(log_x, log_p)
    if not slope < 0.0:
        raise ValueError(f"tail slope must be negative, got {slope}")
    return -slope


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Slope, intercept, slope standard error, and R^2 of a least-squares line."""
    n = len(x)
    xm, ym = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are all identical; slope undefined")
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    residuals = y - (intercept + slope * x)
    ssr = float(np.sum(residuals**2))
    sst = float(np.sum((y - ym) ** 2))
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 1.0
    return slope, intercept, stderr, r_squared


def fit_power_law(xs, ys) -> PowerLawFit:
    """Fit y = amplitude * x^exponent by ordinary least squares in log space.

    The exponent is reported signed, exactly as fitted; callers comparing
    against quoted decay rates should compare magnitudes.  A line whose
    amplitude, or whose value at one of the xs, leaves float64's range is a
    ValueError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise ValueError("x and y must have equal length")
    if len(xs) < 3:
        raise ValueError(f"need at least 3 points, got {len(xs)}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("power-law regression requires positive data")
    slope, intercept, stderr, r2 = _ols(np.log(xs), np.log(ys))
    try:
        amplitude = math.exp(intercept)
    except OverflowError:
        amplitude = math.inf
    if not 0.0 < amplitude < math.inf:
        raise ValueError(f"the amplitude exp({intercept!r}) leaves float64's range")
    fit = PowerLawFit(
        exponent=slope,
        amplitude=amplitude,
        exponent_stderr=stderr,
        r_squared=min(max(r2, 0.0), 1.0),
    )
    fit.fitted(xs)  # its line at the data, which raises past float64's range
    return fit


def scaling_report(fits: list[ScaleFitResult]) -> ScalingReport:
    """Regress dt, q - 1 and 1/beta by the laws `ScalingReport` lists, keeping those columns.

    Needs at least three distinct time scales and two distinct q.  A
    regression whose line leaves float64's range is a ValueError naming it.
    """
    if len({f.dt for f in fits}) < 3:
        raise ValueError("need fits at 3 or more distinct time scales")
    if len({f.q for f in fits}) < 2:  # the last law, whose x is q - 1, is undefined
        raise ValueError(f"q is the same at every scale: {_SCALING_LAWS[-1][1]} is undefined")
    columns = {
        "dt": [float(f.dt) for f in fits],
        "q_minus_1": [f.q - 1.0 for f in fits],
        "inv_beta": [1.0 / f.beta for f in fits],
    }
    regressions = {}
    for key, name, _, x, y in _SCALING_LAWS:
        with _naming(name):  # a line past float64's range
            regressions[key] = fit_power_law(columns[x], columns[y])
    return ScalingReport(**regressions, columns=columns)


def load_scale_fits(path: str | Path) -> list[ScaleFitResult]:
    """Read fit results from a JSON file or a dt,q,beta CSV table.

    Diagnostics a JSON object leaves out, and all of a CSV row's, take the
    `ScaleFitResult` placeholders; other CSV columns are ignored.  A file
    that cannot be opened or read is a ValueError naming `path`, as is a
    JSON object without `dt`, `q` or `beta`, or with a value that is not a
    JSON number in float range, a `dt` or `n_points` that is not whole or a
    non-boolean `converged`, and a fit that `ScaleFitResult` rejects, such
    as one with a negative `residual` or `n_points`.  An error in one fit
    also names that fit, counted from 1.
    """
    path = Path(path)
    with _naming(f"cannot parse fits file {path}"):
        if path.suffix.lower() == ".json":
            with _reading(path) as fh:
                rows = json.load(fh)
            if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
                raise ValueError("expected a JSON list of objects with dt, q and beta")
        else:
            columns = {name: _FIELD_TYPES[name] for name in _REQUIRED_FIELDS}
            rows = _read_csv_columns(path, columns).tolist()  # tuples of dt, q, beta
        fits = []
        for i, row in enumerate(rows, 1):
            with _naming(f"fit {i}"):
                fits.append(_json_fit(row) if isinstance(row, dict) else ScaleFitResult(*row))
        return fits


def _json_fit(row: dict) -> ScaleFitResult:
    """The fit of one fits JSON object; a ValueError names its first wrong field."""
    for name in _REQUIRED_FIELDS:
        if name not in row:
            raise ValueError(f"missing {name}")
    for name, cast in _FIELD_TYPES.items():
        if name not in row:
            continue
        value = row[name]
        if cast is not bool:
            _check_json_number(name, value, whole=cast is int)
        elif not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {json.dumps(value)}")
    return ScaleFitResult(
        **{key: cast(row[key]) for key, cast in _FIELD_TYPES.items() if key in row}
    )
