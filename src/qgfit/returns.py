"""Price series to absolute normalized returns to empirical exceedance curves.

Implements the data side of the analysis: log returns over a window of dt
ticks, centering and unit-variance scaling, pooling across instruments,
logarithmic-grid exceedance probabilities, and numerical differentiation of
the exceedance curve back into a density.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DegenerateSeriesError",
    "PriceDataError",
    "PriceSeries",
    "EmpiricalCCDF",
    "GridSpec",
    "log_returns",
    "normalize",
    "pool",
    "empirical_ccdf",
    "numerical_pdf",
    "read_price_csv",
    "read_ccdf_csv",
]

# Unless the grid maximum is given, fitting grids stop where fewer than this
# many observations exceed the threshold; beyond that the empirical curve is
# order-statistic noise that would distort the log-space least squares.
MIN_TAIL_EXCEEDANCES = 100

# Returns whose sd is at most this fraction of their mean are constant up to
# rounding (a steady growth, say): centering them leaves only rounding noise.
_MIN_RELATIVE_VOL = float(np.sqrt(np.finfo(float).eps))


class DegenerateSeriesError(ValueError):
    """Raised when a return series has zero variance, up to rounding, and cannot be normalized."""


class PriceDataError(ValueError):
    """Raised when a price CSV cannot be parsed into a valid series."""


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Raw instrument values W(t) on a strictly increasing integer tick grid.

    `log_values` holds ln W(t), taken once here for every dt that follows.
    """

    id: str
    timestamps: np.ndarray
    values: np.ndarray
    log_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values must have equal length")
        if len(self.values) < 2:
            raise ValueError("price series needs at least 2 samples")
        if not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("prices must be finite")
        if not np.all(self.values > 0.0):
            raise ValueError("prices must be positive (log returns are taken)")
        object.__setattr__(self, "log_values", np.log(self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class EmpiricalCCDF:
    """Exceedance probabilities P(|r| > x_i) on an increasing threshold grid."""

    dt: int
    thresholds: np.ndarray
    probabilities: np.ndarray
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "thresholds", np.asarray(self.thresholds, dtype=float))
        object.__setattr__(self, "probabilities", np.asarray(self.probabilities, dtype=float))
        if len(self.thresholds) != len(self.probabilities):
            raise ValueError("thresholds and probabilities must have equal length")
        if not (np.all(np.isfinite(self.thresholds)) and np.all(np.isfinite(self.probabilities))):
            raise ValueError("thresholds and probabilities must be finite")
        if not np.all(np.diff(self.thresholds) > 0):
            raise ValueError("thresholds must be strictly increasing")
        if not np.all(self.thresholds > 0):
            raise ValueError("thresholds must be positive")
        if np.any(np.diff(self.probabilities) > 0):
            raise ValueError("probabilities must be non-increasing")
        if len(self.probabilities) and (
            self.probabilities[0] > 1.0 or self.probabilities[-1] <= 0.0
        ):
            raise ValueError("probabilities must lie in (0, 1]")

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class GridSpec:
    """Logarithmically spaced threshold grid from `min` to `max`.

    Without a `max`, `empirical_ccdf` tops the grid at the
    MIN_TAIL_EXCEEDANCES-th largest |value| of a sample of more than ten times
    that many values, and at the sample maximum for a smaller sample or when
    that cap is not above `min`.
    """

    min: float = 1e-2
    max: float | None = None
    count: int = 60

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if not 0.0 < self.min < np.inf:
            raise ValueError(f"grid minimum must be positive and finite, got {self.min}")
        if self.max is not None and not np.isfinite(self.max):
            raise ValueError(f"grid maximum must be finite, got {self.max}")
        if self.max is not None and self.max <= self.min:
            raise ValueError(f"grid maximum {self.max} must exceed minimum {self.min}")


def log_returns(series: PriceSeries, dt: int) -> np.ndarray:
    """Log returns ln W(t+dt) - ln W(t) over every pair exactly dt ticks apart.

    Gaps in the tick grid simply yield fewer return observations; nothing is
    interpolated.  Uses the exact log form, not the relative-difference
    approximation.  The result is a fresh array.
    """
    if dt < 1:
        raise ValueError(f"dt must be a positive integer, got {dt}")
    if dt >= len(series):
        raise ValueError(f"dt={dt} must be smaller than the series length {len(series)}")
    ts = series.timestamps
    logw = series.log_values
    if ts[-1] - ts[0] == len(ts) - 1:
        # strictly increasing and no gaps: the pair of tick i is tick i + dt
        return logw[dt:] - logw[:-dt]
    target = ts + dt
    idx = np.searchsorted(ts, target)
    ok = idx < len(ts)
    ok[ok] &= ts[idx[ok]] == target[ok]
    return logw[idx[ok]] - logw[ok]


def normalize(values: np.ndarray) -> np.ndarray:
    """Center by the time-average and scale by the volatility (population sd).

    Works in place on a float64 array and returns it; any other input is
    first converted to a new float64 array.  The population convention makes
    the transform idempotent up to rounding.  Returns with zero variance, or
    with an sd at most sqrt(eps) of their mean, raise DegenerateSeriesError.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError("need at least 2 returns to normalize")
    mean = float(np.mean(values))
    vol = float(np.std(values))
    if vol <= _MIN_RELATIVE_VOL * abs(mean):
        raise DegenerateSeriesError(
            "returns have zero variance (up to rounding of their mean); cannot normalize"
        )
    values -= mean
    values /= vol
    return values


def pool(batches: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-instrument normalized returns; one batch comes back as is.

    Every batch is centered and at unit variance, so their concatenation is
    too, up to rounding; a second normalization would only move values by
    that rounding.
    """
    if not batches:
        raise ValueError("cannot pool an empty collection")
    if len(batches) == 1:
        return batches[0]
    return np.concatenate(batches)


def empirical_ccdf(values: np.ndarray, dt: int, grid: GridSpec = GridSpec()) -> EmpiricalCCDF:
    """Exceedance probabilities of |values| on a log-spaced threshold grid.

    `|values|` is taken once and sorted, and the grid is capped as `GridSpec`
    describes.  Thresholds whose exceedance count is zero are dropped, so the
    stored probabilities are always positive.  `values` is left unchanged.
    """
    absr = np.abs(np.asarray(values, dtype=float))
    absr.sort()
    n = len(absr)
    if n == 0:
        raise ValueError("cannot build a CCDF from an empty sample")
    top = grid.max
    if top is None:
        top = float(absr[-1])
        if n > 10 * MIN_TAIL_EXCEEDANCES:
            cap = float(absr[n - MIN_TAIL_EXCEEDANCES])
            if cap > grid.min:
                top = cap
    if top <= grid.min:
        raise ValueError(
            f"grid maximum {top} does not exceed grid minimum {grid.min}"
        )
    thresholds = np.geomspace(grid.min, top, grid.count)
    exceed = n - np.searchsorted(absr, thresholds, side="right")
    probs = exceed / n
    keep = probs > 0.0
    return EmpiricalCCDF(
        dt=dt,
        thresholds=thresholds[keep],
        probabilities=probs[keep],
        n_samples=n,
    )


def numerical_pdf(ccdf: EmpiricalCCDF) -> tuple[np.ndarray, np.ndarray]:
    """Differentiate the exceedance curve into a density of |r|.

    Each grid interval contributes -dP/dx evaluated at its geometric
    midpoint; monotonicity of P makes every density non-negative.  Returns
    the midpoint array and the density array.
    """
    if len(ccdf) < 3:
        raise ValueError("need at least 3 CCDF points to differentiate")
    x = ccdf.thresholds
    p = ccdf.probabilities
    mids = np.sqrt(x[:-1] * x[1:])
    density = (p[:-1] - p[1:]) / (x[1:] - x[:-1])
    return mids, density


def _read_csv_columns(
    path: Path, columns: dict[str, type], fallback: dict[str, str] | None = None
) -> np.ndarray:
    """The named columns of CSV `path` as a structured array, one record per row.

    `columns` maps each name to its dtype.  The header is read as CSV and the
    columns are found in it by name, or by their `fallback` name, in any
    order; other columns are ignored.  The rows go through one `np.loadtxt`
    call: fields may be quoted, blank lines are skipped and a header-only
    file has no rows.  A missing column or a malformed row is a ValueError
    that does not name the path.
    """
    fallback = fallback or {}
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        header = next(csv.reader(fh), None)
        index = {name: i for i, name in enumerate(header or ())}  # last duplicate wins
        index |= {c: index[a] for c, a in fallback.items() if c not in index and a in index}
        if not index.keys() >= columns.keys():
            wanted = (f"{c} (or {fallback[c]})" if c in fallback else c for c in columns)
            raise ValueError(f"expected columns {','.join(wanted)}, got {header}")
        # a header-only file is not malformed; each reader's checks judge no rows
        warnings.simplefilter("ignore", UserWarning)
        # older numpy parses "4.5" as the integer 4 and only warns
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float")
        try:
            return np.loadtxt(
                fh,
                dtype=list(columns.items()),
                delimiter=",",
                quotechar='"',
                comments=None,
                usecols=[index[c] for c in columns],
                ndmin=1,
            )
        except ValueError as exc:
            # numpy gives the 1-based number of the column it could not convert
            number = re.search(r"at row \d+, column (\d+)\.$", str(exc))
            where = f" in column {header[int(number[1]) - 1]!r}" if number else ""
            raise ValueError(f"malformed row ({exc}){where}") from exc


def read_price_csv(path: str | Path) -> PriceSeries:
    """Parse an instrument CSV with columns `timestamp` (integer ticks) and `price`."""
    path = Path(path)
    try:
        rows = _read_csv_columns(path, {"timestamp": np.int64, "price": float})
        return PriceSeries(id=path.stem, timestamps=rows["timestamp"], values=rows["price"])
    except ValueError as exc:
        raise PriceDataError(f"{path}: {exc}") from exc


def read_ccdf_csv(path: str | Path) -> EmpiricalCCDF:
    """Parse an exceedance curve: columns `x` and `ccdf` (or `ccdf_empirical`).

    Reads the curve files that `fit` writes too.  The file holds no time
    scale or sample count, so the result has dt 1 and n_samples 0.
    """
    path = Path(path)
    try:
        rows = _read_csv_columns(path, {"x": float, "ccdf": float}, {"ccdf": "ccdf_empirical"})
        return EmpiricalCCDF(dt=1, thresholds=rows["x"], probabilities=rows["ccdf"], n_samples=0)
    except ValueError as exc:
        raise PriceDataError(f"{path}: {exc}") from exc
