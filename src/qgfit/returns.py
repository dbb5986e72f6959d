"""Price series to absolute normalized returns to empirical exceedance curves.

Implements the data side of the analysis: log returns over a window of dt
ticks, centering and unit-variance scaling, pooling across instruments,
logarithmic-grid exceedance probabilities, and numerical differentiation of
the exceedance curve back into a density.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DegenerateSeriesError",
    "PriceDataError",
    "PriceSeries",
    "ReturnSeries",
    "NormalizedReturns",
    "EmpiricalCCDF",
    "GridSpec",
    "capped_grid",
    "log_returns",
    "normalize",
    "pool",
    "empirical_ccdf",
    "ccdf_of_samples",
    "numerical_pdf",
    "read_price_csv",
    "read_ccdf_csv",
    "write_ccdf_csv",
    "write_ccdf_json",
]

# Normalized returns must be centered and scaled to this accuracy.
_NORMALIZATION_TOL = 1e-12

# Unless the grid maximum is given, fitting grids stop where fewer than this
# many observations exceed the threshold; beyond that the empirical curve is
# order-statistic noise that would distort the log-space least squares.
MIN_TAIL_EXCEEDANCES = 100


class DegenerateSeriesError(ValueError):
    """Raised when a return series has zero variance and cannot be normalized."""


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
class ReturnSeries:
    """Log returns over a fixed window of dt ticks."""

    dt: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.dt < 1:
            raise ValueError(f"dt must be a positive integer, got {self.dt}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class NormalizedReturns:
    """Returns centered by their time average and scaled to unit variance."""

    dt: int
    values: np.ndarray
    mean_removed: float
    volatility: float
    span: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.volatility <= 0.0:
            raise ValueError("volatility must be positive")
        if abs(float(np.mean(self.values))) > _NORMALIZATION_TOL:
            raise ValueError("normalized returns must have zero mean")
        if abs(float(np.std(self.values)) - 1.0) > _NORMALIZATION_TOL:
            raise ValueError("normalized returns must have unit standard deviation")

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
    """Logarithmically spaced threshold grid; max defaults to the sample maximum."""

    min: float = 1e-2
    max: float | None = None
    count: int = 60

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if self.min <= 0.0:
            raise ValueError(f"grid minimum must be positive, got {self.min}")
        if self.max is not None and self.max <= self.min:
            raise ValueError(f"grid maximum {self.max} must exceed minimum {self.min}")


def log_returns(series: PriceSeries, dt: int) -> ReturnSeries:
    """Log returns ln W(t+dt) - ln W(t) over every pair exactly dt ticks apart.

    Gaps in the tick grid simply yield fewer return observations; nothing is
    interpolated.  Uses the exact log form, not the relative-difference
    approximation.
    """
    if dt < 1:
        raise ValueError(f"dt must be a positive integer, got {dt}")
    if dt >= len(series):
        raise ValueError(f"dt={dt} must be smaller than the series length {len(series)}")
    ts = series.timestamps
    logw = series.log_values
    if ts[-1] - ts[0] == len(ts) - 1:
        # strictly increasing and no gaps: the pair of tick i is tick i + dt
        return ReturnSeries(dt=dt, values=logw[dt:] - logw[:-dt])
    target = ts + dt
    idx = np.searchsorted(ts, target)
    ok = idx < len(ts)
    ok[ok] &= ts[idx[ok]] == target[ok]
    return ReturnSeries(dt=dt, values=logw[idx[ok]] - logw[ok])


def normalize(returns: ReturnSeries) -> NormalizedReturns:
    """Center by the time-average and scale by the volatility (population sd).

    The population convention makes the transform exactly idempotent.
    """
    if len(returns) < 2:
        raise ValueError("need at least 2 returns to normalize")
    values = returns.values
    mean = float(np.mean(values))
    vol = float(np.std(values))
    if vol == 0.0:
        raise DegenerateSeriesError("returns have zero variance; cannot normalize")
    scaled = values - mean
    scaled /= vol
    return NormalizedReturns(
        dt=returns.dt,
        values=scaled,
        mean_removed=mean,
        volatility=vol,
        span=len(values),
    )


def pool(batches: list[NormalizedReturns]) -> NormalizedReturns:
    """Concatenate per-instrument normalized returns, then re-standardize.

    Each instrument arrives at unit variance already, so pooling is a plain
    concatenation followed by one more centering/scaling pass to restore the
    exact unit-variance contract on the combined sample.
    """
    if not batches:
        raise ValueError("cannot pool an empty collection")
    dts = {b.dt for b in batches}
    if len(dts) > 1:
        raise ValueError(f"cannot pool across different dt values: {sorted(dts)}")
    combined = np.concatenate([b.values for b in batches])
    return normalize(ReturnSeries(dt=batches[0].dt, values=combined))


def capped_grid(values: np.ndarray, grid: GridSpec = GridSpec()) -> GridSpec:
    """`grid` with its maximum set where MIN_TAIL_EXCEEDANCES values of |values| remain.

    A grid with an explicit maximum, a sample of at most ten times that many
    values, or a cap not above the grid minimum is returned unchanged.
    """
    n = len(values)
    if grid.max is not None or n <= 10 * MIN_TAIL_EXCEEDANCES:
        return grid
    absr = np.abs(values)
    absr.partition(n - MIN_TAIL_EXCEEDANCES)
    cap = float(absr[n - MIN_TAIL_EXCEEDANCES])
    if cap <= grid.min:
        return grid
    return GridSpec(min=grid.min, max=cap, count=grid.count)


def empirical_ccdf(returns: NormalizedReturns, grid: GridSpec = GridSpec()) -> EmpiricalCCDF:
    """Exceedance probabilities of |r| on a log-spaced threshold grid.

    Thresholds whose exceedance count is zero are dropped, so the stored
    probabilities are always positive.
    """
    if len(returns) == 0:
        raise ValueError("cannot build a CCDF from an empty sample")
    return ccdf_of_samples(returns.values, dt=returns.dt, grid=grid)


def ccdf_of_samples(values: np.ndarray, dt: int, grid: GridSpec = GridSpec()) -> EmpiricalCCDF:
    """Exceedance curve of |values| on the grid; works on raw draws too."""
    absr = np.abs(np.asarray(values, dtype=float))
    absr.sort()
    n = len(absr)
    if n == 0:
        raise ValueError("cannot build a CCDF from an empty sample")
    top = grid.max if grid.max is not None else float(absr[-1])
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


def read_price_csv(path: str | Path) -> PriceSeries:
    """Parse an instrument CSV with header columns `timestamp` and `price`.

    The header is read as CSV, so the two columns may come in any order and
    other columns are ignored; blank lines are skipped.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None or not {"timestamp", "price"} <= set(header):
                raise PriceDataError(
                    f"{path}: expected header with 'timestamp' and 'price' columns, "
                    f"got {header}"
                )
            column = {name: i for i, name in enumerate(header)}  # last duplicate wins
            with warnings.catch_warnings():
                # a header-only file is rejected below as too short
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    fh,
                    dtype=[("timestamp", np.int64), ("price", np.float64)],
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    usecols=(column["timestamp"], column["price"]),
                    ndmin=1,
                )
    except ValueError as exc:
        if isinstance(exc, PriceDataError):
            raise
        raise PriceDataError(f"{path}: malformed row ({exc})") from exc
    try:
        return PriceSeries(id=path.stem, timestamps=rows["timestamp"], values=rows["price"])
    except ValueError as exc:
        raise PriceDataError(f"{path}: {exc}") from exc


def read_ccdf_csv(path: str | Path, dt: int = 1) -> EmpiricalCCDF:
    """Parse an exceedance-curve CSV: columns x, ccdf (or ccdf_empirical).

    Accepts both the plain curve format and the fitted-curve files written
    by the fit command, so plot pipelines can chain directly.
    """
    path = Path(path)
    xs: list[float] = []
    ps: list[float] = []
    n_samples = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields = set(reader.fieldnames or ())
            if "x" not in fields or not fields & {"ccdf", "ccdf_empirical"}:
                raise PriceDataError(
                    f"{path}: expected header with 'x' and 'ccdf' (or "
                    f"'ccdf_empirical') columns, got {reader.fieldnames}"
                )
            p_col = "ccdf" if "ccdf" in fields else "ccdf_empirical"
            for row in reader:
                xs.append(float(row["x"]))
                ps.append(float(row[p_col]))
                if "n_samples" in row and row["n_samples"]:
                    n_samples = int(row["n_samples"])
    except (ValueError, TypeError) as exc:
        if isinstance(exc, PriceDataError):
            raise
        raise PriceDataError(f"{path}: malformed row ({exc})") from exc
    try:
        return EmpiricalCCDF(dt=dt, thresholds=xs, probabilities=ps, n_samples=n_samples)
    except ValueError as exc:
        raise PriceDataError(f"{path}: {exc}") from exc


def write_ccdf_csv(ccdf: EmpiricalCCDF, path: str | Path) -> None:
    """Write the exceedance curve as CSV columns x, ccdf, n_samples."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "ccdf", "n_samples"])
        for x, p in zip(ccdf.thresholds, ccdf.probabilities):
            writer.writerow([f"{x:.12g}", f"{p:.12g}", ccdf.n_samples])


def write_ccdf_json(ccdf: EmpiricalCCDF, path: str | Path, id: str) -> None:
    """Write the exceedance curve as JSON, tagged with dt and instrument id."""
    payload = {
        "id": id,
        "dt": ccdf.dt,
        "n_samples": ccdf.n_samples,
        "x": [float(v) for v in ccdf.thresholds],
        "ccdf": [float(v) for v in ccdf.probabilities],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
