"""Price series to absolute normalized returns to empirical exceedance curves.

Implements the data side of the analysis: log returns over a window of dt
ticks, centering and unit-variance scaling, pooling across instruments,
logarithmic-grid exceedance probabilities, and numerical differentiation of
the exceedance curve back into a density.
"""

from __future__ import annotations

import csv
import json
import re
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path

import numpy as np

__all__ = [
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

# Names that np.loadtxt, given a path, would open as compressed files.
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# Encoding of every input file: UTF-8, after a byte-order mark if there is one.
_ENCODING = "utf-8-sig"
# Where a failed read stopped: a codec's byte position in the text it decoded,
# or numpy's row, counted among non-blank rows from 0 for a bad value (whose
# column it counts from 1) and from 1 for a short row.
_FAILED_AT = re.compile(
    r" in position [\d-]+(?=: [a-z ]+$)| at row (\d+)(?:, column (\d+)\.$|(?= with \d+ columns$))"
)
# A byte that is not UTF-8, as errors="surrogateescape" decodes it.
_UNDECODED = re.compile("[\udc80-\udcff]")


class PriceSeries:
    """Log instrument values ln W(t) on a strictly increasing integer tick grid.

    The ticks are a 1-D integer array within int64, and the prices W(t) a
    1-D array of finite positive values.  The log of the prices is taken once
    here for every dt that follows; the prices themselves are not kept.  The
    grid is unbroken when its ticks run first, first + 1, ... without a hole:
    then only the first tick is kept, and a series holds 8 bytes per tick.
    The ticks of a gapped grid are kept as a contiguous int64 array, copied
    unless they are one already, so it holds 16 bytes per tick.  Neither
    keeps a view into its input.  A series is immutable.
    """

    def __init__(self, timestamps: np.ndarray, prices: np.ndarray):
        ticks = np.asarray(timestamps)
        prices = np.asarray(prices, dtype=float)
        if ticks.ndim != 1 or prices.ndim != 1:
            raise ValueError(
                f"timestamps and prices must be 1-D, got shapes {ticks.shape} and {prices.shape}"
            )
        if len(ticks) != len(prices):
            raise ValueError("timestamps and prices must have equal length")
        if len(prices) < 2:
            raise ValueError("price series needs at least 2 samples")
        if ticks.dtype.kind not in "iu" or not np.can_cast(ticks.dtype, np.int64):
            raise ValueError(f"timestamps must be integers within int64, got dtype {ticks.dtype}")
        if not np.all(ticks[1:] > ticks[:-1]):  # a diff could wrap
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(prices)):
            raise ValueError("prices must be finite")
        if not np.all(prices > 0.0):
            raise ValueError("prices must be positive (log returns are taken)")
        first = int(ticks[0])
        # read_price_csv passes a field of loadtxt's records: a gapped grid's
        # copy lets them go, and an unbroken grid keeps nothing of them
        gapped = None
        if int(ticks[-1]) - first != len(ticks) - 1:
            gapped = np.ascontiguousarray(ticks, dtype=np.int64)
        object.__setattr__(self, "_first_tick", first)
        object.__setattr__(self, "_gapped_ticks", gapped)
        object.__setattr__(self, "log_values", np.log(prices))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def timestamps(self) -> np.ndarray:
        """The int64 ticks: those kept for a gapped grid, or a new array for an unbroken one."""
        if self._gapped_ticks is not None:
            return self._gapped_ticks
        return np.int64(self._first_tick) + np.arange(len(self), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.log_values)


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
        if not isinstance(self.count, (int, np.integer)):  # np.geomspace takes only integers
            raise ValueError(f"grid count must be an integer, got {self.count!r}")
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
    interpolated.  On an unbroken grid the pairs are one slice apart and no
    tick is read; a gapped grid's ticks are searched for each pair.  Uses
    the exact log form, not the relative-difference approximation.  The
    result is a fresh array.
    """
    if dt < 1:
        raise ValueError(f"dt must be a positive integer, got {dt}")
    if dt >= len(series):
        raise ValueError(f"dt={dt} must be smaller than the series length {len(series)}")
    logw = series.log_values
    ts = series._gapped_ticks
    if ts is None:  # an unbroken grid: the pair of tick i is tick i + dt
        return logw[dt:] - logw[:-dt]
    # only ticks up to int64 max - dt have a pair that int64 can hold
    target = ts[: np.searchsorted(ts, np.iinfo(np.int64).max - dt, side="right")] + dt
    idx = np.searchsorted(ts, target)
    ok = ts.take(idx, mode="clip") == target  # past the end meets the last tick, which differs
    del target
    returns = logw[idx[ok]]
    del idx  # not held while the second gather runs
    return np.subtract(returns, logw[: len(ok)][ok], out=returns)


def normalize(values: np.ndarray) -> np.ndarray:
    """Center by the time-average and scale by the volatility (population sd).

    Works in place on a float64 array and returns it; any other input is
    first converted to a new float64 array.  The population convention makes
    the transform idempotent up to rounding.  Returns with zero variance, or
    with an sd at most sqrt(eps) of their mean, raise ValueError.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError("need at least 2 returns to normalize")
    mean = float(np.mean(values))
    vol = float(np.std(values))
    if vol <= _MIN_RELATIVE_VOL * abs(mean):
        raise ValueError(
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


@contextmanager
def _reading(path: str | Path):
    """Text file `path`, open for the block; an OSError is a ValueError without the path.

    A file that cannot be opened is `cannot open`, and a fault while the
    block reads it, or opens it again, is `cannot read`.
    """
    try:
        fh = open(path, newline="", encoding=_ENCODING)
    except OSError as exc:
        raise ValueError(f"cannot open: {exc.strerror}") from exc
    with fh:
        try:
            yield fh
        except OSError as exc:
            raise ValueError(f"cannot read: {exc.strerror or exc}") from exc


@contextmanager
def _naming(
    prefix: str | Path | None,
    error: type[Exception] = ValueError,
    catch: type[Exception] | tuple[type[Exception], ...] = ValueError,
):
    """An exception of `catch` in the block becomes `error` from it, named `prefix: ` if given."""
    try:
        yield
    except catch as exc:
        raise error(str(exc) if prefix is None else f"{prefix}: {exc}") from exc


def _read_csv_columns(
    path: Path, columns: dict[str, type], fallback: dict[str, str] | None = None
) -> np.ndarray:
    """The named columns of CSV `path` as a structured array, one record per row.

    `columns` maps each name to its dtype; `int` is int64 on every platform,
    which numpy's default int was not on Windows before numpy 2.  The header
    is read as CSV and the columns are found in it by name, or by their
    `fallback` name, in any order; other columns are ignored.  The rows go
    through one `np.loadtxt` call: fields may be quoted, blank lines are
    skipped and a header-only file has no rows.  A missing column, a
    malformed row, a byte that is not UTF-8 or a read fault is a ValueError
    that does not name the path.  A row that is malformed or holds such a
    byte is named by the last file line of its record, unless the table is a
    pipe, which cannot be read again for it, or csv stops before that record;
    such a byte in the header, or in a pipe's first 8 KiB, keeps the codec's
    message.
    """
    fallback = fallback or {}
    with _reading(path) as fh, warnings.catch_warnings():
        # a header-only file is not malformed; each reader's checks judge no rows
        warnings.simplefilter("ignore", UserWarning)
        # older numpy parses "4.5" as the integer 4 and only warns
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float")
        # numpy reads a path in large chunks and a handle a line at a time.  A
        # pipe cannot be read twice, and numpy would decompress these names.
        source = fh if not fh.seekable() or path.name.endswith(_DECOMPRESSED_SUFFIXES) else path
        reader = csv.reader(fh)
        header = None
        try:
            with _naming(None, catch=csv.Error):  # an overlong field, or a NUL before 3.11
                header = next(reader, None)  # decodes the first 8 KiB, rows as well
            index = {name: i for i, name in enumerate(header or ())}  # last duplicate wins
            index |= {c: index[a] for c, a in fallback.items() if c not in index and a in index}
            if index.keys() >= columns.keys():
                return np.loadtxt(
                    source,
                    skiprows=reader.line_num if source is path else 0,  # the header record
                    encoding=_ENCODING,
                    dtype=[(c, np.int64 if t is int else t) for c, t in columns.items()],
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    usecols=[index[c] for c in columns],
                    ndmin=1,
                )
        except ValueError as exc:  # a UnicodeDecodeError too
            text = str(exc)
            found = _FAILED_AT.search(text)
            i = None  # the failed record, counted among non-blank records from the header's 0
            if found is not None and fh.seekable():  # a pipe's lines cannot be counted again
                fh.seek(0)  # only a malformed table is read twice, for its file line
                fh.reconfigure(errors="surrogateescape")
                reader = csv.reader(fh)
                bad = None if found[1] is None else int(found[1]) + (found[2] is not None)
                records = enumerate(record for record in reader if record)
                with suppress(StopIteration, csv.Error):  # none found, or csv stops first
                    i = next(i for i, r in records if i == bad or _UNDECODED.search(",".join(r)))
            if not i:  # not found, or in the header
                if header is None:  # the header may hold the bad byte
                    raise
                raise ValueError(f"malformed row ({exc})") from exc
            where = f" in column {header[int(found[2]) - 1]!r}" if found[2] else ""
            detail = text[: found.start()] + text[found.end() :]
            raise ValueError(f"malformed row at line {reader.line_num} ({detail}){where}") from exc
        wanted = (f"{c} (or {fallback[c]})" if c in fallback else c for c in columns)
        raise ValueError(f"expected columns {','.join(wanted)}, got {header}")


def read_price_csv(path: str | Path) -> PriceSeries:
    """Parse an instrument CSV with columns `timestamp` (integer ticks) and `price`."""
    path = Path(path)
    with _naming(path):
        rows = _read_csv_columns(path, {"timestamp": np.int64, "price": float})
        return PriceSeries(timestamps=rows["timestamp"], prices=rows["price"])


def read_ccdf_csv(path: str | Path) -> EmpiricalCCDF:
    """Parse an exceedance curve: columns `x` and `ccdf` (or `ccdf_empirical`).

    Reads the curve files that `fit` writes too: a name ending in `.json`
    is one object whose lists `x` and `ccdf_empirical` hold JSON numbers.
    Neither format's time scale or sample count is read, so the result has
    dt 1 and n_samples 0.
    """
    path = Path(path)
    with _naming(path):
        if path.suffix.lower() == ".json":
            with _reading(path) as fh:
                curve = json.load(fh)
            keys = ("x", "ccdf_empirical")  # as `fit --format json` writes them
            x, ccdf = (curve.get(key) if isinstance(curve, dict) else None for key in keys)
            if not (isinstance(x, list) and isinstance(ccdf, list)):
                raise ValueError("expected a JSON object with lists x and ccdf_empirical")
            for key, column in zip(keys, (x, ccdf)):
                for i, value in enumerate(column):
                    _check_json_number(f"{key}[{i}]", value)
        else:
            rows = _read_csv_columns(path, {"x": float, "ccdf": float}, {"ccdf": "ccdf_empirical"})
            x, ccdf = rows["x"], rows["ccdf"]
        return EmpiricalCCDF(dt=1, thresholds=x, probabilities=ccdf, n_samples=0)


def _check_json_number(name: str, value, whole: bool = False) -> None:
    """A ValueError naming `name` unless JSON `value` is a number in float range, whole if asked.

    A bool, a string and null are not numbers.  The value is quoted as JSON writes it.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or (whole and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if whole else "a number"
        raise ValueError(f"{name} must be {kind}, got {json.dumps(value)}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # float() overflows
        raise ValueError(f"{name} must be a number, got an integer past float range")
