"""Tests for the returns pipeline: log returns, normalization, CCDFs."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qgfit.estimation import load_scale_fits
from qgfit.qgaussian import QGaussianParams, ccdf_abs, pdf, sample
from qgfit.returns import (
    DegenerateSeriesError,
    EmpiricalCCDF,
    GridSpec,
    PriceDataError,
    PriceSeries,
    empirical_ccdf,
    log_returns,
    normalize,
    numerical_pdf,
    pool,
    read_ccdf_csv,
    read_price_csv,
)


def series_from_values(values, id="test"):
    return PriceSeries(id=id, timestamps=np.arange(len(values)), values=values)


class TestLogReturns:
    def test_constant_series(self):
        r = log_returns(series_from_values([100.0] * 10), dt=1)
        assert len(r) == 9
        assert r == pytest.approx(np.zeros(9), abs=1e-15)

    def test_exponential_growth(self):
        w = np.exp(0.01 * np.arange(50))
        r = log_returns(series_from_values(w), dt=5)
        assert len(r) == 45
        assert r == pytest.approx(np.full(45, 0.05), rel=1e-12)

    def test_two_point(self):
        r = log_returns(series_from_values([100.0, 101.0]), dt=1)
        assert r[0] == pytest.approx(math.log(1.01))

    def test_gap_skips_missing_pairs(self):
        # tick 2 missing: only (0 -> 2)-spaced pairs with both ends present count
        s = PriceSeries(id="g", timestamps=[0, 1, 3, 4], values=[1.0, 2.0, 4.0, 8.0])
        r = log_returns(s, dt=2)
        # pairs: (1 -> 3) and (..): t=0+2=2 missing, t=1+2=3 ok, t=3+2=5 missing
        assert len(r) == 1
        assert r[0] == pytest.approx(math.log(4.0) - math.log(2.0))

    def test_scale_invariance(self):
        w = 100.0 + np.sin(np.arange(64) / 3.0) * 5.0
        r1 = log_returns(series_from_values(w), dt=4)
        r2 = log_returns(series_from_values(w * 73.21), dt=4)
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_dt_too_large(self):
        with pytest.raises(ValueError):
            log_returns(series_from_values([1.0, 2.0, 3.0]), dt=3)

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError):
            series_from_values([1.0, -2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_prices(self, bad):
        with pytest.raises(ValueError, match="prices must be finite"):
            series_from_values([1.0, bad, 3.0])

    def test_contiguous_matches_searchsorted_gather(self):
        rng = np.random.default_rng(3)
        w = 100.0 * np.exp(np.cumsum(1e-2 * rng.standard_normal(5000)))
        s = PriceSeries(id="w", timestamps=np.arange(7, 5007), values=w)
        ts, logw = s.timestamps, np.log(w)
        for dt in (1, 4, 390, 4999):
            # the pair lookup used for gapped series, applied to every series
            idx = np.searchsorted(ts, ts + dt)
            ok = idx < len(ts)
            ok[ok] &= ts[idx[ok]] == ts[ok] + dt
            assert np.array_equal(log_returns(s, dt), logw[idx[ok]] - logw[ok])


class TestNormalize:
    def test_two_values(self):
        values = np.array([1.0, 3.0])
        out = normalize(values)
        assert out == pytest.approx([-1.0, 1.0])
        # mean 2 removed and volatility 1 divided out, in place
        assert out is values

    def test_output_contract(self):
        rng = np.random.default_rng(3)
        out = normalize(rng.normal(5.0, 2.5, 1000))
        assert abs(np.mean(out)) < 1e-12
        assert abs(np.std(out) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        once = normalize(rng.normal(0.1, 3.0, 500))
        twice = normalize(once.copy())
        assert twice == pytest.approx(once, abs=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateSeriesError):
            normalize([0.0, 0.0, 0.0])

    def test_constant_up_to_rounding(self):
        # sd 2^-53 against a mean of 1: centering would give [0, 2], mean 1
        with pytest.raises(DegenerateSeriesError):
            normalize([1.0, 1.0 + 2.0**-52])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalize([1.0])


class TestPool:
    def test_single_input_unchanged(self):
        rng = np.random.default_rng(5)
        one = normalize(rng.normal(0, 1, 400))
        assert pool([one]) is one

    def test_two_copies_double_n(self):
        rng = np.random.default_rng(6)
        one = normalize(rng.normal(0, 1, 300))
        pooled = pool([one, one])
        assert len(pooled) == 600
        assert np.array_equal(pooled, np.concatenate([one, one]))
        assert abs(np.mean(pooled)) < 1e-12
        assert abs(np.std(pooled) - 1.0) < 1e-12

    def test_mixed_shapes_rescaled(self):
        rng = np.random.default_rng(7)
        a = normalize(rng.normal(0, 1, 500))
        b = normalize(rng.standard_t(5, 500))
        pooled = pool([a, b])
        assert abs(np.mean(pooled)) < 1e-12
        assert abs(np.std(pooled) - 1.0) < 1e-12

    def test_empty(self):
        with pytest.raises(ValueError):
            pool([])


class TestEmpiricalCcdf:
    def test_counting(self):
        ccdf = empirical_ccdf(
            np.array([0.5, 1.5, 2.5, 3.5]), dt=1, grid=GridSpec(min=1.0, max=3.0, count=3)
        )
        # thresholds 1.0, sqrt(3), 3.0 -> exceedance 3/4, 2/4, 1/4
        assert ccdf.probabilities == pytest.approx([0.75, 0.5, 0.25])

    def test_threshold_below_min(self):
        ccdf = empirical_ccdf(
            np.array([2.0, 3.0, 4.0]), dt=1, grid=GridSpec(min=1.0, max=4.0, count=5)
        )
        assert ccdf.probabilities[0] == 1.0

    def test_zero_probability_dropped(self):
        ccdf = empirical_ccdf(
            np.array([0.5, 1.0, 2.0]), dt=1, grid=GridSpec(min=0.1, max=10.0, count=24)
        )
        assert np.all(ccdf.probabilities > 0.0)
        assert ccdf.thresholds[-1] < 2.0

    def test_matches_model_within_binomial_error(self):
        p = QGaussianParams(2.0, 1.0)
        n = 10**6
        draws = sample(p, n, seed=13)
        ccdf = empirical_ccdf(draws, dt=1, grid=GridSpec(min=1.0, max=1.0001, count=2))
        model = ccdf_abs(p, 1.0)
        band = 3.0 * math.sqrt(model * (1.0 - model) / n)
        assert abs(ccdf.probabilities[0] - model) <= band

    def test_monotone_for_any_input(self):
        rng = np.random.default_rng(9)
        ccdf = empirical_ccdf(rng.standard_t(3, 5000), dt=1)
        assert np.all(np.diff(ccdf.probabilities) <= 0.0)

    @pytest.mark.parametrize(
        "x,p",
        [
            ([1.0, 2.0, np.inf], [0.5, 0.25, 0.1]),
            ([np.nan, 2.0, 3.0], [0.5, 0.25, 0.1]),
            ([1.0, 2.0, 3.0], [0.5, np.nan, 0.1]),
        ],
        ids=["inf_threshold", "nan_threshold", "nan_probability"],
    )
    def test_rejects_non_finite(self, x, p):
        with pytest.raises(ValueError, match="must be finite"):
            EmpiricalCCDF(dt=1, thresholds=x, probabilities=p, n_samples=0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridSpec(min=2.0, max=1.0)
        with pytest.raises(ValueError):
            GridSpec(count=1)

    def test_deterministic(self):
        w = 100.0 * np.exp(np.cumsum(np.sin(np.arange(300)) * 0.01))
        out1 = empirical_ccdf(normalize(log_returns(series_from_values(w), 2)), dt=2)
        out2 = empirical_ccdf(normalize(log_returns(series_from_values(w), 2)), dt=2)
        assert np.array_equal(out1.thresholds, out2.thresholds)
        assert np.array_equal(out1.probabilities, out2.probabilities)


def kept_grid(grid_min, top, absr, count=60):
    """The log grid from grid_min to top, less the thresholds no |value| exceeds."""
    grid = np.geomspace(grid_min, top, count)
    return grid[grid < absr.max()]


class TestGridCap:
    """Without grid.max, a sample of n > 1000 tops the grid at sorted |r|[n - 100]."""

    @staticmethod
    def draws(n):
        return np.random.default_rng(12).standard_t(3, n)

    def test_1000_values_top_at_maximum(self):
        values = self.draws(1000)
        absr = np.abs(values)
        ccdf = empirical_ccdf(values, dt=1)
        assert np.array_equal(ccdf.thresholds, kept_grid(1e-2, absr.max(), absr))

    def test_1001_values_top_at_order_statistic(self):
        values = self.draws(1001)
        cap = np.sort(np.abs(values))[1001 - 100]
        ccdf = empirical_ccdf(values, dt=1)
        assert np.array_equal(ccdf.thresholds, np.geomspace(1e-2, cap, 60))
        assert ccdf.thresholds[-1] == cap
        assert ccdf.probabilities[-1] == 99 / 1001

    @pytest.mark.parametrize("factor", [1.0, 2.0], ids=["at_min", "below_min"])
    def test_cap_not_above_min_falls_back_to_maximum(self, factor):
        values = self.draws(1001)
        absr = np.abs(values)
        grid_min = factor * np.sort(absr)[1001 - 100]
        assert grid_min < absr.max()
        ccdf = empirical_ccdf(values, dt=1, grid=GridSpec(min=grid_min))
        assert np.array_equal(ccdf.thresholds, kept_grid(grid_min, absr.max(), absr))

    @pytest.mark.parametrize("top", [0.5, 3.0, 1e3])
    def test_explicit_max_never_moved(self, top):
        values = self.draws(5000)
        absr = np.abs(values)
        ccdf = empirical_ccdf(values, dt=1, grid=GridSpec(max=top))
        assert np.array_equal(ccdf.thresholds, kept_grid(1e-2, top, absr))


# Returns with |r| <= 10, 2 to 2,000 of them, and a population sd of at least
# 0.1.  Rounding in the mean is about 1e-15 of the largest |r| and is divided
# by the sd: 2,000 values of mean 9.7 and sd 1e-3 normalize to a mean of 2e-12.
RETURNS = arrays(
    np.float64,
    st.integers(2, 2000),
    elements=st.floats(-10.0, 10.0, allow_subnormal=False),
).filter(lambda r: np.std(r) >= 0.1)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def assert_standardized(values):
    assert abs(np.mean(values)) <= 1e-12
    assert abs(np.std(values) - 1.0) <= 1e-12


class TestProperties:
    @PROPERTY
    @given(RETURNS)
    def test_normalize_standardizes_and_is_idempotent(self, r):
        once = normalize(r)
        assert_standardized(once)
        twice = normalize(once.copy())
        assert np.max(np.abs(twice - once)) <= 1e-12

    @PROPERTY
    @given(st.lists(RETURNS, min_size=1, max_size=5))
    def test_pool_keeps_standardization(self, batches):
        assert_standardized(pool([normalize(r) for r in batches]))

    @PROPERTY
    @given(RETURNS)
    def test_ccdf_probabilities_in_unit_interval_and_non_increasing(self, r):
        values = normalize(r)
        before = values.copy()
        p = empirical_ccdf(values, dt=1).probabilities
        assert np.all((p > 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) <= 0.0)
        assert np.array_equal(values, before)


class TestNumericalPdf:
    def test_linear_ccdf_constant_density(self):
        x = np.linspace(0.1, 0.9, 9)
        ccdf = EmpiricalCCDF(dt=1, thresholds=x, probabilities=1.0 - x, n_samples=100)
        mids, dens = numerical_pdf(ccdf)
        assert dens == pytest.approx(np.ones(8), rel=1e-12)
        assert mids == pytest.approx(np.sqrt(x[:-1] * x[1:]))

    def test_recovers_folded_density(self):
        # exact exceedance curve of the Cauchy case, differentiated back
        p = QGaussianParams(2.0, 1.0)
        x = np.geomspace(0.05, 20.0, 400)
        ccdf = EmpiricalCCDF(
            dt=1, thresholds=x, probabilities=ccdf_abs(p, x), n_samples=1
        )
        mids, dens = numerical_pdf(ccdf)
        keep = (mids >= 0.1) & (mids <= 10.0)
        expected = 2.0 * pdf(p, mids[keep])
        assert dens[keep] == pytest.approx(expected, rel=0.01)

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        ccdf = empirical_ccdf(rng.standard_t(3, 2000), dt=1)
        _, dens = numerical_pdf(ccdf)
        assert np.all(dens >= 0.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            numerical_pdf(
                EmpiricalCCDF(dt=1, thresholds=[1.0, 2.0], probabilities=[0.5, 0.25], n_samples=4)
            )


class TestEndToEnd:
    def test_geometric_walk_recovers_generator_ccdf(self):
        # geometric walk whose log increments are q-Gaussian draws: the
        # pipeline's empirical CCDF must match the generator's model CCDF
        # within binomial error bands at every grid point.
        p = QGaussianParams(1.5, 1.0)
        n = 200_000
        draws = sample(p, n, seed=21)
        # keep the walk inside float64 exp range; the constant factor drops
        # out of the normalized returns exactly
        logw = np.cumsum(0.05 * draws)
        prices = series_from_values(100.0 * np.exp(logw - logw.max()), id="walk")
        normed = normalize(log_returns(prices, dt=1))
        ccdf = empirical_ccdf(normed, dt=1, grid=GridSpec(min=0.05, max=20.0, count=25))
        # normalized returns are the standardized draws, so the model is the
        # generator rescaled by the sample variance
        sd = float(np.std(draws))
        model_params = QGaussianParams(p.q, p.beta * sd * sd)
        for x, emp in zip(ccdf.thresholds, ccdf.probabilities):
            model = ccdf_abs(model_params, float(x))
            band = 3.0 * math.sqrt(model * (1.0 - model) / n) + 1.0 / n
            assert abs(emp - model) <= band


def dictreader_prices(path):
    """Reference parse: one csv.DictReader row at a time, Python int and float."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    timestamps = np.array([int(r["timestamp"]) for r in rows], dtype=np.int64)
    prices = np.array([float(r["price"]) for r in rows], dtype=float)
    return timestamps, prices


def _walk_csv():
    # falling steps keep the prices an exceedance curve and a beta column too
    rng = np.random.default_rng(11)
    prices = np.exp(-np.cumsum(rng.exponential(3e-3, 2000)))
    rows = (f"{t},2,{p:.17g}\n" for t, p in enumerate(prices.tolist(), 1))
    return "timestamp,volume,price\n" + "".join(rows)


# Every table reader parses these.  The values also make a valid exceedance
# curve (x from timestamp, ccdf from price) and fits table (dt from
# timestamp, beta from price, q from volume).
PRICE_CSV_CASES = {
    "crlf": "timestamp,volume,price\r\n1,2,0.75\r\n2,2,0.5\r\n4,2,0.25\r\n",
    "reordered_extra_column": "price,volume,timestamp\n0.75,2,1\n0.5,1.5,2\n0.25,1.25,4\n",
    "quoted": '"timestamp","volume","price"\n1,2,"0.75"\n"2","2",0.5\n4,2,0.25\n',
    "trailing_blank_line": "timestamp,volume,price\n1,2,0.75\n2,2,0.5\n\n",
    "random_walk_17_digits": _walk_csv(),
}

# The curve and fits readers: the header renames that turn a case into their
# table, and the two columns of their result read from timestamp and price.
TABLE_READERS = {
    "curve": (
        read_ccdf_csv,
        {"timestamp": "x", "price": "ccdf"},
        lambda ccdf: (ccdf.thresholds, ccdf.probabilities),
    ),
    "fits": (
        load_scale_fits,
        {"timestamp": "dt", "price": "beta", "volume": "q"},
        lambda fits: ([f.dt for f in fits], [f.beta for f in fits]),
    ),
}


def write_table(path, text, renames):
    for old, new in renames.items():
        text = text.replace(old, new)
    path.write_bytes(text.encode("utf-8"))
    return path


class TestIO:
    @pytest.mark.parametrize("case", sorted(PRICE_CSV_CASES))
    def test_price_csv_matches_dictreader(self, tmp_path, case):
        path = tmp_path / "prices.csv"
        path.write_bytes(PRICE_CSV_CASES[case].encode("utf-8"))
        series = read_price_csv(path)
        timestamps, prices = dictreader_prices(path)
        assert series.timestamps.dtype == np.int64
        assert np.array_equal(series.timestamps, timestamps)
        assert np.array_equal(series.values, prices)

    @pytest.mark.parametrize("reader", sorted(TABLE_READERS))
    @pytest.mark.parametrize("case", sorted(PRICE_CSV_CASES))
    def test_table_csv_matches_dictreader(self, tmp_path, case, reader):
        read, renames, columns = TABLE_READERS[reader]
        text = PRICE_CSV_CASES[case]
        first, second = columns(read(write_table(tmp_path / "table.csv", text, renames)))
        timestamps, prices = dictreader_prices(write_table(tmp_path / "prices.csv", text, {}))
        assert np.array_equal(first, timestamps)
        assert np.array_equal(second, prices)

    @pytest.mark.parametrize("reader", sorted(TABLE_READERS))
    def test_table_short_row(self, tmp_path, reader):
        read, renames, _ = TABLE_READERS[reader]
        text = "timestamp,volume,price\n1,2,0.75\n2\n"
        with pytest.raises(ValueError, match="malformed row"):
            read(write_table(tmp_path / "table.csv", text, renames))

    def test_ccdf_column_preferred_over_ccdf_empirical(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("ccdf_empirical,x,ccdf\n0.9,1,0.5\n0.8,2,0.25\n", encoding="utf-8")
        assert read_ccdf_csv(path).probabilities.tolist() == [0.5, 0.25]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,price\n", encoding="utf-8")
        with pytest.raises(PriceDataError, match="at least 2 samples"):
            read_price_csv(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,price\n0,1.0\n1\n", encoding="utf-8")
        with pytest.raises(PriceDataError, match="malformed row"):
            read_price_csv(path)

    def test_price_csv_round_trip(self, tmp_path):
        path = tmp_path / "acme.csv"
        path.write_text("timestamp,price\n0,100.0\n1,101.5\n2,99.75\n", encoding="utf-8")
        s = read_price_csv(path)
        assert s.id == "acme"
        assert list(s.timestamps) == [0, 1, 2]
        assert s.values == pytest.approx([100.0, 101.5, 99.75])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,px\n0,1.0\n", encoding="utf-8")
        with pytest.raises(PriceDataError):
            read_price_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,price\n0,hello\n", encoding="utf-8")
        with pytest.raises(PriceDataError, match="in column 'price'"):
            read_price_csv(path)

    def test_bad_row_column_named_from_numpy_suffix(self, tmp_path):
        # numpy quotes the bad value before naming its column
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,price\n0,column 9\n", encoding="utf-8")
        with pytest.raises(PriceDataError, match="in column 'price'"):
            read_price_csv(path)

    def test_nonpositive_price(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("timestamp,price\n0,1.0\n1,-3.0\n", encoding="utf-8")
        with pytest.raises(PriceDataError):
            read_price_csv(path)
