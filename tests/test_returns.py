"""Tests for the returns pipeline: log returns, normalization, CCDFs."""

import csv
import json
import math

import numpy as np
import pytest

from qgfit.qgaussian import QGaussianParams, ccdf_abs, pdf, sample
from qgfit.returns import (
    DegenerateSeriesError,
    EmpiricalCCDF,
    GridSpec,
    PriceDataError,
    PriceSeries,
    ReturnSeries,
    ccdf_of_samples,
    empirical_ccdf,
    log_returns,
    normalize,
    numerical_pdf,
    pool,
    read_price_csv,
    write_ccdf_csv,
    write_ccdf_json,
)


def series_from_values(values, id="test"):
    return PriceSeries(id=id, timestamps=np.arange(len(values)), values=values)


class TestLogReturns:
    def test_constant_series(self):
        r = log_returns(series_from_values([100.0] * 10), dt=1)
        assert len(r) == 9
        assert r.values == pytest.approx(np.zeros(9), abs=1e-15)

    def test_exponential_growth(self):
        w = np.exp(0.01 * np.arange(50))
        r = log_returns(series_from_values(w), dt=5)
        assert len(r) == 45
        assert r.values == pytest.approx(np.full(45, 0.05), rel=1e-12)

    def test_two_point(self):
        r = log_returns(series_from_values([100.0, 101.0]), dt=1)
        assert r.values[0] == pytest.approx(math.log(1.01))

    def test_gap_skips_missing_pairs(self):
        # tick 2 missing: only (0 -> 2)-spaced pairs with both ends present count
        s = PriceSeries(id="g", timestamps=[0, 1, 3, 4], values=[1.0, 2.0, 4.0, 8.0])
        r = log_returns(s, dt=2)
        # pairs: (1 -> 3) and (..): t=0+2=2 missing, t=1+2=3 ok, t=3+2=5 missing
        assert len(r) == 1
        assert r.values[0] == pytest.approx(math.log(4.0) - math.log(2.0))

    def test_scale_invariance(self):
        w = 100.0 + np.sin(np.arange(64) / 3.0) * 5.0
        r1 = log_returns(series_from_values(w), dt=4).values
        r2 = log_returns(series_from_values(w * 73.21), dt=4).values
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
            assert np.array_equal(log_returns(s, dt).values, logw[idx[ok]] - logw[ok])


class TestNormalize:
    def test_two_values(self):
        out = normalize(ReturnSeries(dt=1, values=[1.0, 3.0]))
        assert out.values == pytest.approx([-1.0, 1.0])
        assert out.mean_removed == pytest.approx(2.0)
        assert out.volatility == pytest.approx(1.0)
        assert out.span == 2

    def test_output_contract(self):
        rng = np.random.default_rng(3)
        out = normalize(ReturnSeries(dt=2, values=rng.normal(5.0, 2.5, 1000)))
        assert abs(np.mean(out.values)) < 1e-12
        assert abs(np.std(out.values) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        once = normalize(ReturnSeries(dt=1, values=rng.normal(0.1, 3.0, 500)))
        twice = normalize(ReturnSeries(dt=1, values=once.values))
        assert twice.values == pytest.approx(once.values, abs=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateSeriesError):
            normalize(ReturnSeries(dt=1, values=[0.0, 0.0, 0.0]))


class TestPool:
    def test_single_input_unchanged(self):
        rng = np.random.default_rng(5)
        one = normalize(ReturnSeries(dt=4, values=rng.normal(0, 1, 400)))
        assert pool([one]) is one

    def test_two_copies_double_n(self):
        rng = np.random.default_rng(6)
        one = normalize(ReturnSeries(dt=4, values=rng.normal(0, 1, 300)))
        pooled = pool([one, one])
        assert pooled.span == 600
        assert np.array_equal(pooled.values, np.concatenate([one.values, one.values]))
        assert (pooled.mean_removed, pooled.volatility) == (0.0, 1.0)
        assert abs(np.std(pooled.values) - 1.0) < 1e-12

    def test_mixed_shapes_rescaled(self):
        rng = np.random.default_rng(7)
        a = normalize(ReturnSeries(dt=1, values=rng.normal(0, 1, 500)))
        b = normalize(ReturnSeries(dt=1, values=rng.standard_t(5, 500)))
        pooled = pool([a, b])
        assert abs(np.mean(pooled.values)) < 1e-12
        assert abs(np.std(pooled.values) - 1.0) < 1e-12

    def test_mismatched_dt(self):
        rng = np.random.default_rng(8)
        a = normalize(ReturnSeries(dt=1, values=rng.normal(0, 1, 100)))
        b = normalize(ReturnSeries(dt=2, values=rng.normal(0, 1, 100)))
        with pytest.raises(ValueError):
            pool([a, b])

    def test_empty(self):
        with pytest.raises(ValueError):
            pool([])


class TestEmpiricalCcdf:
    def test_counting(self):
        ccdf = ccdf_of_samples(
            np.array([0.5, 1.5, 2.5, 3.5]), dt=1, grid=GridSpec(min=1.0, max=3.0, count=3)
        )
        # thresholds 1.0, sqrt(3), 3.0 -> exceedance 3/4, 2/4, 1/4
        assert ccdf.probabilities == pytest.approx([0.75, 0.5, 0.25])

    def test_threshold_below_min(self):
        ccdf = ccdf_of_samples(
            np.array([2.0, 3.0, 4.0]), dt=1, grid=GridSpec(min=1.0, max=4.0, count=5)
        )
        assert ccdf.probabilities[0] == 1.0

    def test_zero_probability_dropped(self):
        ccdf = ccdf_of_samples(
            np.array([0.5, 1.0, 2.0]), dt=1, grid=GridSpec(min=0.1, max=10.0, count=24)
        )
        assert np.all(ccdf.probabilities > 0.0)
        assert ccdf.thresholds[-1] < 2.0

    def test_matches_model_within_binomial_error(self):
        p = QGaussianParams(2.0, 1.0)
        n = 10**6
        draws = sample(p, n, seed=13)
        ccdf = ccdf_of_samples(draws, dt=1, grid=GridSpec(min=1.0, max=1.0001, count=2))
        model = ccdf_abs(p, 1.0)
        band = 3.0 * math.sqrt(model * (1.0 - model) / n)
        assert abs(ccdf.probabilities[0] - model) <= band

    def test_monotone_for_any_input(self):
        rng = np.random.default_rng(9)
        ccdf = ccdf_of_samples(rng.standard_t(3, 5000), dt=1)
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
        out1 = empirical_ccdf(normalize(log_returns(series_from_values(w), 2)))
        out2 = empirical_ccdf(normalize(log_returns(series_from_values(w), 2)))
        assert np.array_equal(out1.thresholds, out2.thresholds)
        assert np.array_equal(out1.probabilities, out2.probabilities)


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
        ccdf = ccdf_of_samples(rng.standard_t(3, 2000), dt=1)
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
        ccdf = empirical_ccdf(normed, GridSpec(min=0.05, max=20.0, count=25))
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
    rng = np.random.default_rng(11)
    prices = 100.0 * np.exp(np.cumsum(3e-3 * rng.standard_t(3.0, 2000)))
    return "timestamp,price\n" + "".join(f"{t},{p:.17g}\n" for t, p in enumerate(prices.tolist()))


PRICE_CSV_CASES = {
    "crlf": "timestamp,price\r\n0,100.5\r\n1,101.25\r\n2,99.0\r\n",
    "reordered_extra_column": "price,volume,timestamp\n100.5,7,0\n101.25,3,1\n99,1,2\n",
    "quoted": '"timestamp","price"\n0,"100.5"\n"1",101.25\n2,99\n',
    "trailing_blank_line": "timestamp,price\n0,100.5\n1,101.25\n\n",
    "random_walk_17_digits": _walk_csv(),
}


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
        with pytest.raises(PriceDataError):
            read_price_csv(path)

    def test_nonpositive_price(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("timestamp,price\n0,1.0\n1,-3.0\n", encoding="utf-8")
        with pytest.raises(PriceDataError):
            read_price_csv(path)

    def test_ccdf_csv(self, tmp_path):
        ccdf = EmpiricalCCDF(
            dt=4, thresholds=[0.1, 1.0], probabilities=[0.9, 0.2], n_samples=50
        )
        path = tmp_path / "ccdf.csv"
        write_ccdf_csv(ccdf, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "x,ccdf,n_samples"
        assert lines[1].split(",") == ["0.1", "0.9", "50"]

    def test_ccdf_json(self, tmp_path):
        ccdf = EmpiricalCCDF(
            dt=8, thresholds=[0.5, 2.0], probabilities=[0.7, 0.1], n_samples=10
        )
        path = tmp_path / "ccdf.json"
        write_ccdf_json(ccdf, path, id="pooled")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["dt"] == 8
        assert payload["id"] == "pooled"
        assert payload["x"] == pytest.approx([0.5, 2.0])
        assert payload["n_samples"] == 10
