"""Tests for the returns pipeline: log returns, normalization, CCDFs."""

import csv
import gzip
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qgfit.estimation import fit_ladder, load_scale_fits
from qgfit.qgaussian import QGaussianParams, ccdf_abs, pdf, sample
from qgfit.returns import (
    EmpiricalCCDF,
    GridSpec,
    PriceSeries,
    empirical_ccdf,
    log_returns,
    normalize,
    numerical_pdf,
    pool,
    read_ccdf_csv,
    read_price_csv,
)


def series_from_values(values):
    return PriceSeries(timestamps=np.arange(len(values)), prices=values)


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
        s = PriceSeries(timestamps=[0, 1, 3, 4], prices=[1.0, 2.0, 4.0, 8.0])
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
        with pytest.raises(ValueError, match="dt must be a positive integer, got 0"):
            log_returns(series_from_values([1.0, 2.0, 3.0]), dt=0)

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
        s = PriceSeries(timestamps=np.arange(7, 5007), prices=w)
        ts, logw = s.timestamps, np.log(w)
        for dt in (1, 4, 390, 4999):
            # the pair lookup used for gapped series, applied to every series
            idx = np.searchsorted(ts, ts + dt)
            ok = idx < len(ts)
            ok[ok] &= ts[idx[ok]] == ts[ok] + dt
            assert np.array_equal(log_returns(s, dt), logw[idx[ok]] - logw[ok])


class TestPriceSeriesInput:
    """Ticks are a 1-D integer array within int64 and prices a 1-D array, or ValueError."""

    @pytest.mark.parametrize(
        "timestamps, dtype",
        [
            ([0.5, 1.5, 2.7], "float64"),  # not truncated to 0, 1, 2
            ([0.0, 1.0, 2.0], "float64"),
            ([0.0, 1e19, 2e19], "float64"),  # past int64
            (np.array([0, 1, 2], dtype=np.uint64), "uint64"),
            ([0, 2**64, 2**65], "object"),
            (["0", "1", "2"], "<U1"),
            ([False, True, True], "bool"),
        ],
    )
    def test_ticks_not_int64_integers_rejected(self, timestamps, dtype):
        message = f"timestamps must be integers within int64, got dtype {re.escape(dtype)}$"
        with pytest.raises(ValueError, match=message):
            PriceSeries(timestamps=timestamps, prices=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint32, np.int64])
    def test_integer_ticks_kept_as_int64(self, dtype):
        s = PriceSeries(timestamps=np.array([1, 2, 4], dtype=dtype), prices=[1.0, 2.0, 3.0])
        assert s.timestamps.dtype == np.int64
        assert s.timestamps.tolist() == [1, 2, 4]

    @pytest.mark.parametrize(
        "timestamps, prices, shapes",
        [
            ([[0, 1], [2, 3]], [[1.0, 2.0], [3.0, 4.0]], "(2, 2) and (2, 2)"),
            ([0, 1, 2], [[1.0, 2.0, 3.0]], "(3,) and (1, 3)"),
            (0, 1.0, "() and ()"),
        ],
    )
    def test_not_1d_rejected(self, timestamps, prices, shapes):
        with pytest.raises(ValueError, match=re.escape(f"must be 1-D, got shapes {shapes}")):
            PriceSeries(timestamps=timestamps, prices=prices)

    @pytest.mark.parametrize(
        "timestamps, prices, message",
        [
            ([], [], "price series needs at least 2 samples"),
            ([0.5], [1.0], "price series needs at least 2 samples"),
            ([0, 1], [1.0], "timestamps and prices must have equal length"),
            ([0.5, 1.5], [1.0], "timestamps and prices must have equal length"),
            ([1, 1], [1.0, 2.0], "timestamps must be strictly increasing"),
        ],
    )
    def test_length_and_order_messages(self, timestamps, prices, message):
        # the length is checked before the dtype: an empty list is float64
        with pytest.raises(ValueError, match=f"^{message}$"):
            PriceSeries(timestamps=timestamps, prices=prices)

    def test_contiguous_int64_ticks_copied(self):
        # a gapped grid keeps its own ticks: the caller's stay theirs to write
        ticks = np.array([0, 1, 3, 4], dtype=np.int64)
        s = PriceSeries(timestamps=ticks, prices=[1.0, 2.0, 4.0, 8.0])
        assert s.timestamps is not ticks and ticks.flags.writeable
        ticks[:] = [0, 10, 20, 30]
        assert log_returns(s, 1).tolist() == pytest.approx([math.log(2.0)] * 2)

    def test_strided_ticks_copied_out(self):
        records = np.array([(0, 1.0), (1, 2.0)], dtype=[("timestamp", np.int64), ("price", float)])
        s = PriceSeries(timestamps=records["timestamp"], prices=records["price"])
        assert s.timestamps.flags.owndata and s.timestamps.flags.c_contiguous
        assert not np.shares_memory(s.timestamps, records)

    @pytest.mark.parametrize("name", ["timestamps", "log_values", "prices", "unknown"])
    def test_attributes_cannot_be_assigned_or_deleted(self, name):
        for ticks in ([0, 1, 2], [0, 1, 3]):  # unbroken and gapped
            s = PriceSeries(timestamps=ticks, prices=[1.0, 2.0, 3.0])
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(s, name, np.zeros(3))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(s, name)
            assert s.timestamps.tolist() == ticks

    def test_log_values_are_read_only(self):
        for ticks in ([0, 1, 2], [0, 1, 3]):  # unbroken and gapped
            s = PriceSeries(timestamps=ticks, prices=[1.0, 2.0, 4.0])
            with pytest.raises(ValueError, match="read-only"):
                s.log_values[:] = 0.0
            assert s.log_values.tolist() == np.log([1.0, 2.0, 4.0]).tolist()


def _ccdf(thresholds, probabilities):
    return EmpiricalCCDF(dt=1, thresholds=thresholds, probabilities=probabilities, n_samples=10)


@pytest.mark.parametrize(
    ("make", "first", "second", "names"),
    [
        pytest.param(
            PriceSeries,
            np.arange(3, dtype=np.int64),
            np.array([1.0, 2.0, 4.0]),
            ["log_values"],
            id="unbroken_series",
        ),
        pytest.param(
            PriceSeries,
            np.array([0, 1, 3], dtype=np.int64),
            np.array([1.0, 2.0, 4.0]),
            ["timestamps", "log_values"],
            id="gapped_series",
        ),
        pytest.param(
            _ccdf,
            np.array([0.1, 0.2, 0.4]),
            np.array([0.9, 0.5, 0.1]),
            ["thresholds", "probabilities"],
            id="ccdf_arrays",
        ),
        # as read_ccdf_csv builds a curve from a JSON file's lists
        pytest.param(
            _ccdf,
            [0.1, 0.2, 0.4],
            [0.9, 0.5, 0.1],
            ["thresholds", "probabilities"],
            id="ccdf_lists",
        ),
    ],
)
def test_record_arrays_are_read_only_copies(make, first, second, names):
    """A record's checks hold for its life: no one can write into the arrays it holds."""
    record = make(first, second)
    for name in names:
        held = getattr(record, name)
        assert not held.flags.writeable, name
        assert not any(np.shares_memory(held, given) for given in (first, second)), name
        before = held.tolist()
        with pytest.raises(ValueError, match="read-only"):
            held[:] = -1.0
        assert held.tolist() == before, name


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class TestInt64Timestamps:
    """Ticks at the ends of int64: no difference or pair target may wrap around."""

    def test_limits_are_increasing(self, tmp_path):
        path = tmp_path / "limits.csv"
        path.write_text(f"timestamp,price\n{INT64_MIN},100\n0,101\n{INT64_MAX},102\n")
        s = read_price_csv(path)
        assert s.timestamps.tolist() == [INT64_MIN, 0, INT64_MAX]
        # no two ticks are 1 apart; max + 1 would wrap onto min
        assert len(log_returns(s, dt=1)) == 0

    @pytest.mark.parametrize(
        "ticks",
        [
            [INT64_MIN, INT64_MIN + 1, INT64_MIN + 2],
            [INT64_MAX - 2, INT64_MAX - 1, INT64_MAX],
            np.array([-128, -127, -126], dtype=np.int8),
            np.array([2**32 - 3, 2**32 - 2, 2**32 - 1], dtype=np.uint32),
        ],
        ids=["int64_min", "int64_max", "int8_min", "uint32_max"],
    )
    def test_unbroken_grid_at_the_ends_round_trips(self, ticks):
        s = PriceSeries(timestamps=ticks, prices=[1.0, 2.0, 8.0])
        assert s.timestamps.dtype == np.int64
        assert s.timestamps.tolist() == list(map(int, ticks))
        assert log_returns(s, dt=2).tolist() == [math.log(8.0)]

    def test_wrapping_step_rejected(self):
        # max to min is a decrease whose int64 difference wraps to +1
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries(timestamps=[INT64_MAX, INT64_MIN], prices=[1.0, 2.0])

    @pytest.mark.parametrize(
        "timestamps, pairs",
        [
            ([INT64_MAX - 2, INT64_MAX - 1, INT64_MAX], [(0, 1), (1, 2)]),
            ([INT64_MAX - 3, INT64_MAX - 1, INT64_MAX], [(1, 2)]),
        ],
        ids=["contiguous", "gap"],
    )
    def test_unit_step_series_ending_at_max(self, timestamps, pairs):
        values = [1.0, 2.0, 8.0]
        r = log_returns(PriceSeries(timestamps=timestamps, prices=values), dt=1)
        assert r.tolist() == [math.log(values[j]) - math.log(values[i]) for i, j in pairs]


@st.composite
def gapped_series(draw):
    """Prices on a random tick set with gaps, and a dt.

    The ticks lie in one to three 16-tick windows, each at an end of int64 or
    anywhere in it, so a pair target past int64 max would wrap onto a tick.
    """
    edges = st.sampled_from([INT64_MIN, INT64_MAX - 15])
    anchors = st.one_of(edges, st.integers(INT64_MIN, INT64_MAX - 15))
    clusters = draw(st.lists(st.tuples(anchors, st.sets(st.integers(0, 15))), max_size=3))
    ticks = sorted({anchor + offset for anchor, offsets in clusters for offset in offsets})
    assume(len(ticks) >= 3 and ticks[-1] - ticks[0] != len(ticks) - 1)  # the searchsorted path
    prices = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(ticks), max_size=len(ticks)))
    dt = draw(st.integers(1, len(ticks) - 1))
    return ticks, prices, dt


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gapped_series())
def test_gapped_log_returns_match_tick_pairing(case):
    # Python ints do not wrap: a tick past int64 max - dt has no pair
    ticks, prices, dt = case
    log_price = dict(zip(ticks, np.log(prices).tolist()))
    expected = [log_price[t + dt] - log_price[t] for t in ticks if t + dt in log_price]
    series = PriceSeries(timestamps=ticks, prices=prices)
    assert log_returns(series, dt).tolist() == expected


ZERO_VARIANCE = "returns have zero variance (up to rounding of their mean); cannot normalize"


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
        with pytest.raises(ValueError, match=re.escape(ZERO_VARIANCE)):
            normalize([0.0, 0.0, 0.0])

    def test_constant_up_to_rounding(self):
        # sd 2^-53 against a mean of 1: centering would give [0, 2], mean 1
        with pytest.raises(ValueError, match=re.escape(ZERO_VARIANCE)):
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
        # nor is an empty sample a curve
        with pytest.raises(ValueError, match="cannot build a CCDF from an empty sample"):
            empirical_ccdf(np.array([]), dt=1)


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
        "x,p,message",
        [
            ([1.0, 2.0, np.inf], [0.5, 0.25, 0.1], "must be finite"),
            ([np.nan, 2.0, 3.0], [0.5, 0.25, 0.1], "must be finite"),
            ([1.0, 2.0, 3.0], [0.5, np.nan, 0.1], "must be finite"),
            ([1.0, 2.0], [0.5, 0.25, 0.1], "must have equal length"),
        ],
        ids=["inf_threshold", "nan_threshold", "nan_probability", "unequal_length"],
    )
    def test_rejects_non_finite(self, x, p, message):
        with pytest.raises(ValueError, match=message):
            EmpiricalCCDF(dt=1, thresholds=x, probabilities=p, n_samples=0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridSpec(min=2.0, max=1.0)
        with pytest.raises(ValueError):
            GridSpec(count=1)

    @pytest.mark.parametrize("count", [60.5, 60.0, "60"])
    def test_non_integer_grid_count(self, count):
        with pytest.raises(ValueError, match="grid count must be an integer"):
            GridSpec(count=count)

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
        prices = series_from_values(100.0 * np.exp(logw - logw.max()))
        [(ccdf, _)] = fit_ladder({"walk": prices}, (1,), GridSpec(min=0.05, max=20.0, count=25))
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

PRICE_READER = (read_price_csv, {}, lambda series: (series.timestamps, series.log_values))


def write_table(path, text, renames):
    for old, new in renames.items():
        text = text.replace(old, new)
    path.write_bytes(text.encode("utf-8"))
    return path


def read_through_pipe(tmp_path, text):
    """`read_price_csv` of `text`, or of its bytes, written into a named pipe by another thread."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return read_price_csv(pipe)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def named(path, pattern):
    """A `pytest.raises` match: a reader's message names `path` first, then matches `pattern`."""
    return f"^{re.escape(str(path))}: .*{pattern}"


SHORT_ROW = "(invalid column index 1 with 1 columns)"
BAD_PRICE = "(could not convert string 'x' to float64) in column 'price'"


class TestIO:
    @pytest.mark.parametrize("case", sorted(PRICE_CSV_CASES))
    def test_price_csv_matches_dictreader(self, tmp_path, case):
        path = tmp_path / "prices.csv"
        path.write_bytes(PRICE_CSV_CASES[case].encode("utf-8"))
        series = read_price_csv(path)
        timestamps, prices = dictreader_prices(path)
        assert series.timestamps.dtype == np.int64
        assert np.array_equal(series.timestamps, timestamps)
        assert np.array_equal(series.log_values, np.log(prices))

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

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "lines, line, message",
        [
            (["0,1.0", "1"], 3, SHORT_ROW),
            (["0,1.0", "1,x"], 3, BAD_PRICE),
            (["0,1.0", "", "1"], 4, SHORT_ROW),
            (["0,1.0", "", "1,x"], 4, BAD_PRICE),
            (["", '"0",1.0', "", "", "1,x", "2,3.0"], 6, BAD_PRICE),
            (['"0', '",1.0', "1"], 4, SHORT_ROW),
        ],
        ids=["short", "bad_value", "blank_short", "blank_bad_value", "blanks", "quoted_newline"],
    )
    def test_malformed_row_names_file_line(self, tmp_path, newline, lines, line, message):
        # numpy counts data rows, from 0 or from 1 by the kind of error
        path = tmp_path / "bad.csv"
        path.write_bytes(newline.join(["timestamp,price", *lines, ""]).encode("utf-8"))
        with pytest.raises(ValueError) as info:
            read_price_csv(path)
        assert str(info.value).startswith(f"{path}: malformed row at line {line} {message}")
        assert "at row" not in str(info.value)

    @pytest.mark.parametrize(
        "reader, name",
        [
            pytest.param("curve", "table.csv", id="curve"),
            pytest.param("fits", "table.csv", id="fits"),
            # a name numpy would decompress: the rows are read from the open handle
            pytest.param("curve", "table.csv.gz", id="curve-csv_gz"),
            pytest.param("fits", "table.csv.gz", id="fits-csv_gz"),
        ],
    )
    def test_table_malformed_row_names_file_line(self, tmp_path, reader, name):
        read, renames, _ = TABLE_READERS[reader]
        text = "timestamp,volume,price\r\n1,2,0.75\r\n\r\n2,3,x\r\n"
        with pytest.raises(ValueError, match=r"malformed row at line 4 \(could not convert"):
            read(write_table(tmp_path / name, text, renames))

    @pytest.mark.parametrize(
        "newline, line, name",
        [
            pytest.param(b"\n", 30_001, "prices.csv", id="lf"),
            pytest.param(b"\r\n", 30_001, "prices.csv", id="crlf"),
            # the first 8 KiB are decoded while the header is read
            pytest.param(b"\n", 11, "prices.csv", id="line_11-lf"),
            pytest.param(b"\r\n", 601, "prices.csv", id="line_601-crlf"),
            # a name numpy would decompress: the rows are read from the open handle
            pytest.param(b"\n", 30_001, "prices.csv.gz", id="csv_gz-lf"),
            pytest.param(b"\n", 11, "prices.csv.gz", id="csv_gz-line_11-lf"),
        ],
    )
    def test_undecodable_byte_names_file_line(self, tmp_path, newline, line, name):
        # numpy reads the rows in chunks, and the codec's position is an offset into one
        rows = [b"timestamp,price", *(b"%d,1.5" % t for t in range(30_000))]
        rows[line - 1] = b"\xff" + rows[line - 1]
        data = newline.join([*rows, b""])
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_price_csv(path)
        assert str(info.value) == (
            f"{path}: malformed row at line {line} "
            "('utf-8' codec can't decode byte 0xff: invalid start byte)"
        )
        if hasattr(os, "mkfifo"):
            # a pipe cannot be read again for the line: the codec's message stands, in the
            # first 8 KiB as the header read gives it, since the header may hold the byte
            pattern = r"malformed row \('utf-8' .* in position"
            if line < len(rows):
                pattern = rf"'utf-8' codec can't decode byte 0xff in position {data.index(0xFF)}:"
                data = data[: 2**13]  # the reader stops in the first 8 KiB
            with pytest.raises(ValueError, match=named(tmp_path / "pipe", pattern)):
                read_through_pipe(tmp_path, data)

    @pytest.mark.parametrize("rows_before", [1, 2_900], ids=["first_8_kib", "past_8_kib"])
    @pytest.mark.parametrize(
        "record, message",
        [
            (b'"3\n.0"', "(could not convert string '3\\n.0' to float64) in column 'price'"),
            (b'"3\xff\n.0"', "('utf-8' codec can't decode byte 0xff: invalid start byte)"),
            (b'"3\n\xff.0"', "('utf-8' codec can't decode byte 0xff: invalid start byte)"),
        ],
        ids=["bad_value", "bad_byte_first_line", "bad_byte_last_line"],
    )
    def test_record_over_two_lines_named_by_its_last_line(
        self, tmp_path, rows_before, record, message
    ):
        # a quoted newline: one record, and the bad value's rule holds for a bad byte too
        rows = [b"timestamp,price", *(b"%d,1.5" % t for t in range(rows_before))]
        path = tmp_path / "prices.csv"
        path.write_bytes(b"\n".join([*rows, b"%d," % rows_before + record, b"9999,1", b""]))
        with pytest.raises(ValueError) as info:
            read_price_csv(path)
        assert str(info.value) == f"{path}: malformed row at line {rows_before + 3} {message}"

    @pytest.mark.parametrize("reader", ["price", *sorted(TABLE_READERS), "fits_json"])
    def test_byte_order_mark_ignored(self, tmp_path, reader):
        # Excel's "CSV UTF-8" files start with one
        read, renames, columns = TABLE_READERS.get(reader.removesuffix("_json"), PRICE_READER)
        plain = write_table(tmp_path / "table.csv", PRICE_CSV_CASES["crlf"], renames)
        if reader == "fits_json":
            plain = tmp_path / "fits.json"
            plain.write_text('[{"dt": 4, "q": 1.5, "beta": 1.2}]\n', encoding="utf-8")
        marked = tmp_path / f"bom_{plain.name}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        pairs = zip(columns(read(marked)), columns(read(plain)))
        assert all(np.array_equal(a, b) for a, b in pairs)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("name", ["prices.csv", "curve.csv", "fits.csv", "fits.json"])
    def test_unopenable_file(self, tmp_path, kind, name):
        # an input that cannot be opened is a data error, not an OSError
        read = {"prices.csv": read_price_csv, "curve.csv": read_ccdf_csv}.get(name, load_scale_fits)
        path = tmp_path / name
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ValueError, match="cannot open: "):
            read(path)

    def test_ccdf_column_preferred_over_ccdf_empirical(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("ccdf_empirical,x,ccdf\n0.9,1,0.5\n0.8,2,0.25\n", encoding="utf-8")
        assert read_ccdf_csv(path).probabilities.tolist() == [0.5, 0.25]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,price\n", encoding="utf-8")
        with pytest.raises(ValueError, match=named(path, "at least 2 samples")):
            read_price_csv(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,price\n0,1.0\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=named(path, "malformed row")):
            read_price_csv(path)

    def test_price_csv_round_trip(self, tmp_path):
        path = tmp_path / "acme.csv"
        path.write_text("timestamp,price\n0,100.0\n1,101.5\n2,99.75\n", encoding="utf-8")
        s = read_price_csv(path)
        assert list(s.timestamps) == [0, 1, 2]
        assert s.log_values.tolist() == np.log([100.0, 101.5, 99.75]).tolist()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,px\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=named(path, "expected columns timestamp,price")):
            read_price_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,price\n0,hello\n", encoding="utf-8")
        with pytest.raises(ValueError, match=named(path, "in column 'price'")):
            read_price_csv(path)

    def test_bad_row_column_named_from_numpy_suffix(self, tmp_path):
        # numpy quotes the bad value before naming its column
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,price\n0,column 9\n", encoding="utf-8")
        with pytest.raises(ValueError, match=named(path, "in column 'price'")):
            read_price_csv(path)

    def test_header_record_over_two_lines(self, tmp_path):
        # a quoted newline: numpy skips the header by its lines, not its records
        path = tmp_path / "prices.csv"
        path.write_bytes(b'timestamp,"volume\nnote",price\n1,2,0.75\n2,2,0.5\n4,2,0.25\n')
        series = read_price_csv(path)
        assert series.timestamps.tolist() == [1, 2, 4]
        assert series.log_values.tolist() == np.log([0.75, 0.5, 0.25]).tolist()

    @pytest.mark.parametrize("suffix", [".csv.gz", ".bz2", ".xz", ".lzma"])
    @pytest.mark.parametrize("reader", ["price", *sorted(TABLE_READERS)])
    def test_compressed_name_read_as_text(self, tmp_path, reader, suffix):
        # np.loadtxt would decompress a path with these names
        read, renames, columns = TABLE_READERS.get(reader, PRICE_READER)
        text = PRICE_CSV_CASES["random_walk_17_digits"]
        named = columns(read(write_table(tmp_path / f"table{suffix}", text, renames)))
        plain = columns(read(write_table(tmp_path / "table.csv", text, renames)))
        assert all(np.array_equal(a, b) for a, b in zip(named, plain))

    def test_gzip_file_fails_at_header(self, tmp_path):
        path = tmp_path / "prices.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("timestamp,price\n0,1.0\n1,2.0\n")
        pattern = "can't decode byte 0x8b in position 1"
        with pytest.raises(ValueError, match=named(path, pattern)):
            read_price_csv(path)

    def test_gzip_file_fails_at_header_where_csv_rejects_nul(self, tmp_path, monkeypatch):
        # csv before Python 3.11 stops at a NUL, which a gzip file's first line holds
        csv_reader = csv.reader

        def checked(lines):
            for line in lines:
                if "\0" in line:
                    raise csv.Error("line contains NUL")
                yield line

        monkeypatch.setattr(csv, "reader", lambda lines, **kw: csv_reader(checked(lines), **kw))
        path = tmp_path / "prices.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("timestamp,price\n0,1.0\n1,2.0\n")
        pattern = "can't decode byte 0x8b in position 1"
        with pytest.raises(ValueError, match=named(path, pattern)):
            read_price_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"2,1.5,\xff", r"'utf-8' codec .* in position \d+: invalid start byte"),
            (b"2,x,", r"could not convert string 'x' to float64 at row 2, column 2\."),
        ],
        ids=["bad_byte", "bad_value"],
    )
    def test_overlong_field_before_failure_leaves_no_line(self, tmp_path, row, message):
        # numpy reads any field; csv, which finds the line, stops at one past its limit
        note = b'"' + b"a" * (csv.field_size_limit() + 1) + b'"'
        path = tmp_path / "prices.csv"
        path.write_bytes(b"timestamp,price,note\n0,1.0," + note + b"\n1,1.2,\n" + row + b"\n")
        with pytest.raises(ValueError, match=named(path, rf"malformed row \({message}\)$")):
            read_price_csv(path)

    def test_overlong_header_field_is_value_error(self, tmp_path):
        path = tmp_path / "prices.csv"
        note = "a" * (csv.field_size_limit() + 1)
        path.write_text(f'timestamp,price,"{note}"\n0,1.0,\n')
        with pytest.raises(ValueError, match=named(path, "field larger than field limit")):
            read_price_csv(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_read_once(self, tmp_path):
        # a pipe cannot be opened again for the rows
        path = tmp_path / "prices.csv"
        text = PRICE_CSV_CASES["random_walk_17_digits"]
        path.write_bytes(text.encode("utf-8"))
        series = read_through_pipe(tmp_path, text)
        timestamps, prices = dictreader_prices(path)
        assert np.array_equal(series.timestamps, timestamps)
        assert np.array_equal(series.log_values, np.log(prices))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_undecodable_header(self, tmp_path):
        with pytest.raises(ValueError) as info:
            read_through_pipe(tmp_path, b"timestamp,pr\xffice\n0,1.0\n")
        assert str(info.value) == (
            f"{tmp_path / 'pipe'}: 'utf-8' codec can't decode byte 0xff "
            "in position 12: invalid start byte"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_malformed_row(self, tmp_path):
        # no second pass over a pipe for the file line: numpy's row stands
        pattern = r"malformed row \(could not convert .* at row 1"
        with pytest.raises(ValueError, match=named(tmp_path / "pipe", pattern)):
            read_through_pipe(tmp_path, "timestamp,price\n0,1.0\n1,x\n")

    def test_nonpositive_price(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("timestamp,price\n0,1.0\n1,-3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=named(path, "prices must be positive")):
            read_price_csv(path)


# Bytes a read series may hold beyond its 8 or 16 a row: the series object
# and its array headers, about 1 KiB.  A view into loadtxt's records would
# hold 8 more bytes a row, 800 kB at these tests' 100,000 rows.
SERIES_FIXED_BYTES = 64 * 1024


def held_by_read_series(path):
    """The series read from `path`, and the bytes still allocated once it is read."""
    read_price_csv(path)  # what a first read leaves behind is not the series'
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = read_price_csv(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return series, held


def test_read_series_holds_16_bytes_per_row(tmp_path):
    # a gapped grid: int64 ticks and float64 log prices, and nothing of the
    # parsed records
    n = 100_000
    path = tmp_path / "walk.csv"
    rows = "".join(f"{2 * t},{100 + t % 7}\n" for t in range(n))
    path.write_text("timestamp,price\n" + rows, encoding="utf-8")
    series, held = held_by_read_series(path)
    assert len(series) == n
    assert series.timestamps.flags.owndata
    assert held <= 16 * n + SERIES_FIXED_BYTES


@pytest.mark.parametrize("dt", [1, 780])
def test_gapped_log_returns_peak_26_bytes_per_tick(dt):
    # the pair search on a gapped grid peaks at the paired ticks, their
    # positions and the ticks found there (8 bytes each) and the 1-byte match
    # mask; a second mask or a live position array while gathering is 35
    n = 100_000
    ticks = np.flatnonzero(np.arange(n + n // 1000) % 1001 != 1000)  # a hole every 1,000
    series = PriceSeries(timestamps=ticks, prices=np.exp(np.sin(ticks)))
    assert len(series) == n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        returns = log_returns(series, dt)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(returns) == np.isin(ticks + dt, ticks).sum()
    assert peak <= 26 * n + SERIES_FIXED_BYTES


def test_read_unbroken_series_holds_8_bytes_per_row(tmp_path):
    # ticks t0, t0 + 1, ...: float64 log prices and the first tick only
    n = 100_000
    path = tmp_path / "walk.csv"
    rows = "".join(f"{t + 390},{100 + t % 7}\n" for t in range(n))
    path.write_text("timestamp,price\n" + rows, encoding="utf-8")
    series, held = held_by_read_series(path)
    assert len(series) == n
    assert np.array_equal(series.timestamps, np.arange(390, n + 390))
    assert held <= 8 * n + SERIES_FIXED_BYTES
