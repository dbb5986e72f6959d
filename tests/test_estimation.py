"""Tests for (q, beta) fitting, tail-exponent estimation, and scaling laws."""

import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgfit import cli, estimation
from qgfit.datasets import TABLE1_ROWS
from qgfit.estimation import (
    PowerLawFit,
    ScaleFitResult,
    ScalingReport,
    estimate_tail_exponent,
    fit_ladder,
    fit_power_law,
    fit_qgaussian_ccdf,
    load_scale_fits,
    scaling_report,
)
from qgfit.qgaussian import QGaussianParams, ccdf_abs, sample, tail_to_q
from qgfit.returns import EmpiricalCCDF, GridSpec, PriceSeries, empirical_ccdf, read_price_csv


def model_ccdf(q, beta, lo=1e-2, hi=1e2, n=60, dt=1):
    """Noiseless exceedance curve generated straight from the model."""
    x = np.geomspace(lo, hi, n)
    p = ccdf_abs(QGaussianParams(q, beta), x)
    return EmpiricalCCDF(dt=dt, thresholds=x, probabilities=p, n_samples=0)


TABLE1_FITS = [ScaleFitResult(dt, q, beta) for dt, q, beta in TABLE1_ROWS]


class TestFitQGaussianCcdf:
    def test_noiseless_recovery(self):
        fit = fit_qgaussian_ccdf(model_ccdf(1.53, 1.78))
        assert fit.q == pytest.approx(1.53, abs=1e-4)
        assert fit.beta == pytest.approx(1.78, abs=1e-3)
        assert fit.converged

    @pytest.mark.parametrize("q", [1.2, 1.5, 1.8, 2.2])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_oracle_equivalence_grid(self, q, beta):
        fit = fit_qgaussian_ccdf(model_ccdf(q, beta))
        assert fit.q == pytest.approx(q, abs=1e-4)
        assert fit.beta == pytest.approx(beta, abs=1e-3)

    def test_near_gaussian_narrow_curve(self):
        # q near its floor with a large beta, fitted from the tail-slope start
        fit = fit_qgaussian_ccdf(model_ccdf(1.02, 100.0))
        assert fit.q == pytest.approx(1.02, abs=1e-4)
        assert fit.beta == pytest.approx(100.0, rel=1e-3)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.floats(1.05, 2.5), st.floats(0.1, 10.0))
    def test_fit_of_fitted_curve_is_fixed_point(self, q, beta):
        # fit -> ccdf_abs -> fit: a noiseless model curve fits back to itself
        first = fit_qgaussian_ccdf(model_ccdf(q, beta))
        second = fit_qgaussian_ccdf(model_ccdf(first.q, first.beta))
        assert second.q == pytest.approx(first.q, abs=1e-6)
        assert second.beta == pytest.approx(first.beta, rel=1e-5)
        assert first.q == pytest.approx(q, abs=1e-6)

    def test_synthetic_draws(self):
        # thresholds past the ~100-exceedance quantile are dominated by
        # order-statistic noise, so the grid stops there
        draws = sample(QGaussianParams(1.5, 1.5), 10**6, seed=0)
        top = float(np.sort(np.abs(draws))[-100])
        ccdf = empirical_ccdf(draws, dt=1, grid=GridSpec(min=1e-2, max=top, count=60))
        fit = fit_qgaussian_ccdf(ccdf)
        assert fit.q == pytest.approx(1.5, abs=0.02)
        assert fit.beta == pytest.approx(1.5, abs=0.1)

    @pytest.mark.parametrize("q, beta", [(2.9, 10.0), (1.02, 0.01), (2.9, 100.0)])
    def test_extreme_curve_recovered(self, q, beta):
        # L-BFGS-B stalls on these from far starts, yet reports converged
        fit = fit_qgaussian_ccdf(model_ccdf(q, beta))
        assert fit.converged
        assert fit.q == pytest.approx(q, abs=1e-6)
        assert fit.beta == pytest.approx(beta, rel=1e-4)

    def test_bundled_dt4_parameters_recovered(self):
        # empirical pipeline at the shortest bundled scale: data generated at
        # the published (q, beta) must fit back to the published values
        draws = sample(QGaussianParams(1.53, 1.78), 10**6, seed=44)
        top = float(np.sort(np.abs(draws))[-100])
        ccdf = empirical_ccdf(draws, dt=4, grid=GridSpec(min=1e-2, max=top, count=60))
        fit = fit_qgaussian_ccdf(ccdf)
        assert fit.dt == 4
        assert fit.q == pytest.approx(1.53, abs=0.02)
        assert fit.beta == pytest.approx(1.78, abs=0.10)

    def test_one_model_call_per_objective_evaluation(self, monkeypatch):
        # each candidate (q, beta) costs one ccdf_abs call on the whole grid
        ccdf = model_ccdf(1.53, 1.78)
        counts = {"evaluations": 0, "model": 0, "points": 0}
        model, minimize = estimation.ccdf_abs, estimation.minimize

        def counted_model(params, x):
            counts["model"] += 1
            counts["points"] += np.size(x)
            return model(params, x)

        def counted_minimize(objective, *args, **kwargs):
            def counted_objective(p):
                counts["evaluations"] += 1
                return objective(p)

            return minimize(counted_objective, *args, **kwargs)

        monkeypatch.setattr(estimation, "ccdf_abs", counted_model)
        monkeypatch.setattr(estimation, "minimize", counted_minimize)
        fit_qgaussian_ccdf(ccdf)
        assert counts["evaluations"] > 0
        assert counts["model"] == counts["evaluations"]
        assert counts["points"] == counts["model"] * len(ccdf)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_qgaussian_ccdf(model_ccdf(1.5, 1.0, n=5))


def least_squares_residual(ccdf):
    """Sum of squared log10 residuals at scipy's TRF optimum, from the fit's start in its box."""
    from scipy.optimize import least_squares

    xs, target = ccdf.thresholds, np.log10(ccdf.probabilities)

    def residuals(p):
        model = ccdf_abs(QGaussianParams(p[0], 10.0 ** p[1]), xs)
        return np.log10(np.maximum(model, estimation._LOG_FLOOR)) - target

    box = np.array([estimation.Q_BOUNDS, np.log10(estimation.BETA_BOUNDS)]).T
    start = [estimation._start_q(ccdf), 0.0]
    tight = dict(ftol=1e-15, xtol=1e-15, gtol=1e-15)
    result = least_squares(residuals, start, bounds=tuple(box), method="trf", **tight)
    return float(result.fun @ result.fun)


class TestFitReachesLeastSquaresOptimum:
    """The fit's residual against scipy's TRF `least_squares` on the same problem.

    A bar for any replacement solver as well as for today's L-BFGS-B.
    """

    @pytest.mark.parametrize("seed, q", list(enumerate(np.linspace(1.10, 1.98, 12).tolist())))
    def test_noisy_curve_within_1e6_relative(self, seed, q):
        # measured: at most 2.6e-10 relative above the reference
        draws = sample(QGaussianParams(q, 1.0), 20_000, seed=seed)
        ccdf = empirical_ccdf(draws, dt=1)
        reference = least_squares_residual(ccdf)
        assert reference > 0.0
        assert fit_qgaussian_ccdf(ccdf).residual <= (1.0 + 1e-6) * reference

    # A noiseless curve's optimum is 0 up to rounding (TRF reaches 1e-28 here),
    # so no ratio applies.  L-BFGS-B stops once its projected gradient is below
    # gtol, 1e-5, or a step gains less than ftol, 1e-12 in absolute terms below
    # 1; the bar is a hundred times ftol.
    @pytest.mark.parametrize(
        "q, beta",
        [
            *itertools.product([1.2, 1.5, 1.8, 2.2], [0.5, 1.0, 2.0]),
            (2.9, 10.0),
            (2.9, 100.0),
            (1.02, 0.01),
            pytest.param(
                1.02, 100.0,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="on this curve, which falls to 1e-214, a step gains less than "
                    "ftol at a residual of 1.0e-7, with q 2e-8 off and a q gradient of 1e-2",
                ),
            ),
        ],
    )
    def test_noiseless_curve_within_1e10(self, q, beta):
        ccdf = model_ccdf(q, beta)
        assert least_squares_residual(ccdf) <= 1e-20
        assert fit_qgaussian_ccdf(ccdf).residual <= 1e-10


def heavy_walk(n, seed, gapped=False):
    """A Student-t price walk from tick 0; gapped, every 7th tick is missing."""
    ticks = np.arange(n + n // 6) if gapped else np.arange(n)
    if gapped:
        ticks = ticks[ticks % 7 != 6][:n]
    rng = np.random.default_rng(seed)
    return PriceSeries(ticks, 100.0 * np.exp(np.cumsum(1e-2 * rng.standard_t(3, n))))


class TestFitLadder:
    LADDER = (1, 4, 16)

    @pytest.fixture(scope="class")
    def panel(self, tmp_path_factory):
        """Three walk CSVs, the second on a gapped grid, and `fit`'s output directory."""
        root = tmp_path_factory.mktemp("panel")
        paths = []
        for i, n in enumerate((3000, 2500, 2000)):
            walk = heavy_walk(n, seed=i, gapped=i == 1)
            prices = np.exp(walk.log_values).tolist()
            rows = "".join(f"{t},{p!r}\n" for t, p in zip(walk.timestamps.tolist(), prices))
            paths.append(root / f"walk{i}.csv")
            paths[-1].write_text("timestamp,price\n" + rows, encoding="utf-8")
        dts = ",".join(map(str, self.LADDER))
        argv = ["fit", "--input", *map(str, paths), "--dt", dts, "--out", str(root / "out")]
        assert cli.main(argv) == 0
        return paths, root / "out"

    def test_matches_fit_command(self, panel):
        # the library ladder on the same series writes what `fit` wrote
        paths, out = panel
        series = {str(p): read_price_csv(p) for p in paths}
        scales = list(fit_ladder(series, self.LADDER))
        rows = json.loads((out / "fits.json").read_text(encoding="utf-8"))
        assert [asdict(fit) for _, fit in scales] == rows
        for ccdf, fit in scales:
            fitted = ccdf_abs(QGaussianParams(fit.q, fit.beta), ccdf.thresholds)
            columns = zip(ccdf.thresholds, ccdf.probabilities, fitted)
            printed = ["%.12g,%.12g,%.12g" % row for row in columns]
            text = "\r\n".join(["x,ccdf_empirical,ccdf_fitted", *printed, ""])
            assert (out / f"ccdf_dt{ccdf.dt}.csv").read_bytes() == text.encode()

    def test_scales_in_ladder_order(self):
        series = {"a": heavy_walk(3000, seed=0), "b": heavy_walk(2000, seed=1, gapped=True)}
        scales = list(fit_ladder(series, (16, 1, 4)))
        assert [(ccdf.dt, fit.dt) for ccdf, fit in scales] == [(16, 16), (1, 1), (4, 4)]
        assert scales[1][1] == next(fit_ladder(series, (1,)))[1]

    def test_series_too_short_names_key_and_dt(self):
        # the scales before the failing one still come out
        series = {"long": heavy_walk(3000, seed=0), "short": heavy_walk(10, seed=1)}
        ladder = fit_ladder(series, (1, 16))
        assert next(ladder)[1].dt == 1
        with pytest.raises(ValueError, match=r"^short at dt=16: dt=16 must be smaller than "):
            next(ladder)

    def test_grid_past_data_names_pooled_scale(self):
        series = {"a": heavy_walk(3000, seed=0), "b": heavy_walk(2000, seed=1)}
        with pytest.raises(ValueError, match=r"^pooled returns at dt=4: grid maximum .* does not "):
            list(fit_ladder(series, (4,), GridSpec(min=1e3)))


class TestEstimateTailExponent:
    def test_cauchy_tail(self):
        # the top 30% of the grid covers x in [10**2.25, 1e4] where P ~ 2/(pi x)
        ccdf = model_ccdf(2.0, 1.0, lo=1e-2, hi=1e4, n=90)
        alpha = estimate_tail_exponent(ccdf)
        assert alpha == pytest.approx(1.0, rel=0.02)

    def test_exact_power_law(self):
        x = np.geomspace(1.0, 1e3, 40)
        ccdf = EmpiricalCCDF(dt=1, thresholds=x, probabilities=x**-2.5, n_samples=0)
        assert estimate_tail_exponent(ccdf) == pytest.approx(2.5, abs=1e-12)

    def test_consistent_with_exact_relation(self):
        ccdf = model_ccdf(1.53, 1.78, lo=1e-2, hi=1e4, n=90)
        alpha = estimate_tail_exponent(ccdf)
        assert alpha == pytest.approx(2.7736, abs=0.03)
        assert tail_to_q(alpha) == pytest.approx(1.53, abs=0.02)

    def test_too_few_tail_points(self):
        with pytest.raises(ValueError, match="tail region holds 3 points, need at least 5"):
            estimate_tail_exponent(model_ccdf(1.5, 1.0, n=10))

    def test_flat_tail_has_no_exponent(self):
        x = np.geomspace(1.0, 1e3, 40)
        flat = EmpiricalCCDF(dt=1, thresholds=x, probabilities=np.full(40, 0.25), n_samples=0)
        with pytest.raises(ValueError, match="tail slope must be negative, got 0.0"):
            estimate_tail_exponent(flat)


class TestTwoRouteConsistency:
    @pytest.mark.parametrize("q", [1.35, 1.53])
    def test_routes_agree(self, q):
        ccdf = model_ccdf(q, 1.0, hi=1e3, n=60)
        q_ls = fit_qgaussian_ccdf(ccdf).q
        q_tail = tail_to_q(estimate_tail_exponent(ccdf))
        assert abs(q_ls - q_tail) <= 0.05


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        fit = fit_power_law(xs, [3.0 * x**2 for x in xs])
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_bundled_q_ladder(self):
        dts = [float(r[0]) for r in TABLE1_ROWS]
        q_excess = [r[1] - 1.0 for r in TABLE1_ROWS]
        fit = fit_power_law(dts, q_excess)
        assert abs(fit.exponent) == pytest.approx(0.081, abs=0.01)

    def test_bundled_beta_vs_q(self):
        q_excess = [r[1] - 1.0 for r in TABLE1_ROWS]
        inv_beta = [1.0 / r[2] for r in TABLE1_ROWS]
        fit = fit_power_law(q_excess, inv_beta)
        assert abs(fit.exponent) == pytest.approx(1.29, abs=0.15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError, match="amplitude must be positive"):
            PowerLawFit(exponent=1.0, amplitude=0.0, stderr=0.0, r_squared=1.0)
        with pytest.raises(ValueError, match="standard error cannot be negative"):
            PowerLawFit(exponent=1.0, amplitude=1.0, stderr=-1.0, r_squared=1.0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="x and y must have equal length"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])
        # three points, but one x: no line through them has a slope
        with pytest.raises(ValueError, match="x values are all identical"):
            fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "x, exponent",
        [(10.0, 400.0), (10.0, -400.0), (1e9, 2.0), (math.inf, 2.0), (math.inf, -0.5)],
    )
    def test_line_past_float64_is_rejected(self, x, exponent):
        # x^exponent overflows, underflows to 0, or overflows with the amplitude;
        # inf lies in the line's domain, and its line goes to inf or to 0
        fit = PowerLawFit(exponent=exponent, amplitude=1e300, stderr=0.0, r_squared=1.0)
        assert fit.fitted([1.0]) == [1e300]
        with pytest.raises(ValueError, match=f"leaves float64's range at x={x!r}"):
            fit.fitted([1.0, x])

    def test_line_past_float64_names_first_x_outside(self):
        # 1e4 and 1e5 both overflow and 2.0 does not: the error names 1e4,
        # neither the first x nor the largest
        fit = PowerLawFit(exponent=80.0, amplitude=1.0, stderr=0.0, r_squared=1.0)
        with pytest.raises(ValueError, match=r"leaves float64's range at x=10000\.0$"):
            fit.fitted([1.0, 3.0, 1e4, 2.0, 1e5])

    @pytest.mark.parametrize("exponent", [-0.5, 2.0])
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_line_outside_domain_names_x(self, x, exponent):
        # checked before any power is taken: no warning, and not blamed on float64's range
        fit = PowerLawFit(exponent=exponent, amplitude=2.0, stderr=0.0, r_squared=1.0)
        with pytest.raises(ValueError, match=rf"^the fitted line needs x > 0, got x={x!r}$"):
            fit.fitted([x])

    def test_line_outside_domain_names_first_x_outside(self):
        # -2.0 and nan are both outside and 1.0 is not: the error names -2.0
        fit = PowerLawFit(exponent=2.0, amplitude=2.0, stderr=0.0, r_squared=1.0)
        with pytest.raises(ValueError, match=r"^the fitted line needs x > 0, got x=-2\.0$"):
            fit.fitted([1.0, 3.0, -2.0, 1.0, math.nan, 0.0])

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.floats(1e-100, 1e100),
        st.floats(-10.0, 10.0),
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12),
    )
    def test_fitted_matches_scalar_power_within_2_ulp(self, amplitude, exponent, xs):
        # the line within 1e-130..1e130, far inside float64's range
        fit = PowerLawFit(exponent, amplitude, stderr=0.0, r_squared=1.0)
        values = fit.fitted(xs)
        assert all(type(value) is float for value in values)
        expected = [amplitude * x**exponent for x in xs]
        assert len(values) == len(expected)
        for value, reference in zip(values, expected):
            assert abs(value - reference) <= 2 * math.ulp(reference)

    def test_amplitude_past_float64_is_rejected(self):
        # nearly equal x make the slope, and so the intercept, huge
        with pytest.raises(ValueError, match=r"the amplitude exp\(.*\) leaves float64's range"):
            fit_power_law([0.5, 0.5000000001, 0.5000000002], [1e-4, 1.0, 1e4])


class TestScalingReport:
    def test_bundled_table(self):
        report = scaling_report(TABLE1_FITS)
        assert abs(report.tau_fit.exponent) == pytest.approx(0.081, abs=0.01)
        assert abs(report.gamma_fit.exponent) == pytest.approx(0.106, abs=0.01)
        assert abs(report.delta_fit.exponent) == pytest.approx(1.29, abs=0.15)

    def test_exact_synthetic_rows(self):
        dts = [4, 8, 16, 30, 60]
        rows = [
            ScaleFitResult(
                dt=dt,
                q=1.0 + 0.6 * dt**-0.081,
                beta=1.0,
                residual=0.0,
                n_points=0,
                converged=True,
            )
            for dt in dts
        ]
        report = scaling_report(rows)
        assert report.tau_fit.exponent == pytest.approx(-0.081, abs=1e-10)
        assert report.tau_fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_chain_rule_consistency(self):
        # the beta-vs-q exponent is the ratio of the two dt exponents up to
        # regression noise
        report = scaling_report(TABLE1_FITS)
        ratio = abs(report.gamma_fit.exponent / report.tau_fit.exponent)
        combined = report.delta_fit.stderr + abs(report.gamma_fit.stderr / report.tau_fit.exponent)
        assert abs(abs(report.delta_fit.exponent) - ratio) <= combined

    def test_needs_three_scales(self):
        with pytest.raises(ValueError):
            scaling_report(TABLE1_FITS[:2])

    def test_carries_the_columns_it_regressed(self):
        report = scaling_report(TABLE1_FITS)
        assert report.columns == {
            "dt": [float(dt) for dt, _, _ in TABLE1_ROWS],
            "q_minus_1": [q - 1.0 for _, q, _ in TABLE1_ROWS],
            "inv_beta": [1.0 / beta for _, _, beta in TABLE1_ROWS],
        }
        assert report.tau_fit == fit_power_law(report.columns["dt"], report.columns["q_minus_1"])
        # the columns take no part in equality or repr
        assert report == ScalingReport(report.tau_fit, report.gamma_fit, report.delta_fit)
        assert "columns" not in repr(report)


class TestMonotonicityReproduction:
    def test_noiseless_ladder(self):
        fits = [
            fit_qgaussian_ccdf(model_ccdf(q, beta, dt=dt)) for dt, q, beta in TABLE1_ROWS
        ]
        qs = [f.q for f in fits]
        betas = [f.beta for f in fits]
        assert all(a >= b for a, b in zip(qs, qs[1:]))
        assert all(a >= b for a, b in zip(betas, betas[1:]))


class TestAtBound:
    @pytest.mark.parametrize(
        "q,beta,pinned",
        [
            (1.01, 1.0, True),
            (2.99, 1.0, True),
            (1.5, 1e-4, True),
            (1.5, 1e4, True),
            (1.5, 1.0, False),
            (1.01 * (1 + 2e-6), 1.0, False),
            (2.99 * (1 - 2e-6), 1.0, False),
            (1.5, 1e-4 * (1 + 2e-6), False),
            (1.5, 1e4 * (1 - 2e-6), False),
        ],
    )
    def test_edges(self, q, beta, pinned):
        fit = ScaleFitResult(dt=4, q=q, beta=beta, residual=0.0, n_points=0, converged=True)
        assert fit.at_bound is pinned


class TestSerialization:
    @pytest.fixture(scope="class")
    def fit_out(self, tmp_path_factory):
        """`fit`'s files for one synthetic walk at three scales, by curve format."""
        root = tmp_path_factory.mktemp("fit")
        synth = ["synth", "--q", "1.5", "--beta", "1", "--n", "20000", "--seed", "3"]
        assert cli.main([*synth, "--out", str(root)]) == 0
        for fmt in ("csv", "json"):
            argv = ["fit", "--input", str(root / "synth.csv"), "--dt", "1,2,4", "--format", fmt]
            assert cli.main([*argv, "--out", str(root / fmt)]) == 0
        return root

    def test_csv_round_trip(self, fit_out):
        path = fit_out / "csv" / "table.csv"
        fits = load_scale_fits(fit_out / "csv" / "fits.json")
        rows = [f"{f.dt},{f.q:.10g},{f.beta:.10g}" for f in fits]
        assert path.read_bytes() == "\r\n".join(["dt,q,beta", *rows, ""]).encode()
        loaded = load_scale_fits(path)
        assert [f"{f.dt},{f.q:.10g},{f.beta:.10g}" for f in loaded] == rows
        assert [f.dt for f in loaded] == [1, 2, 4]

    def test_json_round_trip(self, fit_out):
        path = fit_out / "csv" / "fits.json"
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        assert text == json.dumps(obj, indent=2) + "\n"
        assert [asdict(f) for f in load_scale_fits(path)] == obj
        assert (fit_out / "json" / "fits.json").read_text(encoding="utf-8") == text
        # a curve file, encoded the same way, keeps its keys in order
        text = (fit_out / "json" / "ccdf_dt2.json").read_text(encoding="utf-8")
        curve = json.loads(text)
        assert text == json.dumps(curve, indent=2) + "\n"
        assert list(curve) == ["id", "dt", "n_samples", "x", "ccdf_empirical", "ccdf_fitted"]
        assert (curve["id"], curve["dt"], curve["n_samples"]) == ("pooled", 2, 19998)

    def test_missing_diagnostics_take_placeholders(self, tmp_path):
        # a CSV table's diagnostics are never read, even from extra columns
        csv_path = tmp_path / "fits.csv"
        csv_path.write_text("dt,q,beta,residual,converged\n4,1.5,1.2,junk,False\n")
        json_path = tmp_path / "fits.json"
        json_path.write_text(
            '[{"dt": 4, "q": 1.5, "beta": 1.2},'
            ' {"dt": 8, "q": 1.4, "beta": 1.1, "converged": false}]'
        )
        placeholder = ScaleFitResult(
            dt=4, q=1.5, beta=1.2, residual=0.0, n_points=0, converged=True
        )
        assert load_scale_fits(csv_path) == [placeholder]
        from_json = load_scale_fits(json_path)
        assert from_json[0] == placeholder
        assert from_json[1].converged is False

    @pytest.mark.parametrize("q,beta", [(float("nan"), 1.2), (1.5, float("inf"))])
    def test_rejects_non_finite_parameters(self, q, beta):
        with pytest.raises(ValueError, match="must be finite"):
            ScaleFitResult(dt=4, q=q, beta=beta, residual=0.0, n_points=0, converged=True)

    @pytest.mark.parametrize("dt, ok", [(1, True), (2**63 - 1, True), (0, False), (2**63, False)])
    def test_dt_within_int64(self, dt, ok):
        # the range a fits CSV's int64 column can hold, whatever the format
        if ok:
            assert ScaleFitResult(dt=dt, q=1.5, beta=1.2).dt == dt
        else:
            with pytest.raises(ValueError, match=f"dt must be .*, got {dt}$"):
                ScaleFitResult(dt=dt, q=1.5, beta=1.2)

    def test_rejects_bad_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_scale_fits(path)
