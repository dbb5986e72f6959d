"""Tests for the q-Gaussian distribution family."""

import math

import numpy as np
import pytest
from scipy import integrate

from qgfit.qgaussian import (
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


class TestParams:
    @pytest.mark.parametrize("q", [1.0, 3.0, 0.5, 3.5])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError):
            QGaussianParams(q, 1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(ValueError):
            QGaussianParams(1.5, beta)


class TestExpQ:
    def test_zero_argument(self):
        assert exp_q(1.5, 0.0) == 1.0

    def test_direct_arithmetic(self):
        # [1 + (-1)(-1)]^(-1) = 1/2
        assert exp_q(2.0, -1.0) == pytest.approx(0.5)

    def test_cutoff_branch(self):
        # 1 + 0.5*(-3) < 0 -> positive-part cutoff
        assert exp_q(0.5, -3.0) == 0.0

    def test_q_one_is_exp(self):
        assert exp_q(1.0, -2.0) == pytest.approx(math.exp(-2.0))

    def test_array_input(self):
        xs = np.array([0.0, -1.0, -100.0])
        out = exp_q(2.0, xs)
        assert out == pytest.approx([1.0, 0.5, 1.0 / 101.0])


class TestNormalization:
    def test_gaussian_limit(self):
        # q -> 1+ with beta = 1 recovers the sqrt(1/pi) prefactor
        amp = normalization(QGaussianParams(1.0 + 1e-6, 1.0))
        assert amp == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-5)

    def test_cauchy_value(self):
        assert normalization(QGaussianParams(2.0, 1.0)) == pytest.approx(
            1.0 / math.pi, rel=1e-12
        )

    def test_density_integrates_to_one(self):
        p = QGaussianParams(1.53, 1.78)
        val, _ = integrate.quad(lambda t: pdf(p, t), -np.inf, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q", [1.1, 1.35, 1.53, 2.0, 2.5])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.78])
    def test_normalization_grid(self, q, beta):
        p = QGaussianParams(q, beta)
        val, _ = integrate.quad(lambda t: pdf(p, t), 0.0, np.inf, limit=400)
        assert 2.0 * val == pytest.approx(1.0, abs=1e-8)


class TestPdf:
    def test_cauchy_at_origin(self):
        assert pdf(QGaussianParams(2.0, 1.0), 0.0) == pytest.approx(
            1.0 / math.pi, rel=1e-12
        )

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0])
    def test_symmetry(self, x):
        p = QGaussianParams(1.5, 1.0)
        assert pdf(p, x) == pdf(p, -x)

    def test_tail_log_slope(self):
        # log-log slope between 1e3 and 1e4 approaches 2/(1-q)
        p = QGaussianParams(1.53, 1.78)
        slope = (math.log(pdf(p, 1e4)) - math.log(pdf(p, 1e3))) / math.log(10.0)
        assert slope == pytest.approx(2.0 / (1.0 - 1.53), rel=0.01)

    def test_gaussian_limit_density(self):
        p = QGaussianParams(1.0 + 1e-4, 0.5)
        for x in np.linspace(-3.0, 3.0, 41):
            normal = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
            assert pdf(p, float(x)) == pytest.approx(normal, rel=1e-3)

    def test_strictly_positive(self):
        p = QGaussianParams(1.2, 2.0)
        assert pdf(p, 1e6) > 0.0


class TestCcdfAbs:
    def test_zero_threshold(self):
        assert ccdf_abs(QGaussianParams(1.7, 0.3), 0.0) == 1.0

    def test_cauchy_closed_form(self):
        # P(|X| > x) = 1 - (2/pi) arctan(x) at q = 2, beta = 1
        p = QGaussianParams(2.0, 1.0)
        for x in np.geomspace(1e-2, 1e4, 50):
            exact = 1.0 - (2.0 / math.pi) * math.atan(float(x))
            assert ccdf_abs(p, float(x)) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_matches_quadrature(self, x):
        p = QGaussianParams(1.53, 1.78)
        body, _ = integrate.quad(lambda t: pdf(p, t), 0.0, x, limit=400)
        assert ccdf_abs(p, x) == pytest.approx(1.0 - 2.0 * body, abs=1e-8)

    @pytest.mark.parametrize("q,beta", [(1.35, 1.0), (1.53, 1.78), (2.0, 1.0)])
    def test_cdf_consistency_log_grid(self, q, beta):
        p = QGaussianParams(q, beta)
        for x in np.geomspace(1e-2, 1e3, 13):
            body, _ = integrate.quad(lambda t: pdf(p, t), 0.0, float(x), limit=400)
            assert ccdf_abs(p, float(x)) == pytest.approx(1.0 - 2.0 * body, abs=1e-8)

    @pytest.mark.parametrize("q", [1.35, 1.53, 2.0])
    def test_asymptotic_slope(self, q):
        p = QGaussianParams(q, 1.0)
        h = 0.05
        slope = (
            math.log(ccdf_abs(p, 1e3 * math.exp(h)))
            - math.log(ccdf_abs(p, 1e3 * math.exp(-h)))
        ) / (2.0 * h)
        assert slope == pytest.approx(-(3.0 - q) / (q - 1.0), rel=0.05)

    def test_monotone_non_increasing(self):
        p = QGaussianParams(1.6, 0.8)
        vals = ccdf_abs(p, np.geomspace(1e-3, 1e5, 60))
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals > 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("q", [1.01, 1.2, 1.53, 2.0, 2.9])
    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    def test_array_equals_scalar_calls(self, q, beta):
        # x = 0, and points on both sides of the split between the direct
        # series and the tail remainder at beta (3-q) x^2 = 1
        p = QGaussianParams(q, beta)
        x = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 40)])
        split = beta * (3.0 - q) * x * x
        assert np.any((x > 0.0) & (split <= 1.0)) and np.any(split > 1.0)
        assert np.array_equal(ccdf_abs(p, x), [ccdf_abs(p, float(v)) for v in x])

    def test_rejects_nonzero_mu(self):
        with pytest.raises(ValueError):
            ccdf_abs(QGaussianParams(1.5, 1.0, mu=1.0), 1.0)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            ccdf_abs(QGaussianParams(1.5, 1.0), -1.0)


class TestTailRelations:
    def test_known_values(self):
        assert q_to_tail(1.5).alpha == pytest.approx(3.0)
        assert q_to_tail(2.0).alpha == pytest.approx(1.0)
        assert q_to_tail(1.53).alpha == pytest.approx(2.7736, abs=1e-4)

    def test_inverse_pairs(self):
        assert tail_to_q(TailExponent(3.0)) == pytest.approx(1.5)
        assert tail_to_q(TailExponent(1.0)) == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.7736, 10.0])
    def test_round_trip(self, alpha):
        assert q_to_tail(tail_to_q(TailExponent(alpha))).alpha == pytest.approx(
            alpha, rel=1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            q_to_tail(3.5)
        with pytest.raises(ValueError):
            TailExponent(-1.0)


class TestSample:
    def test_deterministic(self):
        p = QGaussianParams(1.5, 1.0)
        assert np.array_equal(sample(p, 1000, seed=42), sample(p, 1000, seed=42))

    def test_cauchy_median(self):
        # P(|X| > 1) = 1/2 for the Cauchy case
        draws = sample(QGaussianParams(2.0, 1.0), 10**6, seed=7)
        assert np.median(np.abs(draws)) == pytest.approx(1.0, rel=5e-3)

    def test_empirical_ccdf_matches_model(self):
        p = QGaussianParams(1.5, 1.0)
        draws = np.abs(sample(p, 10**6, seed=11))
        for x in [0.5, 1.0, 2.0, 5.0]:
            model = ccdf_abs(p, x)
            emp = float(np.mean(draws > x))
            band = 3.0 * math.sqrt(model * (1.0 - model) / 10**6)
            assert abs(emp - model) <= band

    def test_variance_stable_below_five_thirds(self):
        # finite-variance side: Var = 1/(beta(5-3q)) = 1.25 at q = 1.4
        variances = [
            float(np.var(sample(QGaussianParams(1.4, 1.0), 10**6, seed=s)))
            for s in (1, 2, 3)
        ]
        for v in variances:
            assert v == pytest.approx(1.25, rel=0.05)

    def test_variance_unstable_above_five_thirds(self):
        # infinite-variance side: only check the instability contrast
        variances = [
            float(np.var(sample(QGaussianParams(1.8, 1.0), 10**6, seed=s)))
            for s in (1, 2, 3, 4)
        ]
        assert max(variances) / min(variances) > 2.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample(QGaussianParams(1.5, 1.0), 0, seed=1)
