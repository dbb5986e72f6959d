"""Tests for the q-Gaussian distribution family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

import oracles
from qgfit import qgaussian
from qgfit.qgaussian import (
    QGaussianParams,
    ccdf_abs,
    normalization,
    pdf,
    sample,
    tail_to_q,
)

# Gamma(100.5)/Gamma(100), frozen from mpmath at 40 significant digits
# (tests/oracles.py prints it).
GAMMA_RATIO_100_5 = 9.98750786126251821

# P(|X| > x) at x = 1e-2, 1e-1, ..., 1e4, frozen from the closed form
# 1 - 2 A x 2F1(1/2, 1/(q-1); 3/2; -beta(q-1)x^2) at 360 digits
# (tests/oracles.py::qgaussian_ccdf_abs; run it as a script to regenerate).
# 0.0 marks a value that underflows float64.
CCDF_XS = np.array([1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4])
CCDF_FLOOR = 1e-300
CCDF_FROZEN = {
    (1.01, 1e-3): [
        0.9996445152362214, 0.9964451640931764, 0.9644633683401943, 0.6560142250988523,
        1.363511245953138e-05, 1.425201585596036e-105, 1.618050598385351e-300,
    ],
    (1.01, 1): [
        0.9887589590575167, 0.887959424773852, 0.15990216527458284, 8.868774841835848e-32,
        2.1092609917602774e-201, 0.0, 0.0,
    ],
    (1.01, 1e3): [
        0.6560142250988523, 1.3635112459531368e-05, 1.4252015855960388e-105, 1.6180505983853543e-300,
        0.0, 0.0, 0.0,
    ],
    (1.05, 1e-3): [
        0.9996499148263203, 0.9964991598159773, 0.9650031472963249, 0.6612261476029363,
        7.749036642707974e-05, 6.457942416278237e-35, 9.376845639029319e-74,
    ],
    (1.05, 1): [
        0.9889297034027057, 0.8896612067261056, 0.1704843846560817, 9.271942594149221e-17,
        2.865504847619629e-54, 2.9753893018034756e-93, 2.9765102799587916e-132,
    ],
    (1.05, 1e3): [
        0.6612261476029363, 7.749036642707968e-05, 6.457942416278239e-35, 9.376845639029323e-74,
        9.412229646936554e-113, 9.41258419587836e-152, 9.412587741439527e-191,
    ],
    (1.5, 1e-3): [
        0.9997152949921233, 0.9971529593164559, 0.9715389841620158, 0.72437748611315,
        0.03046629166217099, 3.786975819890242e-05, 3.795975794571609e-08,
    ],
    (1.5, 1): [
        0.9909971369303635, 0.9102671297482567, 0.3080680092503574, 0.0011722164447168866,
        1.2001337153781453e-06, 1.2004188738701033e-09, 1.20042172606602e-12,
    ],
    (1.5, 1e3): [
        0.72437748611315, 0.030466291662170988, 3.786975819890242e-05, 3.795975794571609e-08,
        3.796065987169084e-11, 3.7960668891143837e-14, 3.7960668981338386e-17,
    ],
    (2.0, 1e-3): [
        0.9997986831582926, 0.9979868382263418, 0.9798750216963559, 0.8050177709578633,
        0.19498222904213663, 0.02012497830364413, 0.0020131617736581305,
    ],
    (2.0, 1): [
        0.9936340144701835, 0.9365489651388929, 0.5, 0.06345103486110713,
        0.00636598552981651, 0.0006366195601611178, 6.366197702455154e-05,
    ],
    (2.0, 1e3): [
        0.8050177709578633, 0.19498222904213663, 0.020124978303644132, 0.0020131617736581305,
        0.00020131684170738692, 2.0131684835084252e-05, 2.0131684841727707e-06,
    ],
    (2.5, 1e-3): [
        0.9998936862815716, 0.998936866324042, 0.9893721689381964, 0.8969871671804789,
        0.5211506835188484, 0.24338221424206313, 0.11297511594540902,
    ],
    (2.5, 1): [
        0.9966381769764777, 0.9664918811426467, 0.7313578006800507, 0.35703275690004893,
        0.16582384490452504, 0.07696909447670855, 0.03572589119126451,
    ],
    (2.5, 1e3): [
        0.8969871671804789, 0.5211506835188484, 0.24338221424206313, 0.11297511594540902,
        0.05243843662603559, 0.02433976634254463, 0.011297518767540059,
    ],
    (2.95, 1e-3): [
        0.9999888737393406, 0.9998887377605693, 0.9988877444444971, 0.9892151749346714,
        0.9456181247325753, 0.8916926144687773, 0.8405732689966865,
    ],
    (2.95, 1): [
        0.9996481684600984, 0.9964931928404359, 0.9715205061694538, 0.9183805944211805,
        0.8657568922480242, 0.816121981081682, 0.7693324496294544,
    ],
    (2.95, 1e3): [
        0.9892151749346714, 0.9456181247325753, 0.8916926144687773, 0.8405732689966865,
        0.7923819310124485, 0.7469534510170001, 0.7041294557174891,
    ],
}


class TestParams:
    @pytest.mark.parametrize("q", [1.0, 3.0, 0.5, 3.5])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError):
            QGaussianParams(q, 1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(ValueError):
            QGaussianParams(1.5, beta)


class TestNormalization:
    def test_gaussian_limit(self):
        # q -> 1+ with beta = 1 recovers the sqrt(1/pi) prefactor
        amp = normalization(QGaussianParams(1.0 + 1e-6, 1.0))
        assert amp == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-5)

    def test_cauchy_value(self):
        assert normalization(QGaussianParams(2.0, 1.0)) == pytest.approx(
            1.0 / math.pi, rel=1e-12
        )

    def test_large_b_matches_gamma_ratio_oracle(self):
        # b = 1/(q-1) = 100.5: G(100.5) and G(100) are near 1e157, their ratio near 10
        q = 1.0 + 1.0 / 100.5
        amp = normalization(QGaussianParams(q, 1.0))
        assert amp == pytest.approx(math.sqrt((q - 1.0) / math.pi) * GAMMA_RATIO_100_5, rel=1e-12)

    def test_density_integrates_to_one(self):
        p = QGaussianParams(1.53, 1.78)
        val, _ = integrate.quad(lambda t: pdf(p, t), -np.inf, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q, beta", [(1.1, 0.5), (1.3, 1.0), (1.5, 3.0)])
    def test_variance_matches_quadrature_oracle(self, q, beta):
        # Var = 1/(beta(5-3q)) below q = 5/3, where the second moment is finite
        variance = float(oracles.qgaussian_variance(q, beta))
        assert variance == pytest.approx(1.0 / (beta * (5.0 - 3.0 * q)), rel=1e-11)
        p = QGaussianParams(q, beta)
        half, _ = integrate.quad(lambda t: t * t * pdf(p, t), 0.0, np.inf, limit=400)
        assert 2.0 * half == pytest.approx(variance, rel=1e-10)

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

    @pytest.mark.filterwarnings("error")
    def test_kernel_past_float_range_is_zero(self):
        # beta x^2 overflows: the density is its limit 0, with no warning
        p = QGaussianParams(1.5, 1e308)
        x = np.array([0.0, 1e-160, 2.0, 1e200, math.inf])
        values = pdf(p, x)
        scalar = [pdf(p, float(v)) for v in x]
        assert values[0] == normalization(p) and values[1] > 0.0
        assert values[2:].tolist() == [0.0, 0.0, 0.0]
        assert np.array_equal(values, scalar)

    @pytest.mark.parametrize("q,shift", [(1.01, 0.0), (1.53, 0.0), (2.0, -0.75), (2.9, 3.0)])
    def test_array_equals_scalar_calls(self, q, shift):
        p = QGaussianParams(q, 1.78)
        x = np.concatenate([-np.geomspace(1e4, 1e-3, 20), [0.0], np.geomspace(1e-3, 1e4, 20)])
        x -= shift
        scalar = [pdf(p, float(v)) for v in x]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(pdf(p, x), scalar)


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

    @pytest.mark.parametrize("q,beta", list(CCDF_FROZEN))
    def test_matches_oracle(self, q, beta):
        expected = np.array(CCDF_FROZEN[q, beta])
        got = ccdf_abs(QGaussianParams(q, beta), CCDF_XS)
        above = expected > CCDF_FLOOR
        assert np.all(np.abs(got[above] - expected[above]) <= 1e-12 * expected[above])
        assert np.all(got[~above] <= CCDF_FLOOR)

    def test_scalar_returns_float(self):
        assert type(ccdf_abs(QGaussianParams(1.5, 1.0), 2.0)) is float

    @pytest.mark.parametrize(
        "x", [2.0, np.zeros(0), np.geomspace(1e-2, 1e3, 1000)], ids=["scalar", "empty", "grid"]
    )
    def test_one_normalization_per_call(self, monkeypatch, x):
        calls = []
        norm = qgaussian.normalization
        monkeypatch.setattr(qgaussian, "normalization", lambda p: calls.append(p) or norm(p))
        ccdf_abs(QGaussianParams(1.53, 1.78), x)
        assert len(calls) == 1

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            ccdf_abs(QGaussianParams(1.5, 1.0), -1.0)


Q = st.floats(1.01, 2.99)
BETA = st.floats(1e-4, 1e4)
# 1 to 200 thresholds in [1e-6, 1e6], sorted by the test.
THRESHOLDS = arrays(np.float64, st.integers(1, 200), elements=st.floats(1e-6, 1e6))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


class TestCcdfAbsProperties:
    @PROPERTY
    @given(Q, BETA, THRESHOLDS)
    def test_in_unit_interval_and_non_increasing(self, q, beta, x):
        values = ccdf_abs(QGaussianParams(q, beta), np.sort(x))
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) <= 0.0)

    @PROPERTY
    @given(Q, BETA)
    def test_continuous_across_split(self, q, beta):
        # the direct series and the tail remainder meet at beta (3-q) x^2 = 1;
        # compare the last point of one with the first of the other, a few
        # ulps apart, where the exact CCDF moves by about 1e-15 relative
        x = (1.0 + 2.0**-52 * np.arange(-8, 9)) / math.sqrt(beta * (3.0 - q))
        head = beta * (3.0 - q) * x * x <= 1.0
        assert head.any() and not head.all()
        values = ccdf_abs(QGaussianParams(q, beta), x)
        below, above = values[head][-1], values[~head][0]
        assert abs(below - above) <= 1e-10 * above


class TestTailRelations:
    def test_known_values(self):
        # the bundled dt = 4 index, and the Gaussian and q = 3 ends
        assert tail_to_q(2.7736) == pytest.approx(1.53, abs=1e-5)
        assert tail_to_q(1e12) == pytest.approx(1.0, abs=1e-11)
        assert tail_to_q(1e-12) == pytest.approx(3.0, abs=1e-11)

    def test_inverse_pairs(self):
        assert tail_to_q(3.0) == pytest.approx(1.5)
        assert tail_to_q(1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.7736, 10.0])
    def test_round_trip(self, alpha):
        # alpha = (3-q)/(q-1) is the exceedance exponent of q
        q = tail_to_q(alpha)
        assert 1.0 < q < 3.0
        assert (3.0 - q) / (q - 1.0) == pytest.approx(alpha, rel=1e-14)

    def test_domain_errors(self):
        for alpha in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tail exponent must be positive"):
                tail_to_q(alpha)


CHI2_BLOCK = qgaussian._CHI2_BLOCK


class TestSample:
    def test_deterministic(self):
        p = QGaussianParams(1.5, 1.0)
        assert np.array_equal(sample(p, 1000, seed=42), sample(p, 1000, seed=42))

    @pytest.mark.parametrize("q", [1.2, 1.7, 2.9])
    def test_equals_explicit_student_t(self, q):
        # the documented stream: normals, then chi-squares, from one PCG64
        beta, nu = 2.5, (3.0 - q) / (q - 1.0)
        rng = np.random.default_rng(8)
        normal = rng.standard_normal(5000)
        chi2 = rng.chisquare(nu, 5000)
        expected = normal / np.sqrt(chi2 / nu) / math.sqrt(beta * (3.0 - q))
        assert np.array_equal(sample(QGaussianParams(q, beta), 5000, seed=8), expected)

    # sizes about the block of chi-square draws
    @pytest.mark.parametrize(
        "n", [CHI2_BLOCK - 1, CHI2_BLOCK, CHI2_BLOCK + 1, 2 * CHI2_BLOCK + 3]
    )
    def test_out_is_filled_with_the_same_draws(self, n):
        q, beta = 1.86, 0.7
        nu = (3.0 - q) / (q - 1.0)
        rng = np.random.default_rng(5)
        normal = rng.standard_normal(n)
        chi2 = rng.chisquare(nu, n)
        expected = normal / np.sqrt(chi2 / nu) / math.sqrt(beta * (3.0 - q))
        buf = np.empty(n)
        assert sample(QGaussianParams(q, beta), n, seed=5, out=buf) is buf
        assert np.array_equal(buf, expected)
        assert np.array_equal(sample(QGaussianParams(q, beta), n, seed=5), expected)

    @pytest.mark.parametrize("size", [9, 11])
    def test_out_of_another_size_is_rejected(self, size):
        with pytest.raises(ValueError):
            sample(QGaussianParams(1.5, 1.0), 10, seed=1, out=np.empty(size))

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
