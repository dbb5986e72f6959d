"""Tests for log-gamma, gamma ratios, and the hypergeometric evaluation."""

import math

import numpy as np
import pytest

from qgfit.special import (
    Hyp2F1Args,
    _leading_term,
    gamma_ratio,
    hyp2f1,
    hyp2f1_tail_remainder,
    ln_gamma,
)

# Frozen oracle values, computed once with mpmath at 40 significant digits
# (tests/oracles.py regenerates them).
GAMMA_RATIO_100_5 = 9.98750786126251821  # Gamma(100.5)/Gamma(100)
HYP_HALF_2_QUARTER = 0.863647609000806116  # 2F1(1/2, 2; 3/2; -1/4)


class TestLnGamma:
    def test_gamma_of_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_of_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_gamma_of_ten(self):
        assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    @pytest.mark.parametrize("x", [1e-3, 0.02, 0.3, 0.9999, 3.5, 11.9, 12.1, 400.0, 1e6])
    def test_against_stdlib(self, x):
        # math.lgamma is an independent C implementation.
        assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9, 1.5, 2.0, 7.3, 25.0, 100.0])
    def test_recurrence(self, x):
        assert ln_gamma(x + 1.0) - ln_gamma(x) == pytest.approx(
            math.log(x), rel=1e-12, abs=1e-13
        )

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(ValueError):
            ln_gamma(x)


class TestGammaRatio:
    def test_one_over_half(self):
        assert gamma_ratio(1.0, 0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_equal_values(self):
        assert gamma_ratio(2.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_large_arguments(self):
        # Gamma(100.5)/Gamma(100): both factors overflow float64 on their own.
        got = gamma_ratio(100.5, 100.0)
        assert got == pytest.approx(GAMMA_RATIO_100_5, rel=1e-12)
        # sanity: asymptotically sqrt(100), within 0.13%
        assert got == pytest.approx(10.0, rel=1.3e-3)

    @pytest.mark.parametrize("p,r", [(0.3, 2.0), (1.0, 1.0), (50.0, 49.5), (9.1, 0.07)])
    def test_reciprocal_product(self, p, r):
        assert gamma_ratio(p, r) * gamma_ratio(r, p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p,r", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0)])
    def test_rejects_nonpositive(self, p, r):
        with pytest.raises(ValueError):
            gamma_ratio(p, r)


class TestHyp2F1:
    def test_at_zero(self):
        assert hyp2f1(Hyp2F1Args(0.5, 1.0, 1.5, 0.0)) == 1.0

    def test_arctan_closed_form(self):
        # 2F1(1/2, 1; 3/2; -t^2) = arctan(t)/t with t = 2
        got = hyp2f1(Hyp2F1Args(0.5, 1.0, 1.5, -4.0))
        assert got == pytest.approx(math.atan(2.0) / 2.0, rel=1e-12)

    def test_direct_series_oracle(self):
        got = hyp2f1(Hyp2F1Args(0.5, 2.0, 1.5, -0.25))
        assert got == pytest.approx(HYP_HALF_2_QUARTER, rel=1e-13)

    @pytest.mark.parametrize("b", [0.6, 1.0, 2.0, 4.5, 10.0])
    def test_result_in_unit_interval_and_monotone(self, b):
        zs = [0.0, -0.01, -0.5, -2.0, -30.0, -1e3, -1e6]
        vals = [hyp2f1(Hyp2F1Args(0.5, b, 1.5, z)) for z in zs]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(hi > lo for hi, lo in zip(vals, vals[1:]))

    @pytest.mark.parametrize("b", [0.75, 1.0, 2.0, 3.3, 5.0])
    @pytest.mark.parametrize("z", [-0.55, -0.7, -0.85, -0.99])
    def test_transformation_consistency(self, b, z):
        # The two incomplete-beta forms that ccdf_abs uses on either side of
        # its split are complementary: 2F1 = leading term - tail remainder.
        direct = hyp2f1(Hyp2F1Args(0.5, b, 1.5, z))
        transformed = _leading_term(b, -z) - hyp2f1_tail_remainder(b, z)
        assert transformed == pytest.approx(direct, rel=1e-12)

    def test_arctan_closed_form_far_tail(self):
        # Same identity deep in the tail exercises the transformed branch.
        for t in [10.0, 300.0, 1e4]:
            got = hyp2f1(Hyp2F1Args(0.5, 1.0, 1.5, -t * t))
            assert got == pytest.approx(math.atan(t) / t, rel=1e-10)

    def test_rejects_positive_z(self):
        with pytest.raises(ValueError):
            hyp2f1(Hyp2F1Args(0.5, 1.0, 1.5, 0.25))

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            Hyp2F1Args(0.5, 1.0, -2.0, -0.5)

    def test_rejects_non_family_outside_series_region(self):
        with pytest.raises(ValueError):
            hyp2f1(Hyp2F1Args(0.25, 1.0, 1.75, -50.0))

    @pytest.mark.parametrize("z", [-1e-3, -0.25])
    def test_rejects_non_family(self, z):
        with pytest.raises(ValueError):
            hyp2f1(Hyp2F1Args(0.25, 1.0, 1.75, z))

    def test_array_equals_scalar_calls(self):
        zs = np.array([0.0, -1e-6, -0.3, -4.0, -1e4])
        got = hyp2f1(Hyp2F1Args(0.5, 2.5, 1.5, zs))
        assert np.array_equal(got, [hyp2f1(Hyp2F1Args(0.5, 2.5, 1.5, float(z))) for z in zs])
        tail = hyp2f1_tail_remainder(2.5, zs[1:])
        assert np.array_equal(tail, [hyp2f1_tail_remainder(2.5, float(z)) for z in zs[1:]])

    def test_tail_remainder_positive(self):
        for b in [0.51, 1.0, 3.0]:
            for z in [-0.5, -10.0, -1e4]:
                assert hyp2f1_tail_remainder(b, z) >= 0.0
