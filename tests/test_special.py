"""Tests for the hypergeometric evaluation and the gamma ratio of its leading term."""

import math

import numpy as np
import pytest

from qgfit.special import _leading_term, hyp2f1, hyp2f1_tail_remainder

# Frozen oracle values, computed once with mpmath at 40 significant digits
# (tests/oracles.py regenerates them).
GAMMA_RATIO_100_5 = 9.98750786126251821  # Gamma(100.5)/Gamma(100)
HYP_HALF_2_QUARTER = 0.863647609000806116  # 2F1(1/2, 2; 3/2; -1/4)


class TestGammaRatio:
    """G(b)/G(b-1/2), which `normalization` and the 2F1 leading term each take in log space."""

    def test_large_arguments(self):
        # b = 100.5: G(100.5) and G(100) are near 1e157, their ratio near 10.
        # tests/test_qgaussian.py checks `normalization` at the same b.
        lead = _leading_term(100.5, 1.0)
        assert lead == pytest.approx(0.5 * math.sqrt(math.pi) / GAMMA_RATIO_100_5, rel=1e-12)


class TestHyp2F1:
    def test_at_zero(self):
        assert hyp2f1(1.0, 0.0) == 1.0

    def test_arctan_closed_form(self):
        # 2F1(1/2, 1; 3/2; -t^2) = arctan(t)/t with t = 2
        got = hyp2f1(1.0, -4.0)
        assert got == pytest.approx(math.atan(2.0) / 2.0, rel=1e-12)

    def test_direct_series_oracle(self):
        got = hyp2f1(2.0, -0.25)
        assert got == pytest.approx(HYP_HALF_2_QUARTER, rel=1e-13)

    @pytest.mark.parametrize("b", [0.6, 1.0, 2.0, 4.5, 10.0])
    def test_result_in_unit_interval_and_monotone(self, b):
        zs = [0.0, -0.01, -0.5, -2.0, -30.0, -1e3, -1e6]
        vals = [hyp2f1(b, z) for z in zs]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(hi > lo for hi, lo in zip(vals, vals[1:]))

    @pytest.mark.parametrize("b", [0.75, 1.0, 2.0, 3.3, 5.0])
    @pytest.mark.parametrize("z", [-0.55, -0.7, -0.85, -0.99])
    def test_transformation_consistency(self, b, z):
        # The two incomplete-beta forms that ccdf_abs uses on either side of
        # its split are complementary: 2F1 = leading term - tail remainder.
        direct = hyp2f1(b, z)
        transformed = _leading_term(b, -z) - hyp2f1_tail_remainder(b, z)
        assert transformed == pytest.approx(direct, rel=1e-12)

    def test_arctan_closed_form_far_tail(self):
        # Same identity deep in the tail exercises the transformed branch.
        for t in [10.0, 300.0, 1e4]:
            got = hyp2f1(1.0, -t * t)
            assert got == pytest.approx(math.atan(t) / t, rel=1e-10)

    def test_rejects_positive_z(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 0.25)

    @pytest.mark.parametrize("z", [-1e-3, -0.25])
    def test_rejects_non_family(self, z):
        # the CDF family needs b > 1/2
        with pytest.raises(ValueError):
            hyp2f1(0.25, z)

    def test_array_equals_scalar_calls(self):
        zs = np.array([0.0, -1e-6, -0.3, -4.0, -1e4])
        got = hyp2f1(2.5, zs)
        assert np.array_equal(got, [hyp2f1(2.5, float(z)) for z in zs])
        tail = hyp2f1_tail_remainder(2.5, zs[1:])
        assert np.array_equal(tail, [hyp2f1_tail_remainder(2.5, float(z)) for z in zs[1:]])

    def test_tail_remainder_positive(self):
        for b in [0.51, 1.0, 3.0]:
            for z in [-0.5, -10.0, -1e4]:
                assert hyp2f1_tail_remainder(b, z) >= 0.0
