"""Tests for the analytical delay-distribution layer.

The two-hop CCDF is cross-checked against direct numerical convolution of
the two exponential laws: P(D1+D2 > x) = P(D1 > x) + int_0^x g1(y) P(D2 > x-y) dy.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from relayqos.delaymodel import (
    HopDelayLaw,
    invert_equal_rate_ccdf,
    single_hop_ccdf,
    two_hop_ccdf,
)

U_50_1E6 = 0.33376841581719846  # qos_rate_target(50, 1e-6), bisection oracle


def convolution_ccdf(a: float, b: float, x: float) -> float:
    """Independent quadrature oracle for P(D1 + D2 > x)."""
    tail, err = integrate.quad(
        lambda y: a * math.exp(-a * y) * math.exp(-b * (x - y)),
        0.0, x, epsabs=1e-12, epsrel=1e-12, limit=400)
    assert err < 1e-10
    return math.exp(-a * x) + tail


class TestSingleHop:
    def test_at_zero(self):
        assert single_hop_ccdf(HopDelayLaw(0.7), 0.0) == 1.0

    def test_half_life(self):
        assert single_hop_ccdf(HopDelayLaw(1.0), math.log(2.0)) == pytest.approx(
            0.5, rel=1e-6, abs=0.0)

    def test_qos_point(self):
        # rate from the (D=50, xi=1e-6) inversion: e^{-16.69} ~ 5.66e-8
        value = single_hop_ccdf(HopDelayLaw(U_50_1E6), 50.0)
        assert value == pytest.approx(math.exp(-U_50_1E6 * 50.0), rel=1e-13, abs=0.0)
        assert 5e-8 < value < 6e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            HopDelayLaw(0.0)
        for x in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^x must be finite and >= 0"):
                single_hop_ccdf(HopDelayLaw(1.0), x)


class TestTwoHop:
    def test_at_zero(self):
        law = HopDelayLaw(0.5)
        assert two_hop_ccdf(law, law, 0.0) == 1.0

    @pytest.mark.parametrize("x", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_x(self, x):
        # at x = inf the closed form would be 0 * inf = NaN
        law = HopDelayLaw(0.5)
        with pytest.raises(ValueError, match="^x must be finite and >= 0"):
            two_hop_ccdf(law, law, x)

    def test_distinct_rates_example(self):
        # (a=1, b=2, x=1): 2/e - e^-2, cross-checked by convolution
        value = two_hop_ccdf(HopDelayLaw(1.0), HopDelayLaw(2.0), 1.0)
        assert value == pytest.approx(0.600423599106272, rel=1e-12, abs=0.0)
        assert value == pytest.approx(convolution_ccdf(1.0, 2.0, 1.0), abs=1e-10)

    def test_equal_rates_hit_the_inverted_target(self):
        law = HopDelayLaw(U_50_1E6)
        assert two_hop_ccdf(law, law, 50.0) == pytest.approx(1e-6, rel=1e-9, abs=0.0)

    def test_matches_convolution_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
            if rng.random() < 0.5:
                b = a * (1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-8, -5))
            else:
                b = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
            x = float(rng.uniform(0.0, 100.0))
            got = two_hop_ccdf(HopDelayLaw(a), HopDelayLaw(b), x)
            assert got == pytest.approx(convolution_ccdf(a, b, x), abs=1e-8)

    def test_near_equal_rates_against_mpmath(self):
        # relative rate gaps from 1e-12 to 10, where the plain hypoexponential
        # form loses digits to cancellation; equal rates give the Erlang-2 form
        mpmath = pytest.importorskip("mpmath")
        b = 0.731
        for gap in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 10.0):
            a = b * (1.0 + gap)
            for x in (0.0, 0.5, 5.0, 25.0, 80.0):
                got = two_hop_ccdf(HopDelayLaw(a), HopDelayLaw(b), x)
                if gap == 0.0:
                    assert got == (1.0 + b * x) * math.exp(-b * x)
                    continue
                with mpmath.workdps(50):
                    ma, mb, mx = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
                    ref = float((ma * mpmath.exp(-mb * mx) - mb * mpmath.exp(-ma * mx))
                                / (ma - mb))
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_symmetry(self):
        one, two = HopDelayLaw(0.2), HopDelayLaw(1.7)
        for x in (0.0, 1.0, 10.0, 60.0):
            assert two_hop_ccdf(one, two, x) == two_hop_ccdf(two, one, x)

    def test_dominates_single_hop(self):
        one, two = HopDelayLaw(0.3), HopDelayLaw(0.9)
        for x in (0.0, 2.0, 8.0, 30.0):
            floor = max(single_hop_ccdf(one, x), single_hop_ccdf(two, x))
            assert two_hop_ccdf(one, two, x) >= floor

    def test_monotone_decreasing_with_limits(self):
        one, two = HopDelayLaw(0.8), HopDelayLaw(0.8)
        xs = np.linspace(0.0, 80.0, 30)
        values = [two_hop_ccdf(one, two, float(x)) for x in xs]
        assert values[0] == 1.0
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20


class TestTailExponent:
    def test_matches_asymptotic_slope(self):
        # the end-to-end tail decays at the slower hop's rate; rates are
        # separated enough that x = 1e3 is already in the asymptotic regime
        # ((b - a) * x >> 1)
        rng = np.random.default_rng(5)
        for _ in range(8):
            a = float(rng.uniform(1e-3, 3e-3))
            b = a + float(rng.uniform(8e-3, 2e-2))
            if rng.random() < 0.5:
                a, b = b, a
            law1, law2 = HopDelayLaw(a), HopDelayLaw(b)
            x1, x2 = 1e3, 2e3
            slope = (math.log(two_hop_ccdf(law1, law2, x1))
                     - math.log(two_hop_ccdf(law1, law2, x2))) / (x2 - x1)
            assert slope == pytest.approx(min(a, b), rel=0.01, abs=0.0)


class TestInversion:
    def test_frozen_rate(self):
        law = invert_equal_rate_ccdf(50.0, 1e-6)
        assert law.rate == pytest.approx(U_50_1E6, rel=1e-10, abs=0.0)

    def test_round_trip(self):
        for delay, xi in ((50.0, 1e-6), (25.0, 1e-3), (200.0, 0.05)):
            law = invert_equal_rate_ccdf(delay, xi)
            assert two_hop_ccdf(law, law, delay) == pytest.approx(xi, rel=1e-9, abs=0.0)

    def test_loose_target(self):
        law = invert_equal_rate_ccdf(10.0, 1.0 - 1e-12)
        assert 0.0 < law.rate < 1e-5

    def test_propagates_domain_errors(self):
        with pytest.raises(ValueError):
            invert_equal_rate_ccdf(10.0, 0.0)
        with pytest.raises(ValueError):
            invert_equal_rate_ccdf(0.0, 0.5)
