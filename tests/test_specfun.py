"""Tests for the special functions.

Frozen expected values were produced by independent oracles before the
implementation existed: bisection of w*e^w for Lambert-W points, bisection of
(1+v)e^-v for the QoS rate, and adaptive quadrature of the incomplete-gamma
integrand (cross-checked against mpmath.gammainc).
"""

import math
import time

import mpmath
import numpy as np
import pytest

from relayqos import specfun
from relayqos.specfun import (
    _gamma1p_frac,
    lambert_w,
    log_upper_incomplete_gamma,
    qos_rate_target,
    rbm_decorrelation,
    upper_incomplete_gamma,
)

INV_E = math.exp(-1.0)

# bisection of w*e^w = -1e-6/e on [-60, -1]
W_M1_AT_MINUS_1E6_OVER_E = -17.688420790859922
# bisection of (1+v)e^-v = xi on [1e-12, 60]
V_XI_1E6 = 16.688420790859922
V_XI_1E2 = 6.638352067993813
# quadrature of t^-1.5 e^-t on [1, inf)
G_MINUS_HALF_AT_1 = 0.17814771178156072
# quadrature of e^-t / t on [1, inf)
E1_AT_1 = 0.21938393439552026


class TestLambertW:
    def test_zero_on_principal_branch(self):
        assert lambert_w(0.0) == 0.0

    def test_branch_point_both_branches(self):
        assert lambert_w(-INV_E, 0) == -1.0
        assert lambert_w(-INV_E, -1) == -1.0

    def test_minus_one_branch_small_argument(self):
        w = lambert_w(-1e-6 / math.e, branch=-1)
        assert w == pytest.approx(W_M1_AT_MINUS_1E6_OVER_E, rel=1e-12, abs=0.0)
        assert abs(w * math.exp(w) - (-1e-6 / math.e)) <= 1e-12 * 1e-6 / math.e

    @pytest.mark.parametrize("branch", [0, -1])
    def test_round_trip_residual(self, branch):
        rng = np.random.default_rng(42)
        # uniform and log-uniform points over the branch domain
        xs = list(-INV_E * rng.random(1000))
        xs += list(-np.exp(rng.uniform(np.log(1e-250), np.log(INV_E), 1000)))
        if branch == 0:
            xs += list(np.exp(rng.uniform(np.log(1e-6), np.log(1e300), 1000)))
        for x in xs:
            if branch == -1 and x >= 0.0:
                continue
            w = lambert_w(float(x), branch)
            assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    def test_matches_mpmath(self):
        rng = np.random.default_rng(3)
        for x in -INV_E * rng.random(200):
            for branch in (0, -1):
                with mpmath.workdps(40):
                    ref = float(mpmath.lambertw(float(x), branch).real)
                assert lambert_w(float(x), branch) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_branch_ordering_on_common_domain(self):
        for x in (-0.3, -0.1, -1e-3, -1e-8):
            w0 = lambert_w(x, 0)
            wm1 = lambert_w(x, -1)
            assert wm1 < -1.0 < w0 <= 0.0

    @pytest.mark.parametrize("branch, x, start", [
        (0, 1.0, -1.0),     # w + 1 == 0: the Halley factor is nudged off zero
        (-1, -0.1, -1.0),
        # the first step lands on the other branch's side of -1, where x < 0
        # has a root too: clamped back to the requested branch
        (0, -0.1, -2.0),
        (-1, -0.1, -0.5),
    ])
    def test_halley_guards_keep_the_branch(self, monkeypatch, branch, x, start):
        # no seed of _w_initial_guess reaches these guards, so start there
        monkeypatch.setattr(specfun, "_w_initial_guess", lambda *args: start)
        w = lambert_w(x, branch)
        assert (w > -1.0) if branch == 0 else (w < -1.0)
        assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(-INV_E - 1e-6, 0)
        with pytest.raises(ValueError):
            lambert_w(-0.5, -1)
        with pytest.raises(ValueError):
            lambert_w(0.0, -1)
        with pytest.raises(ValueError):
            lambert_w(0.1, -1)
        with pytest.raises(ValueError):
            lambert_w(0.1, 1)


class TestUpperIncompleteGamma:
    def test_exponential_special_case(self):
        # a = 1: the integral is exactly e^-z
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-13, abs=0.0)

    def test_full_gamma_limit(self):
        # z -> 0+ with a > 0 recovers Gamma(a)
        assert upper_incomplete_gamma(2.0, 1e-13) == pytest.approx(1.0, rel=1e-10, abs=0.0)

    def test_negative_parameter_against_quadrature(self):
        value = upper_incomplete_gamma(-0.5, 1.0)
        assert value == pytest.approx(G_MINUS_HALF_AT_1, rel=1e-10, abs=0.0)

    def test_zero_parameter_is_e1(self):
        assert upper_incomplete_gamma(0.0, 1.0) == pytest.approx(E1_AT_1, rel=1e-10, abs=0.0)

    def test_against_mpmath_grid(self):
        for a in np.linspace(-5.0, 10.0, 31):
            for z in (1e-3, 1e-2, 0.1, 0.5, 1.0, 1.4, 2.0, 5.0, 10.0, 30.0, 50.0):
                with mpmath.workdps(40):
                    ref = float(mpmath.gammainc(mpmath.mpf(float(a)), z, mpmath.inf))
                got = upper_incomplete_gamma(float(a), float(z))
                assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (a, z)
                assert got > 0.0

    def test_recurrence_identity(self):
        # G(a+1, z) = a*G(a, z) + z^a e^-z, the a <= 0 evaluation mechanism
        for a in np.arange(-5.0, 10.01, 0.5):
            for z in np.geomspace(1e-3, 50.0, 15):
                lhs = upper_incomplete_gamma(a + 1.0, float(z))
                rhs = (a * upper_incomplete_gamma(float(a), float(z))
                       + math.exp(a * math.log(z) - z))
                assert rhs == pytest.approx(lhs, rel=1e-9, abs=0.0), (a, z)

    def test_strictly_decreasing_in_z(self):
        for a in (-2.5, -0.5, 0.0, 1.5, 4.0):
            values = [upper_incomplete_gamma(a, z)
                      for z in np.geomspace(0.05, 20.0, 12)]
            assert all(u > v for u, v in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, -2.0)

    def test_overflow_is_signalled(self):
        # Gamma(200) is far beyond double range
        with pytest.raises(OverflowError):
            upper_incomplete_gamma(200.0, 1.0)
        # e^-800 underflows; the strictly-positive contract cannot hold
        with pytest.raises(OverflowError):
            upper_incomplete_gamma(0.5, 800.0)

    def test_values_up_to_the_largest_double_are_returned(self):
        # Gamma(171.6) ~ 1.586e308 fits below the largest double (~1.798e308);
        # Gamma(172) = 171! ~ 1.241e309 does not
        with mpmath.workdps(40):
            ref = float(mpmath.gammainc(mpmath.mpf(171.6), 1e-3, mpmath.inf))
        assert upper_incomplete_gamma(171.6, 1e-3) == pytest.approx(ref, rel=1e-10, abs=0.0)
        with pytest.raises(OverflowError, match="outside double range"):
            upper_incomplete_gamma(172.0, 1e-3)


class TestLogUpperIncompleteGamma:
    def test_agrees_with_plain_value(self):
        for a in (-3.0, -0.5, 0.0, 0.7, 2.0, 15.0):
            for z in (0.01, 0.9, 3.0, 40.0):
                expected = math.log(upper_incomplete_gamma(a, z))
                assert log_upper_incomplete_gamma(a, z) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12)

    def test_survives_extreme_arguments(self):
        # values far outside double range for the plain function
        for a, z in ((0.5, 800.0), (-2.0, 2000.0), (180.0, 1.0), (-4.0, 1e6)):
            got = log_upper_incomplete_gamma(a, z)
            with mpmath.workdps(40):
                ref = float(mpmath.log(mpmath.gammainc(mpmath.mpf(a), z, mpmath.inf)))
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_deeply_negative_parameter_small_z(self):
        # the plain recurrence cannot represent these; the log variant can
        for a, z in ((-3469.0, 1.4), (-827.0, 1e-3)):
            with pytest.raises(OverflowError):
                upper_incomplete_gamma(a, z)
            got = log_upper_incomplete_gamma(a, z)
            with mpmath.workdps(40):
                ref = float(mpmath.log(mpmath.gammainc(mpmath.mpf(a), z, mpmath.inf)))
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0)
        # still representable here: both routes must agree
        value = upper_incomplete_gamma(-120.0, 0.3)
        with mpmath.workdps(40):
            ref = float(mpmath.gammainc(mpmath.mpf(-120.0), 0.3, mpmath.inf))
        assert value == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_deeply_negative_parameter_is_fast(self):
        # a <= -10 goes to the continued fraction, never to 1e7 recurrence steps
        start = time.perf_counter()
        got = log_upper_incomplete_gamma(-1e7, 1.0)
        assert time.perf_counter() - start < 0.05
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.gammainc(-10**7, 1, mpmath.inf)))
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_huge_parameter_near_z(self):
        # slow-series regime: z just below a + 1 at large a
        for a, z in ((35593.7, 34747.6), (561766.05, 542066.85)):
            got = log_upper_incomplete_gamma(a, z)
            with mpmath.workdps(40):
                ref = float(mpmath.log(mpmath.gammainc(mpmath.mpf(a), z, mpmath.inf)))
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0)


def _log_gamma_reference(a, z):
    """ln G(a, z) at 200 digits.

    Below z = 1e-20, where mpmath's gammainc takes about a second per point,
    the series G(a) - z^a * sum (-z)^k / (k! (a + k)) is summed directly
    (a is never an integer here).
    """
    with mpmath.workdps(200):
        a, z = mpmath.mpf(a), mpmath.mpf(z)
        if z >= 1e-20:
            return mpmath.log(mpmath.gammainc(a, z, mpmath.inf))
        total, term, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while abs(term) > mpmath.mpf(10) ** -210 * abs(total) or k == 0:
            total += term / (a + k)
            k += 1
            term *= -z / k
        return mpmath.log(mpmath.gamma(a) - z ** a * total)


def _branch_points():
    """(branch, a, z), eight seeded points in each branch of the G(a, z) dispatch."""
    rng = np.random.default_rng(17)
    points = []
    for _ in range(8):
        a = rng.uniform(0.5, 50.0)
        points.append(("continued fraction, a > 0", a, a + 1.0 + 10.0 ** rng.uniform(-3, 3)))
        points.append(("continued fraction, a <= 0", rng.uniform(-50.0, 0.0),
                       10.0 ** rng.uniform(math.log10(1.5), 3)))
        points.append(("continued fraction, a <= -10", -(10.0 ** rng.uniform(1, 7)),
                       10.0 ** rng.uniform(-300, math.log10(1.5))))
        a = 10.0 ** rng.uniform(math.log10(0.5), 3)
        points.append(("lower series", a, (a + 1.0) * 10.0 ** rng.uniform(-20, 0)))
        points.append(("small a", rng.uniform(-0.5, 0.5),
                       10.0 ** rng.uniform(-300, math.log10(1.5))))
        points.append(("recurrence", rng.uniform(-10.0, -0.5),
                       10.0 ** rng.uniform(-300, math.log10(1.5))))
    return [(b, float(a), float(z)) for b, a, z in points]


class TestBranchMap:
    @pytest.mark.parametrize("branch, a, z", _branch_points())
    def test_matches_mpmath(self, branch, a, z):
        ref = float(_log_gamma_reference(a, z))
        scale = max(1.0, abs(ref))
        assert abs(log_upper_incomplete_gamma(a, z) - ref) <= 1e-14 * scale
        if abs(ref) < 700.0:
            assert upper_incomplete_gamma(a, z) == pytest.approx(
                math.exp(ref), rel=1e-14 * scale, abs=0.0)


class TestGamma1pFrac:
    def test_matches_mpmath(self):
        for magnitude in np.geomspace(1e-8, 0.5, 120):
            for a in (float(magnitude), -float(magnitude)):
                with mpmath.workdps(40):
                    ref = float((mpmath.gamma(1 + mpmath.mpf(a)) - 1) / a)
                assert _gamma1p_frac(a) == pytest.approx(ref, rel=1e-14, abs=0.0), a


class TestQosRateTarget:
    def test_frozen_bisection_values(self):
        assert qos_rate_target(50.0, 1e-6) == pytest.approx(V_XI_1E6 / 50.0, rel=1e-10, abs=0.0)
        assert qos_rate_target(100.0, 1e-2) == pytest.approx(V_XI_1E2 / 100.0, rel=1e-10, abs=0.0)

    def test_defining_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            delay = float(rng.uniform(1.0, 500.0))
            xi = float(10.0 ** rng.uniform(-10.0, -0.05))
            u = qos_rate_target(delay, xi)
            assert u > 0.0
            v = u * delay
            assert (1.0 + v) * math.exp(-v) == pytest.approx(xi, rel=1e-10, abs=0.0)

    def test_loose_target_gives_vanishing_rate(self):
        u = qos_rate_target(1.0, 1.0 - 1e-12)
        assert 0.0 <= u < 1e-5

    def test_monotone_in_target_and_bound(self):
        xis = [1e-8, 1e-6, 1e-4, 1e-2, 0.5, 0.9]
        rates = [qos_rate_target(50.0, xi) for xi in xis]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        bounds = [5.0, 20.0, 80.0, 320.0]
        rates = [qos_rate_target(d, 1e-4) for d in bounds]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qos_rate_target(0.0, 0.5)
        with pytest.raises(ValueError):
            qos_rate_target(10.0, 0.0)
        with pytest.raises(ValueError):
            qos_rate_target(10.0, 1.0)
        with pytest.raises(ValueError):
            qos_rate_target(10.0, 1.5)

    def test_underflowing_target_names_xi(self):
        # -xi/e is -0.0 only at the smallest positive double; the next one up
        # gives -5e-324 and solves
        with pytest.raises(ValueError, match=r"^xi=5e-324 is too small: -xi/e underflows"):
            qos_rate_target(1.0, 5e-324)
        assert qos_rate_target(1.0, 1e-323) == pytest.approx(750.37, rel=1e-5, abs=0.0)


def _rbm_decorrelation_oracle(t):
    """1 - c(t) from c = the stationary-excess law of H1 (Abate & Whitt 1987).

    1 - H1(s) = 1 - E[R(s) | R(0) = 0] / E[R(inf)] for canonical RBM, by the
    reflection principle 2((1 + s) Q(sqrt s) - sqrt(s) phi(sqrt s)); H1 has
    mean 1/2, so c(t) = 2 * integral_t^inf (1 - H1(s)) ds.
    """
    def h1_tail(s):
        r = mpmath.sqrt(s)
        return 2 * ((1 + s) * mpmath.ncdf(-r) - r * mpmath.npdf(r))
    with mpmath.workdps(40):
        return float(1 - 2 * mpmath.quad(h1_tail, [t, t + 1, t + 10, mpmath.inf]))


class TestRbmDecorrelation:
    @pytest.mark.parametrize("t", [1e-9, 1e-4, 0.05, 0.5, 1.0, 1.0 + 1e-9,
                                   1.7, 4.0, 12.0, 40.0])
    def test_matches_integral_representation(self, t):
        assert rbm_decorrelation(t) == pytest.approx(_rbm_decorrelation_oracle(t),
                                                     rel=1e-12, abs=0.0)

    def test_limits(self):
        assert rbm_decorrelation(0.0) == 0.0
        # Var[Z(t) - Z(0)] ~ t for small t, and 2 Var[Z] = 1/2 for canonical RBM
        assert rbm_decorrelation(1e-12) == pytest.approx(2e-12, rel=1e-5, abs=0.0)
        assert rbm_decorrelation(200.0) == 1.0
        assert rbm_decorrelation(1e6) == 1.0

    def test_increasing(self):
        ts = np.geomspace(1e-6, 60.0, 400)
        values = [rbm_decorrelation(float(t)) for t in ts]
        assert all(0.0 < a < b <= 1.0 for a, b in zip(values, values[1:]))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            rbm_decorrelation(-1.0)


def test_mpmath_precision_is_scoped():
    # each reference above sets its own precision; none leaks into the session
    assert mpmath.mp.dps == 15
