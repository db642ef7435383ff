"""Tests for the effective capacity / effective bandwidth layer.

Key frozen values (computed with mpmath before implementation):
  beta=1, snr=1, BT=200:  C = -200*ln(e*E1(1)) = 103.38639180040912
                          A = 200*ln(2)        = 138.62943611198906
  ergodic rate at snr=1, BT=200: 200*e*E1(1)   = 119.26947246463881
"""

import math

import numpy as np
import pytest

from oracles import (
    THETA_ERGODIC_LIMIT,
    effective_bandwidth_oracle,
    effective_capacity_oracle,
    ergodic_rate_oracle,
)
from relayqos import specfun
from relayqos.effcap import (
    LinkModel,
    _capacity_at_snr,
    _capacity_log_slope,
    effective_bandwidth_service_rayleigh,
    effective_capacity_rayleigh,
    ergodic_rate,
)
from test_specfun import _BRANCH_CORES, _branch_points

BT = 200.0

C_BETA1_SNR1 = 103.38639180040912
A_BETA1_SNR1 = 138.62943611198906
ERGODIC_SNR1 = 119.26947246463881


def link(snr=1.0, gain=1.0, bt=BT):
    return LinkModel(tx_power=snr / gain, mean_gain=gain, bt_product=bt)


def log_moment_reference(s, snr):
    """log E[(1 + snr*h)^s] = z - s*ln z + ln G(1 + s, z), z = 1/snr, at 200 digits.

    At 40-60 digits mpmath's gammainc can be wrong in the 10th digit (or in
    sign) for large negative s.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(200):
        s, z = mpmath.mpf(s), 1 / mpmath.mpf(snr)
        return float(z - s * mpmath.log(z) + mpmath.log(mpmath.gammainc(1 + s, z, mpmath.inf)))


class TestLinkModel:
    def test_effective_snr(self):
        assert link(2.0, 4.0).effective_snr == pytest.approx(2.0, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(tx_power=0.0, mean_gain=1.0, bt_product=1.0),
        dict(tx_power=1.0, mean_gain=-1.0, bt_product=1.0),
        dict(tx_power=1.0, mean_gain=1.0, bt_product=0.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LinkModel(**kwargs)


class TestClosedForms:
    def test_capacity_at_unit_beta(self):
        theta = 1.0 / BT  # beta = 1
        assert effective_capacity_rayleigh(theta, link()) == pytest.approx(
            C_BETA1_SNR1, rel=1e-12, abs=0.0)

    def test_bandwidth_at_unit_beta(self):
        # E[1 + h] = 2 for unit-mean h, so A = ln(2)/theta
        theta = 1.0 / BT
        assert effective_bandwidth_service_rayleigh(theta, link()) == pytest.approx(
            A_BETA1_SNR1, rel=1e-12, abs=0.0)

    def test_bandwidth_at_beta_two(self):
        # E[(1 + h)^2] = 1 + 2 + 2 = 5
        theta = 2.0 / BT
        assert effective_bandwidth_service_rayleigh(theta, link()) == pytest.approx(
            math.log(5.0) / theta, rel=1e-12, abs=0.0)


class TestOracleAgreement:
    @pytest.mark.parametrize("theta", np.geomspace(1e-4, 1e-1, 5))
    @pytest.mark.parametrize("snr", np.geomspace(0.1, 100.0, 5))
    def test_closed_form_matches_quadrature(self, theta, snr):
        lk = link(float(snr))
        c1 = effective_capacity_rayleigh(float(theta), lk)
        c2 = effective_capacity_oracle(float(theta), lk)
        assert c1 == pytest.approx(c2, rel=1e-6, abs=0.0)
        a1 = effective_bandwidth_service_rayleigh(float(theta), lk)
        a2 = effective_bandwidth_oracle(float(theta), lk)
        assert a1 == pytest.approx(a2, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("snr", np.geomspace(1e-3, 1e6, 10))
    def test_ergodic_rate_matches_quadrature(self, snr):
        lk = link(float(snr))
        assert ergodic_rate(lk) == pytest.approx(ergodic_rate_oracle(lk), rel=1e-12, abs=0.0)

    def test_closed_forms_match_mpmath(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            theta, bt, snr = (float(v) for v in 10.0 ** rng.uniform([-12, 1, -2], [0, 3, 3]))
            lk = LinkModel(snr, 1.0, bt)
            capacity = effective_capacity_rayleigh(theta, lk)
            bandwidth = effective_bandwidth_service_rayleigh(theta, lk)
            assert capacity == pytest.approx(
                -log_moment_reference(-bt * theta, snr) / theta, rel=1e-13, abs=0.0)
            assert bandwidth == pytest.approx(
                log_moment_reference(bt * theta, snr) / theta, rel=1e-13, abs=0.0)
            assert capacity <= ergodic_rate(lk) <= bandwidth

    def test_capacity_moment_example(self):
        # beta = 1, snr = 1: the moment is e*E1(1) ~ 0.596347362323194
        theta = 1.0 / BT
        c = effective_capacity_oracle(theta, link())
        assert math.exp(-theta * c) == pytest.approx(0.596347362323194, rel=1e-9, abs=0.0)


class TestLimitsAndMonotonicity:
    def test_ergodic_rate_frozen_value(self):
        assert ergodic_rate(link()) == pytest.approx(ERGODIC_SNR1, rel=1e-10, abs=0.0)

    def test_tiny_theta_returns_ergodic_limit(self):
        # only the oracles switch to the ergodic rate; the closed forms stay
        # exact on both sides of the oracles' switch and bracket that rate
        lk = link(2.5)
        erg = ergodic_rate(lk)
        assert effective_capacity_oracle(THETA_ERGODIC_LIMIT / 10, lk) == erg
        assert effective_bandwidth_oracle(THETA_ERGODIC_LIMIT / 10, lk) == erg
        for theta in (1e-12, 1e-9, 0.999e-8, 1.001e-8):
            capacity = effective_capacity_rayleigh(theta, lk)
            bandwidth = effective_bandwidth_service_rayleigh(theta, lk)
            assert capacity == pytest.approx(
                -log_moment_reference(-BT * theta, 2.5) / theta, rel=1e-14, abs=0.0)
            assert bandwidth == pytest.approx(
                log_moment_reference(BT * theta, 2.5) / theta, rel=1e-14, abs=0.0)
            assert capacity <= erg <= bandwidth

    def test_small_theta_approaches_ergodic(self):
        lk = link(1.7)
        erg = ergodic_rate(lk)
        assert effective_capacity_rayleigh(1e-6, lk) == pytest.approx(erg, rel=1e-3, abs=0.0)
        assert effective_bandwidth_service_rayleigh(1e-6, lk) == pytest.approx(
            erg, rel=1e-3, abs=0.0)

    def test_capacity_decreasing_bandwidth_increasing_in_theta(self):
        lk = link(3.0)
        thetas = np.geomspace(1e-5, 0.05, 10)
        caps = [effective_capacity_rayleigh(float(t), lk) for t in thetas]
        bws = [effective_bandwidth_service_rayleigh(float(t), lk) for t in thetas]
        assert all(a > b for a, b in zip(caps, caps[1:]))
        assert all(a < b for a, b in zip(bws, bws[1:]))

    def test_increasing_in_power(self):
        theta = 2e-3
        caps, bws = [], []
        for p in (0.2, 0.7, 2.0, 8.0, 40.0):
            lk = LinkModel(p, 1.0, BT)
            caps.append(effective_capacity_rayleigh(theta, lk))
            bws.append(effective_bandwidth_service_rayleigh(theta, lk))
        assert all(a < b for a, b in zip(caps, caps[1:]))
        assert all(a < b for a, b in zip(bws, bws[1:]))

    def test_ordering_around_ergodic_rate(self):
        for snr in (0.3, 1.0, 12.0):
            lk = link(snr)
            erg = ergodic_rate(lk)
            for theta in (1e-4, 3e-3, 3e-2):
                assert effective_capacity_rayleigh(theta, lk) < erg
                assert effective_bandwidth_service_rayleigh(theta, lk) > erg

    def test_log_mgf_increasing_convex_vanishing(self):
        # theta * A(theta) is the log-MGF of the rate: 0 at 0+, increasing, convex
        lk = link(1.3)
        thetas = np.linspace(1e-4, 0.03, 12)
        lmgf = [t * effective_bandwidth_service_rayleigh(float(t), lk) for t in thetas]
        assert all(a < b for a, b in zip(lmgf, lmgf[1:]))
        mid = [0.5 * (a + c) for a, c in zip(lmgf, lmgf[2:])]
        assert all(m >= b for m, b in zip(mid, lmgf[1:-1]))
        assert 1e-9 * effective_bandwidth_service_rayleigh(1e-9, lk) < 1e-6

    def test_scale_absorption_is_exact(self):
        # (kappa, gain) enters only through the product kappa*gain
        theta = 4e-3
        a = LinkModel(tx_power=2.0, mean_gain=3.5, bt_product=BT)
        b = LinkModel(tx_power=7.0, mean_gain=1.0, bt_product=BT)
        assert (effective_capacity_rayleigh(theta, a)
                == effective_capacity_rayleigh(theta, b))
        assert (effective_bandwidth_service_rayleigh(theta, a)
                == effective_bandwidth_service_rayleigh(theta, b))

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            effective_capacity_rayleigh(0.0, link())
        with pytest.raises(ValueError):
            effective_bandwidth_service_rayleigh(-1e-3, link())


class TestCapacityLogSlope:
    """dC/d ln(kappa) from C alone, against mpmath's derivative of the exact C."""

    # (beta = BT*theta, snr); a = 1 - beta and z = 1/snr pick the branch of
    # log E[(1 + h/z)^-beta] that effective_capacity_rayleigh takes
    @pytest.mark.parametrize("beta, snr", [
        (2.0, 0.1),      # continued fraction, a <= 0
        (0.5, 0.2),      # continued fraction, a > 0
        (0.7, 2.0),      # small-a series, 0 < a <= 0.5, z < 1.5
        (0.2, 1.0),      # lower regularized series, a > 0.5, z < a + 1
        (3.5, 10.0),     # downward recurrence, -10 < a <= 0, z < 1.5
        (501.0, 100.0),  # continued fraction, a <= -10, z < 1.5
    ])
    def test_matches_exact_derivative(self, beta, snr):
        mpmath = pytest.importorskip("mpmath")
        theta = beta / BT
        lk = link(snr)
        got = _capacity_log_slope(theta, snr, BT, effective_capacity_rayleigh(theta, lk))

        def capacity(x):
            z = mpmath.exp(-x)
            moment = z ** beta * mpmath.exp(z) * mpmath.gammainc(1 - beta, z)
            return -mpmath.log(moment) / theta

        with mpmath.workdps(40):
            exact = float(mpmath.diff(capacity, math.log(snr)))
        assert got == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_ergodic_limit(self):
        # at theta = 5e-9 the moment is 1 + O(1e-6), and C comes from its log1p
        mpmath = pytest.importorskip("mpmath")
        theta = 5e-9
        beta = BT * theta
        for snr in (0.05, 1.0, 30.0):
            lk = link(snr)
            got = _capacity_log_slope(theta, snr, BT, effective_capacity_rayleigh(theta, lk))

            def capacity(x):
                z = mpmath.exp(-x)
                moment = z ** beta * mpmath.exp(z) * mpmath.gammainc(1 - beta, z)
                return -mpmath.log(moment) / theta

            with mpmath.workdps(40):
                exact = float(mpmath.diff(capacity, math.log(snr)))
            assert got == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_finite_where_expm1_overflows(self):
        # theta*C ~ 717 at snr = 1e305: e^(theta*C) overflows, but the
        # slope, about 1/theta, is finite and matches a central difference
        theta, bt = 1e4, 200.0
        x = math.log(1e305)
        capacity = _capacity_at_snr(theta, math.exp(x), bt)
        with pytest.raises(OverflowError):
            math.expm1(theta * capacity)
        got = _capacity_log_slope(theta, math.exp(x), bt, capacity)
        h = 1e-5
        central = (_capacity_at_snr(theta, math.exp(x + h), bt)
                   - _capacity_at_snr(theta, math.exp(x - h), bt)) / (2.0 * h)
        assert 0.0 < got < bt
        assert got == pytest.approx(central, rel=1e-6, abs=0.0)


def _spy_branch_cores(monkeypatch):
    """Record, in order, each incomplete-gamma core the closed forms run."""
    calls = []

    def spy(name, core):
        def wrapped(*args):
            calls.append(name)
            return core(*args)
        return wrapped

    for name in set(_BRANCH_CORES.values()):
        monkeypatch.setattr(specfun, name, spy(name, getattr(specfun, name)))
    return calls


class TestCapacityKernel:
    # a = 1 - BT*theta and z = 1/snr: the capacity's points among the gamma
    # branch map's, a < 1 so that theta > 0
    @pytest.mark.parametrize("branch, a, z", [p for p in _branch_points() if p[1] < 1.0])
    def test_matches_public_capacity(self, branch, a, z, monkeypatch):
        theta, snr = (1.0 - a) / BT, 1.0 / z
        public = effective_capacity_rayleigh(theta, LinkModel(snr, 1.0, BT))
        calls = _spy_branch_cores(monkeypatch)
        assert _capacity_at_snr(theta, snr, BT) == public  # bit for bit
        assert calls == [_BRANCH_CORES[branch]]

    # the bandwidth is the kernel at -theta, so a = 1 + BT*theta > 1
    @pytest.mark.parametrize("branch, a, z", [p for p in _branch_points() if p[1] > 1.0])
    def test_bandwidth_is_the_kernel_at_minus_theta(self, branch, a, z, monkeypatch):
        theta, snr = (a - 1.0) / BT, 1.0 / z
        public = effective_bandwidth_service_rayleigh(theta, LinkModel(snr, 1.0, BT))
        calls = _spy_branch_cores(monkeypatch)
        assert _capacity_at_snr(-theta, snr, BT) == public  # bit for bit
        assert calls == [_BRANCH_CORES[branch]]

    def test_bandwidth_overflow_names_the_bandwidth(self):
        # the kernel's one finiteness check serves both statistics; called
        # at -theta it reports the statistic and the theta the caller gave
        with pytest.raises(OverflowError, match=r"^effective bandwidth .* theta=2e\+303,"):
            effective_bandwidth_service_rayleigh(2e303, LinkModel(1e300, 1.0, 100.0))
