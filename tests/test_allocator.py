"""Tests for the two-step minimum-power solver."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import optimize

from relayqos import allocator
from relayqos.allocator import (
    InfeasibleError,
    Scenario,
    allocate,
    relay_arrival_bandwidth,
    solve_kappa1,
    solve_kappa2,
    solve_theta1,
    solve_theta2,
)
from relayqos.delaymodel import HopDelayLaw, two_hop_ccdf
from relayqos.effcap import (
    LinkModel,
    effective_bandwidth_service_rayleigh,
    effective_capacity_oracle,
    effective_capacity_rayleigh,
)
from relayqos.specfun import qos_rate_target

# 100 kbps at 2 ms frames, in nats/frame
LOAD_100KBPS = 138.62943611198906

HEADLINE = Scenario(traffic_load=LOAD_100KBPS, delay_bound=50.0,
                    violation_prob=1e-6, bt_product=200.0)


def random_scenarios(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(Scenario(
            traffic_load=float(rng.uniform(20.0, 400.0)),
            delay_bound=float(rng.uniform(10.0, 200.0)),
            violation_prob=float(10.0 ** rng.uniform(-8.0, -1.0)),
            hop1_mean_gain=float(10.0 ** rng.uniform(-1.2, 1.2)),
            hop2_mean_gain=float(10.0 ** rng.uniform(-1.2, 1.2)),
            bt_product=float(rng.choice([100.0, 200.0, 400.0])),
        ))
    return out


class TestScenario:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            Scenario(traffic_load=-1.0, delay_bound=50.0, violation_prob=1e-6)
        with pytest.raises(ValueError):
            Scenario(traffic_load=1.0, delay_bound=0.0, violation_prob=1e-6)
        with pytest.raises(ValueError):
            Scenario(traffic_load=1.0, delay_bound=50.0, violation_prob=1.0)

    def test_zero_load_allowed_for_simulation_only(self):
        scenario = Scenario(traffic_load=0.0, delay_bound=50.0, violation_prob=1e-2)
        with pytest.raises(ValueError):
            solve_theta1(scenario)


class TestTheta1:
    def test_headline_value(self):
        # u = 16.688420790859922 / 50 (bisection oracle), divided by the load
        expected = 16.688420790859922 / 50.0 / HEADLINE.traffic_load
        assert solve_theta1(HEADLINE) == pytest.approx(expected, rel=1e-10)
        # the load rounded to 138.63 gives ~2.408e-3
        rounded = dataclasses.replace(HEADLINE, traffic_load=138.63)
        assert solve_theta1(rounded) == pytest.approx(0.0024076203983062717, rel=1e-10)

    def test_doubling_load_halves_theta1(self):
        doubled = dataclasses.replace(HEADLINE, traffic_load=2 * HEADLINE.traffic_load)
        assert solve_theta1(doubled) == pytest.approx(solve_theta1(HEADLINE) / 2.0,
                                                      rel=1e-14)

    def test_loose_target_vanishes(self):
        loose = dataclasses.replace(HEADLINE, violation_prob=1.0 - 1e-12)
        assert 0.0 < solve_theta1(loose) < 1e-7


class TestKappa1:
    def test_back_substitution(self):
        theta1 = solve_theta1(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        link = LinkModel(kappa1, HEADLINE.hop1_mean_gain, HEADLINE.bt_product)
        got = effective_capacity_rayleigh(theta1, link)
        assert abs(got - HEADLINE.traffic_load) <= 1e-9 * HEADLINE.traffic_load

    def test_oracle_back_substitution(self):
        theta1 = solve_theta1(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        link = LinkModel(kappa1, HEADLINE.hop1_mean_gain, HEADLINE.bt_product)
        assert effective_capacity_oracle(theta1, link) == pytest.approx(
            HEADLINE.traffic_load, rel=1e-6)

    def test_vanishing_load_needs_vanishing_power(self):
        tiny = dataclasses.replace(HEADLINE, traffic_load=1e-3)
        kappa1 = solve_kappa1(solve_theta1(tiny), tiny)
        assert 0.0 < kappa1 < 1e-4

    def test_infeasible_when_ceiling_too_low(self):
        heavy = dataclasses.replace(HEADLINE, traffic_load=5000.0)
        with pytest.raises(InfeasibleError) as err:
            solve_kappa1(solve_theta1(heavy), heavy, power_ceiling=10.0)
        assert err.value.step == "solve_kappa1"


class TestRelayArrivalBandwidth:
    def test_between_load_and_hop1_service_bandwidth(self):
        # hop 1's departures are smoother than its service process but, at
        # a finite time scale, burstier than the constant load
        for scenario in [HEADLINE] + random_scenarios(5, seed=4):
            theta1 = solve_theta1(scenario)
            kappa1 = solve_kappa1(theta1, scenario)
            link1 = LinkModel(kappa1, scenario.hop1_mean_gain, scenario.bt_product)
            for theta in (0.25 * theta1, theta1):
                got = relay_arrival_bandwidth(theta, kappa1, scenario)
                assert scenario.traffic_load < got
                assert got < effective_bandwidth_service_rayleigh(theta, link1)

    def test_linear_in_theta(self):
        theta1 = solve_theta1(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        load = HEADLINE.traffic_load
        excess = [relay_arrival_bandwidth(t, kappa1, HEADLINE) - load
                  for t in (0.5 * theta1, theta1)]
        assert excess[1] == pytest.approx(2.0 * excess[0], rel=1e-12)

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            relay_arrival_bandwidth(0.0, 1.0, HEADLINE)


class TestTheta2:
    def test_root_and_ordering(self):
        theta1 = solve_theta1(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        theta2 = solve_theta2(kappa1, HEADLINE)
        u = qos_rate_target(HEADLINE.delay_bound, HEADLINE.violation_prob)
        residual = theta2 * relay_arrival_bandwidth(theta2, kappa1, HEADLINE) - u
        assert abs(residual) <= 1e-9 * u
        # A_D(theta) > load forces theta2 below u / load = theta1
        assert theta2 < theta1

    def test_against_grid_scan(self):
        scenario = random_scenarios(1, seed=9)[0]
        theta1 = solve_theta1(scenario)
        kappa1 = solve_kappa1(theta1, scenario)
        theta2 = solve_theta2(kappa1, scenario)
        u = qos_rate_target(scenario.delay_bound, scenario.violation_prob)

        def gap(theta):
            return theta * relay_arrival_bandwidth(theta, kappa1, scenario) - u

        # fine grid around the root: the sign must flip exactly there
        grid = np.linspace(0.9 * theta2, 1.1 * theta2, 201)
        signs = np.sign([gap(float(t)) for t in grid])
        flips = np.nonzero(np.diff(signs) > 0)[0]
        assert flips.size == 1
        assert grid[flips[0]] <= theta2 <= grid[flips[0] + 1]


class TestKappa2:
    def test_back_substitution_and_asymmetry(self):
        theta1 = solve_theta1(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        theta2 = solve_theta2(kappa1, HEADLINE)
        kappa2 = solve_kappa2(theta2, kappa1, HEADLINE)
        link2 = LinkModel(kappa2, HEADLINE.hop2_mean_gain, HEADLINE.bt_product)
        target = relay_arrival_bandwidth(theta2, kappa1, HEADLINE)
        got = effective_capacity_rayleigh(theta2, link2)
        assert abs(got - target) <= 1e-9 * target
        # symmetric channels still demand more relay power
        assert kappa2 > kappa1


class TestAllocate:
    def test_headline_allocation(self):
        allocation = allocate(HEADLINE)
        assert allocation.kappa2 > allocation.kappa1 > 0.0
        assert allocation.theta2 < allocation.theta1
        assert math.isfinite(allocation.total_power)
        for name, value in allocation.residuals.items():
            assert value <= 1e-8, name

    def test_end_to_end_ccdf_closure(self):
        allocation = allocate(HEADLINE)
        link1 = LinkModel(allocation.kappa1, HEADLINE.hop1_mean_gain, HEADLINE.bt_product)
        link2 = LinkModel(allocation.kappa2, HEADLINE.hop2_mean_gain, HEADLINE.bt_product)
        rate1 = allocation.theta1 * effective_capacity_rayleigh(allocation.theta1, link1)
        rate2 = allocation.theta2 * effective_capacity_rayleigh(allocation.theta2, link2)
        value = two_hop_ccdf(HopDelayLaw(rate1), HopDelayLaw(rate2),
                             HEADLINE.delay_bound)
        assert value == pytest.approx(HEADLINE.violation_prob, rel=1e-6)

    def test_randomized_constraint_closure(self):
        for scenario in random_scenarios(10, seed=1):
            allocation = allocate(scenario)
            u = qos_rate_target(scenario.delay_bound, scenario.violation_prob)
            assert allocation.delay_rate == pytest.approx(u, rel=1e-12)
            for name, value in allocation.residuals.items():
                assert value <= 1e-8, (scenario, name)
            assert allocation.theta2 <= allocation.theta1

    def test_tightening_target_costs_power(self):
        loose = dataclasses.replace(HEADLINE, violation_prob=1e-2)
        tight = dataclasses.replace(HEADLINE, violation_prob=1e-6)
        assert allocate(tight).total_power > allocate(loose).total_power

    def test_relaxing_delay_bound_saves_power(self):
        short = dataclasses.replace(HEADLINE, delay_bound=25.0)
        long = dataclasses.replace(HEADLINE, delay_bound=100.0)
        assert allocate(long).total_power < allocate(short).total_power

    def test_more_traffic_costs_power(self):
        light = dataclasses.replace(HEADLINE, traffic_load=0.5 * LOAD_100KBPS)
        heavy = dataclasses.replace(HEADLINE, traffic_load=2.0 * LOAD_100KBPS)
        assert allocate(heavy).total_power > allocate(light).total_power

    def test_better_channel_saves_power(self):
        base = allocate(HEADLINE).total_power
        good1 = dataclasses.replace(HEADLINE, hop1_mean_gain=4.0)
        good2 = dataclasses.replace(HEADLINE, hop2_mean_gain=4.0)
        assert allocate(good1).total_power < base
        assert allocate(good2).total_power < base

    def test_deterministic(self):
        first = allocate(HEADLINE)
        second = allocate(HEADLINE)
        assert first == second  # bit-identical floats

    def test_infeasibility_reports_step(self):
        heavy = dataclasses.replace(HEADLINE, traffic_load=5000.0)
        with pytest.raises(InfeasibleError) as err:
            allocate(heavy, power_ceiling=100.0)
        assert "solve_kappa1" in str(err.value)


def scipy_brentq(f, a, b):
    """SciPy's Brent solve at the allocator's tolerances: the reference."""
    return optimize.brentq(f, a, b, xtol=allocator._ROOT_XTOL,
                           rtol=allocator._ROOT_RTOL, maxiter=allocator._ROOT_MAXITER)


def wide_scenarios(n, seed):
    """Scenarios over a range wide enough to reach infeasible points."""
    rng = np.random.default_rng(seed)
    return [Scenario(
        traffic_load=float(10.0 ** rng.uniform(-1.0, 3.5)),
        delay_bound=float(10.0 ** rng.uniform(0.0, 3.0)),
        violation_prob=float(10.0 ** rng.uniform(-9.0, -0.5)),
        hop1_mean_gain=float(10.0 ** rng.uniform(-2.0, 2.0)),
        hop2_mean_gain=float(10.0 ** rng.uniform(-2.0, 2.0)),
        bt_product=float(10.0 ** rng.uniform(1.0, 3.0)),
    ) for _ in range(n)]


class TestBrentq:
    """The in-house Brent solver returns exactly what scipy.optimize.brentq does."""

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x ** 3 - 2.0, 0.0, 3.0),
        (lambda x: math.exp(x) - 5.0, -4.0, 10.0),
        (lambda x: x - math.cos(x), -1.0, 1.0),
        (lambda x: math.log(x) + 0.3, 1e-6, 1.0),
        (lambda x: math.tanh(40.0 * (x - 0.123)), 0.0, 1e3),
        (lambda x: 1.0 - x * x, 0.0, 7.0),                 # decreasing
        (lambda x: 1e-12 * (x - math.pi), -1e6, 1e6),       # tiny values
        (lambda x: math.atan(x) - 1.5, 0.0, 1e3),           # flat far end
    ])
    def test_analytic_monotone_functions(self, f, a, b):
        assert allocator._brentq(f, a, b, f(a), f(b)) == scipy_brentq(f, a, b)

    def test_root_at_either_bracket_end(self):
        def f(x):
            return x - 2.0
        assert allocator._brentq(f, 2.0, 5.0, f(2.0), f(5.0)) == 2.0 == scipy_brentq(f, 2.0, 5.0)
        assert allocator._brentq(f, -1.0, 2.0, f(-1.0), f(2.0)) == 2.0 == scipy_brentq(f, -1.0, 2.0)

    def test_same_iterate_when_out_of_iterations(self):
        def f(x):
            return math.atan(x) - 1.5  # root near 14.1, bracket reaching 1e300
        ref = optimize.brentq(f, 0.0, 1e300, xtol=allocator._ROOT_XTOL,
                              rtol=allocator._ROOT_RTOL, maxiter=allocator._ROOT_MAXITER,
                              full_output=True, disp=False)[1]
        assert not ref.converged
        with pytest.raises(RuntimeError, match=re.escape(f"value is {float(ref.root)!r}")):
            allocator._brentq(f, 0.0, 1e300, f(0.0), f(1e300))

    def test_power_gap_functions(self, monkeypatch):
        calls = []
        solve = allocator._brentq

        def recording(f, lo, hi, f_lo, f_hi):
            calls.append((f, lo, hi, f_lo, f_hi))
            return solve(f, lo, hi, f_lo, f_hi)

        monkeypatch.setattr(allocator, "_brentq", recording)
        for scenario in wide_scenarios(150, seed=3):
            try:
                allocate(scenario)
            except InfeasibleError:
                pass
        steps = {f.__qualname__.split(".")[0] for f, *_ in calls}
        assert steps == {"solve_kappa1", "solve_kappa2"}
        for f, lo, hi, f_lo, f_hi in calls:
            # the end values handed over are the gap function's own
            assert (f_lo, f_hi) == (f(lo), f(hi))
            assert solve(f, lo, hi, f_lo, f_hi) == scipy_brentq(f, lo, hi)

    def test_allocate_matches_scipy_backed_solve(self, monkeypatch):
        def outcome(scenario):
            try:
                return allocate(scenario)
            except InfeasibleError as exc:
                return str(exc)

        scenarios = random_scenarios(40, seed=11) + wide_scenarios(150, seed=12)
        ours = [outcome(s) for s in scenarios]
        monkeypatch.setattr(allocator, "_brentq",
                            lambda f, lo, hi, f_lo, f_hi: scipy_brentq(f, lo, hi))
        reference = [outcome(s) for s in scenarios]
        assert any(isinstance(r, str) for r in reference)
        for mine, ref in zip(ours, reference):
            if isinstance(ref, str):
                assert mine == ref
                continue
            # == on floats: bit-identical, not merely close
            assert (mine.kappa1, mine.kappa2, mine.theta1, mine.theta2) == \
                (ref.kappa1, ref.kappa2, ref.theta1, ref.theta2)
            assert mine.residuals == ref.residuals
