"""Tests for the two-step minimum-power solver."""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import optimize

from oracles import effective_capacity_oracle
from relayqos import allocator, effcap
from relayqos.allocator import (
    POWER_CEILING,
    InfeasibleError,
    Scenario,
    allocate,
    relative_departure_burstiness,
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
    effective_capacity_rayleigh,
    ergodic_rate,
)
from relayqos.specfun import qos_rate_target

# 100 kbps at 2 ms frames, in nats/frame
LOAD_100KBPS = 138.62943611198906

HEADLINE = Scenario(traffic_load=LOAD_100KBPS, delay_bound=50.0,
                    violation_prob=1e-6, bt_product=200.0)


def target_rate(scenario):
    return qos_rate_target(scenario.delay_bound, scenario.violation_prob)


def theta1_of(scenario):
    return solve_theta1(target_rate(scenario), scenario)


def relative_burstiness_of(kappa1, scenario):
    return relative_departure_burstiness(target_rate(scenario), kappa1, scenario)


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
        with pytest.raises(ValueError, match="traffic_load"):
            Scenario(traffic_load=0.0, delay_bound=50.0, violation_prob=1e-6)
        with pytest.raises(ValueError):
            Scenario(traffic_load=1.0, delay_bound=0.0, violation_prob=1e-6)
        with pytest.raises(ValueError):
            Scenario(traffic_load=1.0, delay_bound=50.0, violation_prob=1.0)

    @pytest.mark.parametrize("name", ["traffic_load", "delay_bound", "hop1_mean_gain",
                                      "hop2_mean_gain", "bt_product"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dataclasses.replace(HEADLINE, **{name: value})


class TestTheta1:
    def test_headline_value(self):
        # u = 16.688420790859922 / 50 (bisection oracle), divided by the load
        expected = 16.688420790859922 / 50.0 / HEADLINE.traffic_load
        assert theta1_of(HEADLINE) == pytest.approx(expected, rel=1e-10, abs=0.0)
        # the load rounded to 138.63 gives ~2.408e-3
        rounded = dataclasses.replace(HEADLINE, traffic_load=138.63)
        assert theta1_of(rounded) == pytest.approx(0.0024076203983062717, rel=1e-10, abs=0.0)

    def test_doubling_load_halves_theta1(self):
        doubled = dataclasses.replace(HEADLINE, traffic_load=2 * HEADLINE.traffic_load)
        assert theta1_of(doubled) == pytest.approx(theta1_of(HEADLINE) / 2.0, rel=1e-14, abs=0.0)

    def test_loose_target_vanishes(self):
        loose = dataclasses.replace(HEADLINE, violation_prob=1.0 - 1e-12)
        assert 0.0 < theta1_of(loose) < 1e-7


class TestKappa1:
    def test_back_substitution(self):
        theta1 = theta1_of(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        link = LinkModel(kappa1, HEADLINE.hop1_mean_gain, HEADLINE.bt_product)
        got = effective_capacity_rayleigh(theta1, link)
        assert abs(got - HEADLINE.traffic_load) <= 1e-9 * HEADLINE.traffic_load

    def test_oracle_back_substitution(self):
        theta1 = theta1_of(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        link = LinkModel(kappa1, HEADLINE.hop1_mean_gain, HEADLINE.bt_product)
        assert effective_capacity_oracle(theta1, link) == pytest.approx(
            HEADLINE.traffic_load, rel=1e-6, abs=0.0)

    def test_vanishing_load_needs_vanishing_power(self):
        tiny = dataclasses.replace(HEADLINE, traffic_load=1e-3)
        kappa1 = solve_kappa1(theta1_of(tiny), tiny)
        assert 0.0 < kappa1 < 1e-4

    def test_free_of_the_relay_position(self):
        # the solve runs in SNR units, so across relay positions on the
        # solve-grid mix hop 1's power is the unit-gain power over the gain,
        # bit for bit
        from relayqos import cli

        rng = np.random.default_rng(7)
        grid = 10.0 ** rng.uniform([4.0, -9.0], [math.log10(2e6), -1.0], size=(25, 2))
        checked = 0
        for bits_per_second, xi in grid:
            profile = cli.RadioProfile(traffic_load=float(bits_per_second),
                                       violation_prob=float(xi))
            for d1 in range(10, 91, 5):
                scenario = cli.to_scenario(dataclasses.replace(
                    profile, d1=float(d1), d2=profile.total_distance - d1))
                unit = dataclasses.replace(scenario, hop1_mean_gain=1.0, hop2_mean_gain=1.0)
                try:
                    mine, ref = allocate(scenario), allocate(unit)
                except InfeasibleError:
                    continue
                assert mine.kappa1 == ref.kappa1 / scenario.hop1_mean_gain
                assert mine.theta1 == ref.theta1
                checked += 1
        assert checked > 300

    def test_infeasible_when_ceiling_too_low(self):
        # Jensen's start alone lies above the ceiling
        heavy = dataclasses.replace(HEADLINE, traffic_load=5000.0)
        with pytest.raises(InfeasibleError) as err:
            solve_kappa1(theta1_of(heavy), heavy)
        assert err.value.step == "solve_kappa1"

    @pytest.mark.parametrize("theta1", [0.0, -1.0, math.nan])
    def test_rejects_a_non_positive_exponent(self, theta1):
        # at this load Jensen's start lies above the ceiling, so a solve that
        # took the bad exponent would call the scenario infeasible instead
        heavy = Scenario(traffic_load=5000.0, delay_bound=50.0, violation_prob=1e-3)
        with pytest.raises(ValueError, match="^theta1 must be > 0"):
            solve_kappa1(theta1, heavy)


class TestRelayArrivalBandwidth:
    def test_between_load_and_hop1_service_bandwidth(self):
        # hop 1's departures are smoother than its service process but, at
        # a finite time scale, burstier than the constant load
        for scenario in [HEADLINE] + random_scenarios(5, seed=4):
            theta1 = theta1_of(scenario)
            kappa1 = solve_kappa1(theta1, scenario)
            r = relative_burstiness_of(kappa1, scenario)
            link1 = LinkModel(kappa1, scenario.hop1_mean_gain, scenario.bt_product)
            for theta in (0.25 * theta1, theta1):
                got = relay_arrival_bandwidth(theta, r, scenario)
                assert scenario.traffic_load < got
                assert got < effective_bandwidth_service_rayleigh(theta, link1)

    def test_linear_in_theta(self):
        theta1 = theta1_of(HEADLINE)
        r = relative_burstiness_of(solve_kappa1(theta1, HEADLINE), HEADLINE)
        load = HEADLINE.traffic_load
        excess = [relay_arrival_bandwidth(t, r, HEADLINE) - load
                  for t in (0.5 * theta1, theta1)]
        assert excess[1] == pytest.approx(2.0 * excess[0], rel=1e-12, abs=0.0)

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            relay_arrival_bandwidth(0.0, 1.0, HEADLINE)


class TestTheta2:
    def test_root_and_ordering(self):
        theta1 = theta1_of(HEADLINE)
        u = target_rate(HEADLINE)
        r = relative_burstiness_of(solve_kappa1(theta1, HEADLINE), HEADLINE)
        theta2 = solve_theta2(u, r, HEADLINE)
        residual = theta2 * relay_arrival_bandwidth(theta2, r, HEADLINE) - u
        assert abs(residual) <= 1e-9 * u
        # A_D(theta) > load forces theta2 below u / load = theta1
        assert theta2 < theta1

    def test_against_grid_scan(self):
        scenario = random_scenarios(1, seed=9)[0]
        theta1 = theta1_of(scenario)
        u = target_rate(scenario)
        r = relative_burstiness_of(solve_kappa1(theta1, scenario), scenario)
        theta2 = solve_theta2(u, r, scenario)

        def gap(theta):
            return theta * relay_arrival_bandwidth(theta, r, scenario) - u

        # fine grid around the root: the sign must flip exactly there.  The
        # middle grid point is theta2 itself, where the gap may be exactly
        # zero, so crossings are counted between strictly signed neighbours.
        grid = np.linspace(0.9 * theta2, 1.1 * theta2, 201)
        signed = [(float(t), v) for t in grid if (v := gap(float(t))) != 0.0]
        crossings = [(t0, t1) for (t0, v0), (t1, v1) in zip(signed, signed[1:])
                     if v0 < 0.0 < v1]
        assert len(crossings) == 1
        assert crossings[0][0] <= theta2 <= crossings[0][1]


class TestKappa2:
    def test_back_substitution_and_asymmetry(self):
        theta1 = theta1_of(HEADLINE)
        kappa1 = solve_kappa1(theta1, HEADLINE)
        r = relative_burstiness_of(kappa1, HEADLINE)
        theta2 = solve_theta2(target_rate(HEADLINE), r, HEADLINE)
        kappa2 = solve_kappa2(theta2, r, HEADLINE)
        link2 = LinkModel(kappa2, HEADLINE.hop2_mean_gain, HEADLINE.bt_product)
        target = relay_arrival_bandwidth(theta2, r, HEADLINE)
        got = effective_capacity_rayleigh(theta2, link2)
        assert abs(got - target) <= 1e-9 * target
        # symmetric channels still demand more relay power
        assert kappa2 > kappa1

    @pytest.mark.parametrize("theta2", [0.0, -1.0, math.nan])
    def test_rejects_a_non_positive_exponent(self, theta2):
        # hop 2's arrival law is the first to read theta2, and rejects it
        r = relative_burstiness_of(solve_kappa1(theta1_of(HEADLINE), HEADLINE), HEADLINE)
        with pytest.raises(ValueError, match="^theta must be > 0"):
            solve_kappa2(theta2, r, HEADLINE)


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
        assert value == pytest.approx(HEADLINE.violation_prob, rel=1e-6, abs=0.0)

    def test_randomized_constraint_closure(self):
        for scenario in random_scenarios(10, seed=1):
            allocation = allocate(scenario)
            u = qos_rate_target(scenario.delay_bound, scenario.violation_prob)
            assert allocation.delay_rate == pytest.approx(u, rel=1e-12, abs=0.0)
            for name, value in allocation.residuals.items():
                assert value <= 1e-8, (scenario, name)
            assert allocation.theta2 <= allocation.theta1

    def test_tiny_loads_close_or_name_the_load(self):
        # the CLI's default profile at 10^-320 .. 10^-90 bit/s: each load
        # either closes every constraint, theta2 below theta1 (the relay's
        # burstiness is carried relative to A^2, so it no longer underflows
        # to theta2 = 2*theta1), or raises a ValueError naming traffic_load,
        # never a bare OverflowError; the failures lie below every success
        from relayqos import cli

        outcomes = []
        for exponent in range(-320, -89):
            profile = dataclasses.replace(cli.RadioProfile(),
                                          traffic_load=10.0 ** exponent)
            try:
                allocation = allocate(cli.to_scenario(profile))
            except ValueError as exc:
                assert "traffic_load" in str(exc), (exponent, str(exc))
                assert type(exc) is ValueError, exponent
                outcomes.append(False)
                continue
            for name, value in allocation.residuals.items():
                assert value <= 1e-8, (exponent, name, value)
            assert allocation.theta2 < allocation.theta1, exponent
            outcomes.append(True)
        assert outcomes[0] is False and outcomes[-1] is True
        assert outcomes == sorted(outcomes)

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
            allocate(heavy)
        assert "solve_kappa1" in str(err.value)


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


def scipy_brentq(f, a, b):
    """SciPy's Brent solve to 4 ulp: the reference root finder."""
    return optimize.brentq(f, a, b, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
                           maxiter=500)


def reference_power(theta, target, mean_gain, bt, ceiling=POWER_CEILING):
    """Brent solve of C(theta, kappa) = target in kappa; None if C(ceiling) < target."""
    def gap(kappa):
        return effective_capacity_rayleigh(theta, LinkModel(kappa, mean_gain, bt)) - target

    if gap(ceiling) < 0.0:
        return None
    lo = ceiling
    while gap(lo) >= 0.0:
        lo /= 16.0
    return scipy_brentq(gap, lo, ceiling)


def reference_allocation(scenario):
    """(kappa1, kappa2) by scipy's brentq, or the name of the infeasible step."""
    u = target_rate(scenario)
    theta1 = u / scenario.traffic_load
    kappa1 = reference_power(theta1, scenario.traffic_load, scenario.hop1_mean_gain,
                             scenario.bt_product)
    if kappa1 is None:
        return "solve_kappa1"
    r = relative_departure_burstiness(u, kappa1, scenario)
    theta2 = solve_theta2(u, r, scenario)
    kappa2 = reference_power(theta2, relay_arrival_bandwidth(theta2, r, scenario),
                             scenario.hop2_mean_gain, scenario.bt_product)
    if kappa2 is None:
        return "solve_kappa2"
    return kappa1, kappa2


class TestBrentq:
    """The Newton power solver finds the roots scipy.optimize.brentq finds."""

    # f maps x to (value, slope) and increases on [a, b]
    @pytest.mark.parametrize("f, a, b", [
        (lambda x: (x ** 3 - 2.0, 3.0 * x * x), 0.0, 3.0),       # zero slope at a
        (lambda x: (math.exp(x) - 5.0, math.exp(x)), -4.0, 10.0),
        (lambda x: (x - math.cos(x), 1.0 + math.sin(x)), -1.0, 1.0),
        (lambda x: (math.log(x) + 0.3, 1.0 / x), 1e-6, 1.0),
        (lambda x: (math.tanh(40.0 * (x - 0.123)),
                    40.0 * (1.0 - math.tanh(40.0 * (x - 0.123)) ** 2)),
         0.0, 1e3),                                              # flat on both sides
        (lambda x: (x * x - 1.0, 2.0 * x), 0.0, 7.0),
        (lambda x: (1e-12 * (x - math.pi), 1e-12), -1e6, 1e6),  # tiny values
        (lambda x: (math.atan(x) - 1.5, 1.0 / (1.0 + x * x)), 0.0, 1e3),  # flat far end
        # slopes lost to cancellation: the secant check keeps a wrong slope
        # from ending the solve early
        (lambda x: (x - 1.0, 1e3), 0.0, 5.0),
        (lambda x: (x - 1.0, 1e-3), 0.0, 5.0),
    ])
    def test_analytic_monotone_functions(self, f, a, b):
        got = allocator._newton_root(f, a, b)
        assert got == pytest.approx(scipy_brentq(lambda x: f(x)[0], a, b), rel=1e-11, abs=0.0)

    def test_root_at_either_bracket_end(self):
        def f(x):
            return x - 2.0, 1.0
        assert allocator._newton_root(f, 2.0, 5.0) == 2.0 == scipy_brentq(
            lambda x: f(x)[0], 2.0, 5.0)
        assert allocator._newton_root(f, -1.0, 2.0) == 2.0 == scipy_brentq(
            lambda x: f(x)[0], -1.0, 2.0)
        # the root just above the upper end: infeasible, as f(b) < 0 says
        assert allocator._newton_root(f, -1.0, math.nextafter(2.0, 0.0)) is None

    def test_same_iterate_when_out_of_iterations(self, monkeypatch):
        def points(max_iter):
            seen = []

            def f(x):
                seen.append(x)
                return math.atan(x) - 1.5, 1.0 / (1.0 + x * x)

            monkeypatch.setattr(allocator, "_MAX_ITER", max_iter)
            try:
                allocator._newton_root(f, 0.0, 1e3)
            except RuntimeError as exc:
                return seen, str(exc)
            return seen, None

        seen, message = points(4)
        assert message is not None and len(seen) == 4
        # the error names the iterate a fifth evaluation would have taken
        more, _ = points(5)
        assert more[:4] == seen
        assert message.endswith(f"last iterate {more[4]!r}")

    def test_power_gap_functions(self, monkeypatch):
        calls = []
        solve = allocator._newton_root

        def recording(f, x, x_max):
            points = []

            def traced(point):
                points.append(point)
                return f(point)

            root = solve(traced, x, x_max)
            calls.append((f, x, x_max, root, points))
            return root

        monkeypatch.setattr(allocator, "_newton_root", recording)
        for scenario in wide_scenarios(150, seed=3):
            first = len(calls)
            try:
                allocate(scenario)
            except InfeasibleError:
                pass
            # each hop's solve runs in ln(snr) up to its own SNR ceiling
            gains = (scenario.hop1_mean_gain, scenario.hop2_mean_gain)
            for (_, _, x_max, _, _), gain in zip(calls[first:], gains):
                assert x_max == math.log(POWER_CEILING * gain)
        assert len(calls) > 250
        # some solves probe the ceiling before any positive value is known
        assert any(x_max in points for _, _, x_max, _, points in calls)
        for f, x, x_max, root, points in calls:
            # the gap is evaluated only between the start and the ceiling
            assert all(x <= point <= x_max for point in points)
            # Jensen's bound puts the start at or below the root
            assert f(x)[0] <= 0.0
            # the slope handed to Newton is the derivative of the value
            for point in (x, root if root is not None else x_max):
                h = 1e-5
                central = (f(point + h)[0] - f(point - h)[0]) / (2.0 * h)
                assert f(point)[1] == pytest.approx(central, rel=1e-6, abs=0.0)

    def test_allocate_matches_scipy_backed_solve(self):
        scenarios = random_scenarios(40, seed=11) + wide_scenarios(150, seed=12)
        outcomes = set()
        for scenario in scenarios:
            reference = reference_allocation(scenario)
            try:
                mine = allocate(scenario)
            except InfeasibleError as exc:
                # infeasible exactly when the capacity at the ceiling falls short
                assert exc.step == reference, scenario
                outcomes.add(exc.step)
                continue
            assert not isinstance(reference, str), scenario
            assert mine.kappa1 == pytest.approx(reference[0], rel=1e-10, abs=0.0)
            assert mine.kappa2 == pytest.approx(reference[1], rel=1e-10, abs=0.0)
            outcomes.add("feasible")
        assert outcomes == {"feasible", "solve_kappa1", "solve_kappa2"}


def count_capacity_evaluations(monkeypatch):
    """Count the capacity kernel's calls: the solver's and the residuals'."""
    calls = [0]
    kernel = effcap._capacity_at_snr

    def counting(theta, snr, bt):
        calls[0] += 1
        return kernel(theta, snr, bt)

    # the solve calls the kernel directly, the residuals through effcap
    monkeypatch.setattr(allocator, "_capacity_at_snr", counting)
    monkeypatch.setattr(effcap, "_capacity_at_snr", counting)
    return calls


def linkmodel_power(theta, target, mean_gain, bt):
    """kappa from the shared Newton solve with a LinkModel-based gap, or None.

    The gap builds a LinkModel per iterate and calls the public capacity,
    with the slope in its B*T - expm1(theta*C)/(theta*snr) form.
    """
    def gap(x):
        link = LinkModel(math.exp(x), 1.0, bt)
        capacity = effective_capacity_rayleigh(theta, link)
        slope = bt - math.expm1(theta * capacity) / (theta * link.effective_snr)
        return capacity - target, slope

    t = target / bt
    root = allocator._newton_root(gap, t + math.log(-math.expm1(-t)),
                                  math.log(POWER_CEILING * mean_gain))
    return None if root is None else math.exp(root) / mean_gain


class TestPowerSolve:
    def test_powers_match_linkmodel_gap(self):
        # the kernel-based solve takes the iterates a LinkModel-based gap
        # takes, so every power is the same float
        outcomes = set()
        for scenario in wide_scenarios(150, seed=3):
            u = target_rate(scenario)
            theta1 = solve_theta1(u, scenario)
            bt = scenario.bt_product
            kappa1 = linkmodel_power(theta1, scenario.traffic_load,
                                     scenario.hop1_mean_gain, bt)
            kappa2 = None
            if kappa1 is not None:
                r = relative_departure_burstiness(u, kappa1, scenario)
                theta2 = solve_theta2(u, r, scenario)
                kappa2 = linkmodel_power(theta2, relay_arrival_bandwidth(theta2, r, scenario),
                                         scenario.hop2_mean_gain, bt)
            try:
                allocation = allocate(scenario)
            except InfeasibleError as exc:
                assert exc.step == ("solve_kappa1" if kappa1 is None else "solve_kappa2")
                assert kappa2 is None, scenario
                outcomes.add(exc.step)
                continue
            assert (allocation.kappa1, allocation.kappa2) == (kappa1, kappa2), scenario
            outcomes.add("feasible")
        assert outcomes == {"feasible", "solve_kappa1", "solve_kappa2"}

    def test_huge_snr_slope_stays_finite(self):
        # a mean gain of 1e290 at a load of 1e-12 puts theta*C past the
        # range of expm1 when the solve probes its ceiling, though the slope
        # is finite
        scenario = Scenario(traffic_load=1e-12, delay_bound=50.0, violation_prob=1e-2,
                            hop1_mean_gain=1e290)
        allocation = allocate(scenario)
        for name, value in allocation.residuals.items():
            assert value <= 1e-11, name

    def test_gain_whose_ceiling_overflows_is_named(self):
        # POWER_CEILING * 1e303 is infinite, so the solve runs up to the
        # largest float SNR; a load no such SNR carries names the mean gain,
        # not a bare overflow of exp in the Newton step
        scenario = Scenario(traffic_load=1e5, delay_bound=50.0, violation_prob=1e-2,
                            hop1_mean_gain=1e303, bt_product=100.0)
        with pytest.raises(ValueError, match="^solve_kappa1: mean gain 1e\\+303 is outside"):
            allocate(scenario)
        # a load some float SNR carries solves as before
        allocation = allocate(dataclasses.replace(scenario, traffic_load=1e3))
        for name, value in allocation.residuals.items():
            assert value <= 1e-12, name

    def test_float_range_errors_name_the_load(self):
        # 1e-305 bit/s in the CLI's default profile: theta = u/A ~ 1e307, and
        # both solves, called directly, blame traffic_load, not a bare overflow
        from relayqos import cli

        profile = dataclasses.replace(cli.RadioProfile(), traffic_load=1e-305)
        scenario = cli.to_scenario(profile)
        theta = theta1_of(scenario)
        for solve in (lambda: solve_kappa1(theta, scenario),
                      lambda: solve_kappa2(theta, 0.0, scenario)):
            with pytest.raises(ValueError, match="traffic_load") as err:
                solve()
            assert type(err.value) is ValueError
            assert "range" in str(err.value)

    @pytest.mark.parametrize("hop", [1, 2])
    def test_subnormal_power_is_infeasible(self, hop):
        # a mean gain of 1e300 puts the solved power near 5e-309, below the
        # normal float range: its few significant bits cannot close the
        # load, so the solve refuses it rather than return it
        scenario = Scenario(traffic_load=1e-6, delay_bound=50.0, violation_prob=1e-2,
                            **{f"hop{hop}_mean_gain": 1e300})
        with pytest.raises(InfeasibleError, match="below the normal float range") as err:
            allocate(scenario)
        assert err.value.step == f"solve_kappa{hop}"

    def test_solver_errors_at_ordinary_loads_propagate(self, monkeypatch):
        # only a load whose theta squared overflows is blamed on traffic_load
        def broken(theta, snr, bt):
            raise ValueError("math domain error")

        monkeypatch.setattr(allocator, "_capacity_at_snr", broken)
        theta1 = theta1_of(HEADLINE)
        for solve in (lambda: solve_kappa1(theta1, HEADLINE),
                      lambda: solve_kappa2(theta1, 0.0, HEADLINE),
                      lambda: allocate(HEADLINE)):
            with pytest.raises(ValueError, match="^math domain error$"):
                solve()

    def test_capacity_evaluations_per_allocate(self, monkeypatch):
        calls = count_capacity_evaluations(monkeypatch)
        counts = []
        for scenario in wide_scenarios(150, seed=3):
            calls[0] = 0
            try:
                allocate(scenario)
            except InfeasibleError:
                pass
            counts.append(calls[0])
        # both power solves and the two residual evaluations
        assert sum(counts) / len(counts) <= 14
        assert max(counts) <= 20

    def test_root_just_below_the_ceiling(self, monkeypatch):
        # the ceiling itself is a candidate: kappa2 ~ 9.2e5 lies above the
        # largest power of 8 below 1e6, where a geometric bracket stops
        scenario = Scenario(traffic_load=1155.6630001813385, delay_bound=125.0,
                            violation_prob=2.2995459395229637e-05,
                            hop1_mean_gain=37.03703703703704,
                            hop2_mean_gain=0.20354162426216163, bt_product=100.0)
        allocation = allocate(scenario)
        assert 8.0 ** 6 < 9e5 < allocation.kappa2 < POWER_CEILING
        for name, value in allocation.residuals.items():
            assert value <= 1e-12, name
        # below the root the gap at the ceiling is negative
        monkeypatch.setattr(allocator, "POWER_CEILING", 9e5)
        with pytest.raises(InfeasibleError) as err:
            allocate(scenario)
        assert err.value.step == "solve_kappa2"

    def test_huge_theta_with_tiny_load_is_fast(self):
        # theta1 ~ 1e6, so a capacity evaluation near kappa = 1 has
        # beta = BT*theta1 ~ 1e8 at z ~ 1
        scenario = Scenario(traffic_load=1.8763744196210363e-06,
                            delay_bound=2.384886547633035,
                            violation_prob=0.07162297097624647, bt_product=100.0)
        start = time.perf_counter()
        allocation = allocate(scenario)
        assert time.perf_counter() - start < 1.0
        for name, value in allocation.residuals.items():
            assert value <= 1e-12, name

    def test_huge_beta_capacity_stays_monotone(self, monkeypatch):
        # beta1 = BT*theta1 ~ 4.8e9 at snr ~ 2700: the log-moment is ln z + ln H,
        # not the difference of two terms of size beta*|ln z| ~ 4e10
        calls = count_capacity_evaluations(monkeypatch)
        scenario = Scenario(traffic_load=5.462923728765322e-06,
                            delay_bound=0.30843946025627306,
                            violation_prob=0.0009371607923794755,
                            hop1_mean_gain=1.9040719707276983,
                            hop2_mean_gain=159.71520380052925, bt_product=862.4994188053223)
        allocation = allocate(scenario)
        assert calls[0] <= 20
        for name, value in allocation.residuals.items():
            assert value <= 1e-12, name

    def test_small_theta_closes_the_load(self):
        # xi within ~1e-12 of 1 puts theta1 at 1e-7..1e-5, where the capacity's
        # moment is 1 + O(theta); its log must not lose the O(theta) term
        rng = np.random.default_rng(20)
        solved = 0
        while solved < 2000:
            load, delay, theta1 = 10.0 ** rng.uniform([-3, 0, -7], [3, math.log10(3000), -5])
            v = theta1 * load * delay
            xi = (1.0 + v) * math.exp(-v)
            if not xi < 1.0:
                continue
            allocation = allocate(Scenario(traffic_load=float(load),
                                           delay_bound=float(delay), violation_prob=xi))
            solved += 1
            assert allocation.residuals["load"] <= 1e-12
            lk = LinkModel(allocation.kappa1, 1.0, 200.0)
            assert effective_capacity_rayleigh(allocation.theta1, lk) <= ergodic_rate(lk)
