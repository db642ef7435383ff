"""Minimum-power allocation for a two-hop decode-and-forward relay link.

Finds the smallest constant powers (kappa1, kappa2) such that the end-to-end
delay-bound violation probability stays below its target.  The solution
equalizes the two hops' delay-tail decay rates at the value u demanded by the
QoS target and proceeds in two steps:

1. theta1 follows in closed form from the traffic load and the QoS target;
   kappa1 is the unique power at which hop 1's effective capacity carries the
   offered load at exponent theta1.
2. The relay's arrivals are hop 1's departures D(0, t) = A*t + Q1(0) - Q1(t),
   not hop 1's service process.  Their t-frame effective bandwidth, in the
   Gaussian approximation, is A_D(theta) = A + theta * Var[D(0, t)] / (2t)
   with Var[D(0, t)] = 2 Var[Q1] * (1 - c(t)).  Hop 1's queue is taken as a
   reflected Brownian motion with hop 1's decay rate theta1 and spare rate
   m1 = E[S1] - A: Var[Q1] = 1/theta1^2, relaxation time t0 = 2/(theta1*m1),
   and c is the stationary RBM autocorrelation.  A_D falls from hop 1's
   service burstiness at t -> 0 to the load A as t -> infinity, where the
   large-deviations output theorem puts it.  It is evaluated at hop 2's
   dominant time scale t* = A*D / (2*m1): the time a backlog of half the
   delay bound's traffic takes to build at hop 1's spare rate (for equal-rate
   hops an end-to-end violation at D splits D uniformly between the hops), so
   t*/t0 = u*D/4.  theta2 is the root of theta * A_D(theta) = u, a quadratic
   solved in closed form; kappa2 then equates hop 2's effective capacity at
   theta2 to A_D(theta2).  The burstiness Var[D(0, t*)]/(2t*) scales as A^2,
   so it is carried as r = Var[D(0, t*)]/(2t* A^2), which stays in range at
   every load the power solves can handle.

Each power equation C(theta, kappa) = target rises strictly in kappa and is
solved by safeguarded Newton in ln(kappa), from a start at or below the root;
a power is infeasible exactly when the capacity at the ceiling falls short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .effcap import (
    LinkModel,
    _capacity_log_slope,
    effective_bandwidth_service_rayleigh,  # noqa: F401  perfbench traces this lookup site
    effective_capacity_rayleigh,
    ergodic_rate,
)
from .specfun import qos_rate_target, rbm_decorrelation

__all__ = [
    "Scenario",
    "Allocation",
    "InfeasibleError",
    "solve_theta1",
    "solve_kappa1",
    "solve_theta2",
    "solve_kappa2",
    "relative_departure_burstiness",
    "relay_arrival_bandwidth",
    "allocate",
]

# Largest power kappa a hop may take; above it the scenario is infeasible.
POWER_CEILING = 1e6

# A converging Newton step in ln(kappa) this short leaves an error of order
# its square, 1e-14.
_NEWTON_XTOL = 1e-7
_MAX_ITER = 200


class InfeasibleError(RuntimeError):
    """No feasible power up to the power ceiling."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step


@dataclass(frozen=True)
class Scenario:
    """One problem instance, in per-frame units.

    Attributes
    ----------
    traffic_load : float
        Constant arrival rate at the source, nats/frame.
    delay_bound : float
        End-to-end delay bound, frames.
    violation_prob : float
        Maximum tolerable P(delay > bound), in (0, 1).
    hop1_mean_gain, hop2_mean_gain : float
        Mean channel power gains of the two hops.
    bt_product : float
        Bandwidth-time product shared by both hops.
    """

    traffic_load: float
    delay_bound: float
    violation_prob: float
    hop1_mean_gain: float = 1.0
    hop2_mean_gain: float = 1.0
    bt_product: float = 200.0

    def __post_init__(self):
        for name in ("delay_bound", "hop1_mean_gain", "hop2_mean_gain", "bt_product"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        # zero load is allowed for simulation (nothing to tag); the allocator
        # rejects it
        if not self.traffic_load >= 0.0:
            raise ValueError(f"traffic_load must be >= 0, got {self.traffic_load!r}")
        if not 0.0 < self.violation_prob < 1.0:
            raise ValueError(
                f"violation_prob must lie in (0, 1), got {self.violation_prob!r}")


@dataclass(frozen=True)
class Allocation:
    """Solver output: powers, QoS exponents, delay rate and closure residuals.

    ``residuals`` maps each constraint to its relative closure error:
    ``load``  |C_SR(theta1, kappa1) - A| / A,
    ``rate_match``  |theta1*C_SR - theta2*C_RD| / u,
    ``qos_rate``  |theta1*C_SR - u| / u,
    ``bandwidth_match``  |A_D(theta2) - C_RD(theta2, kappa2)| / A_D, where
    A_D is :func:`relay_arrival_bandwidth`, the effective bandwidth of hop 1's
    departures at hop 2's dominant time scale.
    """

    kappa1: float
    kappa2: float
    theta1: float
    theta2: float
    delay_rate: float
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def total_power(self) -> float:
        return self.kappa1 + self.kappa2


def _newton_root(f, x: float, x_max: float) -> float | None:
    """Root in [x, x_max] of a strictly increasing f, or None if f(x_max) < 0.

    f maps a point to (value, slope); x must not lie above the root (a
    positive f(x), as rounding can give, returns x).  [lo, hi] keeps the
    signs of f: an iterate outside it, or one not halving the step before
    last, bisects instead, or probes x_max while no positive value is known.
    The solve ends on a Newton step under _NEWTON_XTOL whose slope agrees
    with the last secant well enough to leave an error below 1e-12.
    """
    if x > x_max:
        return None
    lo, hi = x, x_max
    hi_known = False
    x_prev = value_prev = math.nan
    dx_prev = dx_older = math.inf
    for _ in range(_MAX_ITER):
        value, slope = f(x)
        if value == 0.0:
            return x
        if value > 0.0:
            hi, hi_known = x, True
        elif x == x_max:
            return None
        else:
            lo = x
        secant = (value - value_prev) / (x - x_prev)
        dx = value / slope if slope > 0.0 else math.nan
        x_new = x - dx
        if (abs(dx) <= _NEWTON_XTOL and lo <= x_new <= hi
                and abs(secant - slope) * abs(dx) <= 1e-12 * secant):
            return x_new
        if not (lo < x_new < hi and abs(dx) <= 0.5 * dx_older):
            if not hi_known:
                x_new = x_max
            else:
                x_new = 0.5 * (lo + hi)
                if not lo < x_new < hi:
                    return x_new
        dx_older, dx_prev = dx_prev, abs(x_new - x)
        x_prev, value_prev, x = x, value, x_new
    raise RuntimeError(f"Newton solve did not converge, last iterate {x!r}")


def _solve_power(step: str, theta: float, target: float, mean_gain: float,
                 scenario: Scenario) -> float:
    """Power at which a hop's effective capacity at theta equals target.

    Newton runs in x = ln(kappa) with the slope from the capacity value.
    Jensen's inequality, C <= BT*ln(1 + snr), puts the start snr =
    expm1(target/BT) at or below the root.  A load so small that theta =
    u/A carries the solve past the float range (below about 1e-301
    nats/frame in the CLI's default profile) raises ValueError naming
    traffic_load, not a bare overflow.  Only a theta whose square overflows
    counts as such a load; at any other theta the solve's own error
    propagates unchanged.
    """
    bt = scenario.bt_product

    def gap(x: float) -> tuple[float, float]:
        link = LinkModel(math.exp(x), mean_gain, bt)
        capacity = effective_capacity_rayleigh(theta, link)
        return capacity - target, _capacity_log_slope(theta, link, capacity)

    x_max = math.log(POWER_CEILING)
    try:
        t = target / bt
        # ln(expm1(t)) in a form that cannot overflow
        x = t + math.log(-math.expm1(-t)) - math.log(mean_gain)
        if x <= x_max and math.exp(x) == 0.0:
            raise InfeasibleError(step, "required power underflows to zero")
        root = _newton_root(gap, x, x_max)
    except (OverflowError, ValueError) as exc:
        if math.isfinite(theta * theta):
            raise
        raise ValueError(
            f"{step}: traffic_load {scenario.traffic_load!r} nats/frame is outside "
            f"the solver's floating-point range (theta = {theta:.3g}): {exc}") from exc
    if root is None:
        raise InfeasibleError(step, f"no solution below the power ceiling {POWER_CEILING:g}")
    return math.exp(root)


def solve_theta1(u: float, scenario: Scenario) -> float:
    """Hop-1 QoS exponent: the target delay rate u per nat of offered load."""
    if scenario.traffic_load == 0.0:
        raise ValueError("cannot allocate power for zero traffic load")
    return u / scenario.traffic_load


def solve_kappa1(theta1: float, scenario: Scenario) -> float:
    """Hop-1 power: effective capacity at theta1 equals the traffic load."""
    if not theta1 > 0.0:
        raise ValueError(f"theta1 must be > 0, got {theta1!r}")
    return _solve_power("solve_kappa1", theta1, scenario.traffic_load,
                        scenario.hop1_mean_gain, scenario)


def relative_departure_burstiness(u: float, kappa1: float, scenario: Scenario) -> float:
    """r = b/A^2 for b in A_D(theta) = A + theta*b, b = Var[D(0, t*)] / (2 t*).

    u is the target delay rate; r is in frames.  With Var[Q1] = 1/theta1^2,
    theta1 = u/A, t* = A*D / (2*m1) and t*/t0 = u*D/4,
    b = 2*m1*(1 - c(u*D/4)) / (theta1*u*D), so r = 2*(m1/A)*(1 - c(u*D/4))
    / (u^2*D).  b is of order A^2, so it underflows where A^2 does; r does
    not.  A rounding-level negative spare rate (theta1 in the ergodic limit)
    counts as zero.
    """
    load = scenario.traffic_load
    link1 = LinkModel(kappa1, scenario.hop1_mean_gain, scenario.bt_product)
    spare = max(ergodic_rate(link1) - load, 0.0)
    ud = u * scenario.delay_bound
    return 2.0 * (spare / load) * rbm_decorrelation(0.25 * ud) / (u * ud)


def relay_arrival_bandwidth(theta: float, r: float, scenario: Scenario) -> float:
    """Hop 2's arrival law: effective bandwidth of hop 1's departures, nats/frame.

    A_D(theta) = A + theta*A^2*r with r =
    :func:`relative_departure_burstiness`, the Gaussian t*-frame effective
    bandwidth of hop 1's departure process at hop 2's dominant time scale
    (see the module docstring).  It exceeds the load by theta*A^2*r and,
    for theta up to theta1, stays below hop 1's service bandwidth.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta!r}")
    load = scenario.traffic_load
    return load + (theta * load) * (load * r)


def solve_theta2(u: float, r: float, scenario: Scenario) -> float:
    """Hop-2 QoS exponent: root of theta * A_D(theta) = u.

    theta * A_D(theta) = A*theta + A^2*r*theta^2 is zero at theta = 0 and
    strictly increasing, so the root is unique:
    2*theta1 / (1 + sqrt(1 + 4*u*r)) with theta1 = u/A, written without
    cancellation or A^2.  It lies at or below theta1.
    """
    return 2.0 * (u / scenario.traffic_load) / (1.0 + math.sqrt(1.0 + 4.0 * u * r))


def solve_kappa2(theta2: float, r: float, scenario: Scenario) -> float:
    """Hop-2 power: effective capacity at theta2 matches hop 2's arrival law."""
    if not theta2 > 0.0:
        raise ValueError(f"theta2 must be > 0, got {theta2!r}")
    return _solve_power("solve_kappa2", theta2, relay_arrival_bandwidth(theta2, r, scenario),
                        scenario.hop2_mean_gain, scenario)


def allocate(scenario: Scenario) -> Allocation:
    """Run the two-step procedure and report constraint-closure residuals."""
    u = qos_rate_target(scenario.delay_bound, scenario.violation_prob)
    theta1 = solve_theta1(u, scenario)
    kappa1 = solve_kappa1(theta1, scenario)
    r = relative_departure_burstiness(u, kappa1, scenario)
    theta2 = solve_theta2(u, r, scenario)
    kappa2 = solve_kappa2(theta2, r, scenario)

    bt = scenario.bt_product
    c_sr = effective_capacity_rayleigh(theta1, LinkModel(kappa1, scenario.hop1_mean_gain, bt))
    c_rd = effective_capacity_rayleigh(theta2, LinkModel(kappa2, scenario.hop2_mean_gain, bt))
    a_d = relay_arrival_bandwidth(theta2, r, scenario)
    residuals = {
        "load": abs(c_sr - scenario.traffic_load) / scenario.traffic_load,
        "rate_match": abs(theta1 * c_sr - theta2 * c_rd) / u,
        "qos_rate": abs(theta1 * c_sr - u) / u,
        "bandwidth_match": abs(a_d - c_rd) / a_d,
    }
    return Allocation(kappa1=kappa1, kappa2=kappa2, theta1=theta1,
                      theta2=theta2, delay_rate=u, residuals=residuals)
