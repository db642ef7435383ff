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
   theta2 to A_D(theta2).

The power equations are solved by bracketed root finding on maps that the
effective-capacity properties guarantee to be strictly monotone, so the
procedure is globally convergent and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .effcap import (
    LinkModel,
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
    "relay_arrival_bandwidth",
    "allocate",
]

# Initial power bracket, grown geometrically up to the ceiling.
POWER_BRACKET_LO = 1e-6
POWER_BRACKET_HI = 1.0
DEFAULT_POWER_CEILING = 1e6

# Root-solver tolerances: the tightest that SciPy's brentq accepts.
_ROOT_XTOL = 1e-300
_ROOT_RTOL = 4.0 * 2.220446049250313e-16
_ROOT_MAXITER = 300


class InfeasibleError(RuntimeError):
    """No feasible power within the configured bracket ceiling."""

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


def _hop1_link(kappa: float, scenario: Scenario) -> LinkModel:
    return LinkModel(kappa, scenario.hop1_mean_gain, scenario.bt_product)


def _hop2_link(kappa: float, scenario: Scenario) -> LinkModel:
    return LinkModel(kappa, scenario.hop2_mean_gain, scenario.bt_product)


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float) -> float:
    """Root of f between xpre and xcur, given f at both ends with opposite signs.

    Brent's method (Brent 1973, ch. 4) as a line-for-line port of SciPy's
    ``brentq.c`` with the same operations in the same order, so it returns
    the float ``scipy.optimize.brentq(f, xpre, xcur, xtol=_ROOT_XTOL,
    rtol=_ROOT_RTOL, maxiter=_ROOT_MAXITER)`` returns.  Unlike that wrapper
    it takes the end values the caller already has instead of evaluating f
    there again.  f must return finite floats.
    """
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(
        f"Failed to converge after {_ROOT_MAXITER} iterations, value is {xcur}")


def _solve_power(step: str, f, ceiling: float) -> float:
    """Root of a strictly increasing f(kappa) via geometric bracket growth.

    The bracket starts at [POWER_BRACKET_LO, POWER_BRACKET_HI]; the high end
    grows toward ``ceiling`` until the sign changes, the low end shrinks for
    vanishing targets.  Brent's method then refines the bracket, reusing the
    end values already computed.
    """
    lo, hi = POWER_BRACKET_LO, POWER_BRACKET_HI
    f_lo = f(lo)
    while f_lo > 0.0:
        lo /= 32.0
        if lo < 1e-280:
            raise InfeasibleError(step, "required power underflows to zero")
        f_lo = f(lo)
    f_hi = f(hi)
    while f_hi < 0.0:
        hi *= 8.0
        if hi > ceiling:
            raise InfeasibleError(
                step, f"no solution below the power ceiling {ceiling:g}")
        f_hi = f(hi)
    return _brentq(f, lo, hi, f_lo, f_hi)


def solve_theta1(scenario: Scenario) -> float:
    """Hop-1 QoS exponent: the target delay rate per nat of offered load."""
    if scenario.traffic_load == 0.0:
        raise ValueError("cannot allocate power for zero traffic load")
    return qos_rate_target(scenario.delay_bound,
                           scenario.violation_prob) / scenario.traffic_load


def solve_kappa1(theta1: float, scenario: Scenario,
                 power_ceiling: float = DEFAULT_POWER_CEILING) -> float:
    """Hop-1 power: effective capacity at theta1 equals the traffic load."""
    if not theta1 > 0.0:
        raise ValueError(f"theta1 must be > 0, got {theta1!r}")
    load = scenario.traffic_load

    def gap(kappa: float) -> float:
        return effective_capacity_rayleigh(theta1, _hop1_link(kappa, scenario)) - load

    return _solve_power("solve_kappa1", gap, power_ceiling)


def _departure_burstiness(kappa1: float, scenario: Scenario) -> float:
    """b in A_D(theta) = A + theta * b: Var[D(0, t*)] / (2 t*), nats^2/frame.

    With Var[Q1] = 1/theta1^2, t* = A*D / (2*m1) and t*/t0 = u*D/4 this is
    2*m1*(1 - c(u*D/4)) / (theta1*u*D).  A rounding-level negative spare
    rate (theta1 in the ergodic limit) counts as zero.
    """
    u = qos_rate_target(scenario.delay_bound, scenario.violation_prob)
    theta1 = u / scenario.traffic_load
    spare = max(ergodic_rate(_hop1_link(kappa1, scenario)) - scenario.traffic_load, 0.0)
    ud = u * scenario.delay_bound
    return 2.0 * spare * rbm_decorrelation(0.25 * ud) / (theta1 * ud)


def relay_arrival_bandwidth(theta: float, kappa1: float, scenario: Scenario) -> float:
    """Hop 2's arrival law: effective bandwidth of hop 1's departures, nats/frame.

    A_D(theta) = A + theta * Var[D(0, t*)] / (2 t*), the Gaussian t*-frame
    effective bandwidth of hop 1's departure process at hop 2's dominant
    time scale (see the module docstring).  It exceeds the load by theta*b
    and, for theta up to theta1, stays below hop 1's service bandwidth.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta!r}")
    return scenario.traffic_load + theta * _departure_burstiness(kappa1, scenario)


def solve_theta2(kappa1: float, scenario: Scenario) -> float:
    """Hop-2 QoS exponent: root of theta * A_D(theta, kappa1) = u.

    theta * A_D(theta) = A*theta + b*theta^2 is zero at theta = 0 and strictly
    increasing, so the root is unique: 2u / (A + sqrt(A^2 + 4*b*u)), written
    without cancellation.  It lies at or below theta1 = u/A.
    """
    u = qos_rate_target(scenario.delay_bound, scenario.violation_prob)
    load = scenario.traffic_load
    b = _departure_burstiness(kappa1, scenario)
    return 2.0 * u / (load + math.sqrt(load * load + 4.0 * b * u))


def solve_kappa2(theta2: float, kappa1: float, scenario: Scenario,
                 power_ceiling: float = DEFAULT_POWER_CEILING) -> float:
    """Hop-2 power: effective capacity at theta2 matches hop 2's arrival law."""
    if not theta2 > 0.0:
        raise ValueError(f"theta2 must be > 0, got {theta2!r}")
    target = relay_arrival_bandwidth(theta2, kappa1, scenario)

    def gap(kappa: float) -> float:
        return effective_capacity_rayleigh(theta2, _hop2_link(kappa, scenario)) - target

    return _solve_power("solve_kappa2", gap, power_ceiling)


def allocate(scenario: Scenario,
             power_ceiling: float = DEFAULT_POWER_CEILING) -> Allocation:
    """Run the two-step procedure and report constraint-closure residuals."""
    u = qos_rate_target(scenario.delay_bound, scenario.violation_prob)
    theta1 = solve_theta1(scenario)
    kappa1 = solve_kappa1(theta1, scenario, power_ceiling)
    theta2 = solve_theta2(kappa1, scenario)
    kappa2 = solve_kappa2(theta2, kappa1, scenario, power_ceiling)

    c_sr = effective_capacity_rayleigh(theta1, _hop1_link(kappa1, scenario))
    c_rd = effective_capacity_rayleigh(theta2, _hop2_link(kappa2, scenario))
    a_d = relay_arrival_bandwidth(theta2, kappa1, scenario)
    residuals = {
        "load": abs(c_sr - scenario.traffic_load) / scenario.traffic_load,
        "rate_match": abs(theta1 * c_sr - theta2 * c_rd) / u,
        "qos_rate": abs(theta1 * c_sr - u) / u,
        "bandwidth_match": abs(a_d - c_rd) / a_d,
    }
    return Allocation(kappa1=kappa1, kappa2=kappa2, theta1=theta1,
                      theta2=theta2, delay_rate=u, residuals=residuals)
