"""Delay-QoS power allocation and validation for two-hop DF relay links.

The library computes the minimum constant transmit powers keeping the
end-to-end delay-bound violation probability of a two-hop decode-and-forward
relay link below a target, and validates the underlying analytic delay laws
by Monte Carlo simulation of the tandem fluid queue.
"""

from .allocator import (
    Allocation,
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
from .delaymodel import (
    HopDelayLaw,
    invert_equal_rate_ccdf,
    single_hop_ccdf,
    two_hop_ccdf,
)
from .effcap import (
    LinkModel,
    effective_bandwidth_service_rayleigh,
    effective_capacity_rayleigh,
    ergodic_rate,
)
from .qsim import (
    DelayHistogram,
    DelayStats,
    InsufficientTailData,
    SimConfig,
    StabilityError,
    delay_histogram,
    empirical_ccdf,
    simulate_tandem,
    suggest_fit_window,
    tail_slope,
)
from .specfun import (
    lambert_w,
    log_upper_incomplete_gamma,
    qos_rate_target,
    rbm_decorrelation,
    upper_incomplete_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "DelayHistogram",
    "DelayStats",
    "HopDelayLaw",
    "InfeasibleError",
    "InsufficientTailData",
    "LinkModel",
    "Scenario",
    "SimConfig",
    "StabilityError",
    "allocate",
    "delay_histogram",
    "effective_bandwidth_service_rayleigh",
    "effective_capacity_rayleigh",
    "empirical_ccdf",
    "ergodic_rate",
    "invert_equal_rate_ccdf",
    "lambert_w",
    "log_upper_incomplete_gamma",
    "qos_rate_target",
    "rbm_decorrelation",
    "relative_departure_burstiness",
    "relay_arrival_bandwidth",
    "simulate_tandem",
    "single_hop_ccdf",
    "solve_kappa1",
    "solve_kappa2",
    "solve_theta1",
    "solve_theta2",
    "suggest_fit_window",
    "tail_slope",
    "two_hop_ccdf",
    "upper_incomplete_gamma",
]
