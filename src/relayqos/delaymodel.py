"""Analytical delay distributions for one hop and for two hops in tandem.

Each hop's queueing delay is modelled as exponential with rate
``theta * C(theta)`` (the large-deviation tail approximation, treated here as
exact).  The end-to-end delay is then the sum of two independent
exponentials: hypoexponential for distinct rates, Erlang-2 shaped when the
rates coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import qos_rate_target

__all__ = [
    "HopDelayLaw",
    "single_hop_ccdf",
    "two_hop_ccdf",
    "invert_equal_rate_ccdf",
]


@dataclass(frozen=True)
class HopDelayLaw:
    """Exponential delay law of one hop: P(D > x) = exp(-rate * x)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError(f"delay rate must be > 0, got {self.rate!r}")


def single_hop_ccdf(law: HopDelayLaw, x: float) -> float:
    """P(D > x) for one hop, x in frames, finite and >= 0."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    return math.exp(-law.rate * x)


def two_hop_ccdf(law1: HopDelayLaw, law2: HopDelayLaw, x: float) -> float:
    """P(D1 + D2 > x) for independent exponential hop delays, x finite and >= 0.

    With b the slower rate and a the faster, the hypoexponential CCDF
    (a*e^{-bx} - b*e^{-ax}) / (a - b) is evaluated as
    e^{-bx} * (1 + bx * phi((a - b)x)), phi(t) = (1 - e^{-t}) / t, phi(0) = 1.
    That form has no cancellation as a - b -> 0 and reduces exactly to the
    Erlang-2 CCDF (1 + bx) * e^{-bx} at equal rates.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    a, b = max(law1.rate, law2.rate), min(law1.rate, law2.rate)
    t = (a - b) * x
    phi = 1.0 if t == 0.0 else -math.expm1(-t) / t
    bx = b * x
    return math.exp(-bx) * (1.0 + bx * phi)


def invert_equal_rate_ccdf(delay_bound: float, xi: float) -> HopDelayLaw:
    """Per-hop law whose equal-rate two-hop CCDF equals xi at the delay bound."""
    return HopDelayLaw(rate=qos_rate_target(delay_bound, xi))
