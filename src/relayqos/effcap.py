"""Effective bandwidth and effective capacity of the per-hop rate processes.

A hop transmits at the Shannon rate ``BT * ln(1 + kappa * h)`` nats per frame
with ``h`` exponentially distributed (Rayleigh power gain), i.i.d. across
frames.  For a QoS exponent theta > 0 the log-moment generating function of
that rate has a closed form in the upper incomplete gamma function, and so
do the effective capacity, the effective bandwidth and the ergodic rate this
module computes; they need nothing beyond the standard library.

The mean gain is absorbed into an effective SNR ``kappa * mean_gain``: for an
exponential gain this substitution is exact, so all formulas below are
written for unit-mean fading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import (
    _log_gamma_parts,
    log_upper_incomplete_gamma,  # noqa: F401  perfbench traces this lookup site
)

__all__ = [
    "LinkModel",
    "effective_capacity_rayleigh",
    "effective_bandwidth_service_rayleigh",
    "ergodic_rate",
]

# The log-moment is formed as log1p(s*H) where |s|*ln(1 + snr), which bounds
# it for the capacity (Jensen), is below this.
_LOG1P_MOMENT = 0.05


@dataclass(frozen=True)
class LinkModel:
    """One hop's constant transmit power and Rayleigh channel statistics.

    Attributes
    ----------
    tx_power : float
        Constant transmit power kappa in linear units (noise power = 1).
    mean_gain : float
        Mean channel power gain E[h].
    bt_product : float
        Bandwidth-time product B*T: rate per frame is bt_product * ln(1 + snr).
    """

    tx_power: float
    mean_gain: float
    bt_product: float

    def __post_init__(self):
        if not self.tx_power > 0.0:
            raise ValueError(f"tx_power must be > 0, got {self.tx_power!r}")
        if not self.mean_gain > 0.0:
            raise ValueError(f"mean_gain must be > 0, got {self.mean_gain!r}")
        if not self.bt_product > 0.0:
            raise ValueError(f"bt_product must be > 0, got {self.bt_product!r}")

    @property
    def effective_snr(self) -> float:
        """kappa * mean_gain, the only combination the rate statistics see."""
        return self.tx_power * self.mean_gain


def _require_positive_theta(theta: float) -> None:
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta!r}")


def _log_scaled_gamma(a: float, z: float) -> float:
    """ln H(a, z) with H = e^z * z^-a * G(a, z), never forming e^z or z^a."""
    v, split = _log_gamma_parts(a, z)
    return v if split else z - a * math.log(z) + v


def _log_rate_moment(s: float, z: float) -> float:
    """log E[(1 + h/z)^s] for unit-mean exponential h, with z = 1/effective_snr.

    DLMF 8.8.2 gives E[(1 + h/z)^s] = 1 + s*H(s, z), so a moment near 1 is
    log1p(s*H(s, z)), which tends to s*e^z*E1(z) without cancellation as
    s -> 0.  Elsewhere it is z - s*ln z + ln G(1+s, z); where the gamma
    branch returns ln H(1+s, z) the e^z factor cancels exactly and the
    value is ln z + ln H, which never overflows.
    """
    if abs(s) * math.log1p(1.0 / z) < _LOG1P_MOMENT:
        return math.log1p(s * math.exp(_log_scaled_gamma(s, z)))
    v, split = _log_gamma_parts(1.0 + s, z)
    return (math.log(z) if split else z - s * math.log(z)) + v


def ergodic_rate(link: LinkModel) -> float:
    """Mean service rate BT * E[ln(1 + snr*h)] = BT * e^z * E1(z), z = 1/snr.

    E1(z) = G(0, z), so the rate is BT * H(0, z) and e^z is never formed.
    """
    return link.bt_product * math.exp(_log_scaled_gamma(0.0, 1.0 / link.effective_snr))


def effective_capacity_rayleigh(theta: float, link: LinkModel) -> float:
    """Effective capacity -(1/theta) * log E[exp(-theta * R)] in nats/frame.

    The maximum constant arrival rate the hop's service process supports at
    QoS exponent theta.  Strictly decreasing in theta, increasing in power,
    and bounded above by the ergodic rate.
    """
    _require_positive_theta(theta)
    beta = link.bt_product * theta
    value = -_log_rate_moment(-beta, 1.0 / link.effective_snr) / theta
    if not math.isfinite(value):
        raise OverflowError(
            f"effective capacity not representable at theta={theta!r}, link={link!r}")
    return value


def _capacity_log_slope(theta: float, link: LinkModel, capacity: float) -> float:
    """dC/d(ln kappa) of C = effective_capacity_rayleigh(theta, link), from C.

    With M_s = E[(1 + snr*h)^-s], beta = BT*theta and z = 1/snr,
    d M_beta / d ln(kappa) = -beta*(M_beta - M_(beta+1)), and DLMF 8.8.2
    gives M_(beta+1) = z*(1 - M_beta)/beta.  As M_beta = exp(-theta*C), no
    special function is needed.
    """
    return link.bt_product - math.expm1(theta * capacity) / (theta * link.effective_snr)


def effective_bandwidth_service_rayleigh(theta: float, link: LinkModel) -> float:
    """Effective bandwidth (1/theta) * log E[exp(theta * R)] in nats/frame.

    Treats the hop's own service process as an arrival process (as seen by
    the downstream queue).  Strictly increasing in theta and bounded below by
    the ergodic rate.
    """
    _require_positive_theta(theta)
    beta = link.bt_product * theta
    value = _log_rate_moment(beta, 1.0 / link.effective_snr) / theta
    if not math.isfinite(value):
        raise OverflowError(
            f"effective bandwidth not representable at theta={theta!r}, link={link!r}")
    return value
