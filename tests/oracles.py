"""Adaptive-quadrature oracles for the effective capacity, effective bandwidth
and ergodic rate of a Rayleigh hop.

They integrate the rate moments against the Exp(1) gain density with SciPy,
independently of the closed forms in ``relayqos.effcap``, which the tests
check against them.  SciPy comes with the ``test`` extra only; the runtime
package never imports this module.
"""

from __future__ import annotations

import math

from scipy import integrate

from relayqos.effcap import LinkModel, _require_positive_theta, ergodic_rate

# Below this theta the quadrature oracles return the ergodic limit: their
# log of a moment that is 1 + O(theta) loses the relative O(theta) term.
THETA_ERGODIC_LIMIT = 1e-8

_QUAD_TOL = 1e-12


def _log_rate_moment_quadrature(s: float, snr: float) -> float:
    """log E[(1 + snr*h)^s] by adaptive quadrature against the Exp(1) density.

    The integrand is rescaled by its peak value so arbitrarily large moments
    are integrated without overflow.
    """

    def log_integrand(h: float) -> float:
        return s * math.log1p(snr * h) - h

    h_star = max((s * snr - 1.0) / snr, 0.0) if s > 0.0 else 0.0
    g_star = log_integrand(h_star)
    out = integrate.quad(
        lambda h: math.exp(log_integrand(h) - g_star),
        0.0, math.inf, epsabs=0.0, epsrel=_QUAD_TOL, limit=400, full_output=1)
    value, abserr = out[0], out[1]
    if not value > 0.0 or abserr > 1e-9 * value:
        raise RuntimeError(
            f"rate-moment quadrature did not converge (s={s!r}, snr={snr!r}, "
            f"value={value!r}, error estimate={abserr!r})")
    return g_star + math.log(value)


def effective_capacity_oracle(theta: float, link: LinkModel) -> float:
    """Quadrature-based effective capacity; independent of the closed form."""
    _require_positive_theta(theta)
    if theta < THETA_ERGODIC_LIMIT:
        return ergodic_rate(link)
    beta = link.bt_product * theta
    return -_log_rate_moment_quadrature(-beta, link.effective_snr) / theta


def effective_bandwidth_oracle(theta: float, link: LinkModel) -> float:
    """Quadrature-based effective bandwidth; independent of the closed form."""
    _require_positive_theta(theta)
    if theta < THETA_ERGODIC_LIMIT:
        return ergodic_rate(link)
    beta = link.bt_product * theta
    return _log_rate_moment_quadrature(beta, link.effective_snr) / theta


def ergodic_rate_oracle(link: LinkModel) -> float:
    """Quadrature-based mean service rate; independent of the closed form."""
    snr = link.effective_snr
    # for small snr integrate log1p(snr*h)/snr, an O(1) quantity, so the
    # relative convergence check stays meaningful
    scale = min(snr, 1.0)
    out = integrate.quad(
        lambda h: math.log1p(snr * h) / scale * math.exp(-h),
        0.0, math.inf, epsabs=0.0, epsrel=_QUAD_TOL, limit=400, full_output=1)
    value, abserr = out[0], out[1]
    if not value > 0.0 or abserr > 1e-9 * value:
        raise RuntimeError(
            f"ergodic-rate quadrature did not converge (snr={snr!r}, "
            f"value={value!r}, error estimate={abserr!r})")
    return link.bt_product * scale * value
