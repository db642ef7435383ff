"""Real-valued special functions used by the closed-form rate expressions.

Provides both real branches of the Lambert-W function, the upper incomplete
gamma function and its logarithm for arbitrary real first argument
(including a <= 0, where most libraries give up), the inversion of the
equal-rate two-hop delay tail that turns a (delay bound, violation
probability) pair into a decay rate, and the stationary autocorrelation of
reflected Brownian motion.  One private function, ``_log_gamma_parts``,
chooses the incomplete-gamma branch for both public gamma functions and
for the rate moments in ``effcap``.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import math

__all__ = [
    "lambert_w",
    "upper_incomplete_gamma",
    "log_upper_incomplete_gamma",
    "qos_rate_target",
    "rbm_decorrelation",
]

_EPS = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_ITER = 500


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def _w_initial_guess(x: float, branch: int, t: float) -> float:
    """Starting point for the Halley iteration.

    ``t = 1 + e*x`` is the (clipped, non-negative) distance from the branch
    point at x = -1/e.  Near the branch point both branches use the series in
    p = sqrt(2t); elsewhere the principal branch uses a rational/log seed and
    the minus-one branch the asymptotic log(-x) - log(-log(-x)) expansion.
    """
    if branch == 0:
        if x < -0.3:
            p = math.sqrt(2.0 * t)
            return -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3
        if x < 0.0:
            return x / (1.0 + x)
        if x < math.e:
            return x / math.e
        l1 = math.log(x)
        l2 = math.log(l1)
        return l1 - l2 + l2 / l1
    if x < -0.27:
        p = math.sqrt(2.0 * t)
        return -1.0 - p - p * p / 3.0 - (11.0 / 72.0) * p ** 3
    l1 = math.log(-x)
    l2 = math.log(-l1)
    return l1 - l2 + l2 / l1


def lambert_w(x: float, branch: int = 0) -> float:
    """Real Lambert-W function, the inverse of w -> w * e^w.

    Parameters
    ----------
    x : float
        Argument.  The principal branch requires x >= -1/e; the minus-one
        branch requires -1/e <= x < 0.
    branch : int
        0 for the principal branch (W >= -1), -1 for the lower branch
        (W <= -1).

    Returns
    -------
    float
        w such that ``w * exp(w) == x`` to a relative residual of 1e-12.

    Raises
    ------
    ValueError
        If x is outside the domain of the requested branch, or if 100
        Halley steps do not converge (never seen on either branch).
    """
    if branch not in (0, -1):
        raise ValueError(f"branch must be 0 or -1, got {branch}")
    t = 1.0 + x * math.e
    if t < 0.0:
        if t < -1e-9:
            raise ValueError(f"lambert_w requires x >= -1/e, got x={x!r}")
        t = 0.0
    if branch == -1 and x >= 0.0:
        raise ValueError(f"minus-one branch requires x < 0, got x={x!r}")
    if x == 0.0:
        return 0.0
    if t == 0.0:
        return -1.0

    w = _w_initial_guess(x, branch, t)
    scale = max(abs(x), 1e-290)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-13 * scale:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            wp1 = 1e-12 if branch == 0 else -1e-12
        # Halley step; the w+1 factors blow up at the branch point, where the
        # initial series is already at full accuracy
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denom
        if branch == 0 and w < -1.0:
            w = -1.0 + 1e-12
        elif branch == -1 and w > -1.0:
            w = -1.0 - 1e-12
    raise ValueError(f"lambert_w failed to converge for x={x!r}, branch={branch}")


# ---------------------------------------------------------------------------
# Upper incomplete gamma, real first argument
# ---------------------------------------------------------------------------

def _upper_cf_factor(a: float, z: float) -> float:
    """Modified-Lentz continued fraction H with G(a, z) = exp(-z + a*ln z) * H.

    Converges for z >= a + 1 when a > 0, for z >= ~1 for any a <= 0, and
    for every z > 0 once a <= -10.
    """
    b = z + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ValueError(f"incomplete-gamma continued fraction stalled at a={a!r}, z={z!r}")


def _log_lower_reg_series(a: float, z: float) -> float:
    """log P(a, z) by the classic power series; needs a > 0 and z <= a + 1.

    Term ratios are bounded by z/(a+1) < 1, so the geometric tail yields a
    rigorous iteration budget; for very large a with z just below a the
    series converges slowly and the budget grows accordingly.
    """
    ratio = z / (a + 1.0)
    budget = _MAX_ITER
    if ratio > 0.9:
        budget = min(100_000, int(40.0 / -math.log(ratio)) + 50)
    ap = a
    delta = 1.0 / a
    total = delta
    for _ in range(budget):
        ap += 1.0
        delta *= z / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            return a * math.log(z) - z - math.lgamma(a) + math.log(total)
    raise ValueError(f"incomplete-gamma series stalled at a={a!r}, z={z!r}")


def _gamma1p_frac(a: float) -> float:
    """(Gamma(1 + a) - 1) / a for |a| <= 0.5, finite and accurate through a = 0.

    g = (1/Gamma(1 + a) - 1) / a is summed from the Taylor series of
    1/Gamma(1 + a), which converges fast enough on |a| <= 0.5 to need no
    other form; the value is then -g / (1 + a*g).
    """
    g = (0.5772156649015329 + a * (-0.6558780715202539 + a * (-0.04200263503409524
         + a * (0.16653861138229148 + a * (-0.04219773455554433 + a * (-0.009621971527876973
         + a * (0.0072189432466631 + a * (-0.0011651675918590652 + a * (-0.00021524167411495098
         + a * (0.0001280502823881162 + a * (-2.013485478078824e-05 + a * (-1.2504934821426706e-06
         + a * (1.133027231981696e-06 + a * (-2.056338416977607e-07 + a * (6.116095104481416e-09
         + a * (5.002007644469223e-09 + a * (-1.18127457048702e-09
         + a * 1.0434267116911005e-10)))))))))))))))))
    return -g / (1.0 + a * g)


def _powm1_frac(log_z: float, a: float) -> float:
    """(z^a - 1) / a, finite and accurate through a = 0."""
    t = a * log_z
    if abs(t) < 1e-3:
        return log_z * (1.0 + t * (0.5 + t * (1.0 / 6.0 + t / 24.0)))
    return math.expm1(t) / a


def _small_a_series(a: float, z: float) -> float:
    """G(a, z) for |a| <= 0.5 and z < 1.5.

    Splits off the z^a/a singularity analytically so the result stays
    accurate straight through a = 0, where it reduces to the E1 series.
    """
    log_z = math.log(z)
    head = _gamma1p_frac(a) - _powm1_frac(log_z, a)
    term = 1.0
    tail = 0.0
    for k in range(1, _MAX_ITER):
        term *= -z / k
        contrib = term / (a + k)
        tail += contrib
        if abs(contrib) < abs(tail) * _EPS + 1e-320:
            break
    return head - math.exp(a * log_z) * tail


def _log_gamma_parts(a: float, z: float) -> tuple[float, bool]:
    """The one place that picks a branch for G(a, z): returns (v, split).

    Without split, v = ln G(a, z).  With split, v = ln H for the scaled
    value H = e^z * z^-a * G(a, z); callers that need G add -z + a*ln z,
    callers that need H (the rate moments) never form e^z or z^a.

    * a <= -10, or z >= max(1.5, a + 1): modified-Lentz continued fraction,
      split.  It converges in under 200 terms for every z when a <= -10.
    * a > 0.5, z < a + 1: the lower regularized series, as
      lgamma(a) + log1p(-P(a, z)).
    * -0.5 <= a <= 0.5, z < 1.5: the small-a expansion.
    * -10 < a < -0.5, z < 1.5: at most 10 steps of the downward recurrence
      H(b) = (z*H(b + 1) - 1)/b (DLMF 8.8.2 scaled by e^z * z^-b), seeded
      in [-0.5, 0.5] by the small-a expansion; split.  In this region every
      step is well conditioned.
    """
    if not z > 0.0:
        raise ValueError(f"upper incomplete gamma requires z > 0, got z={z!r}")
    if a <= -10.0 or (z >= 1.5 and z >= a + 1.0):
        return math.log(_upper_cf_factor(a, z)), True
    if a > 0.5:
        return math.lgamma(a) + math.log1p(-math.exp(_log_lower_reg_series(a, z))), False
    steps = round(-a)
    b = a + steps
    g = _small_a_series(b, z)
    if steps == 0:
        return math.log(g), False
    h = g * math.exp(z - b * math.log(z))
    for _ in range(steps):
        b -= 1.0
        h = (z * h - 1.0) / b
    return math.log(h), True


def upper_incomplete_gamma(a: float, z: float) -> float:
    """Upper incomplete gamma G(a, z) = integral_z^inf t^(a-1) e^(-t) dt.

    Unlike the regularized library versions, ``a`` may be any real number;
    z must be positive.  The value is the exponential of
    :func:`log_upper_incomplete_gamma`; the branches are listed at
    ``_log_gamma_parts``.

    Raises
    ------
    ValueError
        If z <= 0.
    OverflowError
        If the (strictly positive) result exceeds the largest double or
        rounds to zero.
    """
    try:
        result = math.exp(log_upper_incomplete_gamma(a, z))
    except OverflowError:
        result = math.inf
    if not 0.0 < result < math.inf:
        raise OverflowError(
            f"upper_incomplete_gamma is outside double range at a={a!r}, z={z!r}; "
            "use log_upper_incomplete_gamma")
    return result


def log_upper_incomplete_gamma(a: float, z: float) -> float:
    """log G(a, z), usable where G itself over- or underflows (large z or |a|).

    Where the continued fraction or the recurrence applies, the logarithm is
    assembled term by term and never forms e^z, e^-z or z^a explicitly,
    which is what the rate formulas need when 1/kappa is large.

    Raises
    ------
    ValueError
        If z <= 0.
    """
    v, split = _log_gamma_parts(a, z)
    return -z + a * math.log(z) + v if split else v


# ---------------------------------------------------------------------------
# QoS delay-rate target
# ---------------------------------------------------------------------------

def qos_rate_target(delay_bound: float, xi: float) -> float:
    """Per-frame delay-tail decay rate meeting a two-hop violation target.

    Returns the unique u > 0 with ``(1 + u * delay_bound) * exp(-u *
    delay_bound) == xi``, i.e. the rate at which the equal-rate two-hop delay
    CCDF hits ``xi`` exactly at ``delay_bound``.  Computed as
    ``-(1 + W_{-1}(-xi/e)) / delay_bound``; only the minus-one branch gives a
    positive rate for xi < 1.

    Parameters
    ----------
    delay_bound : float
        Delay bound in frames, > 0.
    xi : float
        Maximum violation probability, in (0, 1), large enough that -xi/e
        does not underflow to zero (xi >= 1e-323).
    """
    if not delay_bound > 0.0:
        raise ValueError(f"delay_bound must be > 0, got {delay_bound!r}")
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi!r}")
    x = -xi / math.e
    if x == 0.0:  # xi = 5e-324, the smallest positive double
        raise ValueError(f"xi={xi!r} is too small: -xi/e underflows to zero")
    v = -1.0 - lambert_w(x, branch=-1)
    # two Newton polishes on log((1+v)/xi) = v pin the residual to ~1 ulp
    if v > 1e-8:
        for _ in range(2):
            g = math.log1p(v) - math.log(xi) - v
            v += g * (1.0 + v) / v
    return v / delay_bound


# ---------------------------------------------------------------------------
# Reflected Brownian motion
# ---------------------------------------------------------------------------

def rbm_decorrelation(t: float) -> float:
    """1 - c(t), with c the stationary autocorrelation of canonical RBM.

    Canonical reflected Brownian motion has drift -1 and unit variance; a
    queue with drift -m and variance s^2 per frame maps onto it with time
    unit s^2/m^2.  Abate & Whitt (1987) give

        c(t) = 2 (1 - 2t - t^2) Q(sqrt t) + 2 sqrt(t) (1 + t) phi(sqrt t),

    with Q and phi the standard normal tail and density, so that
    Var[Z(t) - Z(0)] = 2 Var[Z] (1 - c(t)).  Below t = 1 the value is
    assembled from erf, which keeps the leading 2t of 1 - c(t) exact.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    r = math.sqrt(0.5 * t)
    poly = 1.0 - 2.0 * t - t * t
    density = 2.0 / math.sqrt(math.pi) * r * (1.0 + t) * math.exp(-0.5 * t)
    if t <= 1.0:
        return 2.0 * t + t * t + poly * math.erf(r) - density
    return 1.0 - poly * math.erfc(r) - density
