#!/usr/bin/env python3
"""Tour of the analytic building blocks: Lambert-W, the incomplete gamma
with arbitrary real parameter, and the effective capacity / bandwidth of a
Rayleigh-faded link.  It checks the closed forms against the quadrature
oracle, which calls scipy, so it needs the test extra
(``pip install -e .[test]``).

Run:  python demos/effective_capacity_basics.py
"""

import math

import numpy as np

import relayqos as rq

print("=" * 70)
print("1. Lambert-W: both real branches of the inverse of w * e^w")
print("=" * 70)
for x in (-0.35, -0.2, -0.05, -1e-4):
    w0 = rq.lambert_w(x, 0)
    wm1 = rq.lambert_w(x, -1)
    print(f"  x = {x:+.5f}:  W0 = {w0:+.6f}  (residual {w0 * math.exp(w0) - x:+.1e})"
          f"   W-1 = {wm1:+.6f}  (residual {wm1 * math.exp(wm1) - x:+.1e})")
print("  Only the lower branch turns a small violation probability into a")
print("  positive delay-decay rate: u = -(1 + W_-1(-xi/e)) / D.")
for xi in (1e-2, 1e-4, 1e-6):
    u = rq.qos_rate_target(50.0, xi)
    print(f"    xi = {xi:.0e}, D = 50 frames  ->  u = {u:.4f} per frame, "
          f"check (1+uD)e^-uD = {(1 + 50 * u) * math.exp(-50 * u):.3e}")

print()
print("=" * 70)
print("2. Upper incomplete gamma for any real first argument")
print("=" * 70)
for a, z in ((1.0, 2.0), (0.0, 1.0), (-0.5, 1.0), (-3.2, 0.4), (-19.0, 30.0)):
    print(f"  G({a:+.1f}, {z:.1f}) = {rq.upper_incomplete_gamma(a, z):.12e}")
print("  Large arguments go through the log-domain variant:")
print(f"  log G(0.5, 800) = {rq.log_upper_incomplete_gamma(0.5, 800.0):.6f}")

print()
print("=" * 70)
print("3. Effective capacity and bandwidth of one Rayleigh hop")
print("=" * 70)
link = rq.LinkModel(tx_power=1.5, mean_gain=1.0, bt_product=200.0)
erg = rq.ergodic_rate(link)
print(f"  link: power 1.5, unit mean gain, BT = 200; ergodic rate {erg:.3f} nats/frame")
print(f"  {'theta':>10} {'C(theta)':>12} {'A(theta)':>12}   (capacity decays, bandwidth grows)")
for theta in np.geomspace(1e-4, 3e-2, 6):
    c = rq.effective_capacity_rayleigh(float(theta), link)
    a = rq.effective_bandwidth_service_rayleigh(float(theta), link)
    print(f"  {theta:10.2e} {c:12.4f} {a:12.4f}")
print("  Every capacity sits below the ergodic rate, every bandwidth above;")
print("  the independent quadrature oracle agrees with the closed forms:")
for theta in (1e-3, 1e-2):
    c1 = rq.effective_capacity_rayleigh(theta, link)
    c2 = rq.effective_capacity_oracle(theta, link)
    print(f"    theta = {theta:.0e}: closed {c1:.10f} vs quadrature {c2:.10f} "
          f"(rel diff {abs(c1 / c2 - 1):.1e})")
