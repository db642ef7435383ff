#!/usr/bin/env python3
"""The delay-distribution layer: exponential per-hop laws, the two-hop
hypoexponential tail, and inverting the equal-rate tail to hit a target.

Run:  python demos/two_hop_delay_laws.py
"""

import math

import relayqos as rq

print("Per-hop delays are modelled as exponential: P(D > x) = exp(-rate x).")
fast, slow = rq.HopDelayLaw(0.30), rq.HopDelayLaw(0.12)
print(f"hop laws: rate {fast.rate} (fast) and {slow.rate} (slow) per frame\n")

print(f"{'x':>6} {'P(D_fast>x)':>12} {'P(D_slow>x)':>12} {'P(D1+D2>x)':>12}")
for x in (0, 5, 10, 20, 40, 80):
    print(f"{x:6d} {rq.single_hop_ccdf(fast, x):12.4e} "
          f"{rq.single_hop_ccdf(slow, x):12.4e} "
          f"{rq.two_hop_ccdf(fast, slow, x):12.4e}")

print()
print(f"two-hop tail exponent = min of the rates = "
      f"{min(fast.rate, slow.rate)} (the slow hop dominates)")
slope = (math.log(rq.two_hop_ccdf(fast, slow, 1000.0))
         - math.log(rq.two_hop_ccdf(fast, slow, 2000.0))) / 1000.0
print(f"measured log-slope between x = 1000 and 2000: {slope:.6f}")

print()
print("Equalizing the two rates is the efficient operating point; inverting")
print("the equal-rate tail gives the rate that meets a QoS target exactly:")
for delay_bound, xi in ((50.0, 1e-6), (25.0, 1e-3)):
    law = rq.invert_equal_rate_ccdf(delay_bound, xi)
    hit = rq.two_hop_ccdf(law, law, delay_bound)
    print(f"  bound {delay_bound:5.0f} frames, target {xi:.0e}  ->  "
          f"rate {law.rate:.5f}, tail at bound {hit:.6e}")
