#!/usr/bin/env python3
"""Monte Carlo validation of the analytic delay laws: simulate the two-hop
fluid tandem queue under a solved allocation and compare the measured delay
tails with the exponential laws the solver assumes.

Run:  python demos/tandem_queue_validation.py            (about 1 s)
"""

import numpy as np

import relayqos as rq
from relayqos import cli

profile = cli.RadioProfile(
    traffic_load=1e5, delay_bound=0.1, violation_prob=1e-2,
    transmission_time=2e-3)
cfg = rq.SimConfig(n_frames=2_000_000, warmup_frames=50_000, seed=42)

report = cli.validate(profile, cfg)
alloc = report.allocation
u = alloc.delay_rate
print(f"allocation: kappa1 = {alloc.kappa1:.4f}, kappa2 = {alloc.kappa2:.4f}, "
      f"target delay rate u = {u:.4f}/frame")
print(f"simulated {cfg.n_frames:,} frames (seed {cfg.seed}, "
      f"{cfg.relay_forwarding})\n")

print(f"end-to-end P(D > {report.scenario.delay_bound:.0f} frames):")
print(f"  analytic law: {report.analytic_violation:.4e}")
print(f"  measured:     {report.empirical_violation:.4e} "
      f"(+/- {report.empirical_halfwidth:.1e}, 95% batch-means half-width)")
print(f"  ratio:        {report.violation_ratio:.3f}")
print()
print(f"per-hop fitted tail slopes (analytic law predicts u = {u:.4f}):")
print(f"  hop 1: {report.hop1_fitted_slope:.4f} "
      f"= {report.hop1_fitted_slope / u:.2f}u on window {report.hop1_fit_window}")
print(f"  hop 2: {report.hop2_fitted_slope:.4f} "
      f"= {report.hop2_fitted_slope / u:.2f}u on window {report.hop2_fit_window}")
print()
print("Reading the result: hop 1 decays at about the predicted rate u. The")
print("relay's arrivals are hop 1's departures, smoother than hop 1's service")
print("process but burstier than the constant load over the time scale on which")
print("the relay queue builds up; the solver sizes hop 2 against exactly that,")
print("so hop 2 decays at about u too. The two hops' delay laws nearly coincide,")
print("as the design intends, and the measured violation sits near the target.")

# the full delay histograms are one line away for external analysis: each
# hop's comes with the run, counted as the scan goes (the form the tail fits
# read), and the end-to-end one is np.bincount of the unsigned delays
stats = rq.simulate_tandem(report.scenario, alloc,
                           rq.SimConfig(n_frames=200_000, warmup_frames=5_000,
                                        seed=7))
counts = np.bincount(stats.e2e_delays)[:12]
print("\nfirst 12 bins of the end-to-end delay histogram (200k frames):")
print(" ", " ".join(f"{c}" for c in counts))
