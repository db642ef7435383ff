"""Per-call microbenchmarks and fresh-process probes for the traced run.

The special-function, effective-capacity and delay-law timings are µs per
call over seeded points that cover every evaluation branch, so they do not
depend on which scenarios a workload happens to solve.  Import costs come
from ``python -X importtime``; simulator memory from ``tracemalloc``.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc


def _log_uniform(rng, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def gamma_points(rng, per_branch: int = 8) -> list[tuple[float, float]]:
    """(a, z) points, ``per_branch`` in each branch of the Γ(a, z) dispatch."""
    points = []
    for _ in range(per_branch):
        a = rng.uniform(0.6, 10.0)
        points.append((a, a + 1.0 + rng.uniform(0.0, 30.0)))     # CF, a > 0
        points.append((rng.uniform(0.01, 0.5), rng.uniform(0.05, 1.45)))  # small a
        a = rng.uniform(1.0, 20.0)
        points.append((a, rng.uniform(0.1, a)))                    # lower series
        points.append((rng.uniform(-5.0, 0.0), rng.uniform(1.5, 50.0)))  # CF, a <= 0
        points.append((rng.uniform(-4.0, 0.0), rng.uniform(0.05, 1.45)))  # recurrence
    return points


def _per_call_us(fn, points, budget_s: float) -> float:
    """Median over repeated sweeps of the mean µs per call across ``points``."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter_ns()
        for args in points:
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / len(points) / 1e3)
    return statistics.median(samples)


def layer_microbench(rng, budget_s: float) -> dict[str, float]:
    """µs per call of the specfun, effcap and delaymodel public functions."""
    from relayqos import delaymodel, effcap, specfun

    gamma = gamma_points(rng)
    w_points = ([(rng.uniform(-1.0 / math.e + 1e-3, 20.0), 0) for _ in range(16)]
                + [(rng.uniform(-1.0 / math.e + 1e-3, -1e-4), -1) for _ in range(16)])
    qos_points = [(rng.uniform(1.0, 250.0), _log_uniform(rng, 1e-9, 0.3))
                  for _ in range(32)]
    bt = 200.0
    link_points = [(_log_uniform(rng, 1e-3, 10.0) / bt,
                    effcap.LinkModel(_log_uniform(rng, 1e-2, 1e3), 1.0, bt))
                   for _ in range(32)]
    ergodic_points = [(effcap.LinkModel(_log_uniform(rng, 1e-3, 1e6), 1.0, bt),)
                      for _ in range(8)]
    ccdf_points = []
    for i in range(32):
        rate = _log_uniform(rng, 1e-3, 1.0)
        other = rate if i % 2 else _log_uniform(rng, 1e-3, 1.0)
        ccdf_points.append((delaymodel.HopDelayLaw(rate), delaymodel.HopDelayLaw(other),
                            rng.uniform(0.0, 500.0)))
    return {
        "specfun.gamma_us": _per_call_us(specfun.upper_incomplete_gamma, gamma, budget_s),
        "specfun.log_gamma_us": _per_call_us(
            specfun.log_upper_incomplete_gamma, gamma, budget_s),
        "specfun.lambert_w_us": _per_call_us(specfun.lambert_w, w_points, budget_s),
        "specfun.qos_rate_target_us": _per_call_us(
            specfun.qos_rate_target, qos_points, budget_s),
        "effcap.capacity_us": _per_call_us(
            effcap.effective_capacity_rayleigh, link_points, budget_s),
        "effcap.bandwidth_us": _per_call_us(
            effcap.effective_bandwidth_service_rayleigh, link_points, budget_s),
        "effcap.ergodic_us": _per_call_us(effcap.ergodic_rate, ergodic_points, budget_s),
        "delaymodel.two_hop_ccdf_us": _per_call_us(
            delaymodel.two_hop_ccdf, ccdf_points, budget_s),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Summed self time (ms) of the scipy, numpy and relayqos module trees."""
    totals = {"scipy": 0.0, "numpy": 0.0, "relayqos": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        root = name.strip().split(".", 1)[0]
        if root in totals:
            totals[root] += int(self_us) / 1e3
    return {"import.scipy_ms": totals["scipy"], "import.numpy_ms": totals["numpy"],
            "import.relayqos_self_ms": totals["relayqos"]}


def simulator_memory(profile, frames: int, warmup: int, seed: int) -> dict[str, float]:
    """Peak traced bytes per frame of one ``simulate_tandem`` call.

    ``qsim.computed_bytes_per_frame`` is computed, not measured: the bytes of
    the three delay arrays the call returns, per simulated frame.
    """
    import relayqos
    from relayqos import cli

    scenario = cli.to_scenario(profile)
    allocation = relayqos.allocate(scenario)
    cfg = relayqos.SimConfig(n_frames=frames, warmup_frames=warmup, seed=seed)
    tracemalloc.start()
    try:
        stats = relayqos.simulate_tandem(scenario, allocation, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = stats.hop1_delays.nbytes + stats.hop2_delays.nbytes + stats.e2e_delays.nbytes
    return {"qsim.peak_bytes_per_frame": peak / frames,
            "qsim.computed_bytes_per_frame": returned / frames}
