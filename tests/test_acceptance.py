"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria and tolerances
are fixed here; nothing is deferred to later calibration.
"""

import dataclasses
import math

import numpy as np
from scipy import integrate

import relayqos as rq
from oracles import effective_bandwidth_oracle, effective_capacity_oracle
from relayqos import cli

LOAD_100KBPS = 138.62943611198906


def _report(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. special functions
# ---------------------------------------------------------------------------

def test_criterion_1_special_functions():
    rng = np.random.default_rng(2024)
    inv_e = math.exp(-1.0)

    worst_residual = 0.0
    for branch in (0, -1):
        xs = np.concatenate([
            -inv_e * rng.random(5000),
            -np.exp(rng.uniform(np.log(1e-250), np.log(inv_e), 5000)),
        ])
        if branch == 0:
            xs = np.concatenate([xs[:5000],
                                 np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 5000))])
        for x in xs:
            w = rq.lambert_w(float(x), branch)
            worst_residual = max(worst_residual,
                                 abs(w * math.exp(w) - x) / abs(x))

    worst_recurrence = 0.0
    for a in np.arange(-5.0, 10.01, 0.25):
        for z in np.geomspace(1e-3, 50.0, 40):
            lhs = rq.upper_incomplete_gamma(float(a) + 1.0, float(z))
            rhs = (a * rq.upper_incomplete_gamma(float(a), float(z))
                   + math.exp(a * math.log(z) - z))
            worst_recurrence = max(worst_recurrence, abs(rhs - lhs) / abs(lhs))

    ok = worst_residual <= 1e-12 and worst_recurrence <= 1e-9
    assert _report(1, "special functions", ok,
                   f"lambert-w residual {worst_residual:.2e} (<= 1e-12), "
                   f"gamma recurrence {worst_recurrence:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 2. closed forms vs quadrature oracle
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_vs_oracle():
    worst = 0.0
    bt = 200.0
    for theta in np.geomspace(1e-4, 1e-1, 7):
        for snr in np.geomspace(0.1, 100.0, 7):
            link = rq.LinkModel(float(snr), 1.0, bt)
            c_closed = rq.effective_capacity_rayleigh(float(theta), link)
            c_oracle = effective_capacity_oracle(float(theta), link)
            a_closed = rq.effective_bandwidth_service_rayleigh(float(theta), link)
            a_oracle = effective_bandwidth_oracle(float(theta), link)
            worst = max(worst, abs(c_closed / c_oracle - 1.0),
                        abs(a_closed / a_oracle - 1.0))
    ok = worst <= 1e-6
    assert _report(2, "closed form vs oracle", ok,
                   f"worst relative error {worst:.2e} (<= 1e-6) over "
                   f"theta in [1e-4, 1e-1] x snr in [0.1, 100], BT = 200")


# ---------------------------------------------------------------------------
# 3. two-hop CCDF vs numerical convolution
# ---------------------------------------------------------------------------

def _convolution_ccdf(a: float, b: float, x: float) -> float:
    tail, _ = integrate.quad(
        lambda y: a * math.exp(-a * y) * math.exp(-b * (x - y)),
        0.0, x, epsabs=1e-12, epsrel=1e-12, limit=400)
    return math.exp(-a * x) + tail


def test_criterion_3_ccdf_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(100):
        a = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        if k % 2 == 0:
            # near-equal rates straddling the switching threshold
            delta = 10.0 ** rng.uniform(-8.0, -5.0)
            b = a * (1.0 + float(rng.choice([-1.0, 1.0])) * delta)
        else:
            b = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        x = float(rng.uniform(0.0, 100.0))
        got = rq.two_hop_ccdf(rq.HopDelayLaw(a), rq.HopDelayLaw(b), x)
        worst = max(worst, abs(got - _convolution_ccdf(a, b, x)))
    ok = worst <= 1e-8
    assert _report(3, "ccdf oracle equivalence", ok,
                   f"worst absolute error {worst:.2e} (<= 1e-8) over 100 triples")


# ---------------------------------------------------------------------------
# 4. constraint closure on randomized scenarios
# ---------------------------------------------------------------------------

def test_criterion_4_constraint_closure():
    rng = np.random.default_rng(99)
    worst_residual = 0.0
    worst_ccdf = 0.0
    for _ in range(50):
        scenario = rq.Scenario(
            traffic_load=float(rng.uniform(20.0, 400.0)),
            delay_bound=float(rng.uniform(10.0, 200.0)),
            violation_prob=float(10.0 ** rng.uniform(-8.0, -1.0)),
            hop1_mean_gain=float(10.0 ** rng.uniform(-1.2, 1.2)),
            hop2_mean_gain=float(10.0 ** rng.uniform(-1.2, 1.2)),
            bt_product=float(rng.choice([100.0, 200.0, 400.0])),
        )
        allocation = rq.allocate(scenario)
        worst_residual = max(worst_residual, *allocation.residuals.values())
        law = rq.HopDelayLaw(allocation.delay_rate)
        closure = rq.two_hop_ccdf(law, law, scenario.delay_bound)
        worst_ccdf = max(worst_ccdf,
                         abs(closure / scenario.violation_prob - 1.0))
    ok = worst_residual <= 1e-8 and worst_ccdf <= 1e-6
    assert _report(4, "constraint closure", ok,
                   f"worst residual {worst_residual:.2e} (<= 1e-8), "
                   f"worst ccdf closure {worst_ccdf:.2e} (<= 1e-6) on 50 scenarios")


# ---------------------------------------------------------------------------
# 5. trend reproduction
# ---------------------------------------------------------------------------

def test_criterion_5_trend_reproduction():
    base = cli.RadioProfile(traffic_load=1e5, violation_prob=1e-6,
                            delay_bound=0.1, transmission_time=2e-3)

    # (a) asymmetry under symmetric channels
    asymmetry_ok = True
    for load, bound, xi in ((5e4, 0.1, 1e-6), (1e5, 0.1, 1e-6),
                            (2e5, 0.05, 1e-6), (1e5, 0.14, 1e-3)):
        profile = dataclasses.replace(base, traffic_load=load,
                                      delay_bound=bound, violation_prob=xi)
        allocation = rq.allocate(cli.to_scenario(profile))
        asymmetry_ok &= allocation.kappa2 > allocation.kappa1

    # (b) total power strictly decreasing in the delay bound and in the target
    bound_grid = [25 * 2e-3, 40 * 2e-3, 60 * 2e-3, 80 * 2e-3, 100 * 2e-3]
    rows = cli.sweep(base, "delay_bound", bound_grid)
    totals = [r.total_power for r in rows]
    bound_ok = all(r.feasible for r in rows) and all(
        a > b for a, b in zip(totals, totals[1:]))

    xi_profile = dataclasses.replace(base, delay_bound=0.14)  # 70 ms
    rows = cli.sweep(xi_profile, "violation_prob",
                     list(np.geomspace(1e-6, 1e-1, 6)))
    totals = [r.total_power for r in rows]
    xi_ok = all(r.feasible for r in rows) and all(
        a > b for a, b in zip(totals, totals[1:]))

    # (c) relay-placement sweep has an interior minimum past the midpoint:
    # moving the relay from the midpoint toward the destination by any grid
    # step delta costs strictly less power than moving it toward the source.
    # The required SNRs do not depend on d1 (hop 1's bit for bit, since the
    # power solves run in SNR units; hop 2's up to the rounding of
    # kappa1*gain1 in its burstiness), so total power is
    # snr1*(d1/50)^3 + snr2*(d2/50)^3 and this holds iff snr2 > snr1; the
    # grid argmin alone lands past 50 m only for snr2/snr1 > 1.2214.
    placement = dataclasses.replace(base, delay_bound=0.05)  # 50 ms
    grid = np.linspace(10.0, 90.0, 17)
    rows = cli.sweep(placement, "d1", list(grid))
    totals = np.array([r.total_power for r in rows])
    argmin = int(np.argmin(totals))
    d_star = rows[argmin].axis_value
    mid = int(np.flatnonzero(grid == 50.0)[0])
    placement_ok = (all(r.feasible for r in rows)
                    and 0 < argmin < len(rows) - 1
                    and all(totals[mid + k] < totals[mid - k]
                            for k in range(1, mid + 1)))

    ok = asymmetry_ok and bound_ok and xi_ok and placement_ok
    assert _report(5, "trend reproduction", ok,
                   f"asymmetry {asymmetry_ok}, delay-bound sweep {bound_ok}, "
                   f"target sweep {xi_ok}, placement argmin {d_star:.0f} m "
                   f"interior/past-midpoint {placement_ok}")


# ---------------------------------------------------------------------------
# 6. simulator validation
# ---------------------------------------------------------------------------

def test_criterion_6_simulator_validation():
    scenario = rq.Scenario(traffic_load=LOAD_100KBPS, delay_bound=50.0,
                           violation_prob=1e-2, bt_product=200.0)
    allocation = rq.allocate(scenario)
    u = allocation.delay_rate
    cfg = rq.SimConfig(n_frames=10_000_000, warmup_frames=100_000, seed=1)
    stats = rq.simulate_tandem(scenario, allocation, cfg)

    empirical, halfwidth = rq.empirical_ccdf(stats.e2e_delays, scenario.delay_bound)
    ratio = empirical / scenario.violation_prob
    ratio_ok = 1.0 / 3.0 <= ratio <= 3.0

    hist1, hist2 = stats.hop1_histogram, stats.hop2_histogram
    slope1 = rq.tail_slope(hist1, *rq.suggest_fit_window(hist1))
    slope2 = rq.tail_slope(hist2, *rq.suggest_fit_window(hist2))
    slope1_ok = abs(slope1 / u - 1.0) <= 0.10
    slope2_ok = abs(slope2 / u - 1.0) <= 0.10

    ok = ratio_ok and slope1_ok and slope2_ok
    assert _report(
        6, "simulator validation", ok,
        f"empirical/target ratio {ratio:.3f} (need [1/3, 3]) {ratio_ok}; "
        f"hop-1 slope {slope1:.4f} = {slope1 / u:.3f}u (need +/-10%) {slope1_ok}; "
        f"hop-2 slope {slope2:.4f} = {slope2 / u:.3f}u (need +/-10%) {slope2_ok}")


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    profile = ["--delay_bound", "0.1", "--violation_prob", "1e-2",
               "--transmission_time", "2e-3"]

    def rendered(command, name):
        out = tmp_path / name
        assert cli.main([*command, *profile, "--out", str(out)]) == 0
        return out.read_bytes()

    sweep = ["sweep", "--axis", "d1", "--grid", "20:80:7"]
    sweep_ok = rendered(sweep, "sweep_a.csv") == rendered(sweep, "sweep_b.csv")

    validate = ["validate", "--frames", "200000", "--warmup", "5000", "--seed", "17"]
    report_ok = rendered(validate, "report_a.csv") == rendered(validate, "report_b.csv")

    ok = sweep_ok and report_ok
    assert _report(7, "determinism", ok,
                   f"sweep tables identical {sweep_ok}, "
                   f"validation reports identical {report_ok}")
