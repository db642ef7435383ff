"""relayqos benchmark: two closed-loop workloads, timed and traced.

Usage (from any directory)::

    python3 perfbench/run.py --workload {solve-grid,validate-sim}
                             --seed N --seconds S --trace {0,1} [--smoke]

The program measured is the ``src/relayqos`` of the checkout that holds this
directory; it is imported from there and never from an installed copy.  One
caller issues each operation and waits for its reply; the only other process
is the one child it is waiting on (a fresh interpreter for the import
probes).  ``relayqos.cli.sweep`` runs its own pool of up to 8 threads; that
pool belongs to the program, not to the load.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends three quarters of the time untraced and a quarter traced
(which keeps the spans of ``solve-grid`` to a few hundred MB), then runs the
per-layer probes, and prints the per-layer metrics.  ``--smoke`` shrinks every
input so a run takes seconds.  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 whenever a result is printed; without a
``src/relayqos`` to measure it is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PYTHON = sys.executable

# Child processes and this one use one numeric-library thread (at most nproc).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 60
RESIDUAL_BOUND = 1e-8  # acceptance criterion 4

# The metric names and units live in BENCHMARK.json alone.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Spans of these requests give the exact counts: the first traced pass over
# the workload's inputs and the in-process CLI coverage pass.
COVERAGE_REQUEST = -1
COUNTED_REQUESTS = frozenset({COVERAGE_REQUEST, 1})

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); "
                  "import relayqos, relayqos.cli; print(repr(time.perf_counter() - t))")

# acceptance-criterion-6 operating point: 138.63 nats/frame, D = 50 frames
CRITERION6_PROFILE = {"traffic_load": 1e5, "delay_bound": 0.1,
                      "violation_prob": 1e-2, "transmission_time": 2e-3}
D1_GRID = tuple(10.0 + 5.0 * i for i in range(17))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def summarize(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            out["tail_pct"] = pct
            out["tail"] = ordered[math.ceil(pct / 100.0 * n) - 1]
            break
    return out


def describe(name: str, samples, unit: str) -> str:
    s = summarize(samples)
    tail = f"  p{s['tail_pct']:g} {s['tail']:.6g}" if "tail" in s else ""
    return f"{name}: p50 {s['p50']:.6g}{tail} {unit}  n={s['n']}"


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with the checkout's ``src`` first on its path."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([PYTHON, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def measure_setup(repeats: int) -> list[float]:
    """Fresh-interpreter times to ``import relayqos, relayqos.cli``."""
    values = []
    for _ in range(repeats):
        res = run_child("-c", IMPORT_SNIPPET)
        if res.returncode != 0:
            raise RuntimeError(f"import relayqos failed:\n{res.stderr}")
        values.append(float(res.stdout))
    return values


class SetupSampler:
    """``setup_s`` samples spread evenly over the timed loop.

    Import time drifts with the load of the machine over seconds, so samples
    taken between operations across the whole loop give a steadier median
    than a burst before it.
    """

    def __init__(self, count: int, seconds: float):
        self.count = count
        self.interval = seconds / count
        self.values: list[float] = []
        measure_setup(1)  # writes the bytecode caches, which users pay once
        self.next_due = time.perf_counter()

    def tick(self) -> None:
        if len(self.values) < self.count and time.perf_counter() >= self.next_due:
            self.values += measure_setup(1)
            self.next_due += self.interval

    def median(self) -> float:
        self.values += measure_setup(self.count - len(self.values))
        return statistics.median(self.values)


# ---------------------------------------------------------------------------
# output checks (invariants only: no golden powers, violations or slopes)
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def run(self, fn, *args):
        """Call fn, counting an unexpected exception as a failed operation."""
        try:
            return fn(*args)
        except Exception as exc:  # the load must go on; the failure is counted
            self.record([f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}"])
            return None


def _number(text: str) -> float:
    """Parse a CSV value; ``validate`` writes some as ``np.float64(...)`` reprs."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _check_residuals(residuals: dict) -> list[str]:
    return [f"residual {k} = {v!r} > {RESIDUAL_BOUND}"
            for k, v in residuals.items() if not v <= RESIDUAL_BOUND]


ALLOCATE_ROWS = ("kappa1", "kappa2", "total_power", "kappa1_db", "kappa2_db",
                 "total_power_db", "theta1", "theta2", "delay_rate",
                 "residual_load", "residual_rate_match", "residual_qos_rate",
                 "residual_bandwidth_match")
VALIDATE_ROWS = ALLOCATE_ROWS[:2] + ALLOCATE_ROWS[6:] + (
    "frames", "seed", "analytic_violation", "empirical_violation",
    "empirical_halfwidth", "hop1_fitted_slope", "hop2_fitted_slope")
SWEEP_COLUMNS = ("axis", "axis_value", "feasible", "kappa1", "kappa2", "total_power")


def _metric_table(res: subprocess.CompletedProcess, required) -> tuple[dict, list[str]]:
    if res.returncode != 0:
        return {}, [f"exit code {res.returncode}: {res.stderr.strip()[-200:]}"]
    rows = list(csv.reader(io.StringIO(res.stdout)))
    if not rows or rows[0] != ["metric", "value"]:
        return {}, ["no metric,value header"]
    table = {row[0]: row[1] for row in rows[1:] if len(row) == 2}
    problems = [f"missing row {k}" for k in required if k not in table]
    if problems:
        return table, problems
    residuals = {k: _number(v) for k, v in table.items() if k.startswith("residual_")}
    problems += _check_residuals(residuals)
    problems += [f"{k} = {table[k]}" for k in ("kappa1", "kappa2")
                 if not _finite_positive(_number(table[k]))]
    return table, problems


def check_allocate_csv(res: subprocess.CompletedProcess) -> list[str]:
    return _metric_table(res, ALLOCATE_ROWS)[1]


def check_validate_csv(frames: int, seed: int):
    def check(res: subprocess.CompletedProcess) -> list[str]:
        table, problems = _metric_table(res, VALIDATE_ROWS)
        if problems:
            return problems
        if int(table["frames"]) != frames or int(table["seed"]) != seed:
            problems.append("frames or seed differ from the request")
        if not 0.0 <= _number(table["empirical_violation"]) <= 1.0:
            problems.append(f"empirical_violation {table['empirical_violation']}")
        return problems
    return check


def check_ccdf_csv(res: subprocess.CompletedProcess) -> list[str]:
    if res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-200:]}"]
    rows = list(csv.reader(io.StringIO(res.stdout)))
    if not rows or rows[0] != ["delay_frames", "single_hop_ccdf", "two_hop_ccdf"]:
        return ["bad ccdf header"]
    values = [tuple(map(float, row)) for row in rows[1:]]
    problems = [] if len(values) == 101 else [f"{len(values)} ccdf rows, expected 101"]
    for (x0, hop0, _), (x1, hop1, _) in zip(values, values[1:]):
        if not (x1 > x0 and hop1 <= hop0):
            problems.append(f"single-hop CCDF not non-increasing at x={x1}")
    for x, hop, e2e in values:
        # P(D1 + D2 > x) >= P(D1 > x) for any non-negative hop-2 delay
        if not (0.0 <= hop <= 1.0 and 0.0 <= e2e <= 1.0 and e2e >= hop):
            problems.append(f"CCDF out of order or range at x={x}")
    return problems[:3]


def check_sweep_csv(res: subprocess.CompletedProcess) -> list[str]:
    if res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-200:]}"]
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    if not rows or any(c not in rows[0] for c in SWEEP_COLUMNS):
        return ["sweep CSV lacks the expected columns"]
    if [float(r["axis_value"]) for r in rows] != list(D1_GRID):
        return ["sweep rows do not match the grid"]
    return [f"feasible row at d1={r['axis_value']} has bad powers" for r in rows
            if r["feasible"] == "True"
            and not (_finite_positive(float(r["kappa1"]))
                     and _finite_positive(float(r["kappa2"])))]


def check_report(report, frames: int) -> list[str]:
    problems = _check_residuals(report.allocation.residuals)
    if report.sim_config.n_frames != frames:
        problems.append("simulated horizon differs from the request")
    if not 0.0 <= report.empirical_violation <= 1.0:
        problems.append(f"empirical violation {report.empirical_violation!r}")
    if not 0.0 < report.analytic_violation < 1.0:
        problems.append(f"analytic violation {report.analytic_violation!r}")
    return problems


def check_simulator(profile, frames: int, warmup: int, seed: int) -> list[str]:
    """Same-seed runs are bit-identical; e2e == hop1 + hop2 + offset; delays >= 0."""
    import numpy as np
    import relayqos
    from relayqos import cli

    scenario = cli.to_scenario(profile)
    allocation = relayqos.allocate(scenario)
    cfg = relayqos.SimConfig(n_frames=frames, warmup_frames=warmup, seed=seed)
    offset = 1 if cfg.relay_forwarding == "store-and-forward" else 0
    problems, digests = [], []
    for _ in range(2):
        stats = relayqos.simulate_tandem(scenario, allocation, cfg)
        arrays = (stats.hop1_delays, stats.hop2_delays, stats.e2e_delays)
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(a)
        digests.append(digest.hexdigest())
        if len(digests) == 1:
            if not np.array_equal(stats.e2e_delays,
                                  stats.hop1_delays + stats.hop2_delays + offset):
                problems.append("e2e != hop1 + hop2 + offset")
            if min(int(a.min()) for a in arrays) < 0:
                problems.append("negative delay")
        del stats, arrays
    if digests[0] != digests[1]:
        problems.append("same-seed simulate_tandem runs differ")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Context:
    seed: int
    smoke: bool
    tally: Tally
    setup: SetupSampler | None = None

    def between_ops(self) -> None:
        if self.setup is not None:
            self.setup.tick()


def cli_commands(seed: int, smoke: bool):
    """The four seeded ``relayqos`` commands of the coverage pass, with their checks.

    Every command is feasible: allocate and ccdf exit 0 over the whole load
    and violation range drawn here, and sweep reports infeasible points in
    its rows.  Returns (commands, validate profile fields, validate frames,
    validate seed).
    """
    rng = random.Random(seed)
    d1 = rng.uniform(30.0, 70.0)
    profile = ["--traffic_load", repr(_log_uniform(rng, 5e4, 2e5)),
               "--violation_prob", repr(_log_uniform(rng, 1e-6, 1e-3)),
               "--d1", repr(d1), "--d2", repr(100.0 - d1)]
    val_profile = dict(CRITERION6_PROFILE, traffic_load=rng.uniform(7e4, 1.3e5))
    frames, sim_seed = (50_000 if smoke else 200_000), rng.randrange(2**31)
    val_args = [a for k, v in val_profile.items() for a in (f"--{k}", repr(v))]
    commands = {
        "allocate": (["allocate", *profile], check_allocate_csv),
        "ccdf": (["ccdf", *profile], check_ccdf_csv),
        "sweep": (["sweep", "--axis", "d1", "--grid", "10:90:17", *profile],
                  check_sweep_csv),
        "validate": (["validate", *val_args, "--frames", str(frames),
                      "--warmup", "5000", "--seed", str(sim_seed)],
                     check_validate_csv(frames, sim_seed)),
    }
    return commands, val_profile, frames, sim_seed


class SolveGrid:
    """A seeded grid of load x d1 x violation-probability scenarios, in one process.

    Every scenario keeps the profile's default delay bound, D = 0.25 s.

    Each row of 17 relay positions goes through ``cli.sweep``; every point is
    also solved by a direct ``allocate`` call, which is the timed operation;
    throughput is scenarios per second through ``cli.sweep``, per pass.
    """

    def __init__(self, ctx: Context):
        from relayqos import cli

        self.ctx = ctx
        rng = random.Random(ctx.seed)
        n_rows = 4 if ctx.smoke else 200
        # Latin-hypercube rows: every seed covers the load and violation
        # ranges evenly, so the mix of easy, hard and infeasible points (and
        # with it the cost of a pass) barely depends on the seed.
        load_strata = rng.sample(range(n_rows), n_rows)
        xi_strata = rng.sample(range(n_rows), n_rows)
        self.rows = []
        for i in range(n_rows):
            u_load = (load_strata[i] + rng.random()) / n_rows
            u_xi = (xi_strata[i] + rng.random()) / n_rows
            profile = cli.RadioProfile(
                traffic_load=1e4 * (2e6 / 1e4) ** u_load,
                violation_prob=1e-9 * (1e-1 / 1e-9) ** u_xi)
            scenarios = [cli.to_scenario(dataclasses.replace(
                profile, d1=d1, d2=profile.total_distance - d1)) for d1 in D1_GRID]
            self.rows.append((profile, scenarios))
        self.infeasible = None
        _, val_profile, frames, sim_seed = cli_commands(ctx.seed, ctx.smoke)
        self.sim_probe = (val_profile, frames, 5000, sim_seed)  # coverage_pass's validate
        self._pass(self.rows[:5], [], [])  # warm up before timing

    def _solve(self, swept, scenario, latencies_ns) -> bool:
        import relayqos

        start = time.perf_counter_ns()
        try:
            allocation = relayqos.allocate(scenario)
        except relayqos.InfeasibleError:
            allocation = None
        latencies_ns.append(time.perf_counter_ns() - start)
        if allocation is None:
            self.ctx.tally.record([] if not swept.feasible else
                                  ["sweep row feasible, direct allocate infeasible"])
            return False
        problems = _check_residuals(allocation.residuals)
        if not (swept.feasible and swept.kappa1 == allocation.kappa1
                and swept.kappa2 == allocation.kappa2):
            problems.append("sweep row differs from the direct allocate")
        self.ctx.tally.record(problems)
        return True

    def _pass(self, rows, sweep_s, latencies_ns) -> int:
        from relayqos import cli

        infeasible = 0
        for profile, scenarios in rows:
            start = time.perf_counter()
            swept = self.ctx.tally.run(cli.sweep, profile, "d1", D1_GRID)
            sweep_s.append(time.perf_counter() - start)
            if swept is None:
                continue
            for row, scenario in zip(swept, scenarios):
                feasible = self.ctx.tally.run(self._solve, row, scenario, latencies_ns)
                infeasible += feasible is False
            self.ctx.between_ops()
        return infeasible

    def loop(self, seconds: float, tracer=None) -> dict:
        latencies_ns, rates = [], []
        deadline = time.perf_counter() + seconds
        while not rates or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.request = len(rates) + 1
            sweep_s = []
            infeasible = self._pass(self.rows, sweep_s, latencies_ns)
            rates.append(len(self.rows) * len(D1_GRID) / sum(sweep_s))
            if self.infeasible is None:
                self.infeasible = infeasible
            self.ctx.tally.record([] if infeasible == self.infeasible else
                                  [f"infeasible count {infeasible} != {self.infeasible}"])
        return {"op_p50_ms": statistics.median(latencies_ns) / 1e6,
                "ops_per_s": statistics.median(rates), "rates": rates, "solve_ns": latencies_ns,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    def details(self, timings) -> list[str]:
        n = len(self.rows) * len(D1_GRID)
        return [describe("solve_per_s", timings["rates"], "1/s")
                + f" (cli.sweep rows, per pass of {n} scenarios)",
                describe("solve_us", [t / 1e3 for t in timings["solve_ns"]], "us"),
                f"infeasible scenarios per pass: {self.infeasible} of {n}"]

    def final_checks(self) -> None:
        pass


class ValidateSim:
    """In-process ``cli.validate`` at the criterion-6 point over a long horizon."""

    def __init__(self, ctx: Context):
        from relayqos import cli

        self.ctx = ctx
        self.profile = cli.RadioProfile(**CRITERION6_PROFILE)
        self.frames = 100_000 if ctx.smoke else 3_000_000
        self.warmup = 10_000
        self.seed0 = random.Random(ctx.seed).randrange(2**31)
        self.sim_probe = (CRITERION6_PROFILE, self.frames, self.warmup, self.seed0)

    def loop(self, seconds: float, tracer=None) -> dict:
        import relayqos
        from relayqos import cli

        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.request = len(times) + 1
            cfg = relayqos.SimConfig(n_frames=self.frames, warmup_frames=self.warmup,
                                     seed=self.seed0 + len(times))
            start = time.perf_counter()
            report = self.ctx.tally.run(cli.validate, self.profile, cfg)
            times.append(time.perf_counter() - start)
            if report is not None:
                self.ctx.tally.record(check_report(report, self.frames))
            self.ctx.between_ops()
        rates = [self.frames / t for t in times]
        return {"op_p50_ms": statistics.median(times) * 1e3, "ops_per_s": statistics.median(rates),
                "times": times, "rates": rates,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    def details(self, timings) -> list[str]:
        return [describe("sim_frames_per_s", timings["rates"], "1/s")
                + f" (frames through cli.validate, {self.frames} per call)",
                describe("validate_s", timings["times"], "s")]

    def final_checks(self) -> None:
        self.ctx.tally.record(self.ctx.tally.run(
            check_simulator, self.profile, self.frames, self.warmup, self.seed0) or [])


WORKLOADS = {"solve-grid": SolveGrid, "validate-sim": ValidateSim}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def coverage_pass(ctx: Context, tracer) -> None:
    """Seeded ``allocate``, ``ccdf``, ``sweep`` and ``validate`` through ``cli.main``.

    Gives each workload spans for the layers it does not call itself
    (``cli.main``, ``delaymodel``, and ``qsim`` on ``solve-grid``).
    """
    from relayqos import cli

    tracer.request = COVERAGE_REQUEST
    for cli_args, check in cli_commands(ctx.seed, ctx.smoke)[0].values():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(cli_args)
        ctx.tally.record(check(subprocess.CompletedProcess(cli_args, code, out.getvalue(), "")))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def span_table(tree) -> list[str]:
    """Calls, total time and total self time per span name."""
    rows = {}
    for span in tree.spans:
        calls, total, own = rows.get(span.name, (0, 0, 0))
        rows[span.name] = (calls + 1, total + span.duration_ns, own + tree.self_ns(span))
    return [f"span {name}: {calls} calls, {total / 1e6:.6g} ms total, "
            f"{own / 1e6:.6g} ms self"
            for name, (calls, total, own) in sorted(rows.items())]


def span_metrics(tree) -> dict[str, float]:
    """Per-layer metrics derived from the traced run's spans."""
    solves = tree.named("allocator.allocate", COUNTED_REQUESTS)
    calls = {"effcap.effective_capacity_rayleigh": 0,
             "effcap.effective_bandwidth_service_rayleigh": 0}
    for solve in solves:
        for span in tree.descendants(solve):
            if span.name in calls:
                calls[span.name] += 1
    capacity = calls["effcap.effective_capacity_rayleigh"] / len(solves)
    bandwidth = calls["effcap.effective_bandwidth_service_rayleigh"] / len(solves)

    def self_median(name, scale):
        return _median(tree.layer_self_ns(s) / scale for s in tree.named(name))

    sims = tree.named("qsim.simulate_tandem")
    counted_sims = [s for s in sims if s.request in COUNTED_REQUESTS]
    fits = []
    for validate in tree.named("cli.validate"):
        fits.append(sum(c.duration_ns for c in tree.children.get(validate.id, ())
                        if c.name in ("qsim.suggest_fit_window", "qsim.tail_slope")))
    return {
        "effcap.capacity_calls_per_solve": capacity,
        "effcap.bandwidth_calls_per_solve": bandwidth,
        "allocator.evals_per_solve": capacity + bandwidth,
        "allocator.infeasible_count": sum(s.error == "InfeasibleError" for s in solves),
        "allocator.kappa1_us": self_median("allocator.solve_kappa1", 1e3),
        "allocator.theta2_us": self_median("allocator.solve_theta2", 1e3),
        "allocator.kappa2_us": self_median("allocator.solve_kappa2", 1e3),
        "cli.self_ms": self_median("cli.main", 1e6),
        "cli.sweep_self_ms": self_median("cli.sweep", 1e6),
        "qsim.simulate_s": self_median("qsim.simulate_tandem", 1e9),
        "qsim.ns_per_frame": _median(tree.layer_self_ns(s) / s.attrs["frames"]
                                     for s in sims),
        "qsim.fit_s": _median(f / 1e9 for f in fits),
        "qsim.ccdf_s": _median(s.duration_ns / 1e9
                               for s in tree.named("qsim.empirical_ccdf")),
        "qsim.samples": sum(s.attrs["samples"] for s in counted_sims),
        "qsim.max_e2e_delay": max((s.attrs["max_e2e"] for s in counted_sims), default=0),
    }


def import_profile(repeats: int) -> dict[str, float]:
    import probes

    runs = []
    for _ in range(repeats):
        res = run_child("-X", "importtime", "-c", "import relayqos, relayqos.cli")
        if res.returncode != 0:
            raise RuntimeError(f"import relayqos failed:\n{res.stderr}")
        runs.append(probes.parse_importtime(res.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def traced_run(ctx: Context, workload, seconds: float) -> tuple[dict, list[str]]:
    import probes
    from relayqos import cli
    from spans import SpanTree, Tracer

    untraced = workload.loop(seconds * 3 / 4)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.loop(seconds / 4, tracer)
        coverage_pass(ctx, tracer)
    finally:
        tracer.uninstall()
    workload.final_checks()

    rng = random.Random(ctx.seed)
    metrics = probes.layer_microbench(rng, 0.02 if ctx.smoke else 0.3)
    metrics.update(import_profile(1 if ctx.smoke else 3))
    profile, frames, warmup, sim_seed = workload.sim_probe
    metrics.update(probes.simulator_memory(cli.RadioProfile(**profile), frames, warmup,
                                           sim_seed))
    tree = SpanTree(tracer.spans)
    metrics.update(span_metrics(tree))
    base, with_trace = untraced["op_p50_ms"], traced["op_p50_ms"]
    metrics["trace.overhead_pct"] = (with_trace / base - 1.0) * 100.0
    lines = span_table(tree) + [f"op p50 untraced {base:.6g} ms, traced "
                                f"{with_trace:.6g} ms ({len(tracer.spans)} spans)"]
    return metrics, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(args) -> dict:
    ctx = Context(args.seed, args.smoke, Tally())
    workload = WORKLOADS[args.workload](ctx)
    if args.trace:
        values, lines = traced_run(ctx, workload, args.seconds)
        units = PER_LAYER
    else:
        ctx.setup = SetupSampler(2 if args.smoke else max(2, round(args.seconds / 2.5)),
                                 args.seconds)
        timings = workload.loop(args.seconds)
        workload.final_checks()
        values = {"setup_s": ctx.setup.median(),
                  "op_p50_ms": timings["op_p50_ms"],
                  "ops_per_s": timings["ops_per_s"],
                  "peak_rss_mb": timings["rss_kb"] * 1024 / 1e6}
        lines = workload.details(timings)
        units = END_TO_END
    tally = ctx.tally
    lines.append(f"failed_share: {tally.failed / max(tally.attempted, 1):.6g} "
                 f"({tally.failed} of {tally.attempted})")
    lines += [f"FAILED CHECK: {p}" for p in tally.problems[:20]]
    lines += [f"{name}: {values[name]:.6g} {unit}" for name, unit in units.items()]
    print("\n".join(lines))
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the harness itself")
    args = parser.parse_args(argv)
    if not (SRC / "relayqos" / "__init__.py").is_file():
        print(f"perfbench: no relayqos sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
