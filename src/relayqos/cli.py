"""Command-line front end: scenario configuration, unit conversions, sweeps
and solver-vs-simulator validation.

Physical quantities enter in SI units (bits/s, seconds, meters, Hz) through a
``RadioProfile`` and are converted to the per-frame units the solver uses.
Subcommands:

* ``allocate`` - solve one scenario and print powers, exponents, residuals.
* ``sweep``    - re-solve along one axis and emit a CSV table.
* ``validate`` - compare the analytic delay law against a tandem-queue
  simulation run.
* ``ccdf``     - dump the analytic delay CCDF curve.

Each command returns its CSV rows, header first; ``main`` writes them through
one ``csv.writer`` to stdout or ``--out`` once the command has succeeded.
Configuration comes from an optional JSON file (keys = RadioProfile field
names) with every value overridable by a command-line flag of the same name.
Exit codes: 0 success, 1 infeasible scenario, 2 invalid configuration,
3 simulation instability.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass

from ._numpy import np
from .allocator import Allocation, InfeasibleError, Scenario, allocate
from .delaymodel import (
    HopDelayLaw,
    invert_equal_rate_ccdf,
    single_hop_ccdf,
    two_hop_ccdf,
)
from .qsim import (
    DelayHistogram,
    SimConfig,
    StabilityError,
    empirical_ccdf,
    simulate_tandem,
    suggest_fit_window,
    tail_slope,
)

__all__ = [
    "RadioProfile",
    "ConfigError",
    "SweepRow",
    "ValidationReport",
    "bits_per_second_to_nats_per_frame",
    "to_scenario",
    "sweep",
    "validate",
    "ccdf_table",
    "main",
]

SWEEP_AXES = ("traffic_load", "delay_bound", "violation_prob", "d1")

_LN2 = math.log(2.0)


class ConfigError(ValueError):
    """Invalid profile or command-line configuration."""


@dataclass(frozen=True)
class RadioProfile:
    """Physical-layer scenario description in SI units.

    ``transmission_time`` is the per-link transmission time T in seconds
    inside each frame, at most frame_duration; unset, T = frame_duration / 2
    (both links active at once on separate bands).
    """

    frame_duration: float = 2e-3
    bandwidth: float = 1e5
    path_loss_exponent: float = 3.0
    reference_distance: float = 50.0
    d1: float = 50.0
    d2: float = 50.0
    traffic_load: float = 1e5
    delay_bound: float = 0.25
    violation_prob: float = 1e-6
    transmission_time: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is None and name == "transmission_time":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if (name not in ("path_loss_exponent", "violation_prob")
                    and not 0.0 < value < math.inf):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if not 2.0 <= self.path_loss_exponent <= 6.0:
            raise ConfigError(
                f"path_loss_exponent must lie in [2, 6], got {self.path_loss_exponent!r}")
        if not 0.0 < self.violation_prob < 1.0:
            raise ConfigError(
                f"violation_prob must lie in (0, 1), got {self.violation_prob!r}")
        if transmission_time(self) > self.frame_duration:
            raise ConfigError(
                f"transmission_time {self.transmission_time!r} s exceeds the frame "
                f"({self.frame_duration!r} s)")

    @property
    def total_distance(self) -> float:
        return self.d1 + self.d2


def bits_per_second_to_nats_per_frame(rate: float, frame_duration: float) -> float:
    """Convert a bit rate to nats per frame of the given duration."""
    return rate * _LN2 * frame_duration


def _in_float_range(value: float, what: str) -> float:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{what} is outside the floating-point range, got {value!r}")
    return value


def _mean_gain(name: str, profile: RadioProfile) -> float:
    try:
        gain = (getattr(profile, name) / profile.reference_distance) ** (
            -profile.path_loss_exponent)
    except (OverflowError, ZeroDivisionError):
        gain = math.inf
    return _in_float_range(gain, f"the path-loss gain at {name}")


def transmission_time(profile: RadioProfile) -> float:
    """Per-link transmission time T in seconds: the profile's, or half a frame."""
    if profile.transmission_time is not None:
        return profile.transmission_time
    return profile.frame_duration / 2.0


def to_scenario(profile: RadioProfile) -> Scenario:
    """Convert SI units to the per-frame Scenario the solver consumes.

    The delay bound is rounded to the nearest whole frame (half up);
    sub-frame bounds are rejected.
    """
    ratio = _in_float_range(profile.delay_bound / profile.frame_duration,
                            "the frame count delay_bound / frame_duration")
    frames = int(math.floor(ratio + 0.5))
    if frames < 1:
        raise ConfigError(
            f"delay_bound {profile.delay_bound!r} s is below one frame "
            f"({profile.frame_duration!r} s)")
    return Scenario(
        traffic_load=_in_float_range(bits_per_second_to_nats_per_frame(
            profile.traffic_load, profile.frame_duration), "the traffic_load per frame"),
        delay_bound=float(frames),
        violation_prob=profile.violation_prob,
        hop1_mean_gain=_mean_gain("d1", profile),
        hop2_mean_gain=_mean_gain("d2", profile),
        bt_product=_in_float_range(profile.bandwidth * transmission_time(profile),
                                   "the bandwidth-time product"),
    )


def _to_db(power: float) -> float:
    return 10.0 * math.log10(power)


def _write_rows(stream, rows) -> None:
    """The one CSV writer behind every command's output."""
    csv.writer(stream, lineterminator="\n").writerows(rows)


def _power_columns(allocation: Allocation) -> dict[str, float]:
    """Powers (linear and dB), exponents and delay rate, in output order."""
    return {
        "kappa1": allocation.kappa1,
        "kappa2": allocation.kappa2,
        "total_power": allocation.total_power,
        "kappa1_db": _to_db(allocation.kappa1),
        "kappa2_db": _to_db(allocation.kappa2),
        "total_power_db": _to_db(allocation.total_power),
        "theta1": allocation.theta1,
        "theta2": allocation.theta2,
        "delay_rate": allocation.delay_rate,
    }


def _allocation_rows(allocation: Allocation) -> list[tuple[str, object]]:
    """The (metric, value) rows ``allocate`` prints and ``validate`` repeats."""
    return [*_power_columns(allocation).items(),
            *((f"residual_{name}", v) for name, v in allocation.residuals.items())]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    axis: str
    axis_value: float
    feasible: bool
    kappa1: float = math.nan
    kappa2: float = math.nan
    total_power: float = math.nan
    kappa1_db: float = math.nan
    kappa2_db: float = math.nan
    total_power_db: float = math.nan
    theta1: float = math.nan
    theta2: float = math.nan
    delay_rate: float = math.nan
    error: str = ""


SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def _profile_at(profile: RadioProfile, axis: str, value: float) -> RadioProfile:
    if axis == "d1":
        # the relay moves along the source-destination line
        return dataclasses.replace(profile, d1=value,
                                   d2=profile.total_distance - value)
    return dataclasses.replace(profile, **{axis: value})


def _sweep_point(profile: RadioProfile, axis: str, value: float) -> SweepRow:
    try:
        allocation = allocate(to_scenario(_profile_at(profile, axis, value)))
    except (InfeasibleError, ValueError, OverflowError) as exc:
        return SweepRow(axis=axis, axis_value=value, feasible=False, error=str(exc))
    return SweepRow(axis=axis, axis_value=value, feasible=True,
                    **_power_columns(allocation))


def sweep(profile: RadioProfile, axis: str, grid) -> list[SweepRow]:
    """Re-solve the allocation at each grid point of one axis.

    Rows come back in ascending axis order.  Infeasible points are reported
    in their row, never raised.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = sorted(float(v) for v in grid)
    if not values:
        raise ConfigError("sweep grid is empty")
    return [_sweep_point(profile, axis, v) for v in values]


def _sweep_table(rows) -> list[tuple]:
    return [SWEEP_COLUMNS, *(dataclasses.astuple(row) for row in rows)]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Analytic-vs-simulated comparison for one scenario."""

    scenario: Scenario
    allocation: Allocation
    sim_config: SimConfig
    analytic_violation: float
    empirical_violation: float
    empirical_halfwidth: float
    hop1_fitted_slope: float
    hop2_fitted_slope: float
    hop1_fit_window: tuple[int, int] | None
    hop2_fit_window: tuple[int, int] | None
    notes: str = ""

    @property
    def violation_ratio(self) -> float:
        if self.analytic_violation == 0.0:
            return math.nan
        return self.empirical_violation / self.analytic_violation

    def rows(self) -> list[tuple[str, object]]:
        """The report as (metric, value) rows, header first."""
        return [
            ("metric", "value"),
            ("traffic_load_nats_per_frame", self.scenario.traffic_load),
            ("delay_bound_frames", self.scenario.delay_bound),
            ("violation_prob_target", self.scenario.violation_prob),
            ("bt_product", self.scenario.bt_product),
            *_allocation_rows(self.allocation),
            ("frames", self.sim_config.n_frames),
            ("warmup", self.sim_config.warmup_frames),
            ("seed", self.sim_config.seed),
            ("forwarding", self.sim_config.relay_forwarding),
            ("analytic_violation", self.analytic_violation),
            ("empirical_violation", self.empirical_violation),
            ("empirical_halfwidth", self.empirical_halfwidth),
            ("violation_ratio", self.violation_ratio),
            ("hop1_fitted_slope", self.hop1_fitted_slope),
            ("hop2_fitted_slope", self.hop2_fitted_slope),
            ("hop1_slope_over_u", self.hop1_fitted_slope / self.allocation.delay_rate),
            ("hop2_slope_over_u", self.hop2_fitted_slope / self.allocation.delay_rate),
            ("hop1_fit_window", str(self.hop1_fit_window)),
            ("hop2_fit_window", str(self.hop2_fit_window)),
            ("notes", self.notes),
        ]


def _fit_hop_slope(hist: DelayHistogram) -> tuple[float, tuple[int, int] | None, str]:
    try:
        window = suggest_fit_window(hist)
        return tail_slope(hist, *window), window, ""
    except ValueError as exc:  # InsufficientTailData among them
        return math.nan, None, str(exc)


def validate(profile: RadioProfile, sim_cfg: SimConfig) -> ValidationReport:
    """Solve, simulate, and compare delay tails hop by hop and end to end."""
    scenario = to_scenario(profile)
    allocation = allocate(scenario)
    # the fits read the hop histograms the scan counts, so only e2e is kept
    stats = simulate_tandem(scenario, allocation, sim_cfg, hop_arrays=False)

    law = HopDelayLaw(allocation.delay_rate)
    analytic = two_hop_ccdf(law, law, scenario.delay_bound)
    empirical, halfwidth = empirical_ccdf(stats.e2e_delays, scenario.delay_bound)
    ccdf_note = ""
    if math.isnan(halfwidth):
        samples = stats.e2e_delays.size
        if empirical in (0.0, 1.0):
            cause = (f"{'no' if empirical == 0.0 else 'every'} tagged bit exceeded "
                     f"D = {scenario.delay_bound:g} frames in {samples} "
                     f"sample{'' if samples == 1 else 's'}")
        else:  # with 0 < p < 1 only too few samples leave it undefined
            cause = f"only {samples} samples, too few for batch means"
        ccdf_note = f"{cause}, so the batch-means half-width is undefined"
    slope1, window1, note1 = _fit_hop_slope(stats.hop1_histogram)
    slope2, window2, note2 = _fit_hop_slope(stats.hop2_histogram)
    notes = "; ".join(n for n in (ccdf_note, note1, note2) if n)
    return ValidationReport(
        scenario=scenario, allocation=allocation, sim_config=sim_cfg,
        analytic_violation=analytic, empirical_violation=empirical,
        empirical_halfwidth=halfwidth, hop1_fitted_slope=slope1,
        hop2_fitted_slope=slope2, hop1_fit_window=window1,
        hop2_fit_window=window2, notes=notes)


# ---------------------------------------------------------------------------
# ccdf
# ---------------------------------------------------------------------------

def ccdf_table(profile: RadioProfile, xs) -> list[tuple[float, float, float]]:
    """Analytic per-hop and end-to-end CCDF at the given delays (frames)."""
    scenario = to_scenario(profile)
    law = invert_equal_rate_ccdf(scenario.delay_bound, scenario.violation_prob)
    return [(float(x), single_hop_ccdf(law, float(x)), two_hop_ccdf(law, law, float(x)))
            for x in xs]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) to the bit, without loading numpy."""
    grid = [0.0] * n  # a grid that cannot fit in memory fails here, at once
    div = max(n - 1, 1)
    delta = hi - lo
    step = delta / div
    for i in range(n):
        # numpy's own order of operations; a step that underflows to zero
        # scales i/div instead
        grid[i] = (i * step if step else i / div * delta) + lo
    if n > 1:
        grid[-1] = hi
    return grid


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ConfigError(
            f"grid must be 'lo:hi:n' or 'lo:hi:n:log', got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid endpoints must be finite, got {text!r}")
    if n < 1:
        raise ConfigError(f"grid needs at least one point, got {n}")
    if len(parts) == 4 and (lo <= 0 or hi <= 0):
        raise ConfigError("log grid endpoints must be positive")
    try:
        return np.geomspace(lo, hi, n) if len(parts) == 4 else _linspace(lo, hi, n)
    except MemoryError as exc:
        raise ConfigError(f"grid of {n} points does not fit in memory") from exc


def _load_profile(args) -> RadioProfile:
    values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - {f.name for f in dataclasses.fields(RadioProfile)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(RadioProfile)}
    values.update((name, value) for name, value in flags.items() if value is not None)
    return RadioProfile(**values)


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with RadioProfile fields")
    for field in dataclasses.fields(RadioProfile):
        parser.add_argument(f"--{field.name}", type=float, default=None)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayqos",
        description="Minimum-power allocation for delay-QoS over two-hop relay links")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="solve one scenario")
    p_alloc.set_defaults(run=_cmd_allocate)
    _add_profile_flags(p_alloc)

    p_sweep = sub.add_parser("sweep", help="re-solve along one axis, emit CSV")
    p_sweep.set_defaults(run=_cmd_sweep)
    _add_profile_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="lo:hi:n (linear) or lo:hi:n:log (geometric)")

    p_val = sub.add_parser("validate", help="compare analytics with simulation")
    p_val.set_defaults(run=_cmd_validate)
    _add_profile_flags(p_val)
    p_val.add_argument("--frames", type=int, default=1_000_000)
    p_val.add_argument("--warmup", type=int, default=10_000)
    p_val.add_argument("--seed", type=int, default=0)

    p_ccdf = sub.add_parser("ccdf", help="dump the analytic delay CCDF curve")
    p_ccdf.set_defaults(run=_cmd_ccdf)
    _add_profile_flags(p_ccdf)
    p_ccdf.add_argument("--grid", default=None,
                        help="delay grid in frames, lo:hi:n; default 0:4*bound:101")
    return parser


def _cmd_allocate(profile: RadioProfile, args) -> list[tuple]:
    return [("metric", "value"), *_allocation_rows(allocate(to_scenario(profile)))]


def _cmd_sweep(profile: RadioProfile, args) -> list[tuple]:
    return _sweep_table(sweep(profile, args.axis, _parse_grid(args.grid)))


def _cmd_validate(profile: RadioProfile, args) -> list[tuple]:
    cfg = SimConfig(n_frames=args.frames, warmup_frames=args.warmup, seed=args.seed)
    return validate(profile, cfg).rows()


def _cmd_ccdf(profile: RadioProfile, args) -> list[tuple]:
    xs = (_linspace(0.0, 4.0 * to_scenario(profile).delay_bound, 101)
          if args.grid is None else _parse_grid(args.grid))
    return [("delay_frames", "single_hop_ccdf", "two_hop_ccdf"), *ccdf_table(profile, xs)]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        rows = args.run(_load_profile(args), args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except StabilityError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OverflowError, MemoryError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        _write_rows(sys.stdout, rows)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            _write_rows(stream, rows)
    except OSError as exc:
        print(f"invalid configuration: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
