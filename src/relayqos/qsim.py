"""Frame-based Monte Carlo simulation of the two-hop fluid FIFO tandem queue.

The source queue receives a constant load each frame and drains at the hop-1
Shannon rate under i.i.d. per-frame Rayleigh gains; its departures feed the
relay queue, which drains at the hop-2 rate.  Within a frame, arrivals are
credited before service (Q[t+1] = max(Q[t] + A[t] - S[t], 0)).

Delay is sampled at frame resolution: the last bit arriving in each
post-warm-up frame is tagged, and its per-hop delay is the number of whole
frames until the hop's cumulative departure curve passes the bit's cumulative
arrival index.  The relay either forwards hop-1 output to the hop-2 queue in
the next frame ("store-and-forward", the default) or within the same frame
("cut-through"); the two differ by at most one frame of end-to-end delay.

The Lindley recursion is evaluated in vectorized form (cumulative sums plus a
running minimum), and gains come from a counter-based Philox generator, so a
run is reproducible from its seed and replications with different seeds are
independent.  Gain draws and scans run in place in a few frame-length
buffers: at most five float64 arrays (40 B per frame) are live at once.

Delay tagging in O(n).  The bit tagged in frame c - 1 has the float target
T(c) = c*load - off, off = _INDEX_SLACK*load, and departs in frame tau(c),
the number of curve values dep[i] < T(c) (a left binary search).  Instead of
searching, each curve value counts the targets at or below it,
m(dep) = #{c : T(c) <= dep}.  Since T is non-decreasing in c this is the
largest c with T(c) <= dep, and floor(dep/load + _INDEX_SLACK) estimates it
to within rounding; the estimate is then corrected one step at a time while
T(c + 1) <= dep or T(c) > dep, comparing against T computed by the same
float expression as the target itself, so the corrected count is exact, not
approximate.  A value precedes T(c) exactly when m < c, so tau(c) is the
running sum of a histogram of m.  The curve is processed in fixed-size
chunks, each histogrammed over the short range of m it spans, so tagging
costs O(n) time and no frame-length memory beyond its output, and its output
equals the binary search's bit for bit (tests/test_qsim.py keeps the binary
search as the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import Allocation, Scenario
from .effcap import LinkModel, ergodic_rate

__all__ = [
    "SimConfig",
    "DelayStats",
    "StabilityError",
    "InsufficientTailData",
    "simulate_tandem",
    "empirical_ccdf",
    "tail_slope",
    "suggest_fit_window",
    "FORWARDING_MODES",
]

FORWARDING_MODES = ("store-and-forward", "cut-through")

MIN_TAIL_EXCEEDANCES = 100

# Batches of empirical_ccdf's batch-means half-width, and the 0.975 quantile
# of Student's t with 1, 2, ..., _CCDF_BATCHES - 1 degrees of freedom.
_CCDF_BATCHES = 30
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703)

# Slack (in units of the per-frame load) subtracted from a tagged bit's index
# before the departure-curve search, absorbing float rounding in the queue
# recursion.  One millionth of a frame of traffic.
_INDEX_SLACK = 1e-6

_MAX_DRAIN_FRAMES = 1_000_000

# Departure-curve values tagged per vectorized step; keeps the step's
# temporaries in cache and their memory independent of the horizon.
_TAG_CHUNK = 1 << 14

# The floor estimate of a value's target count is off by at most one in
# practice; the correction loop stops with an error if it ever needs more.
_MAX_TAG_CORRECTIONS = 4


class StabilityError(RuntimeError):
    """A queue's mean service rate does not exceed its arrival rate."""


class InsufficientTailData(ValueError):
    """Too few exceedances to fit a tail slope."""

    def __init__(self, achieved: int, required: int, x: float):
        super().__init__(
            f"only {achieved} exceedances beyond x={x:g} "
            f"(need >= {required}) — simulate more frames or lower x_hi")
        self.achieved = achieved
        self.required = required


@dataclass(frozen=True)
class SimConfig:
    """Simulation horizon, warm-up, seed and relay forwarding policy."""

    n_frames: int
    warmup_frames: int = 0
    seed: int = 0
    relay_forwarding: str = "store-and-forward"

    def __post_init__(self):
        if self.warmup_frames < 0:
            raise ValueError(f"warmup_frames must be >= 0, got {self.warmup_frames!r}")
        if self.n_frames <= self.warmup_frames:
            raise ValueError(
                f"n_frames ({self.n_frames!r}) must exceed warmup_frames "
                f"({self.warmup_frames!r})")
        if self.relay_forwarding not in FORWARDING_MODES:
            raise ValueError(
                f"relay_forwarding must be one of {FORWARDING_MODES}, "
                f"got {self.relay_forwarding!r}")


@dataclass(frozen=True)
class DelayStats:
    """Per-frame delay samples (whole frames) of the tagged bits."""

    hop1_delays: np.ndarray
    hop2_delays: np.ndarray
    e2e_delays: np.ndarray
    frames_simulated: int
    dropped_warmup: int

    def dump_samples(self, path, which: str = "e2e") -> None:
        """Write one integer delay sample per line for external analysis."""
        samples = {"hop1": self.hop1_delays, "hop2": self.hop2_delays,
                   "e2e": self.e2e_delays}[which]
        np.savetxt(path, samples, fmt="%d")


def _draw_service(rng: np.random.Generator, bt: float, kappa: float,
                  mean_gain: float, n: int) -> np.ndarray:
    """Per-frame Shannon service bt*log1p(kappa*h) under exponential gains h.

    The gain is drawn by inverse-CDF sampling, h = -mean_gain*log1p(-U); every
    step runs in place in the one buffer the generator fills.  The constants
    are applied one at a time, not folded, so each value is rounded exactly
    as in bt*log1p(kappa*(-mean_gain*log1p(-U))).
    """
    s = rng.random(n)
    np.negative(s, out=s)
    np.log1p(s, out=s)
    np.multiply(-mean_gain, s, out=s)
    np.multiply(kappa, s, out=s)
    np.log1p(s, out=s)
    np.multiply(bt, s, out=s)
    return s


def _queue_after_frames(cum: np.ndarray, work: np.ndarray) -> None:
    """Turn per-frame net input into Q[t+1], in place in ``cum``.

    Q[0] = 0 and Q[t+1] = max(Q[t] + net[t], 0), evaluated as the cumulative
    sum minus its running minimum (floored at 0); ``work`` is scratch of the
    same length.
    """
    np.cumsum(cum, out=cum)
    np.minimum.accumulate(cum, out=work)
    np.minimum(work, 0.0, out=work)
    np.subtract(cum, work, out=cum)


def _tandem_curves(load: float, s1: np.ndarray, s2: np.ndarray,
                   forwarding: str):
    """Cumulative departure curves of both hops over the main horizon.

    Returns (dep1, dep2, arr2, q1_end, q2_end) where arr2 is hop 2's
    cumulative arrival curve and the q's are the final backlogs.  The inputs
    are left unchanged; dep1 and arr2 are views of one buffer that holds a
    leading zero, so store-and-forward's one-frame shift copies nothing.
    """
    n = len(s1)
    curve1 = np.empty(n + 1)
    curve1[0] = 0.0
    dep1 = curve1[1:]
    dep2 = np.empty(n)

    np.subtract(load, s1, out=dep1)
    _queue_after_frames(dep1, dep2)
    q1_end = float(dep1[-1])
    np.multiply(load, np.arange(1, n + 1), out=dep2)  # hop 1's arrival curve
    np.subtract(dep2, dep1, out=dep1)
    np.maximum.accumulate(dep1, out=dep1)

    arr2 = curve1[:-1] if forwarding == "store-and-forward" else dep1
    q2 = np.empty(n)  # hop 2's arrivals per frame, then its net input, then Q2
    q2[0] = arr2[0]
    np.subtract(arr2[1:], arr2[:-1], out=q2[1:])
    np.subtract(q2, s2, out=q2)
    _queue_after_frames(q2, dep2)
    q2_end = float(q2[-1])
    np.subtract(arr2, q2, out=dep2)
    np.maximum.accumulate(dep2, out=dep2)
    return dep1, dep2, arr2, q1_end, q2_end


def _drain(rng: np.random.Generator, scenario: Scenario, allocation: Allocation,
           forwarding: str, q1: float, q2: float, pending: float,
           dep1_base: float, dep2_base: float):
    """Serve remaining backlog with zero fresh arrivals until both queues empty.

    Returns the cumulative departure extensions of both hops so every tagged
    bit of the main horizon has a recorded departure frame.
    """
    bt = scenario.bt_product
    dep1_ext: list[float] = []
    dep2_ext: list[float] = []
    cum1, cum2 = dep1_base, dep2_base
    tol = 1e-9 * max(scenario.traffic_load, 1.0)
    for _ in range(_MAX_DRAIN_FRAMES):
        if q1 <= tol and q2 <= tol and pending <= tol:
            break
        u = rng.random(2)
        s1 = bt * math.log1p(-allocation.kappa1 * scenario.hop1_mean_gain
                             * math.log1p(-u[0]))
        s2 = bt * math.log1p(-allocation.kappa2 * scenario.hop2_mean_gain
                             * math.log1p(-u[1]))
        served1 = min(q1, s1)
        q1 -= served1
        if forwarding == "store-and-forward":
            a2, pending = pending, served1
        else:
            a2, pending = pending + served1, 0.0
        q2 += a2
        served2 = min(q2, s2)
        q2 -= served2
        cum1 += served1
        cum2 += served2
        dep1_ext.append(cum1)
        dep2_ext.append(cum2)
    else:
        raise RuntimeError("drain phase did not empty the queues; "
                           "queues are effectively unstable")
    return np.asarray(dep1_ext), np.asarray(dep2_ext)


def _frames_waited(curve, load: float, first: int, last: int) -> np.ndarray:
    """Whole frames the bits tagged in frames first..last-1 wait for ``curve``.

    ``curve`` is a sequence of arrays that together form one non-decreasing
    cumulative departure curve.  Entry k is tau_k - (first + k), where tau_k
    is the number of curve values below bit k's target
    T(c) = c*load - _INDEX_SLACK*load with c = first + k + 1, i.e.
    ``searchsorted(curve, T, "left")`` (see the module docstring).
    """
    n_tagged = last - first
    off = _INDEX_SLACK * load
    # waits[j] = (curve values with exactly j tagged targets at or below
    # them) - 1, except that waits[0] starts at -first rather than -1, so its
    # running sum is tau_k - (first + k) with no frame-length index array
    waits = np.full(n_tagged, -1, dtype=np.int64)
    waits[0] = -first
    chunks = (part[i:i + _TAG_CHUNK] for part in curve
              for i in range(0, part.size, _TAG_CHUNK))
    for d in chunks:
        # c = number of targets T(1), T(2), ... at or below each value;
        # m = number of tagged targets T(first + 1), ..., T(last) among them
        c = np.floor(d / load + _INDEX_SLACK)
        for _ in range(_MAX_TAG_CORRECTIONS):
            too_low = load * (c + 1.0) - off <= d
            too_high = load * c - off > d
            if not (too_low.any() or too_high.any()):
                break
            c += too_low
            c -= too_high
        else:
            raise RuntimeError("delay tagging did not converge")
        m = c.astype(np.int64)
        m -= first
        np.clip(m, 0, n_tagged, out=m)
        lo = int(m[0])
        if lo == n_tagged:
            break  # this value, and every later one, is past the last target
        counts = np.bincount(m - lo)
        hi = min(lo + counts.size, n_tagged)
        waits[lo:hi] += counts[:hi - lo]
    np.cumsum(waits, out=waits)
    return waits


def simulate_tandem(scenario: Scenario, allocation: Allocation,
                    cfg: SimConfig) -> DelayStats:
    """Simulate the tandem queue and record per-hop and end-to-end delays.

    Raises
    ------
    StabilityError
        If either hop's mean service rate is at or below its mean arrival
        rate; tail statistics of an unstable queue are meaningless.
    """
    load = scenario.traffic_load
    if load == 0.0:
        empty = np.empty(0, dtype=np.int64)
        return DelayStats(empty, empty, empty, cfg.n_frames, cfg.warmup_frames)

    link1 = LinkModel(allocation.kappa1, scenario.hop1_mean_gain, scenario.bt_product)
    link2 = LinkModel(allocation.kappa2, scenario.hop2_mean_gain, scenario.bt_product)
    mean1 = ergodic_rate(link1)
    mean2 = ergodic_rate(link2)
    if mean1 <= load:
        raise StabilityError(
            f"hop 1 unstable: mean service {mean1:.6g} <= arrival {load:.6g} nats/frame")
    if mean2 <= load:
        raise StabilityError(
            f"hop 2 unstable: mean service {mean2:.6g} <= arrival {load:.6g} nats/frame")

    n = int(cfg.n_frames)
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed)))
    bt = scenario.bt_product
    s1 = _draw_service(rng, bt, allocation.kappa1, scenario.hop1_mean_gain, n)
    s2 = _draw_service(rng, bt, allocation.kappa2, scenario.hop2_mean_gain, n)

    dep1, dep2, arr2, q1_end, q2_end = _tandem_curves(
        load, s1, s2, cfg.relay_forwarding)
    del s1, s2

    pending = float(dep1[-1] - arr2[-1]) if cfg.relay_forwarding == "store-and-forward" else 0.0
    del arr2  # shares dep1's buffer, which `del dep1` below then frees
    dep1_ext, dep2_ext = _drain(rng, scenario, allocation, cfg.relay_forwarding,
                                q1_end, q2_end, pending,
                                float(dep1[-1]), float(dep2[-1]))

    hop1 = _frames_waited((dep1, dep1_ext), load, cfg.warmup_frames, n)
    del dep1
    e2e = _frames_waited((dep2, dep2_ext), load, cfg.warmup_frames, n)
    del dep2
    hop2 = np.subtract(e2e, hop1)
    if cfg.relay_forwarding == "store-and-forward":
        hop2 -= 1
    return DelayStats(hop1, hop2, e2e, n, cfg.warmup_frames)


def empirical_ccdf(samples, x: float) -> tuple[float, float]:
    """Fraction of samples strictly above x, with a 95% batch-means half-width.

    The samples are taken in order as one correlated series (successive
    tagged bits share queue states), so the half-width comes from the
    method of batch means (Law & Kelton): the series is cut into
    min(30, n) contiguous batches of near-equal size and the half-width is
    t(0.975, b - 1) * sd(batch fractions) / sqrt(b).  With a single sample
    it is infinite.
    """
    samples = np.asarray(samples)
    n = samples.size
    if n == 0:
        raise ValueError("empirical_ccdf needs at least one sample")
    batches = np.array_split(samples > x, min(_CCDF_BATCHES, n))
    exceed = [int(np.count_nonzero(b)) for b in batches]
    p = sum(exceed) / n
    b = len(batches)
    if b == 1:
        return p, math.inf
    means = [e / batch.size for e, batch in zip(exceed, batches)]
    return p, _T975[b - 2] * float(np.std(means, ddof=1)) / math.sqrt(b)


def tail_slope(samples, x_lo: float, x_hi: float) -> float:
    """Least-squares slope of -log(empirical CCDF) over integer x in [x_lo, x_hi].

    Estimates the exponential decay rate of the delay tail.  Requires at
    least ``MIN_TAIL_EXCEEDANCES`` samples beyond x_hi so the deepest point
    of the fit is statistically meaningful.
    """
    xs = np.arange(math.ceil(x_lo), math.floor(x_hi) + 1, dtype=np.float64)
    if xs.size < 2:
        raise ValueError(
            f"fit window [{x_lo:g}, {x_hi:g}] holds fewer than two integer points")
    ordered = np.sort(np.asarray(samples))
    n = ordered.size
    exceed = n - np.searchsorted(ordered, xs, side="right")
    if exceed[-1] < MIN_TAIL_EXCEEDANCES:
        raise InsufficientTailData(int(exceed[-1]), MIN_TAIL_EXCEEDANCES, float(xs[-1]))
    ccdf = exceed / n
    if ccdf.min() == ccdf.max():
        raise ValueError("degenerate CCDF: constant over the fit window")
    slope = np.polyfit(xs, -np.log(ccdf), 1)[0]
    return float(slope)


def suggest_fit_window(samples, min_exceedances: int = MIN_TAIL_EXCEEDANCES,
                       body_ccdf: float = 0.2,
                       tail_ccdf: float = 1e-3) -> tuple[int, int]:
    """Deterministic tail-fit window for :func:`tail_slope`.

    The window starts where the empirical CCDF drops below ``body_ccdf``
    (past the distribution body) and ends at the last integer delay whose
    CCDF still exceeds ``tail_ccdf`` and whose exceedance count is at least
    ``min_exceedances``.  The CCDF floor matters on long runs: below ~1e-3
    the tail of a single correlated sample path is dominated by a handful of
    busy-period excursions and the fitted slope turns noisy.
    """
    ordered = np.sort(np.asarray(samples))
    n = ordered.size
    if n == 0:
        raise ValueError("no samples")
    floor = max(min_exceedances, tail_ccdf * n)
    x_lo = 1
    while n - np.searchsorted(ordered, x_lo, side="right") > body_ccdf * n:
        x_lo += 1
    x_hi = int(ordered[-1])
    while x_hi > x_lo and n - np.searchsorted(ordered, x_hi, side="right") < floor:
        x_hi -= 1
    if x_hi < x_lo + 4:
        raise InsufficientTailData(
            int(n - np.searchsorted(ordered, x_hi, side="right")),
            min_exceedances, float(x_hi))
    return x_lo, x_hi
