"""Frame-based Monte Carlo simulation of the two-hop fluid FIFO tandem queue.

The source queue receives a constant load each frame and drains at the hop-1
Shannon rate under i.i.d. per-frame Rayleigh gains; its departures feed the
relay queue, which drains at the hop-2 rate.  Within a frame, arrivals are
credited before service (per frame, Q[t+1] = max(Q[t] + a[t] - s[t], 0)).

The scan and the taggers count in frames of load: each service is made in
that unit, as the Shannon rate times B*T/load, so hop 1 receives exactly
one frame of load each frame.  The state of each hop is its backlog Q, and
the scan evaluates Lindley's recursion in vectorized form: over a chunk,
with net input X = Q carried + cumsum(arrivals - service), the backlog is
Q = X - min(0, running minimum of X).  Hop 2's arrivals, hop 1's
departures one frame later, telescope over a chunk into backlogs of hop 1,
so no arrival is differenced.  No float grows with the horizon: rounding
grows with one chunk's net input, not with the frames run, and an empty
queue is exact at any scale, since Q == 0 in every frame where X is at its
running minimum.

Delay is sampled at frame resolution: the last bit arriving in each
post-warm-up frame is tagged.  The bit tagged in frame c - 1 has index c.
One rule reads the delays at two points, the relay's input and the tandem's
exit.  In frame t a point has let through the bits up to index
m(t) = t - ceil(B(t) - _INDEX_SLACK), the frames of load arrived before
frame t less the bits of it still short of the point, B(t) frames of load;
a bit's wait is the number of whole frames until the first m that reaches
it.  The relay
decodes a frame before forwarding it, so hop 1's output of frame t - 1
joins the relay's queue in frame t (store-and-forward): the relay's input
reads B = Q1(t-1), and the tandem's exit B = Q1(t-1) + Q2(t).  A bit's
relay wait is its hop-1 delay and the forwarding frame, and its hop-2 delay
is e2e less the relay wait, so the end-to-end delay is hop 1 + hop 2 + 1.
The frame count enters m only as a Python int, less the first bit not yet
finalised, and ceil(B - _INDEX_SLACK) is an integer-valued float, so the
subtraction is exact and no float sees how far into the run a frame lies.
Gains come from counter-based Philox generators, so a run is reproducible
from its seed and replications with different seeds are independent.  Each
hop reads one stream for the whole run, run-on included: hop 1 the
Philox(seed) stream and hop 2 that key's stream jumped by 2**128 counter
steps, and frame t takes draw t of each.  No draw depends on the horizon,
so a run of n frames is the first n frames of any longer run at the same
seed, and the delays of its tagged bits are the first entries of that
run's.

One run has one producer and one consumer.  The producer, ``_pieces``,
streams the simulation in chunks of _SIM_CHUNK frames: each chunk's
uniforms are drawn, turned into services in place, both hops scanned and
both backlogs tagged in a few chunk-sized buffers that stay in cache, and
each step yields the delays it finalised, a piece of hop-1, hop-2 and e2e
delays for the tagged bits that follow the last piece's.  Both hops run one
reflection, :func:`_reflect`, and the scan carries two floats across a
chunk boundary, hop 1's last backlog and the tandem's, which is hop 2's
telescoped carry.  A chunk's cumulative sum starts from them, so its floats
depend on where the chunk starts, but chunks always start at multiples of
_SIM_CHUNK, so a run is still the prefix of any longer one.  Two passes run
only on a piece where they change something: a tagger's running maximum of
m, where rounding makes m fall, and its clip of the piece to the bits not
yet finalised, where an end of the piece lies outside them.  Both skips are
exact (see :meth:`_Tagger.feed`), so the delays equal those of running both
passes on every piece.  The consumer, :func:`simulate_tandem`, only stores
and counts the pieces, so the only memory that grows with the horizon is
the delay arrays it returns.  They hold the narrowest unsigned type that
fits the largest delay, uint8 until an e2e delay passes 255 frames (e2e
bounds both hops), so a caller casts them before subtracting.  By default
there are three (hop 1, hop 2 and e2e, 3 B per frame); with
``hop_arrays=False`` only the e2e array is kept (1 B per frame), for a
caller that needs no more of the hops than the histograms below.  A new
statistic of the run is another consumer of the same pieces.

So that no tagged bit is censored, the same scan runs on past frame n, with
the source still sending, until every tagged bit has departed both hops.
Under FIFO a bit arriving after the horizon queues behind every tagged bit,
so it takes none of the service a tagged bit would get, and each tagged bit
departs in the frame it would with no fresh arrivals.  Every step is a
whole chunk, the one that crosses the horizon too, so the run passes the
frames the last tagged bit needs by under a chunk, and stops with an error
_MAX_RUN_ON_FRAMES frames past the horizon.

Delay tagging in O(n).  A backlog never rises by more than the frame of
load that arrived, so m never falls, except where rounding in a chunk's net
input lifts a backlog by more, which only services far above the load do;
there the tagger takes m's running maximum.  Bit c therefore departs in
frame tau(c), the number of frames with m < c, which is the running sum of
a histogram of m.  The backlogs are fed in as the scan makes them, one
chunk at a time, each counted in one pass in numpy's native integer, over
the short range of m it spans.  Since m never falls, every bit below the
last m fed has its delay fixed, so each chunk hands those delays on and the
tagger keeps one count, the delays handed on, not a frame-length array; the
producer keeps the run's one frame count.  Tagging costs O(n) time and no
frame-length memory beyond its output, and its output equals a binary
search of the running maximum of m for each bit's index, bit for bit
(tests/test_qsim.py keeps that binary search as the reference).  The
tandem's backlog B(t) = Q1(t-1) + Q2(t) rounds to no less than Q1(t-1), so
in every frame the e2e tagger's m is no more than the relay's, and the
producer holds a relay wait only until its bit's e2e delay is fixed.  The
consumer writes each piece's three delays and counts each hop's piece into
its histogram (one ``np.bincount`` per piece) while it is in cache, so the
run returns both hops' histograms whether or not it keeps their arrays,
equal to ``np.bincount`` of those arrays.

Tail statistics in O(max delay).  Delays are whole frames, so a hop's
histogram holds one count per delay 0..max.  :func:`suggest_fit_window` and
:func:`tail_slope` read the exceedances #{s > x} at every integer
x = -1..max from its cumulative sum; the counts, and with them the windows
and slopes, equal those of a sort and binary search.  The slope is the
least-squares line's in closed form, so no linear-algebra routine runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

from ._numpy import np
from .allocator import Allocation, Scenario
from .effcap import LinkModel, ergodic_rate

__all__ = [
    "SimConfig",
    "DelayStats",
    "DelayHistogram",
    "StabilityError",
    "InsufficientTailData",
    "simulate_tandem",
    "empirical_ccdf",
    "tail_slope",
    "suggest_fit_window",
]

# Levels of suggest_fit_window's body and tail ends (see its docstring).
MIN_TAIL_EXCEEDANCES = 100
BODY_CCDF = 0.2
TAIL_CCDF = 1e-3

# Batches of empirical_ccdf's batch-means half-width, and the 0.975 quantile
# of Student's t with _CCDF_BATCHES - 1 degrees of freedom.
_CCDF_BATCHES = 30
_T975 = 2.045229642132703

# Slack taken from a backlog, in frames of load, before the bits it holds are
# counted, ceil(B - _INDEX_SLACK), so a queue that has let a bit out up to
# float rounding in the recursion counts it as departed.  One millionth of a
# frame of traffic.
_INDEX_SLACK = 1e-6

# Frames the scan may run past the horizon for the tagged bits still queued
# there to depart; a backlog that needs more means an effectively unstable
# queue.
_MAX_RUN_ON_FRAMES = 1_000_000

# Frames simulated per chunk: the gain draws, both Lindley scans and the
# tagging of one chunk run in a handful of buffers of this length, which
# stay in cache and fix the scratch memory whatever the horizon.
_SIM_CHUNK = 1 << 14


class StabilityError(RuntimeError):
    """A queue's mean service rate does not exceed its arrival rate."""


class InsufficientTailData(ValueError):
    """Too few exceedances to fit a tail slope."""

    def __init__(self, achieved: int, required: int, x: float):
        super().__init__(
            f"only {achieved} exceedances beyond x={x:g} "
            f"(need >= {required}) — simulate more frames")
        self.achieved = achieved
        self.required = required


@dataclass(frozen=True)
class SimConfig:
    """Simulation horizon, warm-up and seed, each a whole number, held as int."""

    n_frames: int
    warmup_frames: int = 0
    seed: int = 0
    # the relay's one forwarding model (see the module docstring), not a setting
    relay_forwarding: ClassVar[str] = "store-and-forward"

    def __post_init__(self):
        for name in ("n_frames", "warmup_frames", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be a whole number, got {value!r}")
            # a numpy integer keeps its type's range in arithmetic; an int has none
            object.__setattr__(self, name, int(value))
        if self.warmup_frames < 0:
            raise ValueError(f"warmup_frames must be >= 0, got {self.warmup_frames!r}")
        if self.n_frames <= self.warmup_frames:
            raise ValueError(
                f"n_frames ({self.n_frames!r}) must exceed warmup_frames "
                f"({self.warmup_frames!r})")
        if not 0 <= self.seed < 2**128:  # the Philox key
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed!r}")

    @property
    def tagged_frames(self) -> int:
        """Frames whose last bit is tagged: the horizon less the warm-up."""
        return self.n_frames - self.warmup_frames


@dataclass(frozen=True)
class DelayHistogram:
    """Counts of whole-frame delays: ``counts[x]`` samples equal x, x = 0..max.

    :func:`simulate_tandem` counts one per hop as it scans; the number of
    samples is ``counts.sum()``.  The counts, a 1-D integer ndarray of at
    least one bin and none negative, are made read-only on construction.
    """

    counts: np.ndarray

    def __post_init__(self):
        c = self.counts
        if not (isinstance(c, np.ndarray) and np.issubdtype(c.dtype, np.integer)):
            raise TypeError(f"counts must be an integer ndarray, got {c!r}")
        if c.ndim != 1 or c.size == 0 or c.min() < 0:  # the fits read exceedances from them
            raise ValueError(f"counts must be 1-D, at least one bin, none negative, got {c!r}")
        c.flags.writeable = False


@dataclass(frozen=True)
class DelayStats:
    """Per-frame delay samples (whole frames) of the tagged bits.

    The arrays share the narrowest unsigned dtype that holds the largest
    delay (uint8, uint16 or uint32), so cast them to a signed type before
    subtracting one from another.  ``hop1_histogram`` and
    ``hop2_histogram`` count each hop's delays as the scan finalises each
    bit's e2e delay, equal to ``np.bincount`` of the hop arrays.  A run with
    ``hop_arrays=False`` keeps only ``e2e_delays`` (1 B per frame while
    the delays fit uint8, against 3 B with all three arrays), and its
    ``hop1_delays`` and ``hop2_delays`` are None.  Each array holds one
    delay per tagged frame: ``frames_simulated`` less the warm-up.
    """

    hop1_delays: np.ndarray | None
    hop2_delays: np.ndarray | None
    e2e_delays: np.ndarray
    frames_simulated: int
    hop1_histogram: DelayHistogram
    hop2_histogram: DelayHistogram


def _to_service(s: np.ndarray, bt: float, snr: float) -> np.ndarray:
    """Turn uniforms U into Shannon services bt*log1p(snr*g), in place.

    g = -log1p(-U) is the unit-mean exponential gain by inverse-CDF sampling.
    The constants are applied one at a time, not folded, so each value is
    rounded exactly as in bt*log1p(-snr*log1p(-U)).  The simulator passes
    B*T/load as ``bt``, so the services come out in frames of load.
    """
    np.negative(s, out=s)
    np.log1p(s, out=s)
    np.multiply(-snr, s, out=s)
    np.log1p(s, out=s)
    np.multiply(bt, s, out=s)
    return s


def _reflect(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lindley's backlog x - min(0, running minimum of x), in place in ``out``.

    ``x`` is a chunk's net input, the last backlog carried plus the
    cumulative sum of arrivals less service, in frames of load.  The
    result is >= 0 exactly, and exactly 0 in every frame where x is at its
    running minimum at or below 0, so an empty queue carries no rounding.
    """
    x0 = x[0]
    x[0] = min(x0, 0.0)  # the running minimum's first value takes the 0 in
    # fmin and minimum differ only on NaN, and the scan sees none (gains and
    # so services are finite); fmin's accumulate is the faster of the two
    np.fmin.accumulate(x, out=out)
    x[0] = x0
    return np.subtract(x, out, out=out)


class _TandemScan:
    """Both hops' backlogs over successive chunks of a run, in frames of load.

    Each frame, hop 1 receives one frame of load and hop 2 hop 1's
    departures of the frame before, 1 + Q1(t-2) - Q1(t-1), and each queue
    follows Lindley's recursion, Q(t) = max(Q(t-1) + a(t) - s(t), 0),
    evaluated per chunk by :func:`_reflect`.  Over a chunk from frame t0
    hop 2's arrivals telescope, so its net input is
    c + cumsum(1 - s2) - Q1(t-1), with c the tandem's backlog B(t0-1), and
    no arrival is differenced.  The scan carries Q1 and c, two floats that
    do not grow with the horizon; c starts at -1, so frame 0 brings hop 2
    nothing.
    """

    def __init__(self, size: int):
        self.q1 = 0.0  # hop 1's backlog at the last frame scanned
        self.carry = -1.0  # the tandem's backlog B at the last frame scanned
        # hop 1's backlogs after a leading slot for the previous chunk's last,
        # so Q1(t-1) is a view of the buffer
        self._q1 = np.empty(size + 1)
        self._b = np.empty(size)

    def step(self, s1: np.ndarray, s2: np.ndarray):
        """Backlogs (Q1(t-1), B(t) = Q1(t-1) + Q2(t)) of the next ``s1.size`` frames t.

        ``s1`` and ``s2`` are the per-frame services in frames of load,
        overwritten as scratch.  The backlogs are views of buffers the next
        step reuses.
        """
        k = s1.size
        q1 = self._q1[:k + 1]
        q1[0] = self.q1
        x1 = np.subtract(1.0, s1, out=s1)
        x1[0] += self.q1
        _reflect(np.cumsum(x1, out=x1), q1[1:])
        relay_in = q1[:-1]
        x2 = np.subtract(1.0, s2, out=s2)
        x2[0] += self.carry
        b = _reflect(np.subtract(np.cumsum(x2, out=x2), relay_in, out=x2), self._b[:k])
        b += relay_in
        self.q1, self.carry = float(q1[-1]), float(b[-1])
        return relay_in, b


class _Tagger:
    """Whole frames the bits tagged in frames first..last-1 wait to pass a point.

    B(t), the load arrived before frame t still short of the point, in
    frames of load, is fed piece by piece as the scan makes it, with the
    piece's first frame.  In frame t the point has let through the bits up
    to index m(t) = t - ceil(B(t) - _INDEX_SLACK).  Entry k of the whole
    result is tau_k - (first + k), where tau_k is the number of frames
    whose m falls short of bit k's index, c = first + k + 1 (see the module
    docstring).  m never falls, so the delays of the bits below the last m
    fed are final, and each one-pass :meth:`feed` returns them; the tagger
    keeps one count, the delays returned, and no frame count.
    """

    def __init__(self, first: int, last: int):
        self.first = first
        self.n_tagged = last - first
        self.finished = 0  # tagged bits whose delays have been returned

    def feed(self, backlog: np.ndarray, fed: int) -> np.ndarray:
        """Count the backlogs of frames fed.. in one pass; the delays it finalised, intp.

        Each frame's bit index m, counted from the first bit not yet
        finalised, takes its running maximum only on a piece where it
        falls, which rounding can make it do only where services are far
        above the load (never at the criterion-6 point).  It is then clipped
        to [0, bits not yet finalised] only if one of the piece's ends lies
        outside: m never falls, so its two ends bound it and a clip
        elsewhere would change nothing.
        """
        lo, k = self.finished, backlog.size
        # the bits held, ceil(B - slack), taken from the frames of load
        # arrived, counted from bit first + lo: integer-valued floats well
        # below 2**53, so the subtraction is exact
        queued = np.subtract(backlog, _INDEX_SLACK)
        np.ceil(queued, out=queued)
        start = fed - self.first - lo
        m = np.subtract(np.arange(float(start), float(start + k)), queued, out=queued)
        m = m.astype(np.int64)
        if np.less(m[1:], m[:-1]).any():
            np.maximum.accumulate(m, out=m)
        top = self.n_tagged - lo
        if k and (m[0] < 0 or m[-1] > top):
            np.clip(m, 0, top, out=m)
        new = int(m[-1]) if k else 0
        if new == 0:
            return np.empty(0, dtype=np.intp)
        # m never falls: tagged bit lo + t passes at frame fed + #(m <= t) of this piece
        waits = np.bincount(m)[:new]
        waits -= 1
        waits[0] += fed - self.first - lo + 1
        self.finished = lo + new
        return np.cumsum(waits, out=waits)


def _count_into(counts: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """Add a piece of delays to int counts, growing them to its maximum."""
    piece = np.bincount(delays, minlength=counts.size)
    piece[:counts.size] += counts
    return piece


def _pieces(scenario: Scenario, allocation: Allocation, cfg: SimConfig):
    """Run the tandem and yield the delays each step finalised, in bit order.

    Each step yields ``(hop1, hop2, e2e)``, the delays in whole frames, intp,
    of the tagged bits (those arriving in frames warmup..n-1) whose e2e
    delay the step fixed.  Over the run the pieces cover the
    ``cfg.tagged_frames`` tagged bits once each, in order, and
    e2e = hop1 + hop2 + 1.  One tagger reads the relay's input, Q1(t-1),
    and one the tandem's backlog, B(t); a relay wait is hop 1's delay and
    the forwarding frame, and hop 2's delay is e2e less it.  Each relay
    wait is held until the e2e tagger finalises its bit, which it never
    does before the relay's: B(t) rounds to no less than Q1(t-1), so in
    every frame its bit index is no more than the relay's.

    Hop 1 reads the Philox(seed) stream and hop 2 that key's stream jumped
    by 2**128, frame t taking draw t of each, so a run is the prefix of any
    longer run at the same seed.  The scan runs on past frame n, with the
    source still sending, until every tagged bit has departed both hops;
    under FIFO the later arrivals queue behind the tagged bits, so each
    tagged bit departs in the frame it would with no fresh arrivals.  Every
    step is _SIM_CHUNK frames, cut only _MAX_RUN_ON_FRAMES frames past the
    horizon.  The services come out in frames of load, scaled by B*T/load
    once as they are made (see :func:`_to_service`), so nothing in a step
    multiplies or divides by the load.  The stability and overflow checks
    run before the first step, before any piece is yielded.

    Raises
    ------
    StabilityError
        If either hop's mean service rate is at or below its mean arrival
        rate; tail statistics of an unstable queue are meaningless.
    ValueError
        If a chunk of the largest services the gains can give, in frames of
        load, B*T/load * log1p(SNR * 53 ln 2) each for the larger SNR,
        overflows to infinity, so a chunk's net input could.  A small load
        or a large SNR can cause it, so the message names the load, B*T and
        that SNR.
    RuntimeError
        If a tagged bit is still queued _MAX_RUN_ON_FRAMES frames past the
        horizon; the queues are then effectively unstable.
    """
    load = scenario.traffic_load
    bt = scenario.bt_product
    links = (LinkModel(allocation.kappa1, scenario.hop1_mean_gain, bt),
             LinkModel(allocation.kappa2, scenario.hop2_mean_gain, bt))
    for hop, link in enumerate(links, 1):
        mean = ergodic_rate(link)
        if mean <= load:
            raise StabilityError(
                f"hop {hop} unstable: mean service {mean:.6g} <= arrival {load:.6g} nats/frame")
    snr1, snr2 = (link.effective_snr for link in links)
    scale = bt / load  # turns services from nats into frames of load
    chunk = _SIM_CHUNK
    # a gain -log1p(-U) is at most 53 ln 2, as U <= 1 - 2**-53; the chunk
    # comes last, as chunk * scale alone overflows where tiny powers do not
    snr = max(snr1, snr2)
    if not math.isfinite(scale * math.log1p(snr * 53 * math.log(2)) * chunk):
        raise ValueError(
            f"traffic_load {load!r} nats/frame is too far below bt_product {bt!r} "
            f"for the larger SNR {snr!r}: a chunk's service in frames of load overflows")

    n, first = cfg.n_frames, cfg.warmup_frames
    bits = np.random.Philox(key=cfg.seed)
    rng1, rng2 = np.random.Generator(bits), np.random.Generator(bits.jumped())
    scan = _TandemScan(chunk)
    draws = np.empty((2, chunk))
    relay, tandem = _Tagger(first, n), _Tagger(first, n)
    held = np.empty(0, dtype=np.intp)  # relay waits of bits e2e has yet to finalise
    fed = 0  # frames scanned, the run's one frame count
    # e2e finalises after the relay, and at least a frame after its bit
    # arrives, so its tagger ends the run, past the horizon
    while tandem.finished < tandem.n_tagged:
        k = min(chunk, n + _MAX_RUN_ON_FRAMES - fed)
        if k == 0:
            raise RuntimeError(
                f"tagged bits still queued {_MAX_RUN_ON_FRAMES} frames past "
                "the horizon; queues are effectively unstable")
        u1, u2 = rng1.random(out=draws[0, :k]), rng2.random(out=draws[1, :k])
        relay_in, backlog = scan.step(_to_service(u1, scale, snr1), _to_service(u2, scale, snr2))
        # e2e never runs ahead of the relay, so the relay waits of the bits
        # it finalised are held already
        held = np.concatenate((held, relay.feed(relay_in, fed)))
        e2e = tandem.feed(backlog, fed)
        fed += k
        relayed, held = held[:e2e.size], held[e2e.size:]
        hop2 = e2e - relayed
        relayed -= 1  # the frame the relay holds each bit before forwarding it
        yield relayed, hop2, e2e


def simulate_tandem(scenario: Scenario, allocation: Allocation,
                    cfg: SimConfig, *, hop_arrays: bool = True) -> DelayStats:
    """Simulate the tandem queue and record per-hop and end-to-end delays.

    The run is :func:`_pieces`' (bits arriving in frames warmup..n-1 are
    tagged, and the scan runs on past the horizon until each has left both
    hops); this stores and counts the delay pieces it yields.  The delay
    arrays are allocated as uint8, 1 B per tagged frame each, once the
    first step has passed the stability and overflow checks, and widened
    together to uint16 or uint32 only if an e2e delay needs it (e2e bounds
    both hops); being unsigned, they are cast before subtracting.  Each
    piece is written just past the last one and counted into the hop
    histograms in one place.  With ``hop_arrays=False`` only the e2e array is allocated.

    Raises
    ------
    StabilityError, ValueError, RuntimeError
        As :func:`_pieces`: a hop whose mean service rate does not exceed
        its mean arrival rate, a load so far below B*T or an SNR so large
        that a chunk of the largest services could overflow in frames of
        load, or a tagged bit still queued _MAX_RUN_ON_FRAMES frames past
        the horizon.
    """
    arrays, counts = [], [np.zeros(1, dtype=np.int64)] * 2  # delay arrays, hop histograms
    start = 0  # tagged bits stored so far; the pieces come in bit order
    for hop1, hop2, e2e in _pieces(scenario, allocation, cfg):
        if not arrays:  # the first step has passed both checks
            # the narrowest unsigned type, widened once a finalised delay needs
            # it; e2e bounds both hops, so hop1 + hop2 + 1 never wraps
            arrays = [np.empty(cfg.tagged_frames, np.uint8) for _ in range(3 if hop_arrays else 1)]
        counts = [_count_into(c, piece) for c, piece in zip(counts, (hop1, hop2))]
        top = e2e.max(initial=0)  # e2e = hop 1 + hop 2 + 1 bounds both hops
        if top >= 1 << 8 * arrays[0].itemsize:
            arrays = [a.astype(np.min_scalar_type(top)) for a in arrays]
        for array, piece in zip(arrays, (e2e, hop1, hop2)):
            array[start:start + e2e.size] = piece
        start += e2e.size
    e2e, hop1, hop2 = arrays if hop_arrays else (*arrays, None, None)
    return DelayStats(hop1, hop2, e2e, cfg.n_frames, *map(DelayHistogram, counts))


def empirical_ccdf(samples, x: float) -> tuple[float, float]:
    """Fraction of samples strictly above x, with a 95% batch-means half-width.

    The samples are taken in order as one correlated series (successive
    tagged bits share queue states), so the half-width comes from the
    method of batch means (Law & Kelton): the series is cut into 30
    contiguous batches of near-equal size and the half-width is
    t(0.975, 29) * sd(batch fractions) / sqrt(30).  It needs at least 30
    samples that do not all fall on one side of x: with fewer samples a
    batch would be empty, and when no sample exceeds x, or every one does,
    the batch fractions cannot spread, so the half-width is undefined (NaN),
    not 0.  Samples that are not a 1-D series, float samples holding NaN
    and a NaN x raise ValueError.
    """
    if math.isnan(x):
        raise ValueError(f"x must not be NaN, got {x!r}")
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"samples must be a 1-D series, got shape {samples.shape}")
    if samples.dtype.kind == "f" and np.isnan(samples).any():
        raise ValueError("samples must not hold NaN")
    n = samples.size
    if n == 0:
        raise ValueError("empirical_ccdf needs at least one sample")
    batches = np.array_split(samples, _CCDF_BATCHES)
    exceed = [int(np.count_nonzero(b > x)) for b in batches]
    total = sum(exceed)
    p = total / n
    if n < _CCDF_BATCHES or total in (0, n):
        return p, math.nan
    means = [e / batch.size for e, batch in zip(exceed, batches)]
    return p, _T975 * float(np.std(means, ddof=1)) / math.sqrt(_CCDF_BATCHES)


def _exceedances(hist: DelayHistogram) -> np.ndarray:
    """Number of samples strictly above x, entry x + 1 for every integer x in -1..max."""
    if not isinstance(hist, DelayHistogram):
        raise TypeError(f"expected a DelayHistogram, got {type(hist).__name__}")
    # entry x counts the samples >= x, which are those above x - 1
    return np.append(np.cumsum(hist.counts[::-1])[::-1], 0)


def tail_slope(hist: DelayHistogram, x_lo: float, x_hi: float) -> float:
    """Least-squares slope of -log(empirical CCDF) over integer x in [x_lo, x_hi].

    Estimates the exponential decay rate of the delay tail from a
    :class:`DelayHistogram` (anything else raises TypeError).  Requires at
    least ``MIN_TAIL_EXCEEDANCES`` samples beyond x_hi so the deepest point
    of the fit is statistically meaningful.  Reading the window's counts
    costs O(max delay), whatever the window.
    """
    counts = _exceedances(hist)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ValueError(f"fit window [{x_lo:g}, {x_hi:g}] must be finite")
    lo, hi = math.ceil(x_lo), math.floor(x_hi)
    if hi <= lo:
        raise ValueError(
            f"fit window [{x_lo:g}, {x_hi:g}] holds fewer than two integer points")
    n = counts[0]  # every sample exceeds -1, and none exceeds max
    xs = np.arange(lo, hi + 1)
    exceed = counts[np.clip(xs, -1, counts.size - 2) + 1]
    if exceed[-1] < MIN_TAIL_EXCEEDANCES:
        raise InsufficientTailData(int(exceed[-1]), MIN_TAIL_EXCEEDANCES, float(hi))
    ccdf = exceed / n
    if ccdf.min() == ccdf.max():
        raise ValueError("degenerate CCDF: constant over the fit window")
    # the least-squares line in closed form, sum(dx*dy) / sum(dx*dx)
    y = -np.log(ccdf)
    dx = xs - xs.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def suggest_fit_window(hist: DelayHistogram) -> tuple[int, int]:
    """Deterministic tail-fit window for :func:`tail_slope`.

    The window starts where the empirical CCDF drops below ``BODY_CCDF``
    (past the distribution body) and ends at the last integer delay whose
    CCDF still exceeds ``TAIL_CCDF`` and whose exceedance count is at least
    ``MIN_TAIL_EXCEEDANCES``.  The CCDF floor matters on long runs: below
    ~1e-3 the tail of a single correlated sample path is dominated by a
    handful of busy-period excursions and the fitted slope turns noisy.
    It reads a :class:`DelayHistogram` (anything else raises TypeError) in
    O(max delay), so one histogram serves both this and :func:`tail_slope`.
    """
    # exceed[x - 1] = samples above x, for x = 1..max; it never rises with x,
    # so counting the entries above a level gives the last x above it
    counts = _exceedances(hist)
    exceed, n = counts[2:], int(counts[0])
    if n == 0:
        raise ValueError("no samples")
    floor = max(MIN_TAIL_EXCEEDANCES, TAIL_CCDF * n)
    x_lo = 1 + int(np.count_nonzero(exceed > BODY_CCDF * n))
    x_hi = int(np.count_nonzero(exceed >= floor))
    if x_hi < x_lo + 4:
        # x_lo + 4 is the shallowest end of a five-point window; the last x
        # holding `floor` exceedances stops short of it only where the count
        # there is below the floor (or is zero, past the largest sample)
        x_min = x_lo + 4
        achieved = int(exceed[x_min - 1]) if x_min <= exceed.size else 0
        raise InsufficientTailData(achieved, math.ceil(floor), float(x_min))
    return x_lo, x_hi
