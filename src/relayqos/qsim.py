"""Frame-based Monte Carlo simulation of the two-hop fluid FIFO tandem queue.

The source queue receives a constant load each frame and drains at the hop-1
Shannon rate under i.i.d. per-frame Rayleigh gains; its departures feed the
relay queue, which drains at the hop-2 rate.  Within a frame, arrivals are
credited before service (Q[t+1] = max(Q[t] + A[t] - S[t], 0)).

Delay is sampled at frame resolution: the last bit arriving in each
post-warm-up frame is tagged.  The bit tagged in frame c - 1 has index c,
and it has left a hop in the first frame whose cumulative departures v
reach that index, floor(v/load + _INDEX_SLACK) >= c; its per-hop delay is
the number of whole frames until then.  The relay decodes a frame before
forwarding it, so hop 1's output joins the hop-2 queue in the next frame
(store-and-forward), and the end-to-end delay is hop 1 + hop 2 + 1.

The Lindley recursion is evaluated in vectorized form (cumulative sums plus a
running minimum), and gains come from a counter-based Philox generator, so a
run is reproducible from its seed and replications with different seeds are
independent.  Over the horizon of n frames hop 1 takes draws 0..n-1 of the
Philox(seed) stream and hop 2 draws n..2n-1; hop 2's generator is a second
Philox(seed) moved on by n // 4 counter steps (four draws each) and n % 4
single draws.  Past the horizon that generator serves both hops in turn:
frame n + j takes draws 2n + 2j (hop 1) and 2n + 2j + 1 (hop 2).

One run has one producer and one consumer.  The producer, ``_pieces``,
streams the simulation in chunks of _SIM_CHUNK frames: each chunk's
uniforms are drawn, turned into services in place, both hops scanned and
both departure curves tagged in a few chunk-sized buffers that stay in
cache, and each step yields the delays it finalised, a piece of hop-1,
hop-2 and e2e delays for the tagged bits that follow the last piece's.
Both hops run one Lindley scan, each hop's queue carrying its cumulative
net input, the running minimum of 0 and that sum and its departure curve's
running maximum across a chunk boundary; the tandem carries only hop 2's
last cumulative arrival.  Every carry is folded into element 0 of the next
chunk before its cumulative sum or accumulate, so each float operation is
the one a single scan over the whole run makes and the delays do not
depend on the chunk.  Two passes run only on a chunk where they change
something: a departure curve's running maximum, where rounding makes the
raw curve fall by an ulp somewhere, and a tagger's clip of its piece to
the bits not yet finalised, where an end of the piece lies outside them.
Both skips are exact (see :class:`_Queue` and :meth:`_Tagger.feed`), so
the delays equal those of running both passes on every chunk.  The
consumer, :func:`simulate_tandem`, only stores and counts the pieces, so
the only memory that grows with the horizon is the delay arrays it
returns.  They hold the narrowest unsigned type that fits the largest
delay, uint8 until an e2e delay passes 255 frames (e2e bounds both hops),
so a caller casts them before subtracting.  By default there are three
(hop 1, hop 2 and e2e, 3 B per frame); with ``hop_arrays=False`` only the
e2e array is kept (1 B per frame), for a caller that needs no more of the
hops than the histograms below.  A new statistic of the run is another
consumer of the same pieces.

So that no tagged bit is censored, the same scan runs on past frame n, with
the source still sending, until every tagged bit has departed both hops.
Under FIFO a bit arriving after the horizon queues behind every tagged bit,
so it takes none of the service a tagged bit would get, and each tagged bit
departs in the frame it would with no fresh arrivals.  Each run-on step is
a whole chunk, so the run-on passes the frames the last tagged bit needs by
under a chunk, and stops with an error after _MAX_RUN_ON_FRAMES frames.

Delay tagging in O(n).  Each curve value v reaches the bit indices up to
m(v) = floor(v/load + _INDEX_SLACK).  Division by a positive constant,
adding a constant and floor are each monotone under round-to-nearest, and
the curve never falls, so neither does m.  Bit c therefore departs in frame
tau(c), the number of curve values with m < c, which is the running sum of a
histogram of m.  The curve is fed in as the scan makes it, one chunk at a
time, each counted in one pass in numpy's native integer, over the short
range of m it spans.  Since m never falls, every bit below the last m fed
has its delay fixed, so each chunk hands those delays on and the tagger
keeps two counts, the curve values fed and the delays handed on, not a
frame-length array.  Tagging costs O(n) time and no frame-length memory
beyond its output, and its output equals searchsorted(m(curve), c, "left")
bit for bit (tests/test_qsim.py keeps that binary search as the
reference).  The end-to-end curve never runs ahead of hop 1's, so the
producer holds a hop-1 delay only until its bit's e2e delay is fixed, and
then yields it with hop 2's delay, e2e minus hop 1 minus the forwarding
frame.  The consumer writes each piece's three delays and counts each
hop's piece into its histogram (one ``np.bincount`` per piece) while it is
in cache, so the run returns both hops' histograms whether or not it keeps
their arrays, equal to ``np.bincount`` of those arrays.

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

# Slack (in units of the per-frame load) added to a departure-curve value's
# bit index, floor(v/load + _INDEX_SLACK), so a curve that reaches a bit's
# index up to float rounding in the queue recursion counts it as departed.
# One millionth of a frame of traffic.
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
    rounded exactly as in bt*log1p(-snr*log1p(-U)).
    """
    np.negative(s, out=s)
    np.log1p(s, out=s)
    np.multiply(-snr, s, out=s)
    np.log1p(s, out=s)
    np.multiply(bt, s, out=s)
    return s


def _hop2_generator(seed: int, n: int) -> np.random.Generator:
    """Generator positioned at draw n of the Philox(seed) stream.

    Over a horizon of n frames hop 1 takes draws 0..n-1 of the stream and
    hop 2 draws n..2n-1, as if both came from one generator.  The run-on
    past the horizon continues from draw 2n, frame n + j taking draws
    2n + 2j (hop 1) and 2n + 2j + 1 (hop 2).  Philox makes four 64-bit draws
    per counter step, and each double takes one draw.
    """
    bits = np.random.Philox(key=seed)
    bits.advance(n // 4)
    bits.random_raw(n % 4)
    return np.random.Generator(bits)


class _Queue:
    """One hop's Lindley scan, carried from chunk to chunk of a run.

    Q[t+1] = max(Q[t] + net[t], 0) with Q = 0 before the first chunk, as the
    cumulative sum of the net input minus the running minimum of 0 and that
    sum.  The queue carries that sum, that minimum (so it starts at 0, which
    floors it for the whole run) and its departure curve's running maximum
    (the curve's last value) across a chunk boundary, each folded into
    element 0 before its scan, so every float operation is the one a single
    scan over the whole run makes.  Both accumulates are exact, so the
    minimum folded in at the start equals the floor applied after it.  The
    running maximum runs only on a chunk whose curve, after the carry is
    folded in, falls somewhere: a curve that never falls is its own running
    maximum, so skipping it elsewhere is exact.  At the criterion-6 point
    it runs on none of a run's chunks.
    """

    def __init__(self):
        self.cum = 0.0  # cumulative net input
        self.low = 0.0  # running minimum of 0 and that sum
        self.dep = 0.0  # last departure-curve value; the curve starts at 0 and never falls

    def depart(self, net: np.ndarray, arrived: np.ndarray,
               work: np.ndarray) -> np.ndarray:
        """The chunk's departure curve, ``arrived`` less Q[t+1], in place in ``net``.

        ``net`` is the chunk's per-frame net input, ``arrived`` its
        cumulative arrival curve and ``work`` scratch of the same length.
        """
        net[0] += self.cum
        np.cumsum(net, out=net)
        first = net[0]
        net[0] = min(self.low, first)
        # fmin and minimum differ only on NaN, and the scan sees none (gains and
        # so services are finite); fmin's accumulate is the faster of the two
        np.fmin.accumulate(net, out=work)
        net[0] = first
        self.cum, self.low = float(net[-1]), float(work[-1])
        np.subtract(net, work, out=net)  # Q[t+1]
        dep = np.subtract(arrived, net, out=net)
        dep[0] = max(self.dep, dep[0])
        # a curve that never falls is its own running maximum
        if np.less(dep[1:], dep[:-1]).any():
            np.fmax.accumulate(dep, out=dep)  # exact, as fmin's above
        self.dep = float(dep[-1])
        return dep


class _TandemScan:
    """Both hops' Lindley scans over successive chunks of a run.

    :meth:`step` takes the next chunk's per-frame services and returns that
    chunk's cumulative departure curves.  Each hop is a :class:`_Queue`
    carrying its own state; the scan keeps only what couples them, the
    frames scanned so far and hop 2's last cumulative arrival, so the curves
    equal those of one scan over the whole run bit for bit.
    """

    def __init__(self, load: float, size: int):
        self.load = load
        self.frames = 0
        self.hop1, self.hop2 = _Queue(), _Queue()
        self.arr2 = 0.0  # last value of hop 2's cumulative arrival curve
        self._frame_number = np.arange(1.0, size + 1.0)
        # hop 1's curve after a leading slot for the previous chunk's last
        # value, so hop 2's arrivals, one frame behind it, copy nothing
        self._curve1 = np.empty(size + 1)
        self._work = np.empty(size)  # hop 1's arrival curve, then hop 2's net input

    def step(self, s1: np.ndarray, s2: np.ndarray):
        """Departure curves (dep1, dep2) of the next ``s1.size`` frames.

        ``s1`` and ``s2`` are overwritten as scratch.  The curves are views of
        buffers the next step reuses; hop 2's arrival curve stays internal.
        """
        k = s1.size
        curve1 = self._curve1[:k + 1]
        curve1[0] = self.hop1.dep
        arr1 = np.add(self._frame_number[:k], self.frames, out=self._work[:k])
        np.multiply(self.load, arr1, out=arr1)
        net1 = np.subtract(self.load, s1, out=curve1[1:])
        dep1 = self.hop1.depart(net1, arr1, s1)

        arr2 = curve1[:-1]
        net2 = self._work[:k]  # hop 2's arrivals per frame, less its service
        net2[0] = arr2[0] - self.arr2
        np.subtract(arr2[1:], arr2[:-1], out=net2[1:])
        np.subtract(net2, s2, out=net2)
        dep2 = self.hop2.depart(net2, arr2, s2)

        self.frames += k
        self.arr2 = float(arr2[-1])
        return dep1, dep2


class _Tagger:
    """Whole frames the bits tagged in frames first..last-1 wait for a curve.

    The non-decreasing cumulative departure curve is fed piece by piece as
    the simulation makes it.  Entry k of the whole result is
    tau_k - (first + k), where tau_k is the number of curve values whose bit
    index falls short of bit k's, c = first + k + 1, i.e.
    ``searchsorted(floor(curve/load + _INDEX_SLACK), c, "left")`` (see the
    module docstring).  Every later value reaches at least the bits the last
    one fed reaches, so the delays of the bits below those are final, and
    each one-pass :meth:`feed` returns them; the tagger keeps two counts, the
    curve values fed and the delays returned, not a frame-length array.
    """

    def __init__(self, load: float, first: int, last: int):
        self.load = load
        self.first = first
        self.n_tagged = last - first
        self.fed = 0  # curve values fed so far
        self.finished = 0  # tagged bits whose delays have been returned

    def feed(self, part: np.ndarray) -> np.ndarray:
        """Count the next piece of the curve in one pass; the delays it finalised, intp.

        Each value's bit index m, counted from the first bit not yet
        finalised, is clipped to [0, bits not yet finalised] only if one of
        the piece's ends lies outside: m never falls, so its two ends bound
        it and a clip elsewhere would change nothing.  Only a piece that
        starts below the first tagged bit or reaches past the last needs it.
        """
        lo, fed = self.finished, self.fed
        self.fed += part.size
        # m = bits not yet finalised that each value reaches (curve >= 0: the cast floors)
        m = (part / self.load + _INDEX_SLACK).astype(np.int64)
        m -= self.first + lo
        top = self.n_tagged - lo
        if m.size and (m[0] < 0 or m[-1] > top):
            np.clip(m, 0, top, out=m)
        new = int(m[-1]) if m.size else 0
        if new == 0:
            return np.empty(0, dtype=np.intp)
        # m never falls: tagged bit lo + t leaves at value fed + #(m <= t) of this piece
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
    e2e = hop1 + hop2 + 1.  Each hop-1 delay is held until the e2e tagger
    finalises its bit, which it never does before hop 1's (dep2 <= arr2 <=
    dep1).

    Over the horizon hop 1 takes draws 0..n-1 of the Philox(seed) stream and
    hop 2 draws n..2n-1.  The scan runs on past frame n, with the source
    still sending, until every tagged bit has departed both hops; under
    FIFO the later arrivals queue behind the tagged bits, so each tagged bit
    departs in the frame it would with no fresh arrivals.  Frame n + j of
    the run-on takes draws 2n + 2j (hop 1) and 2n + 2j + 1 (hop 2),
    whatever the step sizes; every step is _SIM_CHUNK frames, cut only by
    the horizon and _MAX_RUN_ON_FRAMES.  The stability check runs at the
    first step, before any piece is yielded.

    Raises
    ------
    StabilityError
        If either hop's mean service rate is at or below its mean arrival
        rate; tail statistics of an unstable queue are meaningless.
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

    n, first = cfg.n_frames, cfg.warmup_frames
    chunk = _SIM_CHUNK
    rng1 = np.random.Generator(np.random.Philox(key=cfg.seed))
    rng2 = _hop2_generator(cfg.seed, n)
    scan = _TandemScan(load, chunk)
    draws = np.empty(2 * chunk)
    tag1, tag2 = _Tagger(load, first, n), _Tagger(load, first, n)
    held = np.empty(0, dtype=np.intp)  # hop-1 delays of bits e2e has yet to finalise
    # e2e finalises after hop 1, so its tagger ends the run
    while scan.frames < n or tag2.finished < tag2.n_tagged:
        if scan.frames < n:
            k = min(chunk, n - scan.frames)
            u1, u2 = rng1.random(out=draws[:k]), rng2.random(out=draws[chunk:chunk + k])
        else:
            k = min(chunk, _MAX_RUN_ON_FRAMES - (scan.frames - n))
            if k == 0:
                raise RuntimeError(
                    f"tagged bits still queued {_MAX_RUN_ON_FRAMES} frames past "
                    "the horizon; queues are effectively unstable")
            # hop 1 takes the even draws and hop 2 the odd ones
            u1, u2 = rng2.random(out=draws[:2 * k]).reshape(k, 2).T
        dep1, dep2 = scan.step(_to_service(u1, bt, snr1), _to_service(u2, bt, snr2))
        # e2e never runs ahead of hop 1 (dep2 <= arr2 <= dep1), so the hop-1
        # delays of the bits it finalised are held already
        held = np.concatenate((held, tag1.feed(dep1)))
        e2e = tag2.feed(dep2)
        hop1, held = held[:e2e.size], held[e2e.size:]
        hop2 = e2e - hop1
        hop2 -= 1  # the frame the relay holds each bit before forwarding it
        yield hop1, hop2, e2e


def simulate_tandem(scenario: Scenario, allocation: Allocation,
                    cfg: SimConfig, *, hop_arrays: bool = True) -> DelayStats:
    """Simulate the tandem queue and record per-hop and end-to-end delays.

    The run is :func:`_pieces`' (bits arriving in frames warmup..n-1 are
    tagged, and the scan runs on past the horizon until each has left both
    hops); this stores and counts the delay pieces it yields.  The delay
    arrays are allocated as uint8, 1 B per tagged frame each, once the
    first step has passed the stability check, and widened together to
    uint16 or uint32 only if an e2e delay needs it (e2e bounds both hops);
    being unsigned, they are cast before subtracting.  Each piece is
    written just past the last one and counted into the hop histograms in
    one place.  With ``hop_arrays=False`` only the e2e array is allocated.

    Raises
    ------
    StabilityError, RuntimeError
        As :func:`_pieces`: a hop whose mean service rate does not exceed
        its mean arrival rate, or a tagged bit still queued
        _MAX_RUN_ON_FRAMES frames past the horizon.
    """
    arrays, counts = [], [np.zeros(1, dtype=np.int64)] * 2  # delay arrays, hop histograms
    start = 0  # tagged bits stored so far; the pieces come in bit order
    for hop1, hop2, e2e in _pieces(scenario, allocation, cfg):
        if not arrays:  # the first step has passed the stability check
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
    method of batch means (Law & Kelton): the series is cut into
    min(30, n) contiguous batches of near-equal size and the half-width is
    t(0.975, b - 1) * sd(batch fractions) / sqrt(b).  With a single sample
    it is infinite.  When no sample exceeds x, or every one does, the batch
    fractions cannot spread, so the half-width is undefined (NaN), not 0.
    A NaN x raises ValueError.
    """
    if math.isnan(x):
        raise ValueError(f"x must not be NaN, got {x!r}")
    samples = np.asarray(samples)
    n = samples.size
    if n == 0:
        raise ValueError("empirical_ccdf needs at least one sample")
    batches = np.array_split(samples, min(_CCDF_BATCHES, n))
    exceed = [int(np.count_nonzero(b > x)) for b in batches]
    total = sum(exceed)
    p = total / n
    b = len(batches)
    if b == 1:
        return p, math.inf
    if total in (0, n):
        return p, math.nan
    means = [e / batch.size for e, batch in zip(exceed, batches)]
    return p, _T975[b - 2] * float(np.std(means, ddof=1)) / math.sqrt(b)


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
