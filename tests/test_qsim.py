"""Tests for the tandem-queue simulator.

The chunked backlog recursion and delay tagging are checked exactly against
a straightforward per-frame Python reference simulator that keeps its
queues in nats and tags bits by a binary search of each cumulative
departure's bit index floor(dep/load + 1e-6), at chunk sizes down to one
frame and loads from 1e-305 to 2.5e3 nats/frame; the O(n) tagging helper
against a binary search of the bit indices of backlogs in frames of load
placed on, and one ulp beside, the largest value that keeps each whole
number of bits queued; the hop histograms the scan counts against
np.bincount of its hop arrays; the histogram tail statistics against the
sort-based originals kept here; the batch-means half-width against a Markov
series of known asymptotic variance; and the tail-slope estimator against
synthetic exponential samples with a known rate.
"""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from relayqos import cli, qsim
from relayqos.allocator import Allocation, Scenario, allocate
from relayqos.qsim import (
    _SIM_CHUNK,
    _T975,
    _Tagger,
    _TandemScan,
    _count_into,
    _pieces,
    BODY_CCDF,
    MIN_TAIL_EXCEEDANCES,
    TAIL_CCDF,
    DelayHistogram,
    InsufficientTailData,
    SimConfig,
    StabilityError,
    empirical_ccdf,
    simulate_tandem,
    suggest_fit_window,
    tail_slope,
)

LOAD_100KBPS = 138.62943611198906

SCENARIO = Scenario(traffic_load=LOAD_100KBPS, delay_bound=50.0,
                    violation_prob=1e-2, bt_product=200.0)

# The CLI point --delay_bound 0.006 --violation_prob 1e-6 loads both hops
# lightly (utilisation 0.35 and 0.33), so both queues sit empty, with a
# backlog of exactly 0, in most frames.
LIGHT_SCENARIO = cli.to_scenario(cli.RadioProfile(delay_bound=0.006, violation_prob=1e-6))


def tiny_load_services(rng, n):
    """Services of mean 3e15 against a unit load, 40% of frames without any.

    The load lies below the ulp of a chunk's net input, so rounding can
    raise a backlog by more than the frame of load that arrived, and the
    bit index it lets out falls inside some chunks.
    """
    return np.where(rng.random(n) < 0.4, 0.0, rng.exponential(3e15, n))


def no_queueing_e2e(load, kappa):
    """E2e delays of 2000 frames at B*T = 200 with both power ratios kappa."""
    scenario = Scenario(traffic_load=load, delay_bound=50.0,
                        violation_prob=1e-2, bt_product=200.0)
    generous = Allocation(kappa1=kappa, kappa2=kappa, theta1=1e-3, theta2=1e-3,
                          delay_rate=0.1, residuals={})
    cfg = SimConfig(n_frames=2000, warmup_frames=10, seed=0)
    return simulate_tandem(scenario, generous, cfg).e2e_delays


def reference_delays(scenario, allocation, cfg):
    """Per-frame reference simulator: explicit queues, explicit bit tracking.

    Independent of the vectorized implementation; replays the same gain
    streams by drawing from identically keyed generators, hop 1 from
    Philox(seed) and hop 2 from its jumped copy, one draw each per frame.
    It keeps its queues in nats and divides each departure value by the
    load for its bit index, where the simulator counts in frames of load
    throughout, and it runs until the queues hold under a billionth of a
    frame of load, whatever the load.
    """
    n = cfg.n_frames
    bits = np.random.Philox(key=cfg.seed)
    rng1, rng2 = np.random.Generator(bits), np.random.Generator(bits.jumped())
    h1 = -scenario.hop1_mean_gain * np.log1p(-rng1.random(n))
    h2 = -scenario.hop2_mean_gain * np.log1p(-rng2.random(n))
    s1 = scenario.bt_product * np.log1p(allocation.kappa1 * h1)
    s2 = scenario.bt_product * np.log1p(allocation.kappa2 * h2)

    load = scenario.traffic_load
    q1 = q2 = 0.0
    pending = 0.0  # hop 1's output in flight to the relay, forwarded next frame
    dep1, dep2 = [], []
    cum1 = cum2 = 0.0
    extra_frames = 0
    t = 0
    # run must continue past n until both queues drain so every bit departs
    while t < n or max(q1, q2, pending) > 1e-9 * load:
        if t < n:
            sv1, sv2 = s1[t], s2[t]
            arrive = load
        else:
            sv1 = scenario.bt_product * math.log1p(
                -allocation.kappa1 * scenario.hop1_mean_gain * math.log1p(-rng1.random()))
            sv2 = scenario.bt_product * math.log1p(
                -allocation.kappa2 * scenario.hop2_mean_gain * math.log1p(-rng2.random()))
            arrive = 0.0
            extra_frames += 1
            assert extra_frames < 100_000
        q1 += arrive
        served1 = min(q1, sv1)
        q1 -= served1
        q2 += pending
        pending = served1
        served2 = min(q2, sv2)
        q2 -= served2
        cum1 += served1
        cum2 += served2
        dep1.append(cum1)
        dep2.append(cum2)
        t += 1

    # the bit index each departure value reaches
    reached1 = np.floor(np.asarray(dep1) / load + 1e-6)
    reached2 = np.floor(np.asarray(dep2) / load + 1e-6)
    out1, out2, oute = [], [], []
    for frame in range(cfg.warmup_frames, n):
        tau1 = int(np.searchsorted(reached1, frame + 1))
        tau2 = int(np.searchsorted(reached2, frame + 1))
        out1.append(tau1 - frame)
        out2.append(tau2 - tau1 - 1)
        oute.append(tau2 - frame)
    return np.asarray(out1), np.asarray(out2), np.asarray(oute)


def bit_indices(backlog, fed=0):
    """Bit index each frame's backlog lets through: t - ceil(B - 1e-6).

    Frame t counts from ``fed``, the frame of the backlog's first value.
    """
    frames = np.arange(fed, fed + backlog.size, dtype=np.int64)
    return frames - np.ceil(backlog - 1e-6).astype(np.int64)


def drained(backlog, last):
    """The backlog's pieces, then an empty queue until bit ``last`` has passed.

    ``last`` counts from the backlog's first frame.
    """
    fed = sum(part.size for part in backlog)
    return (*backlog, np.zeros(max(last + 1 - fed, 1)))


def tagger_waits(backlog, first, last, fed=0):
    """Frames waited per tagged bit, by the O(n) tagger fed piece by piece.

    The backlog, in frames of load, is fed in its pieces from frame
    ``fed``, then the queue drains: with nothing held each frame lets
    through the load arrived before it, so every tagged bit passes.  The
    tagger returns each bit's delay once it is final.
    """
    tagger = _Tagger(first, last)
    parts = []
    for part in drained(backlog, last - fed):
        parts.append(tagger.feed(part, fed))
        fed += part.size
    assert tagger.finished == tagger.n_tagged
    return np.concatenate(parts)


def searchsorted_waits(backlog, first, last, fed=0):
    """Frames waited per tagged bit, by binary search of each bit's index.

    Bit c passes in the first frame whose bit index reaches it, so the
    search runs over the indices' running maximum, from frame ``fed``.
    """
    reached = np.maximum.accumulate(
        bit_indices(np.concatenate(drained(backlog, last - fed)), fed))
    tagged = np.arange(first, last, dtype=np.int64)
    return fed + np.searchsorted(reached, tagged + 1, side="left") - tagged


def backlog_boundaries(qs):
    """Largest double B, in frames of load, with ceil(B - 1e-6) <= q, for each q.

    q is a whole number of bits queued.  Starts from q + 1e-6, the real
    boundary, and steps one ulp at a time until B keeps no more than q bits
    queued and the double above it keeps more.
    """
    qs = np.asarray(qs, dtype=np.float64)
    b = qs + 1e-6
    while True:
        above = np.nextafter(b, np.inf)
        up = np.ceil(above - 1e-6) <= qs
        down = np.ceil(b - 1e-6) > qs
        if not (up.any() or down.any()):
            return b
        b = np.where(up, above, np.where(down, np.nextafter(b, -np.inf), b))


def near_boundaries(qs, where):
    """Backlogs on, one ulp below or above, or half a frame below the
    boundaries of whole numbers of bits queued qs (see backlog_boundaries).

    "at", "below" and "mid" keep q bits queued and "above" keeps q + 1.
    """
    b = backlog_boundaries(qs)
    return {"at": b, "below": np.nextafter(b, -np.inf),
            "above": np.nextafter(b, np.inf), "mid": np.maximum(b - 0.5, 0.0)}[where]


def headline_services(allocation, rng, n):
    """Both hops' services at SCENARIO over n frames, in frames of load."""
    scale = SCENARIO.bt_product / SCENARIO.traffic_load
    return (scale * np.log1p(allocation.kappa1 * rng.exponential(1.0, n)),
            scale * np.log1p(allocation.kappa2 * rng.exponential(1.0, n)))


def scanned(s1, s2, chunk):
    """Backlogs (Q1(t-1), B(t)) of a _TandemScan stepped chunk by chunk."""
    scan = _TandemScan(chunk)
    parts = [[c.copy() for c in scan.step(s1[i:i + chunk].copy(), s2[i:i + chunk].copy())]
             for i in range(0, s1.size, chunk)]
    return tuple(np.concatenate(c) for c in zip(*parts))


def scan_waits(relay_in, backlog):
    """Relay and e2e waits of every bit of a scan's backlogs, the queues then drained."""
    n = backlog.size
    return tagger_waits((relay_in,), 0, n), tagger_waits((backlog,), 0, n)


def least_squares_slope(xs, ys):
    """Slope of the least-squares line, sum(dx*dy) / sum(dx*dx)."""
    dx = xs - xs.mean()
    return float(np.sum(dx * (ys - ys.mean())) / np.sum(dx * dx))


def sorted_tail_slope(samples, x_lo, x_hi):
    """tail_slope's sort-based original: exceedances by binary search."""
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
    return least_squares_slope(xs, -np.log(ccdf))


def sorted_suggest_fit_window(samples, min_exceedances=MIN_TAIL_EXCEEDANCES,
                              body_ccdf=BODY_CCDF, tail_ccdf=TAIL_CCDF):
    """suggest_fit_window's sort-based original: one integer step at a time."""
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
            int(n - np.searchsorted(ordered, x_lo + 4, side="right")),
            math.ceil(floor), float(x_lo + 4))
    return x_lo, x_hi


def outcome(fn, *args, **kwargs):
    """A call's value, or its exception's type, message and shortfall."""
    try:
        return fn(*args, **kwargs)
    except (InsufficientTailData, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "achieved", None),
                getattr(exc, "required", None))


@st.composite
def tail_samples(draw):
    """Delay-like samples: whole frames 0..60 in runs of repeated values."""
    points = draw(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 400)),
                           max_size=12))
    samples = np.repeat(np.array([v for v, _ in points], dtype=np.int64),
                        [k for _, k in points])
    return np.random.default_rng(draw(st.integers(0, 99))).permutation(samples)


@st.composite
def tagging_cases(draw):
    last = draw(st.integers(1, 60))
    first = draw(st.sampled_from([0, last - 1]) | st.integers(0, last - 1))
    fed = draw(st.sampled_from([0, 2**32]) | st.integers(0, 100))
    points = sorted(draw(st.lists(
        st.tuples(st.integers(0, last + 2),
                  st.sampled_from(["at", "below", "above", "mid"]),
                  st.integers(1, 4)),  # repeats make flat runs
        min_size=1, max_size=120)))
    # frame t reaches bit c, or one short of it "above", and a queue holds
    # no less than nothing, so c never passes the load arrived before it, t
    wheres = [where for _, where, k in points for _ in range(k)]
    reach = np.repeat([c for c, _, _ in points], [k for _, _, k in points])
    frames = np.arange(reach.size)
    queued = frames - np.minimum(reach, frames)
    backlog = np.array([near_boundaries(q, where) for q, where in zip(queued, wheres)])
    cut = draw(st.integers(0, backlog.size))  # one scan step | the next
    # the same backlogs from frame fed on, the tagged bits shifted with them
    return (backlog[:cut], backlog[cut:]), first + fed, last + fed, fed


@pytest.fixture(scope="module")
def headline_allocation():
    return allocate(SCENARIO)


def assert_histograms_count_hops(stats):
    """The histograms streamed by the scan are np.bincount of the hop arrays."""
    for hist, delays in ((stats.hop1_histogram, stats.hop1_delays),
                         (stats.hop2_histogram, stats.hop2_delays)):
        assert hist.counts.sum() == delays.size
        assert np.array_equal(hist.counts, np.bincount(delays, minlength=1))


def assert_lean_run_matches(scenario, allocation, cfg, stats):
    """hop_arrays=False keeps e2e and both histograms, bit for bit, and no hop arrays."""
    lean = simulate_tandem(scenario, allocation, cfg, hop_arrays=False)
    assert lean.hop1_delays is None and lean.hop2_delays is None
    assert lean.e2e_delays.dtype == stats.e2e_delays.dtype
    assert np.array_equal(lean.e2e_delays, stats.e2e_delays)
    for got, want in ((lean.hop1_histogram, stats.hop1_histogram),
                      (lean.hop2_histogram, stats.hop2_histogram)):
        assert np.array_equal(got.counts, want.counts)


class TestSimConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(n_frames=10, warmup_frames=10)
        with pytest.raises(ValueError):
            SimConfig(n_frames=10, warmup_frames=-1)

    def test_forwarding_is_not_a_setting(self):
        # the relay decodes and forwards: its one model is read, never set
        assert SimConfig(n_frames=10).relay_forwarding == "store-and-forward"
        with pytest.raises(TypeError, match="relay_forwarding"):
            SimConfig(n_frames=10, relay_forwarding="cut-through")

    @pytest.mark.parametrize("name, value", [
        ("n_frames", 1000.5), ("n_frames", 1000.0), ("warmup_frames", 10.0),
        ("seed", 1.5), ("seed", "1"), ("n_frames", True), ("warmup_frames", False),
        ("seed", True), ("n_frames", np.bool_(True))])
    def test_counts_and_seed_are_whole_numbers(self, name, value):
        # a float horizon was truncated by the run yet printed whole in the
        # report, a float warm-up failed inside numpy, a float seed was
        # silently truncated, and True ran a 1-frame horizon
        with pytest.raises(TypeError, match=f"^{name} must be a whole number"):
            SimConfig(**{"n_frames": 1000, name: value})
        SimConfig(n_frames=np.int64(1000), warmup_frames=np.uint8(10), seed=np.int64(3))

    def test_seed_is_a_philox_key(self):
        # Philox takes keys 0 <= key < 2**128; the check names the seed
        SimConfig(n_frames=10, seed=2**128 - 1)
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*128\)"):
                SimConfig(n_frames=10, seed=seed)



class TestFramesWaited:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tagging_cases())
    def test_matches_searchsorted(self, case):
        backlog, first, last, fed = case
        waits = tagger_waits(backlog, first, last, fed)
        assert waits.dtype == np.intp
        assert np.array_equal(waits, searchsorted_waits(backlog, first, last, fed))

    @pytest.mark.parametrize("fed", [0, 1])
    @pytest.mark.parametrize("where", ["at", "below", "above"])
    def test_values_on_and_beside_every_target(self, where, fed):
        # a backlog on its boundary or one ulp below it keeps q bits held,
        # and one ulp above keeps q + 1.  Frame t holds t // 2 bits, so the
        # boundaries run over every q up to 20,000 frames of load.  The
        # backlog is fed in two pieces of 25,001 and 14,999 frames, each
        # tagged in one pass, and its bit index reaches past the last bit.
        # Fed from frame 1 with the same tagged bits, every bit index is one
        # higher, so each boundary lets through one bit more than from frame 0.
        last = 20_000
        backlog = near_boundaries(np.arange(2 * last) // 2, where)
        pieces = (backlog[:25_001], backlog[25_001:])
        for first in (0, 7, last - 1):
            assert np.array_equal(tagger_waits(pieces, first, last, fed),
                                  searchsorted_waits(pieces, first, last, fed))

    def test_backlog_ending_below_last_target(self):
        # nothing has arrived before frame 0, and frame t >= 1 holds
        # (t - 1) // 2 + 1 bits, so after eleven frames bits 1..5 have
        # passed; the queue then empties, and bits 6..11 pass in its first
        # empty frame, 11, and later bits in the frame after they arrive
        last = 40
        backlog = np.append(0.0, near_boundaries(np.arange(10) // 2, "above"))
        waits = tagger_waits((backlog[:5], backlog[5:]), 0, last)
        assert np.array_equal(waits, searchsorted_waits((backlog,), 0, last))
        assert np.array_equal(waits[5:11], 11 - np.arange(5, 11))
        assert (waits[11:] == 1).all()

    def test_clips_only_pieces_reaching_past_the_tagged_bits(self):
        # m = t - ceil(B - 1e-6) - first - finished never falls, so feed
        # clips a piece to [0, n_tagged - finished] only when one of its
        # ends lies outside: the first piece starts below bit first, the
        # second lies inside and the third runs past bit last.  The waits
        # equal the binary search's, which equal those of clipping every piece.
        first, last = 2, 10
        pieces = [near_boundaries(qs, "at") for qs in ([1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0])]
        tagger = _Tagger(first, last)
        clipped, waits, fed = [], [], 0
        for piece in pieces:
            m = bit_indices(piece, fed)[[0, -1]] - first - tagger.finished
            clipped.append(bool(m[0] < 0 or m[-1] > tagger.n_tagged - tagger.finished))
            waits.append(tagger.feed(piece, fed))
            fed += piece.size
        assert clipped == [True, False, True]
        assert tagger.finished == tagger.n_tagged
        assert np.array_equal(np.concatenate(waits),
                              searchsorted_waits(pieces, first, last))

    def test_single_tagged_frame(self):
        # the bit arrives in frame 0 and five frames, 1..5, keep it held,
        # each by one ulp of backlog, so it passes in frame 6
        backlog = np.append(0.0, near_boundaries([0, 1, 2, 3, 4, 4], "above"))
        assert list(tagger_waits((backlog,), 0, 1)) == [6]

    def test_empty_queue_lets_each_bit_through_a_frame_after_it_arrives(self):
        # an empty queue lets through the load arrived before the frame, so
        # every tagged bit waits one frame, at the relay's input and at the
        # tandem's exit alike
        last = 5000
        backlog = np.zeros(2 * last)
        pieces = (backlog[:3001], backlog[3001:])
        for first in (0, 7, last - 1):
            waits = tagger_waits(pieces, first, last)
            assert (waits == 1).all()
            assert np.array_equal(waits, searchsorted_waits(pieces, first, last))

    @pytest.mark.parametrize("field, lag", [("hop1_delays", 0), ("e2e_delays", 1)],
                             ids=["hop1", "e2e"])
    def test_empty_queue_waits_its_lag(self, headline_allocation, monkeypatch, field, lag):
        # services of three frames of load more than the channel gives keep
        # both queues empty, so the relay decodes each bit in the frame it
        # arrives and forwards it the next, where hop 2 lets it through at
        # once: hop 1's delay is 0 frames, hop 2's 0 and the tandem's 1
        to_service = qsim._to_service
        monkeypatch.setattr(qsim, "_to_service",
                            lambda s, bt, snr: to_service(s, bt, snr) + 3.0)
        cfg = SimConfig(n_frames=5000, warmup_frames=100, seed=5)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        assert stats.e2e_delays.size == cfg.tagged_frames
        assert (getattr(stats, field) == lag).all()
        assert (stats.hop2_delays == 0).all()

    @pytest.mark.parametrize("shift", [2**32, 10**12], ids=["2**32", "1e12"])
    def test_frame_count_does_not_matter(self, headline_allocation, shift):
        # the frame count enters the bit index only as an integer, so the
        # same backlogs give the same delays however far into a run they
        # come: the tagged bits and each piece's first frame are all shifted
        rng = np.random.default_rng(4)
        n, chunk, first, last = 3000, 700, 100, 2800
        s1, s2 = headline_services(headline_allocation, rng, n)
        for backlog in scanned(s1, s2, chunk):
            pieces = [backlog[i:i + chunk] for i in range(0, n, chunk)]
            want = tagger_waits(pieces, first, last)
            got = tagger_waits(pieces, first + shift, last + shift, shift)
            assert np.array_equal(got, want)


class TestSimulateTandem:
    @pytest.mark.parametrize("scenario", [SCENARIO, LIGHT_SCENARIO] + [
        Scenario(traffic_load=load, delay_bound=50.0, violation_prob=1e-2, bt_product=200.0)
        for load in (7.3e-3, 0.1, 1.0 / 3.0, 2.5e3, 1e-300, 1e-305)],
        ids=["headline", "light", "7.3e-3", "0.1", "1/3", "2.5e3", "1e-300", "1e-305"])
    def test_matches_reference_simulator(self, scenario):
        # the reference queues in nats and divides by the load, so loads from
        # near the smallest normal double up to thousands of nats per frame
        # check the simulator's frames of load independently
        allocation = allocate(scenario)
        cfg = SimConfig(n_frames=4000, warmup_frames=100, seed=5)
        stats = simulate_tandem(scenario, allocation, cfg)
        ref1, ref2, refe = reference_delays(scenario, allocation, cfg)
        assert np.array_equal(stats.hop1_delays, ref1)
        assert np.array_equal(stats.hop2_delays, ref2)
        assert np.array_equal(stats.e2e_delays, refe)

    @pytest.mark.parametrize("n,warmup", [(1, 0), (2, 1), (60, 0), (60, 59)])
    def test_matches_reference_at_horizon_edges(self, headline_allocation, n, warmup):
        cfg = SimConfig(n_frames=n, warmup_frames=warmup, seed=8)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        for got, want in zip((stats.hop1_delays, stats.hop2_delays,
                              stats.e2e_delays),
                             reference_delays(SCENARIO, headline_allocation, cfg)):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 4096])
    @pytest.mark.parametrize("n,warmup", [(1, 0), (8, 3), (50, 8), (4100, 4097),
                                          (8195, 100)])
    def test_chunk_boundaries(self, headline_allocation, monkeypatch,
                              chunk, n, warmup):
        # horizons that are not a multiple of the chunk, and warm-ups that
        # end just past a chunk boundary, give the per-frame reference's
        # delays and the default chunk's, bit for bit
        cfg = SimConfig(n_frames=n, warmup_frames=warmup, seed=6)
        whole = simulate_tandem(SCENARIO, headline_allocation, cfg)
        monkeypatch.setattr(qsim, "_SIM_CHUNK", chunk)
        chunked = simulate_tandem(SCENARIO, headline_allocation, cfg)
        for got, default, want in zip(
                (chunked.hop1_delays, chunked.hop2_delays, chunked.e2e_delays),
                (whole.hop1_delays, whole.hop2_delays, whole.e2e_delays),
                reference_delays(SCENARIO, headline_allocation, cfg)):
            assert got.dtype == np.uint8
            assert np.array_equal(got, default)
            assert np.array_equal(got, want)
        assert_histograms_count_hops(chunked)
        assert_lean_run_matches(SCENARIO, headline_allocation, cfg, chunked)
        # the producer's pieces are intp, never negative, and in bit order
        # cover each tagged bit once: their concatenation is the arrays
        pieces = list(_pieces(SCENARIO, headline_allocation, cfg))
        assert all(p.dtype == np.intp and p.min(initial=0) >= 0
                   for piece in pieces for p in piece)
        for got, want in zip(map(np.concatenate, zip(*pieces)),
                             (chunked.hop1_delays, chunked.hop2_delays, chunked.e2e_delays)):
            assert np.array_equal(got, want)

    def test_stability_checked_before_allocating(self):
        # an unstable run fails its stability check before any frame-length
        # array is allocated; this horizon's delay arrays would take 909 TiB
        starved = Allocation(kappa1=1e-9, kappa2=1e-9, theta1=1e-3, theta2=1e-3,
                             delay_rate=0.1, residuals={})
        scenario = Scenario(traffic_load=138.6, delay_bound=50.0, violation_prob=1e-2)
        with pytest.raises(StabilityError, match="hop 1"):
            simulate_tandem(scenario, starved, SimConfig(n_frames=10**15))

    def test_numpy_integer_config_runs(self, headline_allocation):
        # SimConfig holds numpy integers as int: a uint8 warm-up subtracted
        # from the horizon in its own type overflows
        cfg = SimConfig(n_frames=np.int64(1000), warmup_frames=np.uint8(10), seed=np.int64(3))
        assert {type(cfg.n_frames), type(cfg.warmup_frames), type(cfg.seed)} == {int}
        assert cfg.tagged_frames == 990
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        plain = simulate_tandem(SCENARIO, headline_allocation,
                                SimConfig(n_frames=1000, warmup_frames=10, seed=3))
        assert stats.frames_simulated == 1000 and stats.e2e_delays.size == 990
        assert np.array_equal(stats.e2e_delays, plain.e2e_delays)

    @pytest.mark.parametrize("chunk", [3, _SIM_CHUNK])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1001])
    def test_each_hop_reads_its_own_stream(self, headline_allocation,
                                           monkeypatch, chunk, n):
        # whatever the horizon, run-on included, hop 1's uniforms are the
        # first values of the Philox(seed) stream and hop 2's the first of
        # that key's jumped stream, one per frame scanned
        drawn = []
        to_service = qsim._to_service

        def recording(s, bt, snr):
            drawn.append(s.copy())
            return to_service(s, bt, snr)

        monkeypatch.setattr(qsim, "_to_service", recording)
        monkeypatch.setattr(qsim, "_SIM_CHUNK", chunk)
        simulate_tandem(SCENARIO, headline_allocation, SimConfig(n_frames=n, seed=3))
        u1, u2 = np.concatenate(drawn[0::2]), np.concatenate(drawn[1::2])
        assert u1.size == u2.size > n
        hop1, hop2 = np.random.Philox(key=3), np.random.Philox(key=3).jumped()
        assert np.array_equal(u1, np.random.Generator(hop1).random(u1.size))
        assert np.array_equal(u2, np.random.Generator(hop2).random(u2.size))

    def test_run_on_over_many_steps(self, headline_allocation, monkeypatch):
        # the last tagged bit leaves the relay more than ten frames past the
        # horizon, so with two-frame chunks the run-on takes several steps
        cfg = SimConfig(n_frames=201, warmup_frames=150, seed=7)
        monkeypatch.setattr(qsim, "_SIM_CHUNK", 2)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        assert stats.e2e_delays[-1] >= 11
        for got, want in zip((stats.hop1_delays, stats.hop2_delays,
                              stats.e2e_delays),
                             reference_delays(SCENARIO, headline_allocation, cfg)):
            assert np.array_equal(got, want)

    def test_run_on_cap(self, headline_allocation, monkeypatch):
        # the last tagged bit, from frame n - 1, departs e2e_delays[-1]
        # frames after it, so the run-on needs exactly that many frames
        cfg = SimConfig(n_frames=201, seed=7)
        needed = int(simulate_tandem(SCENARIO, headline_allocation, cfg).e2e_delays[-1])
        assert needed > 1
        monkeypatch.setattr(qsim, "_MAX_RUN_ON_FRAMES", needed)
        simulate_tandem(SCENARIO, headline_allocation, cfg)
        monkeypatch.setattr(qsim, "_MAX_RUN_ON_FRAMES", 1)
        with pytest.raises(RuntimeError, match="1 frames past the horizon"):
            simulate_tandem(SCENARIO, headline_allocation, cfg)

    @pytest.mark.parametrize("chunk,seed,warmup,n,longer", [
        (chunk, *case) for chunk in (1, 7, _SIM_CHUNK)
        for case in ((0, 0, 1, 40), (4, 10, 150, 151), (9, 99, 300, 1000))
    ] + [(chunk, 13, 500, 17_000, 20_000) for chunk in (7, _SIM_CHUNK)])
    def test_run_is_prefix_of_longer_run(self, headline_allocation, monkeypatch,
                                         chunk, seed, warmup, n, longer):
        # each hop's draws do not depend on the horizon, so the delays of a
        # horizon's tagged bits are the first entries of a longer run's at
        # the same seed and warm-up, whatever the chunk, and so is the e2e
        # array of a run that keeps no hop arrays
        monkeypatch.setattr(qsim, "_SIM_CHUNK", chunk)
        short = simulate_tandem(SCENARIO, headline_allocation,
                                SimConfig(n_frames=n, warmup_frames=warmup, seed=seed))
        cfg = SimConfig(n_frames=longer, warmup_frames=warmup, seed=seed)
        full = simulate_tandem(SCENARIO, headline_allocation, cfg)
        lean = simulate_tandem(SCENARIO, headline_allocation, cfg, hop_arrays=False)
        tagged = n - warmup
        for got, want in zip((short.hop1_delays, short.hop2_delays, short.e2e_delays),
                             (full.hop1_delays, full.hop2_delays, full.e2e_delays)):
            assert got.size == tagged
            assert np.array_equal(got, want[:tagged])
        assert np.array_equal(lean.e2e_delays[:tagged], short.e2e_delays)

    @pytest.mark.parametrize("chunk", [8, _SIM_CHUNK])
    def test_run_on_takes_whole_chunks(self, headline_allocation, monkeypatch,
                                       chunk):
        # the last tagged bit needs e2e_delays[-1] frames past the horizon;
        # every step is one chunk, the one crossing the horizon too, so the
        # run passes that need by less than a chunk
        frames = []
        step = _TandemScan.step

        def counting(scan, s1, s2):
            frames.append(s1.size)
            return step(scan, s1, s2)

        monkeypatch.setattr(_TandemScan, "step", counting)
        monkeypatch.setattr(qsim, "_SIM_CHUNK", chunk)
        cfg = SimConfig(n_frames=201, seed=7)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        needed = int(stats.e2e_delays[-1])
        assert set(frames) == {chunk}
        assert needed <= sum(frames) - cfg.n_frames < needed + chunk

    @pytest.mark.parametrize("chunk", [1, 7, 4096, _SIM_CHUNK])
    @pytest.mark.parametrize("kappa2", [0.005030050640275492, 10.0])
    def test_widens_past_one_byte(self, monkeypatch, chunk, kappa2):
        # hop 1 barely outruns a unit load with exponential-like service, so
        # its backlog wanders to delays past 255 frames.  A bit's three
        # delays are written when its e2e delay is final, and the arrays
        # widen on that e2e delay, which bounds both hops (e2e = hop 1 +
        # hop 2 + 1).  With hop 2 as tight as hop 1 or generous, they widen
        # to uint16, whichever chunk that falls in.
        scenario = Scenario(traffic_load=1.0, delay_bound=50.0,
                            violation_prob=1e-2, bt_product=200.0)
        tight = Allocation(kappa1=0.005030050640275492, kappa2=kappa2,
                           theta1=1e-3, theta2=1e-3, delay_rate=0.1, residuals={})
        cfg = SimConfig(n_frames=20_000, warmup_frames=100, seed=0)
        monkeypatch.setattr(qsim, "_SIM_CHUNK", chunk)
        stats = simulate_tandem(scenario, tight, cfg)
        want = reference_delays(scenario, tight, cfg)
        assert want[0].max() > 255
        for got, ref in zip((stats.hop1_delays, stats.hop2_delays,
                             stats.e2e_delays), want):
            assert got.dtype == np.uint16
            assert np.array_equal(got, ref)
        assert_histograms_count_hops(stats)
        assert_lean_run_matches(scenario, tight, cfg, stats)

    @pytest.mark.parametrize("chunk,n", [(1, 5000), (3, 5000),
                                         (_SIM_CHUNK, 3 * _SIM_CHUNK)])
    def test_e2e_never_finalises_past_hop1(self, headline_allocation,
                                           monkeypatch, chunk, n):
        # hop 2's delay is formed from the relay wait already in place.  In
        # every frame the tandem's backlog B(t) = Q1(t-1) + Q2(t) never
        # rounds below the relay's input Q1(t-1), so the e2e bit index is
        # no more than the relay's, and after every step the e2e tagger has
        # finalised no more bits.  Each horizon spans several chunks, so
        # e2e has steps at which to lag.
        calls = []
        feed = _Tagger.feed

        def recording(tagger, backlog, fed):
            delays = feed(tagger, backlog, fed)
            calls.append((tagger, backlog.copy(), fed, tagger.finished))
            return delays

        monkeypatch.setattr(_Tagger, "feed", recording)
        monkeypatch.setattr(qsim, "_SIM_CHUNK", chunk)
        cfg = SimConfig(n_frames=n, warmup_frames=50, seed=9)
        simulate_tandem(SCENARIO, headline_allocation, cfg)
        relay, e2e = calls[0::2], calls[1::2]
        assert len(relay) == len(e2e) > n // chunk
        assert len({r[0] for r in relay}) == len({e[0] for e in e2e}) == 1
        assert relay[0][0] is not e2e[0][0]
        # each step feeds both taggers its backlogs from the same first frame
        assert [r[2] for r in relay] == [e[2] for e in e2e] == list(range(0, len(e2e) * chunk, chunk))
        for (_, relay_in, fed, _), (_, backlog, _, _) in zip(relay, e2e):
            assert (bit_indices(backlog, fed) <= bit_indices(relay_in, fed)).all()
        done = [(r[3], e[3]) for r, e in zip(relay, e2e)]
        assert all(b <= a for a, b in done)
        assert done[-1] == (n - 50, n - 50)
        # e2e lags at some step, so the pairing is exercised
        assert any(b < a for a, b in done)

    def test_peak_memory_per_frame(self, headline_allocation):
        # the three delay arrays returned, one byte per frame each at this
        # load, are the only memory that grows with the horizon: the gain
        # draws, both scans and the tagging run in chunk-sized buffers,
        # bounded here by twelve float64 arrays of _SIM_CHUNK values.  A
        # first short run imports numpy.random, which is no part of a run's
        # scratch.
        simulate_tandem(SCENARIO, headline_allocation, SimConfig(n_frames=2))
        for n in (200_000, 1_000_000):
            cfg = SimConfig(n_frames=n, seed=2)
            tracemalloc.start()
            try:
                stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            returned = (stats.hop1_delays.nbytes + stats.hop2_delays.nbytes
                        + stats.e2e_delays.nbytes)
            assert returned == 3 * n
            assert peak - returned <= 8 * 12 * _SIM_CHUNK

    def test_delay_decomposition(self, headline_allocation):
        cfg = SimConfig(n_frames=20_000, warmup_frames=500, seed=3)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        # the delays are unsigned: cast before adding, or a negative hop 2
        # would wrap
        hop1, hop2, e2e = (a.astype(np.int64) for a in (
            stats.hop1_delays, stats.hop2_delays, stats.e2e_delays))
        # store-and-forward: the relay forwards one frame after it decodes.
        # The identity holds by construction, hop 1 being the relay wait
        # less that frame and hop 2 e2e less the relay wait; a negative hop
        # 2, an e2e tagger running ahead of the relay's, still fails both
        assert np.array_equal(e2e, hop1 + hop2 + 1)
        assert (e2e - hop1 - 1 >= 0).all()

    def test_sample_counts(self, headline_allocation):
        cfg = SimConfig(n_frames=5000, warmup_frames=750, seed=1)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        assert stats.frames_simulated == 5000
        assert stats.e2e_delays.size == 5000 - 750
        assert stats.hop1_delays.size == stats.hop2_delays.size == 4250

    @pytest.mark.parametrize("light", [False, True], ids=["headline", "light"])
    def test_flow_conservation(self, headline_allocation, light):
        # services and backlogs are in frames of load.  Each backlog follows
        # Lindley's recursion, hop 1 receiving a frame of load each frame and
        # hop 2 hop 1's departures of the frame before; exactly, the relay's
        # input Q1(t-1) is not negative and the tandem's backlog
        # B(t) = Q1(t-1) + Q2(t) is no less than it.  Light services are at
        # least three loads, so both queues stay empty.
        rng = np.random.default_rng(2)
        n, chunk = 3000, 700  # five chunks, the last one short
        if light:
            s1, s2 = 3.0 + rng.exponential(1.0, (2, n))
        else:
            s1, s2 = headline_services(headline_allocation, rng, n)
        relay_in, backlog = scanned(s1, s2, chunk)
        assert (relay_in >= 0).all() and (backlog >= relay_in).all()
        assert relay_in[0] == 0.0  # nothing has arrived before frame 0
        assert (relay_in == 0).all() == (backlog == 0).all() == light
        # hop 2's carry into the next chunk is the tandem's last backlog,
        # the sum the e2e tagger reads, not a second one
        scan = _TandemScan(chunk)
        for i in range(0, n, chunk):
            _, last = scan.step(s1[i:i + chunk].copy(), s2[i:i + chunk].copy())
            assert scan.carry == last[-1] == backlog[min(i + chunk, n) - 1]
        # the per-frame recursion, to the rounding of one chunk's net input:
        # 1e-12 frames of load is some hundreds of ulps of these backlogs
        want1, want2 = np.empty(n), np.empty(n)
        queued1 = queued2 = departed = 0.0  # departed: hop 1's output a frame back
        for t in range(n):
            after1 = max(queued1 + 1.0 - s1[t], 0.0)
            queued2 = max(queued2 + departed - s2[t], 0.0)
            departed, queued1 = queued1 + 1.0 - after1, after1
            want1[t], want2[t] = queued1, queued2
        assert np.allclose(relay_in, np.append(0.0, want1[:-1]), rtol=0.0, atol=1e-12)
        assert np.allclose(backlog, relay_in + want2, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_step_matches_whole_scan(self, chunk):
        # exponential services of mean 1.05 loads barely outrun hop 1's load,
        # so its backlog wanders to tens of frames.  A chunk's net input
        # starts from the backlog carried, so the backlogs depend on the
        # chunk only by rounding, which the whole scan's net input of some
        # hundreds of frames of load carries: they differ by about 6e-13
        # frames of load here, checked to 1e-11.  The delays they give are
        # the whole scan's, exactly.
        rng = np.random.default_rng(0)
        n = 4000
        s1, s2 = rng.exponential(1.05, n), rng.exponential(1.2, n)
        whole, chunked = scanned(s1, s2, n), scanned(s1, s2, chunk)
        assert whole[0].max() > 30
        for got, want in zip(chunked, whole):
            assert np.allclose(got, want, rtol=0.0, atol=1e-11)
        for got, want in zip(scan_waits(*chunked), scan_waits(*whole)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [1e10, 2.0**40, 1e20, 1e300],
                             ids=["1e10", "2**40", "1e20", "1e300"])
    def test_empty_tandem_departs_on_the_frame_numbers(self, scale):
        # services of scale to twice scale frames of load keep both queues
        # empty: each frame's net input is its running minimum, so both
        # backlogs are exactly 0, chunk after chunk, however far the service
        # outruns the load, and each hop lets out every bit on arrival
        rng = np.random.default_rng(3)
        n, chunk = 3000, 700  # five chunks, the last one short
        s1, s2 = scale * (1.0 + rng.exponential(1.0, (2, n)))
        for backlog in scanned(s1, s2, chunk):
            assert (backlog == 0).all()

    @pytest.mark.parametrize("queued", [True, False])
    def test_bit_index_takes_its_running_maximum(self, queued):
        # a load below the ulp of a chunk's net input lets rounding raise a
        # backlog by more than the frame of load that arrived, so a bit
        # index, t - ceil(B - 1e-6), falls inside some pieces, and
        # the tagger then counts its running maximum; service that always
        # outruns the load keeps both queues empty, and no index falls.
        # Either way the waits equal a binary search of the running maximum.
        rng = np.random.default_rng(0)
        n, chunk = 400, 7
        if queued:
            s1, s2 = tiny_load_services(rng, n), tiny_load_services(rng, n)
        else:
            s1, s2 = 1.0 + rng.exponential(2.5, (2, n))
        for backlog in scanned(s1, s2, chunk):
            falls = np.flatnonzero(np.diff(bit_indices(backlog)) < 0) + 1
            assert (falls % chunk != 0).any() == queued  # a fall inside a piece
            pieces = [backlog[i:i + chunk] for i in range(0, n, chunk)]
            assert np.array_equal(tagger_waits(pieces, 0, n),
                                  searchsorted_waits(pieces, 0, n))

    @pytest.mark.parametrize("load, kappa", [(1e-307, 1e-298), (1e-303, 1.0), (1e-305, 1.0),
                                             (138.6, 1e307)])
    def test_rejects_a_load_whose_scale_overflows(self, load, kappa):
        # the scan counts in frames of load, so each service is scaled by
        # bt_product / traffic_load.  At 1e-307 that scale overflows to
        # infinity; at 1e-303 a chunk's sum of services can, the largest
        # gain being 53 ln 2, and at 1e-305 both.  At the default load an
        # SNR of 1e307 does it alone, so the message names the SNR too.
        # The run refuses before its first step instead of scanning NaN
        # backlogs
        scenario = Scenario(traffic_load=load, delay_bound=50.0,
                            violation_prob=1e-2, bt_product=200.0)
        allocation = Allocation(kappa1=kappa, kappa2=kappa, theta1=1e-3, theta2=1e-3,
                                delay_rate=0.1, residuals={})
        with pytest.raises(ValueError, match="^traffic_load .* bt_product .* overflows") as info:
            simulate_tandem(scenario, allocation, SimConfig(n_frames=100, seed=0))
        assert f"SNR {kappa!r}: " in str(info.value)

    def test_runs_at_a_load_just_above_the_overflow(self):
        # bt_product / traffic_load is 1e308 here, finite, where 1e-306 would
        # overflow; services of about 1e10 frames of load keep the tandem
        # empty, and a chunk of the largest of them is finite, so the guard
        # lets the run through
        assert (no_queueing_e2e(2e-306, 1e-298) == 1).all()

    def test_overwhelming_power_means_no_queueing(self):
        # every bit leaves each hop in the frame it arrives, so its e2e delay
        # is the relay's forwarding frame alone
        assert (no_queueing_e2e(LOAD_100KBPS, 1e9) == 1).all()

    @pytest.mark.parametrize("load", [1e-8, 1e-11, 1e-14, 1e-300])
    def test_services_of_1e10_loads_mean_no_queueing(self, load):
        # services of 1e10 to about 1e302 loads take a run's cumulative
        # service far past 2**53 frames of load; an empty queue's backlog is
        # exactly 0 however large the service, so every bit leaves each hop
        # in the frame it arrives
        assert (no_queueing_e2e(load, 1.0) == 1).all()

    def test_unstable_configuration_rejected(self):
        starved = Allocation(kappa1=1e-3, kappa2=1.0, theta1=1e-3, theta2=1e-3,
                             delay_rate=0.1, residuals={})
        with pytest.raises(StabilityError, match="hop 1"):
            simulate_tandem(SCENARIO, starved, SimConfig(n_frames=100, seed=0))
        relay_starved = Allocation(kappa1=10.0, kappa2=1e-3, theta1=1e-3,
                                   theta2=1e-3, delay_rate=0.1, residuals={})
        with pytest.raises(StabilityError, match="hop 2"):
            simulate_tandem(SCENARIO, relay_starved, SimConfig(n_frames=100, seed=0))

    def test_seed_determinism(self, headline_allocation):
        cfg = SimConfig(n_frames=10_000, warmup_frames=100, seed=11)
        first = simulate_tandem(SCENARIO, headline_allocation, cfg)
        second = simulate_tandem(SCENARIO, headline_allocation, cfg)
        assert np.array_equal(first.e2e_delays, second.e2e_delays)
        other = simulate_tandem(SCENARIO, headline_allocation,
                                SimConfig(n_frames=10_000, warmup_frames=100, seed=12))
        assert not np.array_equal(first.e2e_delays, other.e2e_delays)

    def test_hop1_tail_tracks_analytic_rate(self, headline_allocation):
        # cross-module consistency at moderate scale; the full 1e7-frame check
        # lives in the acceptance suite
        cfg = SimConfig(n_frames=2_000_000, warmup_frames=50_000, seed=4)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        hist = stats.hop1_histogram
        slope = tail_slope(hist, *suggest_fit_window(hist))
        assert slope == pytest.approx(headline_allocation.delay_rate, rel=0.15, abs=0.0)


class TestEmpiricalCcdf:
    def test_small_examples(self):
        assert empirical_ccdf([1, 2, 3], 0)[0] == 1.0
        assert empirical_ccdf([1, 2, 3], 2)[0] == pytest.approx(1.0 / 3.0, rel=1e-6, abs=0.0)
        assert empirical_ccdf([5] * 40, 5)[0] == 0.0

    def test_returns_python_floats(self):
        p, hw = empirical_ccdf(np.arange(10), 4)
        assert type(p) is float and type(hw) is float

    def test_halfwidth(self):
        # 30 contiguous batches: ten of 4 samples (0..39), then twenty of 3;
        # the batch 49..51 has two samples above 49
        p, hw = empirical_ccdf(np.arange(100), 49)
        assert p == pytest.approx(0.5, rel=1e-6, abs=0.0)
        means = [0.0] * 13 + [2.0 / 3.0] + [1.0] * 16
        t = scipy_stats.t.ppf(0.975, 29)
        assert hw == pytest.approx(t * np.std(means, ddof=1) / math.sqrt(30), rel=1e-6, abs=0.0)

    def test_halfwidth_with_fewer_samples_than_batches(self):
        # under 30 samples some batch would be empty: no half-width, though
        # the fraction itself is still counted
        p, hw = empirical_ccdf([1, 2, 3], 2)
        assert p == 1.0 / 3.0 and math.isnan(hw)
        p, hw = empirical_ccdf([7], 1)
        assert p == 1.0 and math.isnan(hw)
        p, hw = empirical_ccdf([0, 1] * 14 + [1], 0)
        assert p == 15.0 / 29.0 and math.isnan(hw)

    def test_halfwidth_undefined_without_spread(self):
        # every batch fraction 0, or every one 1: no spread to measure, so
        # no half-width, not 0 +/- 0
        for samples, x, p in (([5] * 40, 5, 0.0), ([6] * 40, 5, 1.0),
                              (np.zeros(10**5, dtype=np.uint8), 125, 0.0)):
            got, hw = empirical_ccdf(samples, x)
            assert got == p and math.isnan(hw)
        p, hw = empirical_ccdf([6], 5)
        assert p == 1.0 and math.isnan(hw)
        p, hw = empirical_ccdf([5] * 39 + [6], 5)
        assert p == 1.0 / 40.0 and 0.0 < hw < math.inf

    def test_t_quantile(self):
        assert _T975 == pytest.approx(scipy_stats.t.ppf(0.975, 29), rel=1e-12, abs=0.0)

    def test_halfwidth_allows_for_correlation(self):
        # 0/1 Markov chain that flips state w.p. a per sample: mean 1/2,
        # lag-1 autocorrelation rho = 1 - 2a, and n * Var(sample mean) ->
        # (1/4)(1 + rho)/(1 - rho) = 4.75 at a = 0.05, 19 times the i.i.d.
        # value, so an i.i.d. half-width would come out ~4.4 times too narrow
        a, n = 0.05, 60_000
        sigma = math.sqrt(0.25 * (1.0 - a) / a)
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            chain = (rng.integers(2) + np.cumsum(rng.random(n) < a)) % 2
            _, hw = empirical_ccdf(chain, 0.5)
            ratios.append(hw / (1.96 * sigma / math.sqrt(n)))
        assert 0.8 <= np.median(ratios) <= 1.3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_ccdf([], 1)

    def test_not_a_series_rejected(self):
        # np.array_split cuts along axis 0, so rows would be taken as samples
        for shape in ((2, 2), (10, 3), (40, 3)):
            with pytest.raises(ValueError, match=r"^samples must be a 1-D series"):
                empirical_ccdf(np.ones(shape), 0)
        with pytest.raises(ValueError, match=r"^samples must be a 1-D series"):
            empirical_ccdf(np.float64(3.0), 0)

    def test_nan_samples_rejected(self):
        # a NaN sample compares false, which would count it as not above x
        with pytest.raises(ValueError, match="^samples must not hold NaN"):
            empirical_ccdf([1.0, math.nan] * 20, 0.5)
        with pytest.raises(ValueError, match="^samples must not hold NaN"):
            empirical_ccdf(np.array([math.nan], dtype=np.float32), 0.5)

    def test_nan_x_rejected(self):
        # every comparison with NaN is false, which would read as P = 0
        with pytest.raises(ValueError, match="^x must not be NaN"):
            empirical_ccdf([1, 2, 3], math.nan)
        with pytest.raises(ValueError, match="^x must not be NaN"):
            empirical_ccdf(np.arange(100), np.float64("nan"))


def whole_frames(samples):
    """Float delays rounded up to the whole frames the simulator counts."""
    return np.ceil(samples).astype(np.int64)


def histogram(samples):
    """The DelayHistogram of an integer sample array, one bin at least."""
    return DelayHistogram(np.bincount(samples, minlength=1))


class TestDelayHistogram:
    def test_matches_bincount(self):
        # the scan's counting adds pieces of delays, empty ones among them,
        # to counts that grow to the largest delay seen so far
        rng = np.random.default_rng(3)
        pieces = [rng.integers(0, top, size, dtype=np.int32) for top, size in
                  ((5, 100), (300, 10_000), (1, 0), (40, 7), (1, 1), (700, 3))]
        counts = np.zeros(1, dtype=np.int64)
        for i, piece in enumerate(pieces, 1):
            counts = _count_into(counts, piece)
            assert counts.dtype == np.int64
            want = np.bincount(np.concatenate(pieces[:i]), minlength=1)
            assert np.array_equal(counts, want)

    def test_counts_are_read_only(self, headline_allocation):
        stats = simulate_tandem(SCENARIO, headline_allocation, SimConfig(n_frames=100))
        built = DelayHistogram(np.array([3, 1, 4]))
        for hist in (stats.hop1_histogram, stats.hop2_histogram, built):
            with pytest.raises(ValueError):
                hist.counts[0] = 9

    @pytest.mark.parametrize("counts, error, what", [
        ([3, 1, 4], TypeError, "an integer ndarray"),
        (np.array([3.0, 1.0]), TypeError, "an integer ndarray"),
        (np.array([True, False]), TypeError, "an integer ndarray"),
        (np.array([[3, 1], [4, 1]]), ValueError, "1-D"),
        (np.array(3), ValueError, "1-D"),
        (np.zeros(0, dtype=np.int64), ValueError, "at least one bin"),
        (np.array([-1, 3]), ValueError, "none negative"),
    ])
    def test_rejects_counts_that_are_no_histogram(self, counts, error, what):
        # the fits read the cumulative sums as exceedance counts
        with pytest.raises(error, match=f"^counts must be .*{what}"):
            DelayHistogram(counts)

    def test_fits_reject_raw_arrays(self):
        # a sample array is not a histogram, even though both are integers
        samples = whole_frames(np.random.default_rng(5).exponential(5.0, 100_000))
        with pytest.raises(TypeError, match="DelayHistogram"):
            suggest_fit_window(samples)
        with pytest.raises(TypeError, match="DelayHistogram"):
            tail_slope(samples, 2.0, 20.0)
        with pytest.raises(TypeError, match="DelayHistogram"):
            tail_slope(histogram(samples).counts, 2.0, 20.0)


class TestTailSlope:
    def test_recovers_synthetic_exponential_rate(self):
        # 3e6 samples keep >= 100 exceedances at x = 20 (P(X>20) = e^-10);
        # for integer x, ceil(X) > x exactly when X > x
        rng = np.random.default_rng(0)
        samples = rng.exponential(2.0, 3_000_000)  # rate 0.5
        slope = tail_slope(histogram(whole_frames(samples)), 2.0, 20.0)
        assert abs(slope - 0.5) <= 0.02

    def test_requires_exceedances(self):
        rng = np.random.default_rng(1)
        samples = whole_frames(rng.exponential(1.0, 2000))
        with pytest.raises(InsufficientTailData) as err:
            tail_slope(histogram(samples), 2.0, 25.0)
        assert err.value.achieved < 100

    def test_rejects_degenerate_samples(self):
        with pytest.raises(ValueError, match="degenerate"):
            tail_slope(histogram(np.full(10_000, 50)), 2.0, 10.0)

    def test_rejects_narrow_window(self):
        with pytest.raises(ValueError, match="fewer than two"):
            tail_slope(histogram(np.arange(1000)), 5.0, 5.5)

    @pytest.mark.parametrize("x_lo, x_hi", [
        (math.nan, 4.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 4.0)])
    def test_rejects_non_finite_window(self, x_lo, x_hi):
        # NaN failed to convert to an integer and inf overflowed, naming no window
        with pytest.raises(ValueError, match=r"^fit window \[.*\] must be finite"):
            tail_slope(histogram(np.arange(1000)), x_lo, x_hi)

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_matches_polyfit(self, seed):
        # the closed-form least-squares slope is np.polyfit's degree-1 fit
        # up to rounding, over the windows validate uses and wider ones
        rng = np.random.default_rng(seed)
        samples = whole_frames(rng.exponential(rng.uniform(2.0, 20.0), 400_000))
        hist = histogram(samples)
        x_lo, x_hi = suggest_fit_window(hist)
        for lo, hi in ((x_lo, x_hi), (0, x_hi), (x_lo, x_lo + 1), (-1.5, x_hi - 0.5)):
            xs = np.arange(math.ceil(lo), math.floor(hi) + 1)
            exceed = np.array([np.count_nonzero(samples > x) for x in xs])
            want = np.polyfit(xs, -np.log(exceed / samples.size), 1)[0]
            assert tail_slope(hist, lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(samples=tail_samples(),
           x_lo=st.sampled_from([-3, 0, 1, 2]) | st.floats(-5.0, 30.0),
           width=st.sampled_from([1, 4]) | st.floats(0.0, 40.0))
    def test_histogram_counts_match_sorting(self, samples, x_lo, width):
        # windows, slopes and exceptions (with their shortfall) are those of
        # the sort-based originals, for windows reaching below 0 and past
        # the largest sample too; a shortfall reported is always short of
        # what it needs
        hist = histogram(samples)
        seen = [outcome(suggest_fit_window, hist)]
        assert seen[-1] == outcome(sorted_suggest_fit_window, samples)
        seen.append(outcome(tail_slope, hist, x_lo, x_lo + width))
        assert seen[-1] == outcome(sorted_tail_slope, samples, x_lo, x_lo + width)
        if samples.size:
            window = outcome(sorted_suggest_fit_window, samples, 1, 0.2, 0.0)
            seen.append(window)
            if type(window) is tuple and len(window) == 2:
                seen.append(outcome(tail_slope, hist, *window))
                assert seen[-1] == outcome(sorted_tail_slope, samples, *window)
        for result in seen:
            if type(result) is tuple and result[0] is InsufficientTailData:
                assert result[2] < result[3]

    def test_suggest_window_brackets_body_and_tail(self):
        # 5e5 samples, so the tail end's floor is TAIL_CCDF * n, not the
        # exceedance minimum
        rng = np.random.default_rng(2)
        samples = whole_frames(rng.exponential(5.0, 500_000))
        hist = histogram(samples)
        x_lo, x_hi = suggest_fit_window(hist)
        assert (x_lo, x_hi) == sorted_suggest_fit_window(samples)
        n = samples.size
        assert (samples > x_lo).sum() <= 0.2 * n
        assert (samples > x_hi).sum() >= max(100, 1e-3 * n)
        assert tail_slope(hist, x_lo, x_hi) == pytest.approx(0.2, rel=0.05, abs=0.0)


def test_no_sorting_in_simulator():
    # the simulator and its tail statistics run in O(n) time; a sort or a
    # binary search creeping back into qsim's code fails here
    tree = ast.parse(inspect.getsource(qsim))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"sort", "argsort", "searchsorted", "sorted"}
