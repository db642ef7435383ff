"""Tests for the tandem-queue simulator.

The chunked queue recursion and delay tagging are checked exactly against a
straightforward per-frame Python reference simulator that tags bits by a
binary search of each curve value's bit index floor(dep/load + 1e-6), at
chunk sizes down to one frame; the O(n) tagging helper against that binary
search on curves placed on, and one ulp beside, the smallest value that
reaches each bit's index; the hop histograms the scan counts against
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

from relayqos import qsim
from relayqos.allocator import Allocation, Scenario, allocate
from relayqos.qsim import (
    _SIM_CHUNK,
    _T975,
    _Queue,
    _Tagger,
    _TandemScan,
    _count_into,
    _hop2_generator,
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


def reference_delays(scenario, allocation, cfg):
    """Per-frame reference simulator: explicit queues, explicit bit tracking.

    Independent of the vectorized implementation; replays the same gain
    stream by drawing from an identically keyed generator.
    """
    n = cfg.n_frames
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    h1 = -scenario.hop1_mean_gain * np.log1p(-rng.random(n))
    h2 = -scenario.hop2_mean_gain * np.log1p(-rng.random(n))
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
    while t < n or q1 > 1e-9 or q2 > 1e-9 or pending > 1e-9:
        if t < n:
            sv1, sv2 = s1[t], s2[t]
            arrive = load
        else:
            u = rng.random(2)
            sv1 = scenario.bt_product * math.log1p(
                -allocation.kappa1 * scenario.hop1_mean_gain * math.log1p(-u[0]))
            sv2 = scenario.bt_product * math.log1p(
                -allocation.kappa2 * scenario.hop2_mean_gain * math.log1p(-u[1]))
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


def tagger_waits(curve, load, first, last):
    """Frames waited per tagged bit, by the O(n) tagger fed part by part.

    The tagger returns each bit's delay once it is final.  A last value that
    reaches every tagged bit, which no delay counts, finalises the bits the
    curve itself leaves queued.
    """
    tagger = _Tagger(load, first, last)
    parts = [tagger.feed(part) for part in (*curve, np.array([(last + 1.0) * load]))]
    assert tagger.finished == tagger.n_tagged
    return np.concatenate(parts)


def searchsorted_waits(curve, load, first, last):
    """Frames waited per tagged bit, by binary search of each bit's index."""
    dep = np.concatenate(curve)
    tagged = np.arange(first, last, dtype=np.int64)
    return np.searchsorted(np.floor(dep / load + 1e-6), tagged + 1, side="left") - tagged


def index_boundaries(load, cs):
    """Smallest double v with floor(v/load + 1e-6) >= c, for each c.

    Starts from (c - 1e-6)*load, the real boundary, and steps one ulp at a
    time until v reaches c and the double below it does not.
    """
    cs = np.asarray(cs, dtype=np.float64)
    v = (cs - 1e-6) * load
    while True:
        below = np.nextafter(v, -np.inf)
        down = np.floor(below / load + 1e-6) >= cs
        up = np.floor(v / load + 1e-6) < cs
        if not (down.any() or up.any()):
            return v
        v = np.where(down, below, np.where(up, np.nextafter(v, np.inf), v))


def near_boundaries(load, cs, where):
    """Curve values on, one ulp below or above, or half a frame past the
    boundaries of bit indices cs (see index_boundaries)."""
    t = index_boundaries(load, cs)
    return {"at": t, "below": np.nextafter(t, -np.inf),
            "above": np.nextafter(t, np.inf), "mid": t + 0.5 * load}[where]


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
    load = draw(st.sampled_from([LOAD_100KBPS, 0.1, 1.0 / 3.0, 1.0, 7.3e-3, 2.5e3])
                | st.floats(1e-3, 1e4))
    last = draw(st.integers(1, 60))
    first = draw(st.sampled_from([0, last - 1]) | st.integers(0, last - 1))
    points = draw(st.lists(
        st.tuples(st.integers(0, last + 2),
                  st.sampled_from(["at", "below", "above", "mid"]),
                  st.integers(1, 4)),  # repeats make flat runs
        min_size=1, max_size=120))
    dep = np.sort(np.concatenate([np.repeat(near_boundaries(load, [c], where), k)
                                  for c, where, k in points]))
    cut = draw(st.integers(0, dep.size))  # one scan step | the next
    return load, (dep[:cut], dep[cut:]), first, last


# The relay's one forwarding model, a parameter only so that each simulator
# test's id keeps naming the model it runs.
FORWARDING = ["store-and-forward"]


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
        load, curve, first, last = case
        waits = tagger_waits(curve, load, first, last)
        assert waits.dtype == np.intp
        assert np.array_equal(waits, searchsorted_waits(curve, load, first, last))

    @pytest.mark.parametrize("load", [LOAD_100KBPS, 0.1, 1.0 / 3.0, 7.3e-3, 2.5e3])
    @pytest.mark.parametrize("where", ["at", "below", "above"])
    def test_values_on_and_beside_every_target(self, load, where):
        # each bit's index is first reached on its boundary, so a value one
        # ulp below must not count the bit and one on or above it must.  At
        # these loads the boundary is not (c - 1e-6)*load for 9-39% of c.
        # The curve is fed in two pieces of 25,001 and 14,999 values, each
        # tagged in one pass, and runs on well past the last bit's index.
        last = 20_000
        dep = near_boundaries(load, np.arange(2 * last), where)
        curve = (dep[:25_001], dep[25_001:])
        for first in (0, 7, last - 1):
            assert np.array_equal(tagger_waits(curve, load, first, last),
                                  searchsorted_waits(curve, load, first, last))

    def test_curve_ending_below_last_target(self):
        load, last = 2.0, 40
        dep = np.sort(near_boundaries(load, np.arange(0, 30, 3), "above"))
        waits = tagger_waits((dep[:4], dep[4:]), load, 0, last)
        assert np.array_equal(waits, searchsorted_waits((dep,), load, 0, last))
        # bits past the curve's end wait until one past its last frame
        assert waits[-1] + (last - 1) == dep.size

    def test_clips_only_pieces_reaching_past_the_tagged_bits(self):
        # m = floor(v/load + 1e-6) - first - finished never falls, so feed
        # clips a piece to [0, n_tagged - finished] only when one of its ends
        # lies outside: the first piece starts below bit first, the second
        # lies inside and the third runs past bit last.  The waits equal the
        # binary search's, which equal those of clipping every piece.
        load, first, last = 1.0, 5, 15
        pieces = [near_boundaries(load, cs, "at")
                  for cs in ([2, 4, 6, 8], [9, 10, 12], [13, 20, 30])]
        tagger = _Tagger(load, first, last)
        clipped, waits = [], []
        for piece in pieces:
            m = np.floor(piece[[0, -1]] / load + 1e-6) - first - tagger.finished
            clipped.append(bool(m[0] < 0 or m[-1] > tagger.n_tagged - tagger.finished))
            waits.append(tagger.feed(piece))
        assert clipped == [True, False, True]
        assert tagger.finished == tagger.n_tagged
        assert np.array_equal(np.concatenate(waits),
                              searchsorted_waits(pieces, load, first, last))

    def test_single_tagged_frame(self):
        # five values fall short of the one bit's index, even one ulp short
        dep = near_boundaries(1.0, [0, 0, 1, 1, 1, 2], "below")
        assert list(tagger_waits((dep,), 1.0, 0, 1)) == [5]


class TestSimulateTandem:
    @pytest.mark.parametrize("forwarding", FORWARDING)
    def test_matches_reference_simulator(self, headline_allocation, forwarding):
        cfg = SimConfig(n_frames=4000, warmup_frames=100, seed=5)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        ref1, ref2, refe = reference_delays(SCENARIO, headline_allocation, cfg)
        assert np.array_equal(stats.hop1_delays, ref1)
        assert np.array_equal(stats.hop2_delays, ref2)
        assert np.array_equal(stats.e2e_delays, refe)

    @pytest.mark.parametrize("forwarding", FORWARDING)
    @pytest.mark.parametrize("n,warmup", [(1, 0), (2, 1), (60, 0), (60, 59)])
    def test_matches_reference_at_horizon_edges(self, headline_allocation,
                                                forwarding, n, warmup):
        cfg = SimConfig(n_frames=n, warmup_frames=warmup, seed=8)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        for got, want in zip((stats.hop1_delays, stats.hop2_delays,
                              stats.e2e_delays),
                             reference_delays(SCENARIO, headline_allocation, cfg)):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 4096])
    @pytest.mark.parametrize("forwarding", FORWARDING)
    @pytest.mark.parametrize("n,warmup", [(1, 0), (8, 3), (50, 8), (4100, 4097),
                                          (8195, 100)])
    def test_chunk_boundaries(self, headline_allocation, monkeypatch,
                              chunk, forwarding, n, warmup):
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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 1001])
    def test_hop2_generator_continues_hop1_stream(self, n):
        # hop 2's gains over the horizon, and the run-on's draws after them,
        # are draws n, n + 1, ... of the one stream a single Philox(seed)
        # generator would give
        want = np.random.Generator(np.random.Philox(key=3)).random(2 * n + 5)
        assert np.array_equal(_hop2_generator(3, n).random(n + 5), want[n:])

    @pytest.mark.parametrize("forwarding", FORWARDING)
    def test_run_on_over_many_steps(self, headline_allocation, monkeypatch,
                                    forwarding):
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

    @pytest.mark.parametrize("chunk", [8, _SIM_CHUNK])
    def test_run_on_takes_whole_chunks(self, headline_allocation, monkeypatch,
                                       chunk):
        # the last tagged bit needs e2e_delays[-1] frames past the horizon;
        # every run-on step is one chunk, so the run-on overshoots that need
        # by less than a chunk
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
        run_on = sum(frames) - cfg.n_frames
        assert needed <= run_on < needed + chunk
        assert run_on % chunk == 0

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

    @pytest.mark.parametrize("chunk", [1, 3, _SIM_CHUNK])
    @pytest.mark.parametrize("forwarding", FORWARDING)
    def test_e2e_never_finalises_past_hop1(self, headline_allocation,
                                           monkeypatch, chunk, forwarding):
        # hop 2's delay is formed from the hop-1 delay already in place, so
        # after every step the e2e tagger has finalised no more bits than
        # hop 1's (dep2 <= arr2 <= dep1)
        finished = []
        feed = _Tagger.feed

        def recording(tagger, part):
            delays = feed(tagger, part)
            finished.append(tagger.finished)
            return delays

        monkeypatch.setattr(_Tagger, "feed", recording)
        monkeypatch.setattr(qsim, "_SIM_CHUNK", chunk)
        cfg = SimConfig(n_frames=5000, warmup_frames=50, seed=9)
        simulate_tandem(SCENARIO, headline_allocation, cfg)
        hop1, e2e = finished[0::2], finished[1::2]
        assert len(hop1) == len(e2e) > 5000 // chunk
        assert all(b <= a for a, b in zip(hop1, e2e))
        assert hop1[-1] == e2e[-1] == 5000 - 50
        # e2e lags at some step, so the pairing is exercised
        assert any(b < a for a, b in zip(hop1, e2e))

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

    @pytest.mark.parametrize("forwarding,offset", [("store-and-forward", 1)])
    def test_delay_decomposition(self, headline_allocation, forwarding, offset):
        cfg = SimConfig(n_frames=20_000, warmup_frames=500, seed=3)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        # the delays are unsigned: cast before adding, or a negative hop 2
        # would wrap and the identity would hold by construction
        hop1, hop2, e2e = (a.astype(np.int64) for a in (
            stats.hop1_delays, stats.hop2_delays, stats.e2e_delays))
        assert np.array_equal(e2e, hop1 + hop2 + offset)
        assert (e2e - hop1 - offset >= 0).all()

    def test_sample_counts(self, headline_allocation):
        cfg = SimConfig(n_frames=5000, warmup_frames=750, seed=1)
        stats = simulate_tandem(SCENARIO, headline_allocation, cfg)
        assert stats.frames_simulated == 5000
        assert stats.e2e_delays.size == 5000 - 750
        assert stats.hop1_delays.size == stats.hop2_delays.size == 4250

    def test_flow_conservation(self, headline_allocation):
        rng = np.random.default_rng(2)
        n, chunk = 3000, 700  # five chunks, the last one short
        s1 = SCENARIO.bt_product * np.log1p(
            headline_allocation.kappa1 * rng.exponential(1.0, n))
        s2 = SCENARIO.bt_product * np.log1p(
            headline_allocation.kappa2 * rng.exponential(1.0, n))
        scan = _TandemScan(SCENARIO.traffic_load, chunk)
        parts = [[c.copy() for c in scan.step(s1[i:i + chunk].copy(),
                                              s2[i:i + chunk].copy())]
                 for i in range(0, n, chunk)]
        dep1, dep2 = (np.concatenate(c) for c in zip(*parts))
        arr2 = np.concatenate(([0.0], dep1[:-1]))  # hop 1's output, one frame later
        arr1 = SCENARIO.traffic_load * np.arange(1, n + 1)
        assert (dep1 <= arr1 + 1e-6).all()
        assert (arr2 <= dep1 + 1e-6).all()
        assert (dep2 <= arr2 + 1e-6).all()
        assert (np.diff(dep1) >= 0).all()
        assert (np.diff(dep2) >= 0).all()
        # one chunk over the whole horizon gives the same curves
        whole = _TandemScan(SCENARIO.traffic_load, n).step(s1.copy(), s2.copy())
        for got, want in zip((dep1, dep2), whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("forwarding", FORWARDING)
    def test_chunk_step_matches_whole_scan(self, chunk, forwarding):
        # frames without service grow a backlog by one load each, so the
        # float departure curve load*(t + 1) - Q[t + 1] wobbles by an ulp
        # and its running maximum, carried across every boundary, matters
        rng = np.random.default_rng(4)
        n, load = 400, LOAD_100KBPS
        s1 = np.where(rng.random(n) < 0.4, 0.0, rng.exponential(2.5 * load, n))
        s2 = np.where(rng.random(n) < 0.4, 0.0, rng.exponential(2.5 * load, n))
        whole = _TandemScan(load, n).step(s1.copy(), s2.copy())
        scan = _TandemScan(load, chunk)
        parts = [[c.copy() for c in scan.step(s1[i:i + chunk].copy(),
                                              s2[i:i + chunk].copy())]
                 for i in range(0, n, chunk)]
        for got, want in zip((np.concatenate(c) for c in zip(*parts)), whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("queued", [True, False])
    def test_departure_curve_is_its_running_maximum(self, queued):
        # depart takes the running maximum only on a chunk whose raw curve,
        # arrivals less Q[t + 1], falls.  Frames without service make it
        # fall by one ulp inside some chunks; service that always outruns
        # the load keeps the queue empty, and it never falls.  Either way
        # the chunked curve is the running maximum of the whole raw curve.
        rng = np.random.default_rng(4)
        n, chunk, load = 400, 7, LOAD_100KBPS
        s = rng.exponential(2.5 * load, n)
        s = np.where(rng.random(n) < 0.4, 0.0, s) if queued else s + load
        arrived = load * np.arange(1.0, n + 1)
        cum = np.cumsum(load - s)
        raw = arrived - (cum - np.minimum.accumulate(np.append(0.0, cum))[1:])
        raw[0] = max(0.0, raw[0])
        falls = np.flatnonzero(raw[1:] < raw[:-1]) + 1
        assert np.array_equal(np.nextafter(raw[falls], np.inf), raw[falls - 1])
        assert (falls % chunk != 0).any() == queued  # a fall inside a chunk
        queue, work = _Queue(), np.empty(chunk)
        got = np.concatenate([queue.depart(load - s[i:i + chunk], arrived[i:i + chunk],
                                           work[:min(chunk, n - i)])
                              for i in range(0, n, chunk)])
        assert np.array_equal(got, np.fmax.accumulate(raw))

    def test_overwhelming_power_means_no_queueing(self):
        generous = Allocation(kappa1=1e9, kappa2=1e9, theta1=1e-3, theta2=1e-3,
                              delay_rate=0.1, residuals={})
        cfg = SimConfig(n_frames=2000, warmup_frames=10, seed=0)
        stats = simulate_tandem(SCENARIO, generous, cfg)
        assert (stats.e2e_delays <= 2).all()

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
        p, hw = empirical_ccdf([1, 2, 3], 2)
        t = scipy_stats.t.ppf(0.975, 2)
        assert hw == pytest.approx(t * np.std([0, 0, 1], ddof=1) / math.sqrt(3), rel=1e-6, abs=0.0)
        assert empirical_ccdf([7], 1) == (1.0, math.inf)

    def test_halfwidth_undefined_without_spread(self):
        # every batch fraction 0, or every one 1: no spread to measure, so
        # no half-width, not 0 +/- 0
        for samples, x, p in (([5] * 40, 5, 0.0), ([6] * 40, 5, 1.0),
                              (np.zeros(10**5, dtype=np.uint8), 125, 0.0)):
            got, hw = empirical_ccdf(samples, x)
            assert got == p and math.isnan(hw)
        assert empirical_ccdf([6], 5) == (1.0, math.inf)
        p, hw = empirical_ccdf([5] * 39 + [6], 5)
        assert p == 1.0 / 40.0 and 0.0 < hw < math.inf

    def test_t_quantiles(self):
        assert len(_T975) == 29
        for df, q in enumerate(_T975, start=1):
            assert q == pytest.approx(scipy_stats.t.ppf(0.975, df), rel=1e-12, abs=0.0)

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
