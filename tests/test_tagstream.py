import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hdent import cli, tagstream
from hdent.states import NoisyState, Pairing, make_max_entangled
from hdent.tagstream import (
    BASIS_DA,
    BASIS_HV,
    CHUNK_FRAMES,
    FWHM_TO_SIGMA,
    PAIR_LABELS,
    _BLOCK_RECORDS,
    BinningConfig,
    ClockConfig,
    CountMatrixSet,
    Origin,
    SourceModel,
    TagBlocks,
    TagFormatError,
    TagStream,
    _block_rng,
    _signal_tables,
    generate_blocks,
    generate_stream,
    read_blocks,
    read_tags,
    sift_and_bin,
    sift_blocks,
    write_tags,
)

from conftest import (
    concat_generate_stream,
    crosstalk_profile,
    exact_da_probabilities,
    exact_hv_probabilities,
    loop_sift_and_bin,
    spill_probabilities,
    whole_stream_kept_values,
)

CLOCK = ClockConfig()


def model(d=10, pair_rate=2e6, bg=0.0, jitter=0.0, p=1.0, basis=BASIS_HV, phase=math.pi):
    return SourceModel(make_max_entangled(d), pair_rate, bg, jitter, p, basis, phase)


class TestConfigs:
    def test_default_clock(self):
        assert CLOCK.frame_ticks == 320 and CLOCK.imbalance_ticks == 32
        assert np.isclose(CLOCK.frame_seconds, 320 * 82.3e-12)

    def test_clock_divisibility(self):
        with pytest.raises(ValueError):
            ClockConfig(frame_ticks=320, imbalance_ticks=33)

    @pytest.mark.parametrize(
        "d,bin_ticks,f", [(10, 32, 1), (20, 16, 2), (40, 8, 4), (80, 4, 8)]
    )
    def test_supported_discretizations(self, d, bin_ticks, f):
        b = BinningConfig.for_dimension(CLOCK, d)
        assert (b.d, b.bin_ticks, b.f_shift) == (d, bin_ticks, f)
        assert b.d * b.bin_ticks == CLOCK.frame_ticks
        assert b.f_shift * b.bin_ticks == CLOCK.imbalance_ticks

    @pytest.mark.parametrize("bad", [7, 13, 30, 64])
    def test_rejected_discretizations(self, bad):
        # either fails to tile the frame or puts the imbalance between bins
        with pytest.raises(ValueError):
            BinningConfig.for_dimension(CLOCK, bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize(
        "field", ["pair_rate", "background_rate_per_detector", "jitter_fwhm_seconds"]
    )
    def test_source_rejects_nonfinite_and_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            SourceModel(make_max_entangled(10), **{"pair_rate": 1e6, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_source_rejects_nonfinite_phase(self, value):
        with pytest.raises(ValueError, match="franson_phase"):
            model(phase=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-12])
    def test_clock_rejects_bad_tick(self, value):
        with pytest.raises(ValueError, match="tick_seconds"):
            ClockConfig(tick_seconds=value)


class TestSignalTables:
    def test_hv_distribution_matches_first_principles(self):
        m = model(d=10, p=0.63)
        table = _signal_tables(m, CLOCK)
        probs = np.diff(np.concatenate([[0.0], table["cum"]]))
        state = NoisyState(m.state, m.p_mix)
        expected = exact_hv_probabilities(state, 10, 1)
        # table layout: routing block (A0B0 then A1B1), bins row-major
        got = np.zeros((4, 10, 10))
        got[0] = probs[:100].reshape(10, 10)
        shifted = probs[100:].reshape(10, 10)
        for i in range(10):
            for j in range(10):
                got[3, (i + 1) % 10, (j + 1) % 10] = shifted[i, j]
        assert np.allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("phase", [0.0, math.pi, 1.3])
    def test_da_distribution_matches_projector_algebra(self, phase):
        m = model(d=8, p=0.63, basis=BASIS_DA, phase=phase)
        clock = ClockConfig(frame_ticks=320, imbalance_ticks=40)  # f = 1 at d = 8
        table = _signal_tables(m, clock)
        probs = np.diff(np.concatenate([[0.0], table["cum"]])).reshape(4, 8, 8)
        state = NoisyState(m.state, m.p_mix)
        expected = exact_da_probabilities(state, 1, phase)
        assert np.allclose(probs, expected, atol=1e-12)

    def test_da_rejects_anticorrelated(self):
        bad = SourceModel(
            make_max_entangled(10, Pairing.ANTICORRELATED), 1e6, basis=BASIS_DA
        )
        with pytest.raises(ValueError, match="correlated"):
            generate_stream(bad, CLOCK, 10, 1)

    def test_state_dim_must_divide_frame(self):
        with pytest.raises(ValueError, match="divide"):
            generate_stream(model(d=7), CLOCK, 10, 1)


class TestGeneration:
    def test_determinism(self):
        m = model(bg=3e5, jitter=800e-12, p=0.9)
        a = generate_stream(m, CLOCK, 20000, seed=5)
        b = generate_stream(m, CLOCK, 20000, seed=5)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.channels, b.channels)
        assert np.array_equal(a.origins, b.origins)
        c = generate_stream(m, CLOCK, 20000, seed=6)
        assert not np.array_equal(a.timestamps, c.timestamps)

    def test_partition_invariance_at_chunk_boundaries(self):
        m = model(bg=2e5, jitter=800e-12, p=0.85)
        full = generate_stream(m, CLOCK, 2 * CHUNK_FRAMES, seed=3)
        first = generate_stream(m, CLOCK, CHUNK_FRAMES, seed=3, frame_offset=0)
        second = generate_stream(m, CLOCK, CHUNK_FRAMES, seed=3, frame_offset=CHUNK_FRAMES)
        ts = np.concatenate([first.timestamps, second.timestamps])
        ch = np.concatenate([first.channels, second.channels])
        order = np.lexsort((ch, ts))
        assert np.array_equal(full.timestamps, ts[order])
        assert np.array_equal(full.channels, ch[order])

    def test_perfect_correlations_no_noise(self):
        # emission probability 1 - exp(-rate * frame) ~ 0.12 per frame
        stream = generate_stream(model(pair_rate=5e6), CLOCK, 20000, seed=2)
        counts = sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, 10), BASIS_HV)
        assert 2000 < counts.frames_kept < 3000
        per_pair = counts.matrices.sum(axis=(1, 2))
        assert per_pair[1] == per_pair[2] == 0  # cross pairs empty
        for k in (0, 3):
            m = counts.matrices[k]
            assert np.trace(m) == m.sum()  # strictly diagonal

    def test_background_is_poisson(self):
        # pair source off: per-detector totals and per-frame distribution
        rate = 3.8e6  # ~0.1 events per frame per detector
        n = 100_000
        m = model(pair_rate=0.0, bg=rate)
        stream = generate_stream(m, CLOCK, n, seed=9)
        lam = rate * CLOCK.frame_seconds
        expect = lam * n
        for det in range(4):
            total = int((stream.channels == det).sum())
            assert abs(total - expect) < 3 * math.sqrt(expect)
        assert np.all(stream.origins == Origin.NOISE)
        # chi-square of the per-frame count distribution on detector 0
        frames = (stream.timestamps // CLOCK.frame_ticks)[stream.channels == 0]
        per_frame = np.bincount(
            np.bincount(frames.astype(np.int64), minlength=n), minlength=5
        )
        kmax = 3
        probs = [stats.poisson.pmf(k, lam) for k in range(kmax)]
        probs.append(1.0 - sum(probs))
        observed = np.concatenate([per_frame[:kmax], [per_frame[kmax:].sum()]])
        chi2, pvalue = stats.chisquare(observed, np.array(probs) * n)
        assert pvalue > 0.01

    def test_background_produces_offdiagonal_pedestal(self):
        # moderate external noise: diagonal signal plus a flat pedestal
        stream = generate_stream(model(d=80, pair_rate=2e6, bg=4e5), CLOCK, 200_000, seed=31)
        counts = sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, 80), BASIS_HV)
        m = counts.matrices[0] + counts.matrices[3]
        off_mass = (m.sum() - np.trace(m)) / m.sum()
        assert 0.0 < off_mass < 0.2
        assert np.trace(m) / 80 > (m.sum() - np.trace(m)) / (80 * 79)  # diagonal dominates

    def test_rate_guard(self):
        with pytest.raises(ValueError, match="unphysical"):
            generate_stream(model(bg=5e12), CLOCK, 10, 1)

    def test_frame_range_bound(self):
        # the tagged key ((ts * 4 + ch) << 1) | origin needs timestamps below 2**60
        last = 2 ** 59 // CLOCK.frame_ticks
        noisy = model(bg=4e7, jitter=800e-12)
        stream = generate_stream(noisy, CLOCK, 10, 1, frame_offset=last - 10)
        assert len(stream) and int(stream.timestamps[-1]) < 2 ** 60
        with pytest.raises(ValueError, match="2\\*\\*59"):
            generate_stream(model(), CLOCK, 10, 1, frame_offset=last - 9)


def assert_same_stream(got, want):
    assert got.clock == want.clock
    for field in ("timestamps", "channels", "origins"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


class TestBlockAssembly:
    """``generate_stream`` against a generator that concatenates whole-stream columns."""

    @given(
        pair_rate=st.one_of(st.just(0.0), st.floats(1e4, 2e7)),
        bg=st.one_of(st.just(0.0), st.floats(1e4, 4e7)),
        jitter=st.one_of(st.just(0.0), st.floats(1e-12, 1e-7)),
        p=st.floats(0.0, 1.0),
        basis=st.sampled_from([BASIS_HV, BASIS_DA]),
        d=st.sampled_from([10, 20, 40, 80]),
        seed=st.integers(0, 2 ** 64),
        offset=st.integers(0, 2 * CHUNK_FRAMES),
        n_frames=st.integers(1, 2 * CHUNK_FRAMES + 10),
    )
    @example(2e7, 4e7, 1e-6, 1.0, BASIS_HV, 80, 3, 0, 64)  # events jittered before t = 0
    @example(2e6, 1e7, 8e-10, 0.9, BASIS_DA, 40, 2, CHUNK_FRAMES, CHUNK_FRAMES)  # one whole block
    @example(2e6, 4e7, 1e-3, 1.0, BASIS_HV, 80, 5, 100, 2 * CHUNK_FRAMES + 10)  # sigma ~ 4 blocks
    @settings(deadline=None, max_examples=40)
    def test_matches_concatenated_assembly(
        self, pair_rate, bg, jitter, p, basis, d, seed, offset, n_frames
    ):
        m = model(d=d, pair_rate=pair_rate, bg=bg, jitter=jitter, p=p, basis=basis)
        assert_same_stream(
            generate_stream(m, CLOCK, n_frames, seed, offset),
            concat_generate_stream(m, CLOCK, n_frames, seed, offset),
        )

    @pytest.mark.parametrize("offset", [0, CHUNK_FRAMES, 1000])
    def test_signal_sorts_before_noise_at_equal_tick_and_channel(self, offset):
        # no jitter: signal sits on bin centres, where dense background often
        # lands on the same tick and detector
        m = model(d=80, pair_rate=2e7, bg=4e7)
        stream = generate_stream(m, CLOCK, 2 * CHUNK_FRAMES, 17, offset)
        ts, ch, og = stream.timestamps, stream.channels, stream.origins
        tie = (ts[1:] == ts[:-1]) & (ch[1:] == ch[:-1])
        assert np.any(tie & (og[1:] != og[:-1]))
        assert_same_stream(stream, concat_generate_stream(m, CLOCK, 2 * CHUNK_FRAMES, 17, offset))

    def test_drops_events_jittered_before_zero(self):
        m = model(d=80, pair_rate=2e7, jitter=1e-6)  # sigma ~ 16 frames
        stream = generate_stream(m, CLOCK, 64, seed=3)
        u_emit = _block_rng(3, 0).random(CHUNK_FRAMES)[:64]
        emitted = int((u_emit < -math.expm1(-m.pair_rate * CLOCK.frame_seconds)).sum())
        assert 0 < len(stream) < 2 * emitted
        assert_same_stream(stream, concat_generate_stream(m, CLOCK, 64, 3))


class TestHoldBack:
    """The generator yields each key as soon as no later frame block can hold a smaller one."""

    def test_default_jitter_holds_at_most_two_frame_blocks_of_keys(self, noisy_stream, monkeypatch):
        """At 800 ps FWHM, when the generator starts a frame block it has yielded
        every event before that block but a few of its last ticks, so it holds
        the block it builds and far less than one more."""
        m = model(d=80, pair_rate=1.5e6, bg=4e7, jitter=800e-12)
        ts = noisy_stream.timestamps
        block_ticks = CHUNK_FRAMES * CLOCK.frame_ticks
        per_block = len(ts) * CHUNK_FRAMES / 100_000
        yielded, behind = 0, []
        block_rng = tagstream._block_rng

        def spy(seed, block):
            # events of the stream before this block that are not yielded yet
            behind.append(int(np.searchsorted(ts, block * block_ticks)) - yielded)
            return block_rng(seed, block)

        monkeypatch.setattr(tagstream, "_block_rng", spy)
        for keys in tagstream._sorted_blocks(m, CLOCK, 7, 0, 100_000):
            assert yielded == 0 or int(keys[0]) >= last  # stream order across yields
            yielded, last = yielded + len(keys), int(keys[-1])
        assert yielded == len(ts) and len(behind) == 25
        assert 0 <= min(behind) and max(behind) < 0.01 * per_block

    def test_blocks_are_checked_across_their_edges(self, monkeypatch):
        """Each generated block is checked with the last event of the block before."""
        chunks = [np.array([8 * 10, 8 * 20]), np.array([8 * 15, 8 * 30])]
        monkeypatch.setattr(tagstream, "_sorted_blocks", lambda *args: iter(chunks))
        blocks = iter(generate_blocks(model(), CLOCK, 100, 1).blocks)
        next(blocks)
        with pytest.raises(ValueError, match="not sorted .* at event 0$"):
            next(blocks)

    def test_jitter_beyond_the_checked_limit_stops_generation(self, monkeypatch):
        monkeypatch.setattr(tagstream, "_MAX_JITTER_Z", 0.5)
        with pytest.raises(ValueError, match="beyond 0.5 sigma"):
            generate_stream(model(jitter=800e-12), CLOCK, 1000, 1)


def stream_digests(stream):
    """The first 16 hex digits of the sha256 of each of a stream's arrays."""
    return tuple(hashlib.sha256(getattr(stream, field).tobytes()).hexdigest()[:16]
                 for field in ("timestamps", "channels", "origins"))


GOLDEN_STREAMS = {
    # name: (model arguments, n_frames, seed, frame_offset, events, digests)
    "hv-dark": (dict(d=80, pair_rate=1.5e6, jitter=800e-12), 10_000, 11, 0, 766,
                ("b7ad6db6d868993e", "4122bf89f88e12dd", "24720d30ce903265")),
    "da-dark": (dict(d=80, pair_rate=1.5e6, jitter=800e-12, basis=BASIS_DA), 10_000, 11, 0, 766,
                ("2531836e70bb8086", "4122bf89f88e12dd", "24720d30ce903265")),
    "hv-bright": (dict(d=80, pair_rate=1.5e6, bg=4e7, jitter=800e-12), 10_000, 11, 0, 42913,
                  ("3951017a993794e0", "0218d736e313ecb0", "6db34860aba39fad")),
    "da-bright": (dict(d=80, pair_rate=1.5e6, bg=4e7, jitter=800e-12, basis=BASIS_DA),
                  10_000, 11, 0, 42913,
                  ("964ca6330d16aafa", "4df866cbdc05d288", "41aaa40aed0bdf4e")),
    # frames 3000..8999: a partial first and a partial last block
    "offset": (dict(d=40, pair_rate=3e6, bg=1e7, jitter=800e-12, p=0.9, basis=BASIS_DA),
               6_000, 12, 3_000, 7132,
               ("ac95fc4a3ad378e6", "42b5f072602ceea6", "b9a84578dfd81167")),
    "no-pairs": (dict(d=80, pair_rate=0.0, bg=4e7), 10_000, 13, 0, 42175,
                 ("d0864d6197442810", "2918eeb899dd6842", "505187547abc1a04")),
    # 200 ns FWHM carries events across block edges out of order
    "wide-jitter": (dict(d=80, pair_rate=1.5e6, bg=4e7, jitter=200e-9), 3 * CHUNK_FRAMES, 3, 0,
                    52426, ("5fa991f179391510", "0d4214ff8d52a223", "17326d9ae8ca4338")),
}


class TestGoldenStreams:
    """Digests of streams made by the whole-stream sort that per-block sorting replaced."""

    @pytest.mark.parametrize("name", GOLDEN_STREAMS)
    def test_stream_digests(self, name):
        kwargs, n_frames, seed, offset, events, digests = GOLDEN_STREAMS[name]
        stream = generate_stream(model(**kwargs), CLOCK, n_frames, seed, offset)
        assert len(stream) == events
        assert stream_digests(stream) == digests

    def test_buffer_growth_keeps_the_stream(self, monkeypatch):
        monkeypatch.setattr(tagstream, "_event_capacity", lambda *args: 1)
        kwargs, n_frames, seed, offset, events, digests = GOLDEN_STREAMS["hv-bright"]
        stream = generate_stream(model(**kwargs), CLOCK, n_frames, seed, offset)
        assert len(stream) == events and stream_digests(stream) == digests


class TestSifting:
    def test_multi_event_frames_discarded(self):
        # frame 0: two Alice events and one Bob event -> discarded;
        # frame 1: exactly one per side -> kept
        F = CLOCK.frame_ticks
        ts = np.array([10, 50, 100, F + 16, F + 240], dtype=np.uint64)
        ch = np.array([0, 1, 2, 0, 3], dtype=np.uint8)
        og = np.full(5, Origin.SIGNAL, dtype=np.uint8)
        stream = TagStream(CLOCK, ts, ch, og)
        counts = sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, 10), BASIS_HV)
        assert counts.frames_total == 2 and counts.frames_kept == 1
        assert counts.matrices[PAIR_LABELS.index("A0B1")][0, 7] == 1
        assert counts.total_counts() == 1

    def test_conservation_and_rebinning(self):
        m = model(d=80, pair_rate=2e6, bg=4e5, jitter=800e-12)
        stream = generate_stream(m, CLOCK, 50_000, seed=21)
        kept = []
        for d in (10, 20, 40, 80):
            counts = sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, d), BASIS_HV)
            assert counts.total_counts() == counts.frames_kept
            kept.append(counts.frames_kept)
        assert len(set(kept)) == 1  # sifting is dimension-independent

    def test_ground_truth_counters(self):
        stream = generate_stream(model(pair_rate=0.0, bg=4e6), CLOCK, 50_000, seed=4)
        counts = sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, 10), BASIS_HV)
        assert counts.noise_coincidences == counts.frames_kept  # all background

    def test_unknown_origins_disable_ground_truth(self):
        ts = np.array([10, 100, 330, 400], dtype=np.uint64)
        ch = np.array([0, 2, 1, 3], dtype=np.uint8)
        og = np.array([Origin.UNKNOWN] * 4, dtype=np.uint8)
        counts = sift_and_bin(
            TagStream(CLOCK, ts, ch, og), BinningConfig.for_dimension(CLOCK, 10), BASIS_HV
        )
        assert counts.noise_coincidences is None


class TestCoarsening:
    @given(
        bg=st.one_of(st.sampled_from([0.0, 1e7, 4e7]), st.floats(0.0, 4e7)),
        jitter=st.floats(0.0, 1.6e-9),
        seed=st.integers(0, 2**63 - 1),
        basis=st.sampled_from([BASIS_HV, BASIS_DA]),
    )
    @settings(deadline=None, max_examples=30)
    def test_counts_at_d_are_block_sums_of_those_at_2d(self, bg, jitter, seed, basis):
        """A bin at d is two adjacent bins at 2d, and which frames are kept does not depend on d."""
        stream = generate_stream(model(80, bg=bg, jitter=jitter, basis=basis), CLOCK, 5000, seed)
        counts = {d: sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, d), basis)
                  for d in (10, 20, 40, 80)}
        for d in (10, 20, 40):
            coarse, fine = counts[d], counts[2 * d]
            assert np.array_equal(coarse.matrices,
                                  fine.matrices.reshape(4, d, 2, d, 2).sum(axis=(2, 4)))
            assert (coarse.frames_kept, coarse.frames_total, coarse.noise_coincidences) == (
                fine.frames_kept, fine.frames_total, fine.noise_coincidences)


def allowed_dims(clock):
    return [
        d for d in range(1, clock.frame_ticks + 1)
        if clock.frame_ticks % d == 0 and clock.imbalance_ticks % (clock.frame_ticks // d) == 0
    ]


def assert_same_counts(got, want):
    assert (got.basis, got.binning) == (want.basis, want.binning)
    assert got.matrices.dtype == want.matrices.dtype
    assert np.array_equal(got.matrices, want.matrices)
    assert (got.frames_total, got.frames_kept) == (want.frames_total, want.frames_kept)
    assert got.noise_coincidences == want.noise_coincidences


def joined_kept(chunks) -> list:
    """``[pair, ticks_a, ticks_b]`` of the kept values of a stream's chunks, joined."""
    chunks = list(chunks)
    return [np.concatenate([np.empty(0, np.int64), *(chunk[k] for chunk in chunks)])
            for k in range(3)]


@st.composite
def small_streams(draw):
    """Sorted streams over a few dozen frames: empty, single- and multi-click frames."""
    clock = draw(st.sampled_from([CLOCK, ClockConfig(frame_ticks=48, imbalance_ticks=12)]))
    n_frames = draw(st.integers(min_value=1, max_value=30))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_frames * clock.frame_ticks - 1),
                st.integers(min_value=0, max_value=3),
                st.sampled_from([Origin.SIGNAL, Origin.NOISE, Origin.NOISE, Origin.UNKNOWN]),
            ),
            max_size=3 * n_frames,
        )
    )
    if draw(st.booleans()):
        events = [(t, c, Origin.NOISE if o == Origin.UNKNOWN else o) for t, c, o in events]
    events.sort(key=lambda e: (e[0], e[1]))
    ts = np.array([e[0] for e in events], dtype=np.uint64)
    ch = np.array([e[1] for e in events], dtype=np.uint8)
    og = np.array([e[2] for e in events], dtype=np.uint8)
    return clock, n_frames, ts, ch, og


def stream_of(*events) -> tuple:
    """``small_streams`` data on ``CLOCK`` of sorted ``(frame, tick, channel, origin)`` events."""
    frames, ticks, ch, og = (np.array(column) for column in zip(*events))
    ts = (frames * CLOCK.frame_ticks + ticks).astype(np.uint64)
    return CLOCK, int(frames[-1]) + 1, ts, ch.astype(np.uint8), og.astype(np.uint8)


S, N = Origin.SIGNAL, Origin.NOISE
# frame 0 fills a block of 3 events; frame 1 is kept
ONE_FRAME_BLOCK = stream_of((0, 1, 0, S), (0, 2, 2, S), (0, 3, 3, N), (1, 1, 1, S), (1, 2, 2, N))
# in blocks of 3, frame 1's three events are split 2 + 1; frame 2 is kept
SPLIT_THREE = stream_of((0, 5, 0, N), (1, 1, 0, S), (1, 2, 2, S), (1, 3, 3, N),
                        (2, 1, 1, S), (2, 2, 2, S))
# in blocks of 2, frame 1's two events are split 1 + 1, and it is kept, as is frame 2
SPLIT_TWO = stream_of((0, 5, 1, S), (1, 1, 0, S), (1, 2, 3, N), (2, 7, 2, S), (2, 8, 0, N))


class TestSiftOracle:
    @given(stream_data=small_streams(), data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_matches_per_call_counting(self, stream_data, data):
        clock, _, ts, ch, og = stream_data
        stream = TagStream(clock, ts, ch, og)
        for d in data.draw(st.permutations(allowed_dims(clock))):
            binning = BinningConfig.for_dimension(clock, d)
            for basis in (BASIS_HV, BASIS_DA):
                assert_same_counts(
                    sift_and_bin(stream, binning, basis), loop_sift_and_bin(stream, binning, basis)
                )
        kept = stream.kept_events
        assert stream.kept_events is kept
        for chunk in kept:
            for arr in chunk[:3]:
                with pytest.raises(ValueError):
                    arr[:1] = 0

    # a small stream has at most 90 events, so a larger size is cut to the stream's end
    @given(stream_data=small_streams(), block=st.integers(min_value=1, max_value=8),
           sizes=st.lists(st.integers(0, 3) | st.integers(0, 90), max_size=12))
    @example(ONE_FRAME_BLOCK, 3, [3])
    @example(SPLIT_THREE, 3, [3])
    @example(SPLIT_TWO, 2, [2])
    @settings(deadline=None, max_examples=150)
    def test_kept_events_match_whole_stream_frames(self, stream_data, block, sizes):
        """A held stream cut into blocks of ``block`` events, and the same stream as
        ``TagBlocks`` cut after ``sizes`` events each (empty blocks and blocks of 1-3
        events included), keep the frames that whole-stream frame numbers keep."""
        clock, _, ts, ch, og = stream_data
        stream = TagStream(clock, ts, ch, og)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagstream, "_BLOCK_RECORDS", block)
            held = joined_kept(stream.kept_events)
        cuts = [*np.minimum(np.cumsum([0, *sizes]), len(ts)), len(ts)]
        blocks = [(ts[i:j], ch[i:j], og[i:j]) for i, j in zip(cuts, cuts[1:])]
        streamed = joined_kept(tagstream._kept_chunks(TagBlocks(clock, iter(blocks))))
        want = whole_stream_kept_values(stream)
        for got in (held, streamed):
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_a_chunk_of_one_frame_yields_nothing(self, monkeypatch):
        """The first block holds frame 0 alone: it is carried whole into the next
        chunk, which sifts it, and frame 1 is carried to the end of the stream."""
        monkeypatch.setattr(tagstream, "_BLOCK_RECORDS", 3)
        clock, _, ts, ch, og = ONE_FRAME_BLOCK
        chunks = list(tagstream._kept_chunks(TagStream(clock, ts, ch, og)))
        assert [(len(pair), frames) for pair, _, _, _, frames in chunks] == [(0, 1), (1, 2)]

    def test_call_order_does_not_matter(self):
        m = model(d=80, pair_rate=2e6, bg=1e7, jitter=800e-12, p=0.8)
        source = generate_stream(m, CLOCK, 20_000, seed=41)

        def fresh():
            return TagStream(CLOCK, source.timestamps, source.channels, source.origins)

        b10 = BinningConfig.for_dimension(CLOCK, 10)
        b80 = BinningConfig.for_dimension(CLOCK, 80)
        coarse_first = fresh()
        fine_first = fresh()
        sift_and_bin(fine_first, b80, BASIS_HV)
        assert_same_counts(
            sift_and_bin(fine_first, b10, BASIS_HV), sift_and_bin(coarse_first, b10, BASIS_HV)
        )
        assert_same_counts(
            sift_and_bin(fine_first, b10, BASIS_HV), loop_sift_and_bin(source, b10, BASIS_HV)
        )
        assert_same_counts(
            sift_and_bin(coarse_first, b80, BASIS_HV), loop_sift_and_bin(source, b80, BASIS_HV)
        )


class TestBlockSifting:
    """``sift_blocks`` on a stream cut into blocks against whole-stream sifting."""

    @given(
        pair_rate=st.one_of(st.just(0.0), st.floats(1e5, 2e7)),
        bg=st.one_of(st.just(0.0), st.floats(1e5, 4e7)),
        # up to 1 ms FWHM, a sigma of about four frame blocks
        jitter=st.one_of(st.just(0.0), st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e)),
        basis=st.sampled_from([BASIS_HV, BASIS_DA]),
        seed=st.integers(0, 2 ** 64),
        offset=st.integers(0, 2 * CHUNK_FRAMES),
        n_frames=st.integers(1, 2 * CHUNK_FRAMES + 10),
        pieces=st.integers(1, 300),
        unknown=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    @example(pair_rate=2e6, bg=4e7, jitter=1e-3, basis=BASIS_HV, seed=5, offset=100,
             n_frames=2 * CHUNK_FRAMES + 10, pieces=7, unknown=0.0)
    @example(pair_rate=3e6, bg=1e6, jitter=0.0, basis=BASIS_DA, seed=2, offset=0,
             n_frames=40, pieces=300, unknown=0.1)  # about one event per block
    @settings(deadline=None, max_examples=40)
    def test_streamed_sifting_matches_whole_stream(
        self, pair_rate, bg, jitter, basis, seed, offset, n_frames, pieces, unknown,
        tmp_path_factory,
    ):
        m = model(d=80, pair_rate=pair_rate, bg=bg, jitter=jitter, basis=basis)
        stream = generate_stream(m, CLOCK, n_frames, seed, offset)
        if unknown:
            og = stream.origins.copy()
            og[np.random.default_rng(seed).random(len(og)) < unknown] = Origin.UNKNOWN
            stream = TagStream(CLOCK, stream.timestamps, stream.channels, og)
        binnings = [BinningConfig.for_dimension(CLOCK, d) for d in (10, 20, 40, 80)]
        want = [loop_sift_and_bin(stream, binning, basis) for binning in binnings]
        for got, oracle in zip((sift_and_bin(stream, b, basis) for b in binnings), want):
            assert_same_counts(got, oracle)
        path = tmp_path_factory.mktemp("sift") / "s.hdtt"
        write_tags(stream, path)
        sources = [lambda: read_blocks(path), lambda: stream]
        if not unknown:
            sources.append(lambda: generate_blocks(m, CLOCK, n_frames, seed, offset))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagstream, "_BLOCK_RECORDS", max(1, -(-len(stream) // pieces)))
            for source in sources:
                for got, oracle in zip(sift_blocks(source(), binnings, basis), want):
                    assert_same_counts(got, oracle)

    def test_blocks_of_any_size_and_empty_streams(self):
        stream = generate_stream(model(bg=4e6, jitter=800e-12), CLOCK, 3000, 9)
        binnings = [BinningConfig.for_dimension(CLOCK, 10)]
        want = sift_and_bin(stream, binnings[0], BASIS_HV)
        cuts = [0, 1, 2, 3, 5, 8, 200, 201, len(stream) - 1, len(stream)]
        blocks = [tuple(getattr(stream, f)[i:j] for f in ("timestamps", "channels", "origins"))
                  for i, j in zip(cuts, cuts[1:])]
        (got,) = sift_blocks(TagBlocks(CLOCK, iter(blocks)), binnings, BASIS_HV)
        assert_same_counts(got, want)
        (empty,) = sift_blocks(TagBlocks(CLOCK, iter([])), binnings, BASIS_HV)
        assert (empty.frames_total, empty.frames_kept, empty.total_counts()) == (0, 0, 0)
        assert empty.noise_coincidences == 0


class TestCrosstalk:
    def test_no_jitter_all_mass_at_zero_offset(self):
        stream = generate_stream(model(pair_rate=5e6), CLOCK, 10_000, seed=1)
        prof = crosstalk_profile(
            sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, 10), BASIS_HV)
        )
        assert prof[0] == 1.0

    def test_pure_background_profile_uniform(self):
        stream = generate_stream(model(pair_rate=0.0, bg=2e7), CLOCK, 100_000, seed=8)
        counts = sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, 10), BASIS_HV)
        prof = crosstalk_profile(counts)
        assert counts.frames_kept > 5000
        assert 0.5 * np.abs(prof - 0.1).sum() < 0.05  # total variation

    def test_fine_binning_has_more_neighbor_crosstalk(self):
        m = model(d=80, pair_rate=2e6, jitter=800e-12)
        stream = generate_stream(m, CLOCK, 100_000, seed=17)
        prof = {}
        for d in (10, 80):
            counts = sift_and_bin(stream, BinningConfig.for_dimension(CLOCK, d), BASIS_HV)
            p = crosstalk_profile(counts)
            prof[d] = p[1] + p[-1]
        assert prof[80] > prof[10]

    def test_jitter_spill_matches_erf_oracle(self):
        # 658.4 ps bins (8 ticks) against 800 ps FWHM jitter; long frame so
        # that frame-boundary pair loss cannot bias the kept-pair statistics
        clock = ClockConfig(82.3e-12, 3200, 32)
        d = 400
        m = SourceModel(make_max_entangled(d), 3.5e6, 0.0, 800e-12, 1.0, BASIS_HV)
        stream = generate_stream(m, clock, 130_000, seed=5)
        counts = sift_and_bin(stream, BinningConfig.for_dimension(clock, d), BASIS_HV)
        prof = crosstalk_profile(counts)
        sigma_ticks = 800e-12 / FWHM_TO_SIGMA / clock.tick_seconds
        _, spill = spill_probabilities(8, sigma_ticks)
        n = counts.frames_kept
        assert n > 50_000
        tol = 3 * math.sqrt(spill * (1 - spill) / n)
        assert abs((prof[1] + prof[-1]) - spill) < tol


class TestTagFormat:
    def test_roundtrip_generated_stream(self, tmp_path):
        stream = generate_stream(model(bg=2e5, jitter=800e-12), CLOCK, 5000, seed=30)
        path = tmp_path / "s.hdtt"
        write_tags(stream, path)
        back = read_tags(path)
        assert back.clock == stream.clock
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.origins, stream.origins)
        write_tags(back, tmp_path / "s2.hdtt")
        assert (tmp_path / "s.hdtt").read_bytes() == (tmp_path / "s2.hdtt").read_bytes()

    def test_empty_stream(self, tmp_path):
        empty = TagStream(
            CLOCK,
            np.empty(0, np.uint64),
            np.empty(0, np.uint8),
            np.empty(0, np.uint8),
        )
        path = tmp_path / "e.hdtt"
        write_tags(empty, path)
        assert len(read_tags(path)) == 0

    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2 ** 63),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=300,
        ),
        tick_fs=st.integers(min_value=1, max_value=10 ** 6),
    )
    @settings(deadline=None, max_examples=60)
    def test_roundtrip_random_records(self, data, tick_fs, tmp_path_factory):
        clock = ClockConfig(tick_fs / 1e15, 320, 32)
        data.sort()
        ts = np.array([r[0] for r in data], dtype=np.uint64)
        ch = np.array([r[1] for r in data], dtype=np.uint8)
        og = np.array([r[2] for r in data], dtype=np.uint8)
        stream = TagStream(clock, ts, ch, og)
        path = tmp_path_factory.mktemp("fmt") / "r.hdtt"
        write_tags(stream, path)
        back = read_tags(path)
        assert back.clock == clock
        assert np.array_equal(back.timestamps, ts)
        assert np.array_equal(back.channels, ch)
        assert np.array_equal(back.origins, og)

    def test_tick_reads_back_as_written(self, tmp_path):
        """82.31e-12 s is 82 310 fs, whose product with 1e-15 is one ulp above it."""
        stream = generate_stream(model(bg=2e5), ClockConfig(82.31e-12), 200, seed=3)
        write_tags(stream, tmp_path / "t.hdtt")
        assert read_tags(tmp_path / "t.hdtt").clock == stream.clock

    @pytest.mark.parametrize("tick", [3e-16, 1e5, 1e300, 82.3456e-12])
    def test_tick_no_file_can_hold_is_refused_before_the_file_opens(self, tmp_path, tick):
        """Under 1 fs, past 2**64 - 1 fs, or not a whole number of femtoseconds."""
        empty = (np.empty(0, np.uint64), np.empty(0, np.uint8), np.empty(0, np.uint8))
        path = tmp_path / "t.hdtt"
        with pytest.raises(ValueError, match=re.escape(f"tick_seconds = {tick!r} ")):
            write_tags(TagStream(ClockConfig(tick), *empty), path)
        assert not path.exists()

    def _valid_file(self, tmp_path):
        stream = generate_stream(model(), CLOCK, 200, seed=1)
        path = tmp_path / "v.hdtt"
        write_tags(stream, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._valid_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(blob)
        with pytest.raises(TagFormatError) as err:
            read_tags(path)
        assert err.value.offset == 0

    def test_truncated_file(self, tmp_path):
        path = self._valid_file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(TagFormatError, match="expected"):
            read_tags(path)

    def test_nonzero_reserved_bytes_rejected(self, tmp_path):
        path = self._valid_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[30 + 16 + 12] = 1  # reserved byte of the second record
        path.write_bytes(blob)
        with pytest.raises(TagFormatError, match="reserved") as err:
            read_tags(path)
        assert err.value.offset == 30 + 16 + 10

    def test_unsorted_rejected(self, tmp_path):
        path = self._valid_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[30 : 30 + 8] = (2 ** 40).to_bytes(8, "little")  # first timestamp huge
        path.write_bytes(blob)
        with pytest.raises(TagFormatError, match="sorted") as err:
            read_tags(path)
        assert err.value.offset == 30 + 16

    @pytest.mark.parametrize(
        "field, value, message",
        [(8, 4, "unknown channel code"), (8, 255, "unknown channel code"),
         (9, 3, "unknown origin code"), (9, 255, "unknown origin code")],
    )
    def test_unknown_codes_rejected(self, tmp_path, field, value, message):
        path = self._valid_file(tmp_path)
        blob = bytearray(path.read_bytes())
        offset = 30 + 16 * 2 + field  # the third record
        blob[offset] = value
        path.write_bytes(blob)
        with pytest.raises(TagFormatError, match=message) as err:
            read_tags(path)
        assert err.value.offset == offset

    def test_reserved_byte_reported_before_earlier_defects(self, tmp_path):
        path = self._valid_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[30 : 30 + 8] = (2 ** 40).to_bytes(8, "little")  # disorder at record 1
        blob[30 + 16 + 8] = 9  # unknown channel code in record 1
        blob[30 + 16 * 3 + 15] = 1  # last reserved byte of record 3
        path.write_bytes(blob)
        with pytest.raises(TagFormatError, match="reserved") as err:
            read_tags(path)
        assert err.value.offset == 30 + 16 * 3 + 10

    @pytest.mark.parametrize(
        "ts, ch, og",
        [([0, 5], [0, 4], [0, 0]), ([0, 5], [0, 1], [3, 0]),
         ([5, 4], [0, 0], [0, 0]), ([5, 5], [2, 1], [0, 0])],
        ids=["channel", "origin", "timestamps", "channel-tie"],
    )
    def test_stream_rejects_bad_codes_and_disorder(self, ts, ch, og):
        with pytest.raises(ValueError):
            TagStream(
                CLOCK, np.array(ts, np.uint64), np.array(ch, np.uint8), np.array(og, np.uint8)
            )


def sorted_records(n, seed=0):
    """``n`` events sorted by (timestamp, channel), with repeated timestamps."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(0, 3, n)).astype(np.uint64)
    ch = rng.integers(0, 4, n).astype(np.uint8)
    og = rng.integers(0, 3, n).astype(np.uint8)
    order = np.lexsort((ch, ts))
    return ts[order], ch[order], og[order]


def tag_file_bytes(clock, ts, ch, og):
    """The tag file of these events, built from the format description in one piece."""
    header = struct.pack(
        "<4sHQIIQ", b"HDTT", 1, round(clock.tick_seconds * 1e15),
        clock.frame_ticks, clock.imbalance_ticks, len(ts),
    )
    records = np.empty(len(ts), dtype=[("timestamp", "<u8"), ("flags", "<u8")])
    records["timestamp"] = ts
    records["flags"] = ch.astype(np.uint64) | og.astype(np.uint64) << np.uint64(8)
    return header + records.tobytes()


B = _BLOCK_RECORDS


def read_streamed(path):
    """Read and sift a tag file one block at a time, as ``certify-et`` does."""
    return sift_blocks(read_blocks(path), [BinningConfig.for_dimension(CLOCK, 10)], BASIS_HV)


# each way of reading a tag file must report a defect with the same message and offset
READERS = pytest.mark.parametrize("read", [read_tags, read_streamed], ids=["whole", "streamed"])


class TestTagBlocks:
    """Tag files are written and read one block of records at a time."""

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_roundtrip_at_block_edges(self, n, tmp_path):
        ts, ch, og = sorted_records(n, seed=n)
        path = tmp_path / "b.hdtt"
        write_tags(TagStream(CLOCK, ts, ch, og), path)
        assert path.read_bytes() == tag_file_bytes(CLOCK, ts, ch, og)
        back = read_tags(path)
        assert back.clock == CLOCK
        assert np.array_equal(back.timestamps, ts)
        assert np.array_equal(back.channels, ch)
        assert np.array_equal(back.origins, og)

    @pytest.mark.parametrize("n", [0, 1, 2 * B + 1])
    def test_returns_sha256_of_the_file(self, n, tmp_path):
        ts, ch, og = sorted_records(n, seed=n)
        path = tmp_path / "h.hdtt"
        digest = write_tags(TagStream(CLOCK, ts, ch, og), path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "edits, message, offset",
        [
            ([(30 + 16 * (B + 5) + 13, b"\x01")], "reserved", 30 + 16 * (B + 5) + 10),
            ([(30 + 16 * (2 * B - 1), (2 ** 40).to_bytes(8, "little"))], "sorted",
             30 + 16 * 2 * B),
            ([(30 + 16 * (B + 1) + 8, b"\x04")], "channel", 30 + 16 * (B + 1) + 8),
            ([(30 + 16, (2 ** 40).to_bytes(8, "little")), (30 + 16 * (2 * B) + 15, b"\x01")],
             "reserved", 30 + 16 * (2 * B) + 10),
        ],
        ids=["reserved", "order", "channel", "reserved-after-earlier-disorder"],
    )
    @READERS
    def test_faults_in_later_blocks_keep_their_offsets(self, edits, message, offset, read,
                                                       tmp_path):
        blob = bytearray(tag_file_bytes(CLOCK, *sorted_records(2 * B + 1)))
        for at, data in edits:
            blob[at : at + len(data)] = data
        path = tmp_path / "f.hdtt"
        path.write_bytes(blob)
        with pytest.raises(TagFormatError, match=message) as err:
            read(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("at", [B - 1, B, B + 1, B + 2, 2 * B, 2 * B + 1])
    @pytest.mark.parametrize("tie", [False, True], ids=["timestamp", "channel-tie"])
    @READERS
    def test_order_break_at_block_edges(self, at, tie, read, tmp_path):
        """The order check runs block by block; breaks on either side of an edge
        keep their event index and byte offset."""
        ts, ch, og = sorted_records(2 * B + 3, seed=at)
        if tie:
            ts[at], ch[at - 1], ch[at] = ts[at - 1], 3, 0
        else:
            ts[at] = ts[at - 1] - 1
        with pytest.raises(ValueError, match=rf"records not sorted .* at event {at}$"):
            TagStream(CLOCK, ts, ch, og)
        path = tmp_path / "o.hdtt"
        path.write_bytes(tag_file_bytes(CLOCK, ts, ch, og))
        with pytest.raises(TagFormatError, match="sorted") as err:
            read(path)
        assert err.value.offset == 30 + 16 * at

    @pytest.mark.parametrize(
        "edits, error, offset",
        [([(30 + 16 * (B + 2) + 9, b"\x04"), (30 + 16 * 2 * B + 8, b"\x05")], "channel",
          30 + 16 * 2 * B + 8),
         ([(30 + 16 * (B + 2) + 8, b"\x05"), (30 + 16 * 2 * B + 9, b"\x04")], "channel",
          30 + 16 * (B + 2) + 8),
         ([(30 + 16 * 3, (2 ** 40).to_bytes(8, "little")), (30 + 16 * 2 * B + 9, b"\x04")],
          "origin", 30 + 16 * 2 * B + 9),
         ([(18, b"\x00\x00\x00\x00"), (30 + 16 * 3 + 8, b"\x05")], "imbalance_ticks", None),
         ([(18, b"\x00\x00\x00\x00"), (30 + 16 * 2 * B + 12, b"\x01")], "imbalance_ticks",
          None),
         ([(30 + 16 * (B - 1) + 9, b"\x04"), (30 + 16 * 2 * B + 9, b"\x07")], "origin",
          30 + 16 * (B - 1) + 9)],
        ids=["channel-after-origin", "channel-before-origin", "origin-after-order",
             "clock-before-channel", "clock-before-reserved", "first-of-two-origin"],
    )
    @READERS
    def test_defect_of_higher_rank_is_reported_wherever_it_lies(self, edits, error, offset,
                                                                  read, tmp_path):
        """The header's clock first, then reserved bits, then the file's first
        channel, origin and order defect, in that order."""
        blob = bytearray(tag_file_bytes(CLOCK, *sorted_records(2 * B + 1)))
        for at, data in edits:
            blob[at : at + len(data)] = data
        path = tmp_path / "r.hdtt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=error) as err:
            read(path)
        assert getattr(err.value, "offset", None) == offset

    @pytest.mark.parametrize(
        "at, data, error",
        [(0, b"NOPE", "bad magic"), (4, b"\x02", "version 2"), (22, b"\x09", "expected"),
         (18, b"\x00\x00\x00\x00", "imbalance_ticks"), (14, b"\x07", "not divisible")],
        ids=["magic", "version", "size", "zero-imbalance", "frame-not-multiple"],
    )
    def test_header_defects_are_raised_before_any_record_is_read(self, at, data, error,
                                                                  tmp_path, monkeypatch):
        """``read_blocks`` judges the whole header, clock included, when it is
        called; ``read_tags`` does too.  The records carry a reserved-bit
        defect, which a record read would report instead."""
        blob = bytearray(tag_file_bytes(CLOCK, *sorted_records(B + 1)))
        blob[30 + 16 * 3 + 12] = 1
        blob[at : at + len(data)] = data
        path = tmp_path / "h.hdtt"
        path.write_bytes(blob)

        def no_records(*args):
            raise AssertionError("a record was read")

        monkeypatch.setattr(tagstream, "_record_blocks", no_records)
        for read in (read_blocks, read_tags):
            with pytest.raises(ValueError, match=error):
                read(path)

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    def test_every_order_break_is_found_at_any_block_size(self, block, monkeypatch):
        monkeypatch.setattr(tagstream, "_BLOCK_RECORDS", block)
        n = 3 * block + 3
        for at in range(1, n):
            for tie in (False, True):
                ts = 10 + 2 * np.arange(n, dtype=np.uint64)
                ch = np.ones(n, dtype=np.uint8)
                if tie:
                    ts[at], ch[at] = ts[at - 1], 0
                else:
                    ts[at] = ts[at - 1] - 1
                with pytest.raises(ValueError, match=rf"at event {at}$"):
                    TagStream(CLOCK, ts, ch, np.zeros(n, dtype=np.uint8))
        TagStream(CLOCK, 10 + 2 * np.arange(n, dtype=np.uint64), np.ones(n, np.uint8),
                  np.zeros(n, np.uint8))

    def test_short_read_is_a_format_error(self, tmp_path, monkeypatch):
        blob = tag_file_bytes(CLOCK, *sorted_records(B + 3))
        path = tmp_path / "s.hdtt"
        path.write_bytes(blob[:-20])
        real_fstat = tagstream.os.fstat

        def stale_fstat(fd):  # the size the file had before it was cut
            return type("Stat", (), {"st_size": real_fstat(fd).st_size + 20})()

        monkeypatch.setattr(tagstream.os, "fstat", stale_fstat)
        with pytest.raises(TagFormatError, match="ended") as err:
            read_tags(path)
        assert err.value.offset == len(blob) - 20


@pytest.fixture(scope="module")
def noisy_stream():
    """About 430 k events: 25 frame blocks and 7 record blocks."""
    return generate_stream(model(d=80, pair_rate=1.5e6, bg=4e7, jitter=800e-12), CLOCK,
                           100_000, seed=7)


def traced_peak(func):
    """``func()`` and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = func()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def stream_bytes(stream):
    return stream.timestamps.nbytes + stream.channels.nbytes + stream.origins.nbytes


class TestStreamMemory:
    """Whole-stream stages hold about one stream, not several copies of it,
    and the file commands hold one block, whatever the stream's length.

    Each stage's traced peak includes what it returns; the per-block arrays
    add about 1 MiB, a quarter of this stream's 4 MiB.
    """

    def test_generate_stream_peak(self, noisy_stream):
        m = model(d=80, pair_rate=1.5e6, bg=4e7, jitter=800e-12)
        stream, peak = traced_peak(lambda: generate_stream(m, CLOCK, 100_000, seed=7))
        assert_same_stream(stream, noisy_stream)
        assert peak < 1.2 * stream_bytes(stream)

    def test_read_tags_peak(self, noisy_stream, tmp_path):
        path = tmp_path / "n.hdtt"
        write_tags(noisy_stream, path)
        back, peak = traced_peak(lambda: read_tags(path))
        assert_same_stream(back, noisy_stream)
        assert peak < 2.0 * stream_bytes(noisy_stream)

    def test_stream_checks_hold_about_one_block(self, noisy_stream):
        """The channel, origin and order checks of ``TagStream`` allocate less
        than one block of timestamps, whatever the stream's length."""
        ts, ch, og = noisy_stream.timestamps, noisy_stream.channels, noisy_stream.origins
        fresh, peak = traced_peak(lambda: TagStream(CLOCK, ts, ch, og))
        assert_same_stream(fresh, noisy_stream)
        assert peak < 8 * _BLOCK_RECORDS

    def test_kept_events_peak(self, noisy_stream):
        fresh = TagStream(CLOCK, noisy_stream.timestamps, noisy_stream.channels,
                          noisy_stream.origins)
        kept, peak = traced_peak(lambda: fresh.kept_events)
        got, want = joined_kept(kept), whole_stream_kept_values(noisy_stream)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        assert peak < 0.5 * stream_bytes(noisy_stream)

    @staticmethod
    def config(tmp_path, n_frames):
        """A one-point run config at the brightest default background rate."""
        path = tmp_path / f"run{n_frames}.ini"
        path.write_text(f"[source]\nbackground_rates = 4e7\n[sweep]\nn_frames = {n_frames}\n")
        return path

    def test_simulate_tags_holds_one_block(self, tmp_path, capsys):
        """Eight times the frames (1.4 M events, 22 MiB a file, against 2.6 read
        blocks) raise the traced peak of ``simulate-tags`` by less than one 1 MiB block."""
        peaks = []
        for n_frames in (40_000, 320_000):
            argv = ["simulate-tags", "--config", str(self.config(tmp_path, n_frames)),
                    "--out", str(tmp_path / f"tags{n_frames}")]
            code, peak = traced_peak(lambda: cli.main(argv))
            assert code == 0, capsys.readouterr().err
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 1 << 20

    def test_certify_et_holds_one_block(self, tmp_path, capsys):
        """``certify-et`` opens both files, then reads and sifts each one block at a
        time, HV before DA: eight times the frames raise its traced peak by less than one 1 MiB block."""
        peaks = []
        for n_frames in (40_000, 320_000):
            out = tmp_path / f"tags{n_frames}"
            argv = ["simulate-tags", "--config", str(self.config(tmp_path, n_frames)),
                    "--out", str(out)]
            assert cli.main(argv) == 0, capsys.readouterr().err
            argv = ["certify-et", "--hv", str(out / "tags_p000_hv.hdtt"),
                    "--da", str(out / "tags_p000_da.hdtt"), "--dims", "10,80",
                    "--resamples", "2"]
            code, peak = traced_peak(lambda: cli.main(argv))
            assert code == 0, capsys.readouterr().err
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 1 << 20


class TestCountMatrixSet:
    def test_rejects_negative_counts(self):
        b10 = BinningConfig.for_dimension(CLOCK, 10)
        m = np.zeros((4, 10, 10), np.int64)
        m[0, 0, 0] = -1
        with pytest.raises(ValueError):
            CountMatrixSet(BASIS_HV, b10, m, 1, 0, 0)
