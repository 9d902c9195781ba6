import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hdent.states import NoisyState, Pairing, make_max_entangled
from hdent.tagstream import (
    BASIS_DA,
    BASIS_HV,
    CHUNK_FRAMES,
    FWHM_TO_SIGMA,
    PAIR_LABELS,
    BinningConfig,
    ClockConfig,
    CountMatrixSet,
    Origin,
    SourceModel,
    TagFormatError,
    TagStream,
    _signal_tables,
    crosstalk_profile,
    generate_stream,
    read_tags,
    sift_and_bin,
    write_tags,
)

from conftest import exact_da_probabilities, exact_hv_probabilities, spill_probabilities

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

    def test_frame_range_merge(self):
        m = model(bg=3e5, p=0.8)
        stream = generate_stream(m, CLOCK, 30_000, seed=13)
        binning = BinningConfig.for_dimension(CLOCK, 10)
        full = sift_and_bin(stream, binning, BASIS_HV, frame_range=(0, 30_000))
        left = sift_and_bin(stream, binning, BASIS_HV, frame_range=(0, 11_000))
        right = sift_and_bin(stream, binning, BASIS_HV, frame_range=(11_000, 30_000))
        merged = left + right
        assert np.array_equal(merged.matrices, full.matrices)
        assert merged.frames_kept == full.frames_kept
        assert merged.noise_coincidences == full.noise_coincidences

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
        clock = ClockConfig(tick_fs * 1e-15, 320, 32)
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


class TestCountMatrixSet:
    def test_merge_requires_matching_config(self):
        b10 = BinningConfig.for_dimension(CLOCK, 10)
        b20 = BinningConfig.for_dimension(CLOCK, 20)
        a = CountMatrixSet(BASIS_HV, b10, np.zeros((4, 10, 10), np.int64), 5, 0, 0)
        b = CountMatrixSet(BASIS_HV, b20, np.zeros((4, 20, 20), np.int64), 5, 0, 0)
        with pytest.raises(ValueError):
            _ = a + b

    def test_rejects_negative_counts(self):
        b10 = BinningConfig.for_dimension(CLOCK, 10)
        m = np.zeros((4, 10, 10), np.int64)
        m[0, 0, 0] = -1
        with pytest.raises(ValueError):
            CountMatrixSet(BASIS_HV, b10, m, 1, 0, 0)
