import math
from dataclasses import replace

import numpy as np
import pytest

from hdent.analysis import (
    fiber_distance,
    fiber_loss,
    noise_fraction,
    poisson_resample,
    threshold_scan,
    true_noise_fraction,
)
from hdent.mub import build_mubs, correlation_matrix
from hdent.states import NoisyState, make_max_entangled
from hdent.tagstream import (
    BASIS_DA,
    BASIS_HV,
    BinningConfig,
    ClockConfig,
    SourceModel,
    generate_stream,
    sift_and_bin,
)
from hdent.witness import resample_witness, witness_exact, witness_from_counts

from conftest import (
    assert_same_law,
    each_replicate,
    exact_count_sets,
    loop_poisson_resample,
    noise_fraction_oracle,
    vis,
    witness_masks,
)

CLOCK = ClockConfig()
B10 = BinningConfig.for_dimension(CLOCK, 10)
B20 = BinningConfig.for_dimension(CLOCK, 20)


def stream_counts(pair_rate, bg, seed, n=40_000, basis=BASIS_HV):
    m = SourceModel(make_max_entangled(10), pair_rate, bg, 0.0, 1.0, basis)
    return sift_and_bin(generate_stream(m, CLOCK, n, seed), B10, basis)


def scan(points):
    """Threshold scan over ``(nf, margin)`` pairs, each with zero sigma."""
    nf, margin = zip(*points)
    return threshold_scan(nf, margin, [0.0] * len(nf))


class TestNoiseFraction:
    def test_zero_background(self):
        counts = stream_counts(3e6, 0.0, seed=1)
        assert true_noise_fraction(counts) == 0.0

    def test_background_only(self):
        counts = stream_counts(0.0, 4e6, seed=2)
        assert true_noise_fraction(counts) == 1.0

    def test_doubling_background_increases_nf(self):
        low = true_noise_fraction(stream_counts(3e6, 2e6, seed=3))
        high = true_noise_fraction(stream_counts(3e6, 4e6, seed=3))
        assert high > low > 0.0

    def test_labelled_fraction_pools_every_set(self):
        hv = stream_counts(3e6, 2e6, seed=4)
        da = stream_counts(3e6, 6e6, seed=5, basis=BASIS_DA)
        both = true_noise_fraction(hv, da)
        assert both == (hv.noise_coincidences + da.noise_coincidences) / (
            hv.frames_kept + da.frames_kept
        )
        assert true_noise_fraction(hv) < both < true_noise_fraction(da)

    def test_isotropic_pedestal_is_exact_single_matrix(self):
        mubs = build_mubs(5)
        for p in (0.0, 0.35, 0.8, 1.0):
            m = correlation_matrix(NoisyState(make_max_entangled(5), p), mubs, 1, 1)
            est = noise_fraction(m)
            assert abs(est - (1.0 - p)) < 1e-12

    def test_isotropic_pedestal_is_exact_hv_set(self):
        for p in (0.2, 0.65):
            hv, _ = exact_count_sets(NoisyState(make_max_entangled(10), p), B10, 1e8)
            est = noise_fraction(hv.matrices)
            assert abs(est - (1.0 - p)) < 1e-4

    def test_unknown_origins_give_none(self):
        labelled = stream_counts(3e6, 2e6, seed=6)
        unknown = replace(labelled, noise_coincidences=None)
        assert true_noise_fraction(unknown) is None
        assert true_noise_fraction(labelled, unknown) is None

    def test_no_kept_frame_gives_none(self):
        empty = stream_counts(0.0, 0.0, seed=7, n=100)
        assert empty.frames_kept == 0 and empty.noise_coincidences == 0
        assert true_noise_fraction(empty) is None

    @pytest.mark.parametrize("d", [2, 10, 20, 40, 80])
    def test_equals_the_per_matrix_trace_form(self, d, rng):
        """Bit for bit, on float stacks of every sweep dimension and on single matrices.

        Nearly diagonal stacks make the estimate a small difference of the total
        and the diagonal sum, so a last-bit change in either shows.
        """
        for n_mat in (1, 2, 8, 12):
            for _ in range(10):
                m = rng.random((n_mat, d, d)) * 1e-3 + np.eye(d) * rng.random((n_mat, 1, d)) * 1e6
                for stack in (m, m.transpose(0, 2, 1) * 1e-6 + rng.random((n_mat, d, d))):
                    assert noise_fraction(stack) == noise_fraction_oracle(stack)
                    assert noise_fraction(list(stack)) == noise_fraction_oracle(list(stack))
                    assert noise_fraction(stack[0]) == noise_fraction_oracle(stack[0])

    def test_memory_layout_does_not_change_the_bits(self):
        """A strided stack and its C-contiguous copy give equal results (``==``).

        Nearly diagonal 8 x 80 x 80 stacks held in a transposed layout; summed in
        memory order instead, 32 of these 50 draws differ in the last bit.
        """
        rng = np.random.default_rng(8080)
        for _ in range(50):
            m = rng.random((8, 80, 80)) * 1e-3 + np.eye(80) * rng.random((8, 1, 80)) * 1e6
            view = np.ascontiguousarray(m.transpose(2, 1, 0)).transpose(2, 1, 0)
            assert not view.flags.c_contiguous and np.array_equal(view, m)
            assert noise_fraction(view) == noise_fraction(m)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            noise_fraction(np.zeros((4, 3, 3)))


def every_cell(*arrays) -> tuple:
    """All-True read masks, one per array."""
    return tuple(np.ones(np.shape(a), dtype=bool) for a in arrays)


def totals(reps):
    ((_, part_totals),) = reps
    return part_totals


class TestPoissonResample:
    def test_zero_counts_zero_variance(self):
        data = (np.zeros((4, 5, 5)),)
        summary = poisson_resample(data, totals, 10, 0, every_cell(*data))
        assert summary.mean == 0.0 and summary.std == 0.0

    def test_sigma_scales_with_inverse_root_counts(self):
        state = NoisyState(make_max_entangled(10), 0.5)
        sigmas = {}
        for total in (1e4, 1e6):
            hv, da = exact_count_sets(state, B10, total)
            sigmas[total] = resample_witness(hv, da, 150, seed=5).std
        ratio = sigmas[1e4] / sigmas[1e6]
        assert 8.0 < ratio < 12.0

    def test_stable_across_seeds(self):
        state = NoisyState(make_max_entangled(10), 0.5)
        hv, da = exact_count_sets(state, B10, 3e4)
        stds = [resample_witness(hv, da, 150, seed=k).std for k in (1, 2, 3)]
        assert (max(stds) - min(stds)) / min(stds) < 0.15

    def test_linear_statistic_unbiased(self):
        data = (np.full((5, 5), 400.0),)
        summary = poisson_resample(data, totals, 150, 9, every_cell(*data))
        point_estimate = 400.0 * 25
        assert abs(summary.mean - point_estimate) < 3 * summary.std / math.sqrt(150)

    def test_three_sigma_report(self):
        data = (np.full((2, 2), 50.0),)
        summary = poisson_resample(data, totals, 50, 1, every_cell(*data))
        assert np.isclose(summary.three_sigma, 3 * summary.std)

    def test_rejects_negative_counts(self):
        data = (np.array([[-1.0, 2.0]]),)
        with pytest.raises(ValueError, match=r"data\[0\]: counts must be non-negative"):
            poisson_resample(data, lambda reps: np.zeros(10), 10, 0, every_cell(*data))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_counts_naming_the_part(self, bad):
        data = (np.ones((2, 2)), np.array([[1.0, bad], [2.0, 3.0]]))
        with pytest.raises(ValueError, match=r"data\[1\]: counts must be finite"):
            poisson_resample(data, lambda reps: np.zeros(10), 10, 0, every_cell(*data))

    def test_rejects_negative_counts_naming_the_part(self):
        data = (np.ones((2, 2)), np.ones((2, 2)), np.array([[1.0, -2.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match=r"data\[2\]: counts must be non-negative"):
            poisson_resample(data, lambda reps: np.zeros(10), 10, 0, every_cell(*data))

    @pytest.mark.parametrize(
        "result, shape",
        [(0.0, r"\(\)"), (np.zeros(11), r"\(11,\)"), (np.zeros((10, 1)), r"\(10, 1\)"),
         ([], r"\(0,\)")],
        ids=["scalar", "too-long", "column", "empty"],
    )
    def test_rejects_a_statistic_of_the_wrong_shape(self, result, shape):
        data = (np.ones((2, 2)),)
        with pytest.raises(ValueError, match=r"shape \(10,\); got shape " + shape):
            poisson_resample(data, lambda reps: result, 10, 0, every_cell(*data))

    def test_statistic_is_called_once_with_every_replicate(self):
        hv, da = exact_count_sets(NoisyState(make_max_entangled(10), 0.5), B10, 1e3)
        calls = []
        masks = witness_masks(B10)
        poisson_resample((hv.matrices, da.matrices),
                         lambda reps: calls.append(reps) or np.zeros(7), 7, 0, masks)
        (batch,) = calls
        assert type(batch) is tuple and [type(part) for part in batch] == [tuple] * 2
        for (cells, part_totals), mask in zip(batch, masks):
            lumped = part_totals - cells.sum(1)
            assert cells.shape == (7, mask.sum()) and part_totals.shape == (7,)
            assert (lumped >= 0).all()

    def test_rejects_too_few_resamples(self):
        data = (np.ones((2, 2)),)
        with pytest.raises(ValueError):
            poisson_resample(data, lambda reps: np.zeros(1), 1, 0, every_cell(*data))

    def test_deterministic_in_seed(self):
        data = (np.full((3, 3), 30.0),)
        reads = (np.eye(3, dtype=bool),)
        a = poisson_resample(data, totals, 20, 4, reads)
        b = poisson_resample(data, totals, 20, 4, reads)
        c = poisson_resample(data, totals, 20, 5, reads)
        assert a == b and a != c

    def test_an_all_true_mask_lumps_nothing(self):
        data = (np.full((3, 3), 30.0),)
        batches = []
        poisson_resample(data, lambda reps: batches.append(reps) or np.zeros(4), 4, 0,
                         every_cell(*data))
        (((cells, part_totals),),) = batches
        assert cells.shape == (4, 9) and (part_totals - cells.sum(1) == 0).all()

    @pytest.mark.parametrize(
        "reads, message",
        [
            ((np.ones((4, 10, 10), dtype=bool),), r"reads\[1\]"),
            ((np.ones((4, 10, 10), dtype=bool),) * 3, r"reads\[2\]"),
            ((np.ones((4, 10, 10), dtype=bool), np.ones((10, 10), dtype=bool)), r"reads\[1\]"),
            ((np.ones((4, 10, 10), dtype=bool), np.ones((4, 10, 10))), r"reads\[1\]"),
        ],
        ids=["too-few", "too-many", "shape", "not-bool"],
    )
    def test_rejects_bad_masks_naming_the_part(self, reads, message):
        hv, da = exact_count_sets(NoisyState(make_max_entangled(10), 0.5), B10, 1e3)
        with pytest.raises(ValueError, match=message):
            poisson_resample((hv.matrices, da.matrices), lambda reps: np.zeros(10), 10, 0, reads)

    @staticmethod
    def ragged_parts():
        """Three parts of different shapes, int and float counts, and masks that read
        some cells, every cell and no cell."""
        data = [np.array([[3.0, 0.0, 7.5], [1.0, 2.0, 40.0]]),
                np.arange(4, dtype=np.int64) * 5,
                np.full((2, 2, 2), 12.0)]
        reads = [np.array([[True, False, True], [False, False, True]]),
                 np.ones(4, dtype=bool),
                 np.zeros((2, 2, 2), dtype=bool)]
        return data, reads

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("fault", ["nan", "inf", "-inf", "negative", "mask-dtype",
                                       "mask-shape", "mask-none", "mask-and-later-count"])
    def test_names_the_first_bad_part(self, fault, position):
        """Counts are checked before the mask, and parts in order; later faults never show."""
        shape = ["(2, 3)", "(4,)", "(2, 2, 2)"][position]
        refused = f"reads[{position}] must be a bool mask of shape {shape}, got"
        data, reads = self.ragged_parts()
        data[position] = data[position].astype(float)
        if fault in ("nan", "inf", "-inf", "negative"):
            data[position].flat[-1] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                                       "negative": -1.0}[fault]
            reads[position] = None  # a mask fault in the same part comes second
            expected = f"data[{position}]: counts must be " + (
                "non-negative" if fault == "negative" else "finite")
        elif fault == "mask-dtype":
            reads[position] = reads[position].astype(np.uint8)
            expected = f"{refused} uint8 of shape {shape}"
        elif fault == "mask-shape":
            reads[position] = reads[position].ravel()[:-1]
            short = ["(5,)", "(3,)", "(7,)"][position]
            expected = f"{refused} bool of shape {short}"
        elif fault == "mask-none":
            reads[position] = None
            expected = f"{refused} object of shape ()"
        else:  # a mask fault here, a count fault in every later part
            reads[position] = reads[position].astype(np.int64)
            for later in range(position + 1, len(data)):
                data[later] = data[later].astype(float)
                data[later].flat[0] = math.nan
            expected = f"{refused} int64 of shape {shape}"
        with pytest.raises(ValueError) as got:
            poisson_resample(tuple(data), lambda reps: np.zeros(5), 5, 3, tuple(reads))
        assert str(got.value) == expected

    def test_ragged_parts_draw_a_fixed_sequence(self):
        """Bit for bit at one seed, with masks that read some cells, every cell and no cell,
        an empty part and a read mean of 2e6: each part draws its read cells, then its
        lumped rest, from the one generator."""
        data, reads = self.ragged_parts()
        data.append(np.zeros((0, 3)))
        reads.append(np.zeros((0, 3), dtype=bool))
        data.append(np.array([[2e6, 5.0], [0.0, 1e-3]]))
        reads.append(np.array([[True, False], [False, True]]))
        batches = []
        poisson_resample(tuple(data), lambda reps: batches.append(reps) or np.zeros(3), 3,
                         2**70 + 5, tuple(reads))
        (got,) = batches
        want = [
            ([[0, 5, 44], [2, 8, 46], [3, 5, 40]], [5, 2, 1]),
            ([[0, 7, 13, 12], [0, 4, 8, 17], [0, 5, 12, 8]], [0, 0, 0]),
            (np.zeros((3, 0)), [87, 104, 103]),
            (np.zeros((3, 0)), [0, 0, 0]),
            ([[2001587, 0], [1999626, 0], [2000163, 0]], [4, 5, 3]),
        ]
        assert len(got) == len(want)
        for (got_cells, got_totals), (cells, lumped) in zip(got, want):
            cells, lumped = np.asarray(cells, dtype=np.int64), np.asarray(lumped, dtype=np.int64)
            for name, a, value in (("cells", got_cells, cells),
                                   ("lumped", got_totals - got_cells.sum(1), lumped),
                                   ("totals", got_totals, cells.sum(1) + lumped)):
                assert a.dtype == np.int64 and a.shape == value.shape and (a == value).all(), name

    def test_witness_masks_match_the_full_draw_in_law(self):
        """``resample_witness`` against the every-cell loop at d = 20, 2000 replicates each.

        Mean and sigma must agree (``assert_same_law``); for a correct
        resampler the pair of checks fails with probability about 1e-6.
        """
        hv, da = exact_count_sets(NoisyState(make_max_entangled(20), 0.5), B20, 3e4)
        n = 2000
        summary, masked, _ = each_replicate(hv, da, n, 11)
        assert summary.std == masked.std(ddof=1) and masked.shape == (n,)
        full = []
        loop_poisson_resample(
            (hv, da), lambda pair: full.append(witness_from_counts(*pair).witness_lower_bound)
            or full[-1], n, 11,
        )
        assert_same_law(masked, np.array(full))


class TestThresholdScan:
    def test_ideal_visibility_threshold(self):
        d, k = 3, 4
        mubs = build_mubs(d)
        pure = make_max_entangled(d)
        points = []
        for nf in np.linspace(0.0, 0.95, 20):
            report = vis(NoisyState(pure, 1.0 - nf), mubs, k)
            points.append((float(nf), report.visibility_sum - report.separable_bound))
        result = scan(points)
        assert abs(result.nf_star - 0.75) < 0.01
        assert result.censored == "none" and not result.ambiguous

    def test_ideal_witness_threshold(self):
        d = 10
        points = [
            (float(nf), witness_exact(NoisyState(make_max_entangled(d), 1 - nf), 1))
            for nf in np.linspace(0.0, 1.0, 23)
        ]
        result = scan(points)
        assert abs(result.nf_star - d / (d + 1)) < 0.01

    def test_uncertainty_band_brackets_threshold(self):
        result = threshold_scan([0.0, 1.0], [1.0, -1.0], [0.1, 0.1])
        assert result.lower < result.nf_star < result.upper

    @pytest.mark.parametrize(
        "margin, sigma, band, open_side",
        [
            ([2.0, 1.0, -1.0], [0.1, 0.1, 0.1], (0.725, 0.775), "none"),
            ([2.0, 1.0, -0.5], [0.1, 0.1, 1.0], (0.6875, 1.0), "upper"),
            ([2.0, 0.5, -1.0], [0.1, 1.0, 0.1], (0.5, 0.8125), "lower"),
            ([2.0, 0.5, -0.5], [0.1, 1.0, 1.0], (0.5, 1.0), "both"),
            # no certified -> uncertified transition: the rising crossing, whose
            # +sigma line crosses before the segment
            ([-2.0, -1.0, 1.0], [0.1, 1.5, 0.1], (0.5 + 0.5 * 2.5 / 3.4, 0.5), "upper"),
        ],
        ids=["closed", "open-at-top", "open-at-bottom", "open-both", "rising"],
    )
    def test_open_band_is_held_at_the_grid_point(self, margin, sigma, band, open_side):
        """A +/- sigma line with no root in the bracketing segment ends the band
        at the segment's grid point on the side of its root, and says so."""
        result = threshold_scan([0.0, 0.5, 1.0], margin, sigma)
        assert result.nf_star == pytest.approx(0.5 + 0.5 * margin[1] / (margin[1] - margin[2]))
        assert (result.lower, result.upper) == pytest.approx(band)
        assert result.open_side == open_side

    def test_censored_sweeps(self):
        for points, censored in (([(0.1, 1.0), (0.2, 0.5)], "above"),
                                 ([(0.1, -1.0), (0.2, -0.5)], "below")):
            result = scan(points)
            assert result.censored == censored and result.open_side == "none"
            assert result.lower is None and result.upper is None

    def test_ambiguous_sweep_reports_all_crossings(self):
        result = scan([(0.0, 1.0), (0.3, -0.5), (0.6, 0.5), (0.9, -1.0)])
        assert result.ambiguous and len(result.crossings) == 3
        assert abs(result.nf_star - 0.2) < 1e-12  # first certified -> uncertified

    def test_unsorted_points_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            scan([(0.5, 1.0), (0.1, -1.0)])

    @pytest.mark.parametrize(
        "nf, margin, sigma, message",
        [
            ([0.1, 0.2], [1.0, -1.0], [0.1], "equal lengths"),
            ([0.1, 0.2, 0.3], [1.0, -1.0], [0.1, 0.1], "equal lengths"),
            ([0.1, 0.2], [1.0, -1.0], [0.1, -0.1], "non-negative"),
            ([0.1], [1.0], [0.1], "two sweep points"),
            ([0.1, 0.2, 0.3], [1.0, math.nan, -1.0], [0.1] * 3, r"^margin\[1\] must be finite"),
            ([0.1, math.nan], [1.0, -1.0], [0.1, 0.1], r"^nf\[1\] must be finite"),
            ([-math.inf, 0.2], [1.0, -1.0], [0.1, 0.1], r"^nf\[0\] must be finite"),
            ([0.1, 0.2], [1.0, -math.inf], [0.1, 0.1], r"^margin\[1\] must be finite"),
            ([0.1, 0.2, 0.3], [1.0, 0.5, -1.0], [0.1, 0.1, math.nan],
             r"^sigma\[2\] must be finite"),
            ([0.1, 0.2], [1.0, -1.0], [math.inf, 0.1], r"^sigma\[0\] must be finite"),
        ],
        ids=["short-sigma", "long-nf", "negative-sigma", "one-point", "nan-margin", "nan-nf",
             "inf-nf", "inf-margin", "nan-sigma", "inf-sigma"],
    )
    def test_rejects_malformed_sweeps(self, nf, margin, sigma, message):
        with pytest.raises(ValueError, match=message):
            threshold_scan(nf, margin, sigma)


class TestFiberDistance:
    def test_reference_points(self):
        assert fiber_distance(82.0) == 410.0
        assert fiber_distance(102.0) == 510.0
        assert fiber_distance(0.0) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fiber_distance(-1.0)
        with pytest.raises(ValueError):
            fiber_distance(10.0, 0.0)

    def test_loss_inverts_distance(self):
        assert fiber_loss(410.0) == 82.0
        assert fiber_distance(fiber_loss(510.0, 0.2), 0.2) == 510.0
        with pytest.raises(ValueError, match="distance"):
            fiber_loss(-5.0)
        with pytest.raises(ValueError, match="attenuation"):
            fiber_loss(5.0, -0.2)
