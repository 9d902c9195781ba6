import math

import numpy as np
import pytest

from hdent.analysis import (
    ACCIDENTAL_MODEL,
    GROUND_TRUTH,
    NoiseFractionEstimate,
    SweepPoint,
    fiber_distance,
    fiber_loss,
    noise_fraction,
    poisson_resample,
    threshold_scan,
)
from hdent.mub import build_mubs, correlation_matrix, visibility_sum
from hdent.states import NoisyState, make_max_entangled
from hdent.tagstream import (
    BASIS_HV,
    BinningConfig,
    ClockConfig,
    SourceModel,
    generate_stream,
    sift_and_bin,
)
from hdent.witness import witness_exact, witness_from_counts, witness_read_masks

from conftest import exact_count_sets, loop_poisson_resample

CLOCK = ClockConfig()
B10 = BinningConfig.for_dimension(CLOCK, 10)
B20 = BinningConfig.for_dimension(CLOCK, 20)


def stream_counts(pair_rate, bg, seed, n=40_000):
    m = SourceModel(make_max_entangled(10), pair_rate, bg, 0.0, 1.0, BASIS_HV)
    return sift_and_bin(generate_stream(m, CLOCK, n, seed), B10, BASIS_HV)


def point(nf, value, sigma=0.0):
    return SweepPoint(
        noise_setting=nf,
        nf=NoiseFractionEstimate(nf, None, GROUND_TRUTH),
        witness_value=value,
        sigma=sigma,
        certified=value > 0,
    )


class TestNoiseFraction:
    def test_zero_background(self):
        counts = stream_counts(3e6, 0.0, seed=1)
        assert noise_fraction(counts).nf_true == 0.0

    def test_background_only(self):
        counts = stream_counts(0.0, 4e6, seed=2)
        assert noise_fraction(counts).nf_true == 1.0

    def test_doubling_background_increases_nf(self):
        low = noise_fraction(stream_counts(3e6, 2e6, seed=3)).nf_true
        high = noise_fraction(stream_counts(3e6, 4e6, seed=3)).nf_true
        assert high > low > 0.0

    def test_isotropic_pedestal_is_exact_single_matrix(self):
        mubs = build_mubs(5)
        for p in (0.0, 0.35, 0.8, 1.0):
            m = correlation_matrix(NoisyState(make_max_entangled(5), p), mubs, 1, 1)
            est = noise_fraction(m, ACCIDENTAL_MODEL).nf_estimated
            assert abs(est - (1.0 - p)) < 1e-12

    def test_isotropic_pedestal_is_exact_hv_set(self):
        for p in (0.2, 0.65):
            hv, _ = exact_count_sets(NoisyState(make_max_entangled(10), p), B10, 1e8)
            est = noise_fraction(hv, ACCIDENTAL_MODEL).nf_estimated
            assert abs(est - (1.0 - p)) < 1e-4

    def test_ground_truth_needs_labels(self):
        with pytest.raises(ValueError):
            noise_fraction(np.ones((4, 3, 3)), GROUND_TRUTH)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            noise_fraction(np.zeros((4, 3, 3)), ACCIDENTAL_MODEL)


class TestPoissonResample:
    def test_zero_counts_zero_variance(self):
        summary = poisson_resample(
            np.zeros((4, 5, 5)), lambda m: float(m.sum()), 10, seed=0
        )
        assert summary.mean == 0.0 and summary.std == 0.0

    def test_sigma_scales_with_inverse_root_counts(self):
        state = NoisyState(make_max_entangled(10), 0.5)

        def stat(pair):
            return witness_from_counts(pair[0], pair[1], 10, 1).witness_lower_bound

        sigmas = {}
        for total in (1e4, 1e6):
            hv, da = exact_count_sets(state, B10, total)
            sigmas[total] = poisson_resample((hv, da), stat, 150, seed=5).std
        ratio = sigmas[1e4] / sigmas[1e6]
        assert 8.0 < ratio < 12.0

    def test_stable_across_seeds(self):
        state = NoisyState(make_max_entangled(10), 0.5)
        hv, da = exact_count_sets(state, B10, 3e4)

        def stat(pair):
            return witness_from_counts(pair[0], pair[1], 10, 1).witness_lower_bound

        stds = [poisson_resample((hv, da), stat, 150, seed=k).std for k in (1, 2, 3)]
        assert (max(stds) - min(stds)) / min(stds) < 0.15

    def test_linear_statistic_unbiased(self):
        rng_counts = np.full((5, 5), 400.0)
        summary = poisson_resample(rng_counts, lambda m: float(m.sum()), 150, seed=9)
        point_estimate = 400.0 * 25
        assert abs(summary.mean - point_estimate) < 3 * summary.std / math.sqrt(150)

    def test_three_sigma_report(self):
        summary = poisson_resample(np.full((2, 2), 50.0), lambda m: float(m.sum()), 50, 1)
        assert np.isclose(summary.three_sigma, 3 * summary.std)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            poisson_resample(np.array([[-1.0, 2.0]]), lambda m: 0.0, 10, 0)

    def test_rejects_too_few_resamples(self):
        with pytest.raises(ValueError):
            poisson_resample(np.ones((2, 2)), lambda m: 0.0, 1, 0)

    def test_deterministic_in_seed(self):
        data = np.full((3, 3), 30.0)
        reads = (np.eye(3, dtype=bool),)
        a = poisson_resample(data, lambda m: float(m.sum()), 20, seed=4, reads=reads)
        b = poisson_resample(data, lambda m: float(m.sum()), 20, seed=4, reads=reads)
        c = poisson_resample(data, lambda m: float(m.sum()), 20, seed=5, reads=reads)
        assert a == b and a != c

    def test_all_true_mask_is_reads_none(self):
        hv, da = exact_count_sets(NoisyState(make_max_entangled(10), 0.5), B10, 3e4)
        everything = tuple(np.ones((4, 10, 10), dtype=bool) for _ in range(2))

        def stat(pair):
            return witness_from_counts(pair[0], pair[1], 10, 1).witness_lower_bound

        assert poisson_resample((hv, da), stat, 30, 2) == poisson_resample(
            (hv, da), stat, 30, 2, reads=everything
        )

    def test_replicates_keep_the_input_type(self):
        hv, da = exact_count_sets(NoisyState(make_max_entangled(10), 0.5), B10, 1e3)
        seen = []
        for data in (hv, hv.matrices.astype(float), (hv, da), [hv, da]):
            poisson_resample(data, lambda rep: seen.append(rep) or 0.0, 2, 0)
            assert type(seen[-1]) is type(data)
        assert seen[0].basis == BASIS_HV and seen[0].matrices.dtype == np.int64

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
            poisson_resample((hv, da), lambda pair: 0.0, 10, 0, reads=reads)

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            poisson_resample({"counts": np.ones(3)}, lambda m: 0.0, 10, 0)
        with pytest.raises(TypeError):
            poisson_resample(((np.ones(3),),), lambda m: 0.0, 10, 0)

    def test_witness_masks_match_the_full_draw_in_law(self):
        """Masked draws against the every-cell loop at d = 20, 2000 replicates each.

        Mean and sigma must agree within 5 standard errors of their
        difference (sigma's from the sample kurtosis); for a correct
        resampler each check then fails with probability 5.7e-7, about 1e-6
        for the pair.
        """
        hv, da = exact_count_sets(NoisyState(make_max_entangled(20), 0.5), B20, 3e4)
        n = 2000
        samples = {}
        for name, resample in (
            ("masked", lambda s: poisson_resample(
                (hv, da), s, n, 11, reads=witness_read_masks(20, 2))),
            ("loop", lambda s: loop_poisson_resample((hv, da), s, n, 11)),
        ):
            values = []

            def stat(pair):
                values.append(witness_from_counts(pair[0], pair[1], 20, 2).witness_lower_bound)
                return values[-1]

            resample(stat)
            samples[name] = np.array(values)

        def moments(x):
            var = x.var(ddof=1)
            m4 = np.mean((x - x.mean()) ** 4)
            var_of_var = (m4 - var ** 2 * (n - 3) / (n - 1)) / n
            return x.mean(), math.sqrt(var), var / n, var_of_var / (4 * var)

        (mean_a, sd_a, se2_mean_a, se2_sd_a), (mean_b, sd_b, se2_mean_b, se2_sd_b) = (
            moments(samples["masked"]), moments(samples["loop"])
        )
        assert abs(mean_a - mean_b) < 5 * math.sqrt(se2_mean_a + se2_mean_b)
        assert abs(sd_a - sd_b) < 5 * math.sqrt(se2_sd_a + se2_sd_b)


class TestThresholdScan:
    def test_ideal_visibility_threshold(self):
        d, k = 3, 4
        mubs = build_mubs(d)
        pure = make_max_entangled(d)
        points = []
        for nf in np.linspace(0.0, 0.95, 20):
            report = visibility_sum(NoisyState(pure, 1.0 - nf), mubs, k)
            points.append(point(float(nf), report.visibility_sum - report.separable_bound))
        result = threshold_scan(points)
        assert abs(result.nf_star - 0.75) < 0.01
        assert result.censored == "none" and not result.ambiguous

    def test_ideal_witness_threshold(self):
        d = 10
        points = [
            point(float(nf), witness_exact(NoisyState(make_max_entangled(d), 1 - nf), d, 1))
            for nf in np.linspace(0.0, 1.0, 23)
        ]
        result = threshold_scan(points)
        assert abs(result.nf_star - d / (d + 1)) < 0.01

    def test_uncertainty_band_brackets_threshold(self):
        points = [point(0.0, 1.0, 0.1), point(1.0, -1.0, 0.1)]
        result = threshold_scan(points)
        assert result.lower < result.nf_star < result.upper

    def test_censored_sweeps(self):
        assert threshold_scan([point(0.1, 1.0), point(0.2, 0.5)]).censored == "above"
        assert threshold_scan([point(0.1, -1.0), point(0.2, -0.5)]).censored == "below"

    def test_ambiguous_sweep_reports_all_crossings(self):
        pts = [point(0.0, 1.0), point(0.3, -0.5), point(0.6, 0.5), point(0.9, -1.0)]
        result = threshold_scan(pts)
        assert result.ambiguous and len(result.crossings) == 3
        assert abs(result.nf_star - 0.2) < 1e-12  # first certified -> uncertified

    def test_unsorted_points_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            threshold_scan([point(0.5, 1.0), point(0.1, -1.0)])


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
