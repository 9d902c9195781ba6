import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdent.states import NoisyState, SchmidtState, element, make_max_entangled, materialize
from hdent.tagstream import (
    BASIS_DA,
    BASIS_HV,
    BinningConfig,
    ClockConfig,
    CountMatrixSet,
    SourceModel,
    generate_stream,
    scaled_expected_counts,
    sift_and_bin,
)
from hdent.witness import witness_exact, witness_from_counts, witness_read_masks

from conftest import (
    bisect_root,
    dense_witness_report,
    exact_count_sets,
    exact_da_probabilities,
    lump_unread,
)

CLOCK = ClockConfig()
TABLE = [(10, 1), (20, 2), (40, 4), (80, 8)]  # supported (d, f) pairs


def _usable(d):
    try:
        BinningConfig.for_dimension(CLOCK, d)
    except ValueError:
        return False
    return True


CLOCK_DIMS = [d for d in range(1, CLOCK.frame_ticks + 1) if _usable(d)]


def isotropic(d, p):
    return NoisyState(make_max_entangled(d), p)


def binning_for(d):
    return BinningConfig.for_dimension(CLOCK, d)


def witness_from_density(dm, d, f):
    """Independent evaluation on a dense density matrix."""
    rho = dm.entries
    coh = sum(abs(rho[i * d + i, (i + f) * d + i + f]) for i in range(d - f))
    pen = sum(
        math.sqrt(
            rho[i * d + i + f, i * d + i + f].real
            * rho[(i + f) * d + i, (i + f) * d + i].real
        )
        for i in range(d - f)
    )
    return (coh - pen) / math.sqrt(d - 1)


class TestWitnessExact:
    @pytest.mark.parametrize("d,f", TABLE + [(7, 3), (12, 5)])
    def test_max_entangled_value(self, d, f):
        expected = (d - f) / (d * math.sqrt(d - 1))
        assert abs(witness_exact(isotropic(d, 1.0), d, f) - expected) < 1e-12

    @pytest.mark.parametrize("d,f", TABLE)
    def test_white_noise_pure_penalty(self, d, f):
        expected = -(d - f) / (d ** 2 * math.sqrt(d - 1))
        assert abs(witness_exact(isotropic(d, 0.0), d, f) - expected) < 1e-12

    @pytest.mark.parametrize("d", [4, 8])
    def test_isotropic_root_cross_checked_against_dense_matrix(self, d):
        f = 1
        root = bisect_root(lambda p: witness_exact(isotropic(d, p), d, f))
        assert abs(root - 1 / (d + 1)) < 1e-9
        dense_root = bisect_root(
            lambda p: witness_from_density(materialize(isotropic(d, p)), d, f)
        )
        assert abs(dense_root - root) < 1e-8

    def test_agrees_with_dense_matrix_for_random_states(self, rng):
        for d in (4, 6, 8):
            amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            state = NoisyState(SchmidtState.from_amplitudes(amps), rng.uniform())
            for f in (1, 2, d - 1):
                direct = witness_exact(state, d, f)
                dense = witness_from_density(materialize(state), d, f)
                assert abs(direct - dense) < 1e-12

    def test_f_range_checked(self):
        st = isotropic(4, 1.0)
        for f in (0, 4, 5):
            with pytest.raises(ValueError):
                witness_exact(st, 4, f)
        with pytest.raises(ValueError):
            witness_exact(st, 5, 1)


def exact_penalty(state, i, f):
    return math.sqrt(
        element(state, (i, i + f), (i, i + f)).real
        * element(state, (i + f, i), (i + f, i)).real
    )


def exact_coherence(state, i, f):
    return abs(element(state, (i, i), (i + f, i + f)))


def wide_coherence_sum(da, d, f):
    """Coherence sum over i < d-f, read through a report whose penalty is zero."""
    hv, _ = exact_count_sets(isotropic(d, 1.0), binning_for(d), da.total_counts())
    report = witness_from_counts(hv, da, d, f)
    assert report.penalty_sum == 0.0
    return report.value_wide / report.prefactor


class TestReconstruction:
    def test_exact_counts_reproduce_diagonal_elements(self):
        # every penalty element of the narrow range has all four HV terms
        # and is exact; the f wide-only elements lose half their mass
        d, f = 10, 1
        state = isotropic(d, 0.62)
        hv, da = exact_count_sets(state, binning_for(d), 1e8)
        report = witness_from_counts(hv, da, d, f)
        narrow = sum(exact_penalty(state, i, f) for i in range(d - 2 * f))
        tail = sum(exact_penalty(state, i, f) for i in range(d - 2 * f, d - f))
        coherence = [exact_coherence(state, i, f) for i in range(d - f)]
        assert report.conservative_range == "narrow"
        assert abs(report.penalty_sum - narrow) < 1e-6
        assert abs(report.value_narrow / report.prefactor
                   - (sum(coherence[: d - 2 * f]) - narrow)) < 1e-6
        assert abs(report.value_wide / report.prefactor
                   - (sum(coherence) - narrow - 0.5 * tail)) < 1e-6

    def test_ideal_run_concentrates_on_diagonal(self):
        d, f = 10, 1
        hv, da = exact_count_sets(isotropic(d, 1.0), binning_for(d), 1e6)
        report = witness_from_counts(hv, da, d, f)
        assert report.penalty_sum == 0.0
        assert report.value_narrow == report.prefactor * report.coherence_sum

    def test_uniform_background_reconstruction(self, rng):
        # equal DA matrices cancel the coherence exactly, so the values are
        # pure penalty: 1/d^2 per element with all four HV terms, half that
        # in the f wide-only elements
        d, f = 10, 1
        n = 100_000
        matrices = rng.poisson(n / (4 * d * d), size=(4, d, d)).astype(np.int64)
        hv = scaled_expected_counts(matrices / matrices.sum(), binning_for(d), BASIS_HV, matrices.sum())
        flat_da = np.repeat(matrices[:1], 4, axis=0)
        da = CountMatrixSet(BASIS_DA, binning_for(d), flat_da, flat_da.sum(), flat_da.sum())
        report = witness_from_counts(hv, da, d, f)
        narrow = -report.value_narrow / report.prefactor
        tail = (report.value_narrow - report.value_wide) / report.prefactor
        assert report.conservative_range == "wide"
        assert report.coherence_sum == 0.0
        assert abs(report.penalty_sum - (narrow + tail)) < 1e-12
        sigma_cell = math.sqrt(4 * n / (4 * d * d)) / n
        assert abs(narrow - (d - 2 * f) / d ** 2) < 5 * math.sqrt(d - 2 * f) * sigma_cell
        assert abs(tail - f / (2 * d ** 2)) < 5 * math.sqrt(f) * sigma_cell

    def test_empty_counts_rejected(self):
        hv = scaled_expected_counts(np.zeros((4, 10, 10)), binning_for(10), BASIS_HV, 0)
        _, da = exact_count_sets(isotropic(10, 1.0), binning_for(10), 1e6)
        with pytest.raises(ValueError, match="HV count matrices are empty"):
            witness_from_counts(hv, da, 10, 1)


class TestDaCoherenceSum:
    def test_ideal_state_value(self):
        # bright interference bounds the coherence sum with coefficient one
        d, f = 10, 1
        for p in (1.0, 0.7):
            state = isotropic(d, p)
            hv, da = exact_count_sets(state, binning_for(d), 1e8)
            expected = [exact_coherence(state, i, f) for i in range(d - f)]
            assert abs(wide_coherence_sum(da, d, f) - sum(expected)) < 1e-4
            report = witness_from_counts(hv, da, d, f)
            n_cons = report.terms_narrow if report.conservative_range == "narrow" else report.terms_wide
            assert abs(report.coherence_sum - sum(expected[:n_cons])) < 1e-4

    def test_white_noise_averages_to_zero(self, rng):
        d, f = 10, 1
        probs = exact_da_probabilities(isotropic(d, 0.0), f, math.pi)
        n = 200_000
        sampled = rng.poisson(probs * n).astype(np.int64)
        da = scaled_expected_counts(sampled / sampled.sum(), binning_for(d), BASIS_DA, sampled.sum())
        value = wide_coherence_sum(da, d, f)
        sigma = math.sqrt(sampled[:, np.arange(d), np.arange(d)][:, f:].sum()) / sampled.sum()
        assert abs(value) < 5 * sigma

    def test_phase_swap_flips_sign(self):
        d, f = 10, 1
        state = isotropic(d, 1.0)
        da_pi = scaled_expected_counts(
            exact_da_probabilities(state, f, math.pi), binning_for(d), BASIS_DA, 1e8
        )
        da_zero = scaled_expected_counts(
            exact_da_probabilities(state, f, 0.0), binning_for(d), BASIS_DA, 1e8
        )
        a = wide_coherence_sum(da_pi, d, f)
        b = wide_coherence_sum(da_zero, d, f)
        assert a > 0 > b and abs(a + b) < 1e-6


class TestWitnessFromCounts:
    def test_narrow_range_matches_exact_per_term_values(self):
        for d, f in TABLE:
            for p in (1.0, 0.8, 0.3):
                state = isotropic(d, p)
                hv, da = exact_count_sets(state, binning_for(d), 1e8)
                report = witness_from_counts(hv, da, d, f)
                per_term = [
                    abs(element(state, (i, i), (i + f, i + f)))
                    - math.sqrt(
                        element(state, (i, i + f), (i, i + f)).real
                        * element(state, (i + f, i), (i + f, i)).real
                    )
                    for i in range(d - 2 * f)
                ]
                expected_narrow = sum(per_term) / math.sqrt(d - 1)
                assert abs(report.value_narrow - expected_narrow) < 2e-4
                assert report.terms_narrow == d - 2 * f
                assert report.terms_wide == d - f

    def test_oracle_consistency_and_boundary_bias(self):
        # estimator approaches witness_exact, with a truncation bias that
        # shrinks as f/d does
        bias = {}
        for d, f in TABLE:
            state = isotropic(d, 0.9)
            hv, da = exact_count_sets(state, binning_for(d), 1e8)
            report = witness_from_counts(hv, da, d, f)
            exact = witness_exact(state, d, f)
            bias[d] = abs(report.witness_lower_bound - exact) / abs(exact)
            assert abs(report.value_wide - exact) < 0.25 * abs(exact)
        assert bias[80] < bias[10] < 0.2  # f/d = 0.1 for every table entry

    def test_certification_threshold_near_isotropic_root(self):
        d, f = 10, 1
        lo, hi = 0.0, 1.0
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            hv, da = exact_count_sets(isotropic(d, mid), binning_for(d), 1e8)
            if witness_from_counts(hv, da, d, f).certified:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - 1 / (d + 1)) < 0.01

    def test_scale_invariance(self):
        d, f = 10, 1
        state = isotropic(d, 0.7)
        hv, da = exact_count_sets(state, binning_for(d), 2e6)
        r1 = witness_from_counts(hv, da, d, f)
        hv7 = scaled_expected_counts(hv.matrices / hv.matrices.sum(), binning_for(d), BASIS_HV, 7 * hv.total_counts())
        da7 = scaled_expected_counts(da.matrices / da.matrices.sum(), binning_for(d), BASIS_DA, 7 * da.total_counts())
        r7 = witness_from_counts(hv7, da7, d, f)
        assert r1.certified == r7.certified
        assert abs(r1.witness_lower_bound - r7.witness_lower_bound) < 1e-9

    @pytest.mark.parametrize("d,f", TABLE)
    def test_penalty_dominates_for_white_noise(self, d, f):
        hv, da = exact_count_sets(isotropic(d, 0.0), binning_for(d), 1e8)
        report = witness_from_counts(hv, da, d, f)
        assert report.witness_lower_bound < 0
        assert not report.certified

    def test_end_to_end_stream_certifies_without_noise(self):
        d = 10
        b = binning_for(d)
        state = make_max_entangled(d)
        hv_m = SourceModel(state, 4e6, 0.0, 0.0, 1.0, BASIS_HV)
        da_m = SourceModel(state, 4e6, 0.0, 0.0, 1.0, BASIS_DA)
        hv = sift_and_bin(generate_stream(hv_m, CLOCK, 30_000, 71), b, BASIS_HV)
        da = sift_and_bin(generate_stream(da_m, CLOCK, 30_000, 72), b, BASIS_DA)
        report = witness_from_counts(hv, da, d, 1)
        assert report.certified
        exact = witness_exact(isotropic(d, 1.0), d, 1)
        assert abs(report.value_wide - exact) < 0.1 * exact

    def test_end_to_end_background_fails(self):
        d = 10
        b = binning_for(d)
        state = make_max_entangled(d)
        hv_m = SourceModel(state, 0.0, 4e6, 0.0, 1.0, BASIS_HV)
        da_m = SourceModel(state, 0.0, 4e6, 0.0, 1.0, BASIS_DA)
        hv = sift_and_bin(generate_stream(hv_m, CLOCK, 60_000, 73), b, BASIS_HV)
        da = sift_and_bin(generate_stream(da_m, CLOCK, 60_000, 74), b, BASIS_DA)
        assert not witness_from_counts(hv, da, d, 1).certified

    def test_input_validation(self):
        d, f = 10, 1
        hv, da = exact_count_sets(isotropic(d, 1.0), binning_for(d), 1e6)
        with pytest.raises(ValueError, match="HV"):
            witness_from_counts(da, da, d, f)
        with pytest.raises(ValueError, match="binned"):
            witness_from_counts(hv, da, 20, 2)
        with pytest.raises(ValueError, match="eta_hwp"):
            witness_from_counts(hv, da, d, f, eta_hwp=0.0)

    def test_report_serializes(self):
        d, f = 10, 1
        hv, da = exact_count_sets(isotropic(d, 0.9), binning_for(d), 1e6)
        report = witness_from_counts(hv, da, d, f)
        payload = json.dumps(report.to_dict())
        assert '"witness_lower_bound"' in payload
        assert report.witness_lower_bound == min(report.value_wide, report.value_narrow)
        assert report.witness_lower_bound == pytest.approx(
            report.prefactor * (report.coherence_sum - report.penalty_sum)
        )


class TestDenseOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        high=st.sampled_from([1, 3, 60, 10**4, 10**7]),
        zero_share=st.floats(0.0, 0.95),
    )
    @settings(deadline=None, max_examples=25)
    def test_report_equals_dense_estimator(self, seed, high, zero_share):
        """Integer counts sum exactly in any order, so every field matches bit for bit."""
        rng = np.random.default_rng(seed)
        for d in CLOCK_DIMS:
            binning = binning_for(d)
            f = binning.f_shift
            sets = []
            for basis in (BASIS_HV, BASIS_DA):
                counts = rng.integers(0, high + 1, (4, d, d))
                counts[rng.random(counts.shape) < zero_share] = 0
                counts[0, 0, 0] += 1
                total = int(counts.sum())
                sets.append(CountMatrixSet(basis, binning, counts, total, total))
            for eta_hwp in (1.0, 0.7):
                assert witness_from_counts(*sets, d, f, eta_hwp) == dense_witness_report(
                    *sets, d, f, eta_hwp
                )


class TestReadMasks:
    def test_cell_counts(self):
        assert CLOCK_DIMS == [10, 20, 40, 80, 160, 320]
        hv, da = witness_read_masks(80, 8)
        assert hv.shape == da.shape == (4, 80, 80)
        assert hv.sum() == 544 and da.sum() == 320

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError, match="bin shift"):
            witness_read_masks(10, 10)

    @given(
        seed=st.integers(0, 2**32 - 1),
        high=st.integers(1, 60),
        zero_share=st.floats(0.0, 0.95),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=25)
    def test_witness_reads_only_masked_cells_and_totals(self, seed, high, zero_share, data):
        """Moving every unread count of a basis into one unread cell keeps the report."""
        rng = np.random.default_rng(seed)
        for d in CLOCK_DIMS:
            binning = binning_for(d)
            f = binning.f_shift
            observed, lumped = [], []
            for basis, mask in zip((BASIS_HV, BASIS_DA), witness_read_masks(d, f)):
                counts = rng.integers(0, high + 1, (4, d, d))
                counts[rng.random(counts.shape) < zero_share] = 0
                counts[0, 0, 0] += 1
                target = data.draw(st.integers(0, int((~mask).sum()) - 1))
                for out, m in ((observed, counts), (lumped, lump_unread(counts, mask, target))):
                    total = int(m.sum())
                    out.append(CountMatrixSet(basis, binning, m, total, total))
            for eta_hwp in (1.0, 0.7):
                assert witness_from_counts(*lumped, d, f, eta_hwp) == witness_from_counts(
                    *observed, d, f, eta_hwp
                )
