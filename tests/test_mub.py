import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdent.mub import (
    build_mubs,
    correlation_matrix,
    correlation_to_csv,
    is_prime,
    mub_noise_threshold,
    separable_bound,
    visibility_sum,
)
from hdent.states import NoisyState, Pairing, SchmidtState, make_max_entangled, materialize

from conftest import bisect_root


def product_state(d):
    """|00>: a single Schmidt term, i.e. separable."""
    amps = np.zeros(d)
    amps[0] = 1.0
    return NoisyState(SchmidtState.from_amplitudes(amps), 1.0)


class TestConstruction:
    def test_primality_helper(self):
        assert [n for n in range(2, 14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]

    def test_d2_second_basis_is_diagonal_pair(self):
        vecs = build_mubs(2).basis(1)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        # up to a global phase per vector
        assert np.isclose(abs(vecs[0] @ plus.conj()), 1.0)
        assert np.isclose(abs(vecs[1] @ minus.conj()), 1.0)

    def test_d3_pairwise_overlaps(self):
        mubs = build_mubs(3)
        for a in range(4):
            for b in range(a + 1, 4):
                overlaps = np.abs(mubs.basis(a).conj() @ mubs.basis(b).T) ** 2
                assert np.allclose(overlaps, 1 / 3, atol=1e-10)

    def test_d7_full_set(self):
        mubs = build_mubs(7)
        assert mubs.vectors.shape == (8, 7, 7)
        assert mubs.max_mub_deviation() < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_unbiasedness(self, d):
        assert build_mubs(d).max_mub_deviation() < 1e-10

    @pytest.mark.parametrize("bad", [1, 4, 6, 9, 12])
    def test_rejects_non_prime(self, bad):
        with pytest.raises(ValueError, match="prime"):
            build_mubs(bad)


class TestCorrelationMatrix:
    def test_pure_state_matched_basis_is_diagonal(self):
        for d in (2, 3, 5):
            mubs = build_mubs(d)
            st = NoisyState(make_max_entangled(d), 1.0)
            for alpha in range(d + 1):
                m = correlation_matrix(st, mubs, alpha, alpha)
                assert np.allclose(m, np.eye(d) / d, atol=1e-10)

    def test_white_noise_is_uniform(self):
        mubs = build_mubs(3)
        st = NoisyState(make_max_entangled(3), 0.0)
        m = correlation_matrix(st, mubs, 1, 2)
        assert np.allclose(m, 1 / 9)

    def test_isotropic_visibility_value(self):
        # diagonal sum p + (1-p)/d in any matched basis
        mubs = build_mubs(3)
        st = NoisyState(make_max_entangled(3), 0.7)
        m = correlation_matrix(st, mubs, 2, 2)
        assert np.isclose(np.trace(m), 0.8, atol=1e-12)

    def test_matches_materialized_born_rule(self):
        # independent oracle: Tr[rho (Pa x Pb)] on the dense matrix
        d = 3
        mubs = build_mubs(d)
        st = NoisyState(make_max_entangled(d), 0.7)
        rho = materialize(st).entries
        alice = mubs.basis(2)
        bob = mubs.basis(2).conj()
        m = correlation_matrix(st, mubs, 2, 2)
        for i in range(d):
            for j in range(d):
                proj = np.kron(np.outer(alice[i], alice[i].conj()),
                               np.outer(bob[j], bob[j].conj()))
                assert abs(m[i, j] - np.trace(rho @ proj).real) < 1e-12

    def test_anticorrelated_state_matched_bases_diagonal(self):
        d = 5
        mubs = build_mubs(d)
        st = NoisyState(make_max_entangled(d, Pairing.ANTICORRELATED), 1.0)
        for alpha in range(d + 1):
            m = correlation_matrix(st, mubs, alpha, alpha)
            assert np.allclose(m, np.eye(d) / d, atol=1e-10)

    def test_entries_sum_to_one(self, rng):
        d = 5
        mubs = build_mubs(d)
        st = NoisyState(
            SchmidtState.from_amplitudes(rng.standard_normal(d) + 0.2), 0.4
        )
        for alpha, beta in ((0, 0), (1, 3), (5, 2)):
            assert abs(correlation_matrix(st, mubs, alpha, beta).sum() - 1) < 1e-10

    def test_basis_index_range(self):
        mubs = build_mubs(3)
        st = NoisyState(make_max_entangled(3), 1.0)
        with pytest.raises(IndexError):
            correlation_matrix(st, mubs, 4, 0)


class TestVisibilitySum:
    def test_separable_bounds(self):
        assert separable_bound(3, 4) == 2.0
        assert np.isclose(separable_bound(3, 2), 4 / 3)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_product_state_saturates_full_bound(self, d):
        report = visibility_sum(product_state(d), build_mubs(d), d + 1)
        assert abs(report.visibility_sum - 2.0) < 1e-10
        # saturation, not violation: any excess is float roundoff
        assert report.visibility_sum - report.separable_bound < 1e-10

    def test_report_consistency(self):
        mubs = build_mubs(3)
        report = visibility_sum(NoisyState(make_max_entangled(3), 0.9), mubs, 4)
        assert np.isclose(report.visibility_sum, sum(report.per_basis_visibility))
        assert report.certified == (report.visibility_sum > report.separable_bound)

    @pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 3), (5, 6), (7, 8)])
    def test_certified_iff_p_above_1_over_k(self, d, k):
        # the visibility sum is affine in p, so a dense sweep can be done
        # from two exact evaluations once affinity is verified
        mubs = build_mubs(d)
        pure = make_max_entangled(d)
        v0 = visibility_sum(NoisyState(pure, 0.0), mubs, k).visibility_sum
        v1 = visibility_sum(NoisyState(pure, 1.0), mubs, k).visibility_sum
        assert v1 > v0  # increasing in p
        for p in (0.2, 0.53, 0.91):
            direct = visibility_sum(NoisyState(pure, p), mubs, k).visibility_sum
            assert abs(direct - (p * v1 + (1 - p) * v0)) < 1e-12
        ps = np.arange(0.0, 1.0 + 1e-4, 1e-4)
        certified = ps * v1 + (1 - ps) * v0 > separable_bound(d, k)
        first = ps[np.argmax(certified)]
        assert abs(first - 1 / k) <= 1.01e-4

    def test_k_out_of_range(self):
        mubs = build_mubs(3)
        st = NoisyState(make_max_entangled(3), 1.0)
        for k in (1, 5):
            with pytest.raises(ValueError):
                visibility_sum(st, mubs, k)


class TestNoiseThreshold:
    @pytest.mark.parametrize(
        "d,k,expected", [(2, 3, 1 / 3), (3, 4, 0.25), (7, 8, 0.125)]
    )
    def test_ideal_thresholds(self, d, k, expected):
        assert abs(mub_noise_threshold(d, k) - expected) < 1e-12

    def test_no_threshold_for_separable_family(self):
        d = 3
        assert mub_noise_threshold(d, d + 1, product_state(d).pure) is None

    def test_tolerated_noise_weight_increases_with_dimension(self):
        weights = [1 - mub_noise_threshold(d, d + 1) for d in (2, 3, 5, 7)]
        assert all(b > a for a, b in zip(weights, weights[1:]))

    @given(
        d=st.sampled_from((2, 3, 5, 7, 11)),
        pairing=st.sampled_from(Pairing),
        p=st.floats(0.0, 1.0),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_closed_form_matches_bisection(self, d, pairing, p, data):
        """The visibility sum is affine in p, so two evaluations give the root."""
        k = data.draw(st.integers(2, d + 1), label="k")
        terms = data.draw(st.integers(1, d), label="terms")  # 1 term: a product state
        amps = data.draw(
            st.lists(st.complex_numbers(max_magnitude=1.0), min_size=d, max_size=d)
            .filter(lambda a: np.linalg.norm(a[:terms]) > 1e-3),
            label="amplitudes",
        )
        pure = SchmidtState.from_amplitudes(amps[:terms] + [0.0] * (d - terms), pairing)
        mubs = build_mubs(d)

        def total(q):
            return visibility_sum(NoisyState(pure, q), mubs, k).visibility_sum

        def margin(q):
            return total(q) - separable_bound(d, k)

        assert abs(total(p) - ((1.0 - p) * total(0.0) + p * total(1.0))) < 1e-12
        threshold = mub_noise_threshold(d, k, pure)
        assert (threshold is None) == (margin(1.0) <= 1e-12)
        if threshold is not None:
            assert abs(threshold - bisect_root(margin)) < 1e-8


class TestExports:
    def test_csv_and_json(self, tmp_path):
        mubs = build_mubs(3)
        st = NoisyState(make_max_entangled(3), 0.8)
        m = correlation_matrix(st, mubs, 1, 1)
        path = tmp_path / "corr.csv"
        correlation_to_csv(m, path, dim=3, alpha=1, beta=1)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# hdent-correlation-csv v1")
        assert lines[1] == "alice_m,bob_0,bob_1,bob_2"
        assert len(lines) == 5
