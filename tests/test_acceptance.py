"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

from hdent.analysis import (
    fiber_distance,
    noise_fraction,
    poisson_resample,
    threshold_scan,
    true_noise_fraction,
)
from hdent.cli import RunConfig, run_timebin_sweep, sweep_rows_to_csv
from hdent.mub import build_mubs, mub_noise_threshold, visibility_sum
from hdent.states import NoisyState, SchmidtState, make_max_entangled, materialize
from hdent.tagstream import (
    BASIS_DA,
    BASIS_HV,
    FWHM_TO_SIGMA,
    BinningConfig,
    ClockConfig,
    SourceModel,
    TagStream,
    crosstalk_profile,
    generate_stream,
    read_tags,
    sift_and_bin,
    write_tags,
)
from hdent.witness import witness_exact, witness_from_counts

from conftest import bisect_root, exact_count_sets, spill_probabilities

CLOCK = ClockConfig()
DIMS = (10, 20, 40, 80)


def isotropic(d, p):
    return NoisyState(make_max_entangled(d), p)


def stream_pair(pair_rate, bg, jitter, n_frames, seed):
    state = make_max_entangled(80)
    hv = generate_stream(
        SourceModel(state, pair_rate, bg, jitter, 1.0, BASIS_HV), CLOCK, n_frames, seed
    )
    da = generate_stream(
        SourceModel(state, pair_rate, bg, jitter, 1.0, BASIS_DA), CLOCK, n_frames, seed + 1
    )
    return hv, da


def certify(hv_stream, da_stream, d):
    binning = BinningConfig.for_dimension(CLOCK, d)
    hv = sift_and_bin(hv_stream, binning, BASIS_HV)
    da = sift_and_bin(da_stream, binning, BASIS_DA)
    return hv, da, witness_from_counts(hv, da, d, binning.f_shift)


def test_criterion_1_mub_correctness():
    start = time.perf_counter()
    for d in (2, 3, 5, 7, 11):
        mubs = build_mubs(d)
        assert mubs.n_bases == d + 1
        assert mubs.max_mub_deviation() < 1e-10  # covers orthonormality too
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: MUB sets for d in {{2,3,5,7,11}} within 1e-10 "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_separable_bound_saturation():
    for d in (2, 3, 5, 7):
        amps = np.zeros(d)
        amps[0] = 1.0
        product = NoisyState(SchmidtState.from_amplitudes(amps), 1.0)
        report = visibility_sum(product, build_mubs(d), d + 1)
        assert abs(report.visibility_sum - 2.0) < 1e-10
    print("ACCEPTANCE 2 PASS: |00> visibility sum equals 2.0 within 1e-10 "
          "for d in {2,3,5,7}")


def test_criterion_3_ideal_mub_thresholds():
    nf_stars = []
    for d, k in ((2, 3), (3, 4), (5, 6), (7, 8)):
        p_star = mub_noise_threshold(d, k)
        assert abs(p_star - 1 / k) < 1e-4
        nf_stars.append(1 - p_star)
    assert all(b > a for a, b in zip(nf_stars, nf_stars[1:]))
    print(f"ACCEPTANCE 3 PASS: thresholds p* = 1/k within 1e-4, "
          f"nf* increasing: {[round(v, 4) for v in nf_stars]}")


def test_criterion_4_noise_region_grows_with_k():
    d = 3
    mubs = build_mubs(d)
    pure = make_max_entangled(d)
    grid = np.linspace(0.0, 0.9, 19)
    thresholds = []
    for k in (2, 3, 4):
        margins = []
        for nf in grid:
            report = visibility_sum(NoisyState(pure, 1.0 - nf), mubs, k)
            margins.append(report.visibility_sum - report.separable_bound)
        thresholds.append(threshold_scan(grid, margins, [0.0] * len(grid)).nf_star)
    assert thresholds[0] < thresholds[1] < thresholds[2]
    print(f"ACCEPTANCE 4 PASS: d=3 certified-NF region grows with k=2,3,4: "
          f"{[round(t, 4) for t in thresholds]}")


def test_criterion_5_exact_witness():
    for d in (4, 10, 20):
        value = witness_exact(isotropic(d, 1.0), d, 1)
        assert abs(value - (d - 1) / (d * math.sqrt(d - 1))) < 1e-10
        root = bisect_root(lambda p, d=d: witness_exact(isotropic(d, p), d, 1))
        assert abs(root - 1 / (d + 1)) < 1e-6
    # dense-matrix cross-check for small d
    for d in (4, 8):
        f = 1
        def dense_witness(p, d=d, f=f):
            rho = materialize(isotropic(d, p)).entries
            coh = sum(abs(rho[i * d + i, (i + f) * (d + 1)]) for i in range(d - f))
            pen = sum(
                math.sqrt(
                    rho[i * d + i + f, i * d + i + f].real
                    * rho[(i + f) * d + i, (i + f) * d + i].real
                )
                for i in range(d - f)
            )
            return (coh - pen) / math.sqrt(d - 1)
        dense_root = bisect_root(dense_witness)
        assert abs(dense_root - 1 / (d + 1)) < 1e-6
    print("ACCEPTANCE 5 PASS: witness_exact maximum and isotropic root 1/(d+1) "
          "for d in {4,10,20}, dense-matrix cross-check at d in {4,8}")


def test_criterion_6a_certifies_at_zero_noise():
    hv, da = stream_pair(2e7, 0.0, 0.0, 100_000, seed=7)
    for d in DIMS:
        hv_c, da_c, report = certify(hv, da, d)
        assert hv_c.frames_kept >= 30_000
        assert report.certified
        # wide range matches witness_exact's index range; p inferred from NF
        p_inferred = 1.0 - true_noise_fraction(hv_c)
        exact = witness_exact(isotropic(d, p_inferred), d, report.f)
        assert abs(report.value_wide - exact) < 0.10 * exact
    print("ACCEPTANCE 6a PASS: zero-noise streams certified for d in "
          "{10,20,40,80}, within 10% of witness_exact")


def test_criterion_6b_background_fails():
    hv, da = stream_pair(0.0, 8e6, 0.0, 100_000, seed=19)
    for d in DIMS:
        _, _, report = certify(hv, da, d)
        assert not report.certified
    print("ACCEPTANCE 6b PASS: pure-background streams never certify")


def test_criterion_6c_jitterless_threshold_ordering():
    lam_grid = (0.3, 0.45, 0.6, 0.8, 1.0, 1.3, 1.7, 2.1)  # background per side/frame
    rates = [lam / (2 * CLOCK.frame_seconds) for lam in lam_grid]
    margins = {d: [] for d in DIMS}
    for i, rate in enumerate(rates):
        hv, da = stream_pair(7.7e5, rate, 0.0, 200_000, seed=1000 + 2 * i)
        for d in DIMS:
            hv_c, _, report = certify(hv, da, d)
            nf = true_noise_fraction(hv_c)
            margins[d].append((nf, report.witness_lower_bound))
    thresholds = []
    for d in DIMS:
        nf, w = zip(*sorted(margins[d]))
        result = threshold_scan(nf, w, [0.0] * len(nf))
        assert result.censored == "none"
        thresholds.append(result.nf_star)
    assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))  # strictly, here
    print(f"ACCEPTANCE 6c PASS: jitterless NF thresholds non-decreasing in d: "
          f"{[round(t, 4) for t in thresholds]} (ideal d/(d+1): "
          f"{[round(d / (d + 1), 4) for d in DIMS]})")


def test_criterion_6d_jitter_signatures():
    # elevated estimated NF at zero external noise once bins approach the jitter
    state = make_max_entangled(80)
    hv = generate_stream(
        SourceModel(state, 7.7e5, 0.0, 800e-12, 1.0, BASIS_HV), CLOCK, 100_000, seed=7
    )
    nf_est = {}
    for d in (10, 40, 80):
        counts = sift_and_bin(hv, BinningConfig.for_dimension(CLOCK, d), BASIS_HV)
        assert true_noise_fraction(counts) == 0.0
        nf_est[d] = noise_fraction(counts.matrices)
    assert nf_est[40] > 0.3 and nf_est[80] > 0.5
    assert nf_est[80] > nf_est[40] > nf_est[10]
    assert nf_est[10] < 0.25
    # a noise level where coarse binning fails but fine-graining recovers
    hv, da = stream_pair(7.7e5, 9.1e6, 800e-12, 200_000, seed=42)
    _, _, coarse = certify(hv, da, 10)
    hv80, _, fine = certify(hv, da, 80)
    nf = true_noise_fraction(hv80)
    assert not coarse.certified and fine.certified
    print(f"ACCEPTANCE 6d PASS: jitter raises estimated NF at zero noise "
          f"(d=40: {nf_est[40]:.2f}, d=80: {nf_est[80]:.2f}); at NF={nf:.2f} "
          f"d=10 fails while d=80 certifies")


def test_criterion_7_jitter_crosstalk_oracle():
    clock = ClockConfig(82.3e-12, 3200, 32)
    d = 400  # 8-tick bins = 658.4 ps, in a long frame to dilute edge loss
    model = SourceModel(make_max_entangled(d), 3.5e6, 0.0, 800e-12, 1.0, BASIS_HV)
    stream = generate_stream(model, clock, 130_000, seed=5)
    counts = sift_and_bin(stream, BinningConfig.for_dimension(clock, d), BASIS_HV)
    profile = crosstalk_profile(counts)
    sigma_ticks = 800e-12 / FWHM_TO_SIGMA / clock.tick_seconds
    _, spill = spill_probabilities(8, sigma_ticks)
    n_pairs = counts.frames_kept
    assert n_pairs >= 50_000
    measured = profile[1] + profile[-1]
    tol = 3 * math.sqrt(spill * (1 - spill) / n_pairs)
    assert abs(measured - spill) < tol
    print(f"ACCEPTANCE 7 PASS: nearest-bin spill {measured:.4f} vs erf oracle "
          f"{spill:.4f} within 3 sigma ({tol:.4f}) over {n_pairs} pairs")


def test_criterion_8_monte_carlo_error_scaling():
    state = isotropic(10, 0.5)
    binning = BinningConfig.for_dimension(CLOCK, 10)

    def statistic(pair):
        return witness_from_counts(pair[0], pair[1], 10, 1).witness_lower_bound

    sigmas = {}
    for total in (1e4, 1e6):
        hv, da = exact_count_sets(state, binning, total)
        summary = poisson_resample((hv, da), statistic, n_resamples=150, seed=5)
        sigmas[total] = summary.std
        assert summary.three_sigma == pytest.approx(3 * summary.std)
    ratio = sigmas[1e4] / sigmas[1e6]
    assert abs(ratio - 10.0) < 2.0  # 1/sqrt(counts) scaling within 20%
    print(f"ACCEPTANCE 8 PASS: resampled sigma ratio {ratio:.2f} over a 100x "
          f"count range (expected 10), 3-sigma bars reported")


def test_criterion_9_link_budget():
    assert fiber_distance(82.0, 0.2) == 410.0
    assert fiber_distance(102.0, 0.2) == 510.0
    print("ACCEPTANCE 9 PASS: 82 dB -> 410 km and 102 dB -> 510 km at 0.2 dB/km")


def test_criterion_10_format_and_determinism(tmp_path):
    rng = np.random.default_rng(99)
    n = 1_000_000
    ts = rng.integers(0, 2 ** 62, n).astype(np.uint64)
    channels = rng.integers(0, 4, n).astype(np.uint8)
    origins = rng.integers(0, 3, n).astype(np.uint8)
    idx = np.lexsort((channels, ts))
    stream = TagStream(ClockConfig(), ts[idx], channels[idx], origins[idx])
    path = tmp_path / "big.hdtt"
    write_tags(stream, path)
    back = read_tags(path)
    assert np.array_equal(back.timestamps, stream.timestamps)
    assert np.array_equal(back.channels, stream.channels)
    assert np.array_equal(back.origins, stream.origins)
    write_tags(back, tmp_path / "big2.hdtt")
    assert path.read_bytes() == (tmp_path / "big2.hdtt").read_bytes()

    cfg = RunConfig(
        clock=CLOCK,
        state_dim=80,
        pair_rate=3e6,
        background_rates=(0.0, 6e6),
        jitter_fwhm_seconds=0.0,
        p_mix=1.0,
        franson_phase=math.pi,
        dims=(10, 20),
        n_frames=4000,
        seed=3,
        resamples=8,
        output="unused",
    )
    csv_serial = sweep_rows_to_csv(run_timebin_sweep(cfg, workers=1))
    csv_pooled = sweep_rows_to_csv(run_timebin_sweep(cfg, workers=2))
    assert csv_serial == csv_pooled
    print("ACCEPTANCE 10 PASS: 1e6-record file round-trips bit-exactly; "
          "sweep CSV identical for 1 and 2 workers")
