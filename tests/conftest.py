"""Shared test oracles, independent of the implementation under test."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hdent.analysis import ResampleSummary
from hdent.states import NoisyState, element
from hdent.tagstream import (
    BinningConfig,
    CountMatrixSet,
    Origin,
    TagStream,
    scaled_expected_counts,
)
from hdent.witness import WitnessReport


def exact_hv_probabilities(state: NoisyState, d: int, f: int) -> np.ndarray:
    """Per-pair HV outcome probabilities from first principles.

    Both routings are equally likely; the delayed route records both bins
    one f-shift late, cyclically.  Cross detector pairs stay empty because
    the polarizations of a pair are perfectly correlated.
    """
    probs = np.zeros((4, d, d))
    for i in range(d):
        for j in range(d):
            joint = element(state, (i, j), (i, j)).real
            probs[0, i, j] += 0.5 * joint
            probs[3, (i + f) % d, (j + f) % d] += 0.5 * joint
    return probs


def exact_da_probabilities(state: NoisyState, f: int, phase: float) -> np.ndarray:
    """Per-pair DA outcome probabilities from explicit projector algebra.

    Applies the Born rule on the polarization x time state with the
    interference projectors, independently of the generator's formulas:
    the pure part contracts the state tensor with each projector, the
    white part contracts the identity on time with the polarization
    state through the projectors' reduced 2x2 matrices.
    """
    d = state.dim
    c = state.pure.coefficients
    p = state.p

    def chi(x, t, local_phase):
        v = np.zeros((2, d), dtype=complex)
        sign = 1.0 if x == 0 else -1.0
        v[0, t] = 1.0
        v[1, (t - f) % d] = sign * np.exp(1j * local_phase)
        return v / np.sqrt(2)

    # projector stacks, legs [detector, recorded bin, pol, time];
    # whole Franson phase on Alice's long arm
    xa = np.zeros((2, d, 2, d), dtype=complex)
    xb = np.zeros((2, d, 2, d), dtype=complex)
    for x in range(2):
        for t in range(d):
            xa[x, t] = chi(x, t, phase)
            xb[x, t] = chi(x, t, 0.0)

    psi = np.zeros((2, d, 2, d), dtype=complex)
    for t in range(d):
        psi[0, t, 0, t] += c[t] / math.sqrt(2)
        psi[1, t, 1, t] -= c[t] / math.sqrt(2)
    # amp[x, t, y, s] = <chi_A(x,t) chi_B(y,s) | Psi>
    m1 = xa.conj().reshape(2 * d, 2 * d) @ psi.reshape(2 * d, 2 * d)
    amp = (m1 @ xb.conj().reshape(2 * d, 2 * d).T).reshape(2, d, 2, d)

    bell = np.zeros((2, 2), dtype=complex)
    bell[0, 0] = 1 / math.sqrt(2)
    bell[1, 1] = -1 / math.sqrt(2)
    rho_pol = np.einsum("ab,cd->abcd", bell, bell.conj())  # [pA,pB,pA',pB']
    ga = np.einsum("xtau,xtcu->xtac", xa.conj(), xa)  # reduced 2x2 per projector
    gb = np.einsum("ysbv,ysdv->ysbd", xb.conj(), xb)
    white = np.einsum("abcd,xtac,ysbd->xtys", rho_pol, ga, gb).real / d ** 2

    per_outcome = p * np.abs(amp) ** 2 + (1.0 - p) * white
    probs = np.zeros((4, d, d))
    for k, (x, y) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        probs[k] = per_outcome[x, :, y, :]
    return probs


def exact_count_sets(state: NoisyState, binning: BinningConfig, total: float,
                     phase: float = math.pi):
    """Infinite-statistics HV and DA count sets for a correlated state."""
    d, f = binning.d, binning.f_shift
    hv = scaled_expected_counts(exact_hv_probabilities(state, d, f), binning, "HV", total)
    da = scaled_expected_counts(exact_da_probabilities(state, f, phase), binning, "DA", total)
    return hv, da


def haar_basis(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthonormal basis (rows) from a QR-decomposed Gaussian matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T


def spill_probabilities(bin_ticks: int, sigma_ticks: float, max_ticks: int = 400):
    """Discrete two-photon bin-offset distribution under tick-rounded jitter.

    A photon sits at its bin center and is displaced by round(N(0, sigma));
    returns (P(offset 0), P(|offset| = 1)) for the difference of two
    independent displacements, via the displacement autocorrelation.
    """
    js = np.arange(-max_ticks, max_ticks + 1)
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    pr = np.array([phi((j + 0.5) / sigma_ticks) - phi((j - 0.5) / sigma_ticks) for j in js])
    disp = (bin_ticks // 2 + js) // bin_ticks
    per_bin = {}
    for m, q in zip(disp, pr):
        per_bin[m] = per_bin.get(m, 0.0) + q
    stay = sum(q * q for q in per_bin.values())
    spill = 2.0 * sum(
        per_bin[m] * per_bin.get(m - 1, 0.0) for m in sorted(per_bin)
    )
    return stay, spill


def _loop_replicate(data, rng: np.random.Generator):
    if isinstance(data, CountMatrixSet):
        return replace(data, matrices=rng.poisson(data.matrices.astype(float)).astype(np.int64))
    if isinstance(data, np.ndarray):
        return rng.poisson(data.astype(float)).astype(float)
    return type(data)(_loop_replicate(part, rng) for part in data)


def loop_poisson_resample(data, statistic, n_resamples: int, seed: int) -> ResampleSummary:
    """Reference resampler: every cell drawn, one counter-keyed generator per replicate.

    Draws each replicate in full, cell by cell, with no knowledge of what
    ``statistic`` reads; the production resampler must match its law.
    """
    values = np.empty(n_resamples)
    for r in range(n_resamples):
        rng = np.random.Generator(
            np.random.Philox(key=int(seed) & ((1 << 128) - 1), counter=r << 128)
        )
        values[r] = statistic(_loop_replicate(data, rng))
    return ResampleSummary(float(values.mean()), float(values.std(ddof=1)), n_resamples)


def dense_witness_report(hv: CountMatrixSet, da: CountMatrixSet, d: int, f: int,
                         eta_hwp: float = 1.0) -> WitnessReport:
    """Reference witness estimator on dense float copies of every cell.

    Reconstructs the full d x d diagonal-element estimate from the four
    shifted HV matrices and the interference combination on the whole DA
    diagonal, then picks the penalty and coherence terms out of them.
    Inputs are assumed valid; the production estimator must match it bit
    for bit.
    """
    m = hv.matrices.astype(float)
    n1 = float(m.sum())
    diag = np.zeros((d, d))
    diag += m[0]                                   # A0B0[i, j]
    diag[:, : d - f] += m[1][:, f:]                # A0B1[i, j+f]
    diag[: d - f, :] += m[2][f:, :]                # A1B0[i+f, j]
    diag[: d - f, : d - f] += m[3][f:, f:]         # A1B1[i+f, j+f]
    diag /= n1
    n2 = n1 * eta_hwp ** 2
    a = da.matrices.astype(float)
    idx = np.arange(d)
    i = np.arange(d - f)
    coherence = (a[0] + a[3] - a[1] - a[2])[idx, idx][f:] / n2
    penalty = np.sqrt(diag[i, i + f] * diag[i + f, i])
    terms = coherence - penalty
    prefactor = 1.0 / math.sqrt(d - 1)
    n_narrow = max(d - 2 * f, 0)
    value_wide = prefactor * float(terms.sum())
    value_narrow = prefactor * float(terms[:n_narrow].sum())
    which, n_cons = ("narrow", n_narrow) if value_narrow <= value_wide else ("wide", d - f)
    value = min(value_wide, value_narrow)
    return WitnessReport(
        d=d, f=f,
        coherence_sum=float(coherence[:n_cons].sum()),
        penalty_sum=float(penalty[:n_cons].sum()),
        witness_lower_bound=value, certified=bool(value > 0.0),
        n1=n1, n2=n2, eta_hwp=eta_hwp,
        value_wide=value_wide, value_narrow=value_narrow,
        terms_wide=d - f, terms_narrow=n_narrow,
        conservative_range=which,
        dropped_hv_terms=3 * d * d - (m[1][:, f:].size + m[2][f:, :].size + m[3][f:, f:].size),
        prefactor=prefactor,
    )


def loop_sift_and_bin(stream: TagStream, binning: BinningConfig, basis: str,
                      frame_range=None) -> CountMatrixSet:
    """Reference sifter: counts every frame's clicks per side on each call.

    Keeps the frames with exactly one click per side by counting all events
    of the selected frame range with ``np.bincount``, caches nothing on the
    stream, and histograms the kept events; ``sift_and_bin`` must match it in
    every ``CountMatrixSet`` field.
    """
    binning.check_against(stream.clock)
    F = stream.clock.frame_ticks
    d = binning.d
    ts = stream.timestamps.astype(np.int64)
    frames = ts // F
    bins = (ts % F) // binning.bin_ticks
    if frame_range is None:
        lo, hi = 0, int(frames.max()) + 1 if len(ts) else 0
    else:
        lo, hi = int(frame_range[0]), int(frame_range[1])
        if lo < 0 or hi < lo:
            raise ValueError(f"bad frame range {frame_range}")
    total = hi - lo
    sel = (frames >= lo) & (frames < hi)
    frames = frames[sel] - lo
    bins = bins[sel]
    chans = stream.channels[sel]
    origins = stream.origins[sel]

    matrices = np.zeros((4, d, d), dtype=np.int64)
    frames_kept = 0
    noise = 0
    if total > 0 and len(frames):
        is_a = chans <= 1
        count_a = np.bincount(frames[is_a], minlength=total)
        count_b = np.bincount(frames[~is_a], minlength=total)
        kept = (count_a == 1) & (count_b == 1)
        frames_kept = int(kept.sum())
        if frames_kept:
            kept_ev = kept[frames]
            a_idx = np.flatnonzero(kept_ev & is_a)
            b_idx = np.flatnonzero(kept_ev & ~is_a)
            # one event per side per kept frame; time order aligns the sides
            pair = chans[a_idx].astype(np.int64) * 2 + (chans[b_idx] - 2)
            flat = (pair * d + bins[a_idx]) * d + bins[b_idx]
            matrices = np.bincount(flat, minlength=4 * d * d).reshape(4, d, d)
            og_a, og_b = origins[a_idx], origins[b_idx]
            if np.any(og_a == Origin.UNKNOWN) or np.any(og_b == Origin.UNKNOWN):
                noise = None
            else:
                noise = int(np.sum((og_a == Origin.NOISE) | (og_b == Origin.NOISE)))
    return CountMatrixSet(basis, binning, matrices, total, frames_kept, noise)


def bisect_root(func, lo=0.0, hi=1.0, tol=1e-9):
    """Root of an increasing ``func`` that changes sign on [lo, hi], by bisection."""
    assert func(lo) < 0 < func(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if func(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lump_unread(counts: np.ndarray, mask: np.ndarray, target: int) -> np.ndarray:
    """``counts`` with all mass outside ``mask`` moved into unread cell number ``target``."""
    out = np.where(mask, counts, 0)
    out.flat[np.flatnonzero(~mask)[target]] = counts[~mask].sum()
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
