"""Shared test oracles, independent of the implementation under test."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hdent import analysis, witness
from hdent.analysis import ResampleSummary
from hdent.mub import MubSet, build_mubs, mub_noise_threshold, visibility_sum
from hdent.states import NoisyState, Pairing, SchmidtState, element, make_max_entangled
from hdent.tagstream import (
    CHUNK_FRAMES,
    FWHM_TO_SIGMA,
    BinningConfig,
    CountMatrixSet,
    Origin,
    TagStream,
    _block_rng,
    _signal_tables,
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


def scaled_expected_counts(
    probabilities: np.ndarray,
    binning: BinningConfig,
    basis: str,
    total: float,
) -> CountMatrixSet:
    """Deterministic expected-count set from per-pair outcome probabilities.

    Used for infinite-statistics oracles and probability-level sweeps;
    entries are rounded expected counts, frames bookkeeping set to match.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (4, binning.d, binning.d):
        raise ValueError("probabilities must have shape (4, d, d)")
    counts = np.rint(probs * total).astype(np.int64)
    kept = int(counts.sum())
    return CountMatrixSet(basis, binning, counts, kept, kept, 0)


def one_span(*sets) -> list:
    """``sets`` over one frame span, the longest of theirs, as the sets of one recording are."""
    frames = max(s.frames_total for s in sets)
    return [replace(s, frames_total=frames) for s in sets]


def exact_count_sets(state: NoisyState, binning: BinningConfig, total: float,
                     phase: float = math.pi):
    """Infinite-statistics HV and DA count sets for a correlated state, of one frame span."""
    d, f = binning.d, binning.f_shift
    hv = scaled_expected_counts(exact_hv_probabilities(state, d, f), binning, "HV", total)
    da = scaled_expected_counts(exact_da_probabilities(state, f, phase), binning, "DA", total)
    return tuple(one_span(hv, da))


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


def crosstalk_profile(counts: CountMatrixSet) -> np.ndarray:
    """Distribution of the cyclic bin offset (a - b) mod d over correlated pairs.

    Offset 0 is the coincidence diagonal; for pure background the profile is
    uniform at 1/d.  Only the correlated detector pairs (A0B0, A1B1) enter.
    """
    if counts.frames_kept == 0:
        raise ValueError("no kept frames to profile")
    d = counts.binning.d
    m = (counts.matrices[0] + counts.matrices[3]).astype(float)
    total = m.sum()
    if total == 0:
        raise ValueError("correlated detector pairs hold no counts")
    offsets = (np.arange(d)[:, None] - np.arange(d)[None, :]) % d
    profile = np.bincount(offsets.ravel(), weights=m.ravel(), minlength=d)
    return profile / total


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
        rng = np.random.Generator(np.random.Philox(key=int(seed), counter=r << 128))
        values[r] = statistic(_loop_replicate(data, rng))
    return ResampleSummary(float(values.mean()), float(values.std(ddof=1)), n_resamples)


def assert_same_law(a, b) -> None:
    """Two equal-size samples of a resampled statistic agree in mean and sigma.

    Each within 5 standard errors of the difference (sigma's from the sample
    kurtosis); for two samples of one law each check then fails with
    probability 5.7e-7.
    """
    n = len(a)

    def moments(x):
        var = x.var(ddof=1)
        m4 = np.mean((x - x.mean()) ** 4)
        var_of_var = (m4 - var ** 2 * (n - 3) / (n - 1)) / n
        return x.mean(), math.sqrt(var), var / n, var_of_var / (4 * var)

    (mean_a, sd_a, se2_mean_a, se2_sd_a), (mean_b, sd_b, se2_mean_b, se2_sd_b) = (
        moments(np.asarray(a)), moments(np.asarray(b))
    )
    assert abs(mean_a - mean_b) < 5 * math.sqrt(se2_mean_a + se2_mean_b)
    assert abs(sd_a - sd_b) < 5 * math.sqrt(se2_sd_a + se2_sd_b)


def each_replicate(hv: CountMatrixSet, da: CountMatrixSet, n_resamples: int, seed: int,
                   eta_hwp: float = 1.0):
    """``witness.resample_witness``'s summary, each replicate's witness bound in draw
    order, as its statistic returns them from ``witness._bounds``, and the
    ``(cells, totals)`` pairs the statistic was handed."""
    seen = []
    resample = analysis.poisson_resample

    def recording(data, statistic, *args):
        def recorded(reps):
            seen.append((reps, statistic(reps)))
            return seen[-1][1]

        return resample(data, recorded, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "poisson_resample", recording)
        summary = witness.resample_witness(hv, da, n_resamples, seed, eta_hwp)
    ((reps, values),) = seen
    return summary, np.asarray(values), reps


def witness_masks(binning: BinningConfig) -> tuple:
    """The HV and DA read masks at ``binning``: the cells of ``witness._read_table``,
    which ``witness.resample_witness`` draws one by one."""
    d = binning.d
    masks = np.zeros((2, 4 * d * d), dtype=bool)
    for mask, cells in zip(masks, witness._read_table(d, binning.f_shift)[::2]):
        mask[cells] = True
    return tuple(masks.reshape(2, 4, d, d))


def put_back(rep: tuple, mask: np.ndarray, r: int) -> np.ndarray:
    """Replicate ``r`` of a ``(cells, totals)`` pair as an array shaped like ``mask``: its
    read cells in place and its lumped count, the total less the read cells, in the first
    unread cell."""
    cells, totals = rep
    flat = np.zeros(mask.size)
    flat[np.flatnonzero(mask)] = cells[r]
    unread = np.flatnonzero(~mask)
    if unread.size:
        flat[unread[0]] = totals[r] - cells[r].sum()
    return flat.reshape(mask.shape)


def visibility_excess_oracle(mats, bound: float) -> float:
    """Count-level visibility sum of one replicate's matrices ``mats`` minus ``bound``.

    The per-replicate statistic that ``cli._visibility_excess`` replaced:
    each matrix's trace over its total, summed left to right as ``sum`` does
    on floats up to Python 3.11.
    """
    totals = [float(m.sum()) for m in mats]
    if 0.0 in totals:
        raise ValueError("a resampled basis drew no counts; raise --counts")
    excess = 0.0
    for m, t in zip(mats, totals):
        excess += float(np.trace(m)) / t
    return excess - bound


def max_mub_deviation(mubs: MubSet) -> float:
    """Largest deviation of any overlap of ``mubs`` from the MUB condition."""
    worst = 0.0
    d = mubs.dim
    for a in range(d + 1):
        for b in range(a, d + 1):
            gram = np.abs(mubs.vectors[a].conj() @ mubs.vectors[b].T) ** 2
            target = np.eye(d) if a == b else np.full((d, d), 1.0 / d)
            worst = max(worst, float(np.max(np.abs(gram - target))))
    return worst


def single_basis_correlation_matrix(state: NoisyState, mubs: MubSet, alpha: int,
                                    beta: int) -> np.ndarray:
    """P(m, n) for Alice in basis alpha and Bob's matched analyzer of beta, one pair at a time.

    The single-basis expression ``mub.correlation_matrix`` evaluated before it
    took sequences of bases; a stack must equal it bit for bit.
    """
    alice = mubs.vectors[alpha]
    bob = mubs.vectors[beta].conj()
    if state.pure.pairing is Pairing.ANTICORRELATED:
        bob = bob[:, ::-1]
    weighted = state.pure.coefficients[None, :] * alice[:, state.pure.alice_indices()].conj()
    amp = weighted @ bob.conj().T
    return state.p * np.abs(amp) ** 2 + (1.0 - state.p) / state.dim ** 2


def matched_matrices(state: NoisyState, mubs: MubSet, k: int) -> list:
    """The correlation matrices of the first k matched bases, as ``visibility_sum`` reads them."""
    return [single_basis_correlation_matrix(state, mubs, alpha, alpha) for alpha in range(k)]


def noise_fraction_oracle(matrices) -> float:
    """``analysis.noise_fraction`` with one ``np.trace`` per matrix, summed left to right,
    and the total of a C-contiguous copy."""
    m = np.ascontiguousarray(matrices, dtype=float)
    if m.ndim == 2:
        m = m[None, :, :]
    n_mat, d, _ = m.shape
    total = m.sum()
    diag = sum(float(np.trace(mm)) for mm in m)
    level = (total - diag) / (n_mat * d * (d - 1))
    return float(min(1.0, max(0.0, level * n_mat * d * d / total)))


def vis(state: NoisyState, mubs: MubSet, k: int):
    """``visibility_sum`` of ``state`` over the first k bases of ``mubs``."""
    return visibility_sum(matched_matrices(state, mubs, k))


def threshold(d: int, k: int, pure: SchmidtState | None = None):
    """``mub_noise_threshold`` of ``pure`` (default: maximally entangled) over k bases of d."""
    pure = make_max_entangled(d) if pure is None else pure
    mubs = build_mubs(d)
    return mub_noise_threshold(vis(NoisyState(pure, 0.0), mubs, k),
                               vis(NoisyState(pure, 1.0), mubs, k))


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


def loop_sift_and_bin(stream: TagStream, binning: BinningConfig, basis: str) -> CountMatrixSet:
    """Reference sifter: counts every frame's clicks per side on each call.

    Keeps the frames with exactly one click per side by counting all events
    of frames 0 to the last event's frame with ``np.bincount``, caches nothing
    on the stream, and histograms the kept events; ``sift_and_bin`` must
    match it in every ``CountMatrixSet`` field.
    """
    binning.check_against(stream.clock)
    F = stream.clock.frame_ticks
    d = binning.d
    ts = stream.timestamps.astype(np.int64)
    frames = ts // F
    bins = (ts % F) // binning.bin_ticks
    total = int(frames.max()) + 1 if len(ts) else 0
    chans = stream.channels
    origins = stream.origins

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


def concat_generate_stream(model, clock, n_frames: int, seed: int,
                           frame_offset: int = 0) -> TagStream:
    """Reference generator: whole-stream columns, concatenated, filtered, then sorted.

    Draws every block as ``generate_stream`` does, keeps each block's signal
    and background events as separate timestamp, channel and origin parts
    selected by in-range masks, concatenates them, drops negative timestamps
    and sorts by (timestamp, channel) through copies of the whole stream.
    Inputs are assumed valid; ``generate_stream`` must match it bit for bit.
    """
    frame_seconds = clock.frame_seconds
    lam_bg = model.background_rate_per_detector * frame_seconds
    lam_pair = model.pair_rate * frame_seconds
    tables = _signal_tables(model, clock) if model.pair_rate > 0 else None
    q_emit = -math.expm1(-lam_pair)
    sigma_ticks = model.jitter_fwhm_seconds / FWHM_TO_SIGMA / clock.tick_seconds
    F = clock.frame_ticks
    lo, hi = frame_offset, frame_offset + n_frames
    ts_parts, ch_parts, og_parts = [], [], []
    for block in range(lo // CHUNK_FRAMES, (hi - 1) // CHUNK_FRAMES + 1):
        rng = _block_rng(seed, block)
        frames = block * CHUNK_FRAMES + np.arange(CHUNK_FRAMES, dtype=np.int64)
        u_emit = rng.random(CHUNK_FRAMES)
        u_out = rng.random(CHUNK_FRAMES)
        z = rng.standard_normal((CHUNK_FRAMES, 2)) if sigma_ticks > 0 else None
        if lam_bg > 0:
            n_bg = rng.poisson(lam_bg, (CHUNK_FRAMES, 4))
            u_bg = rng.random(int(n_bg.sum()))
        in_range = (frames >= lo) & (frames < hi)
        if tables is not None:
            emit = in_range & (u_emit < q_emit)
            n_emit = int(emit.sum())
            if n_emit:
                oc = np.searchsorted(tables["cum"], u_out[emit], side="right")
                oc = np.minimum(oc, len(tables["cum"]) - 1)
                base = frames[emit] * F
                ta = base + tables["offsets"][0, oc]
                tb = base + tables["offsets"][1, oc]
                if z is not None:
                    ta = np.rint(ta + z[emit, 0] * sigma_ticks).astype(np.int64)
                    tb = np.rint(tb + z[emit, 1] * sigma_ticks).astype(np.int64)
                ts_parts += [ta, tb]
                ch_parts += [tables["channels"][0, oc], tables["channels"][1, oc]]
                og_parts.append(np.full(2 * n_emit, Origin.SIGNAL, dtype=np.uint8))
        if lam_bg > 0 and n_bg.any():
            cells = n_bg.ravel()
            ev_frame = np.repeat(np.repeat(frames, 4), cells)
            ev_chan = np.repeat(np.tile(np.arange(4, dtype=np.uint8), CHUNK_FRAMES), cells)
            ev_tick = ev_frame * F + np.floor(u_bg * F).astype(np.int64)
            keep = (ev_frame >= lo) & (ev_frame < hi)
            if keep.any():
                ts_parts.append(ev_tick[keep])
                ch_parts.append(ev_chan[keep])
                og_parts.append(np.full(int(keep.sum()), Origin.NOISE, dtype=np.uint8))
    if ts_parts:
        ts = np.concatenate(ts_parts)
        ch = np.concatenate(ch_parts)
        og = np.concatenate(og_parts)
    else:
        ts = np.empty(0, dtype=np.int64)
        ch = np.empty(0, dtype=np.uint8)
        og = np.empty(0, dtype=np.uint8)
    valid = ts >= 0
    ts, ch, og = ts[valid], ch[valid], og[valid]
    order = np.argsort(ts * 4 + ch, kind="stable")
    return TagStream(clock, ts[order].astype(np.uint64), ch[order], og[order])


def whole_stream_kept_pairs(stream: TagStream) -> tuple:
    """Event indices ``(a, b)`` of the Alice and Bob event of each kept frame, in time order.

    The reference for the block-by-block kept frames of ``tagstream``: it
    divides every timestamp by the frame length at once and keeps the runs
    of exactly two events of one frame that lie on different sides.
    """
    frames = stream.timestamps // stream.clock.frame_ticks
    is_a = stream.channels <= 1
    opens = np.ones(len(frames), dtype=bool)
    opens[1:] = frames[1:] != frames[:-1]
    starts = np.flatnonzero(opens)
    i = starts[np.diff(starts, append=len(frames)) == 2]
    i = i[is_a[i] != is_a[i + 1]]
    a_first = is_a[i]
    return np.where(a_first, i, i + 1), np.where(a_first, i + 1, i)


def whole_stream_kept_values(stream: TagStream) -> tuple:
    """``(pair, ticks_a, ticks_b)`` of each kept frame, gathered at ``whole_stream_kept_pairs``.

    The PAIR_LABELS index and the Alice and Bob ticks within the frame.
    """
    a, b = whole_stream_kept_pairs(stream)
    ts, ch = stream.timestamps, stream.channels.astype(np.int64)
    frame_ticks = stream.clock.frame_ticks
    return ch[a] * 2 + ch[b] - 2, ts[a] % frame_ticks, ts[b] % frame_ticks


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
