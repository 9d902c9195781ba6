"""Tick-resolved time-tag streams: generation, binary format, frame sifting.

The data path mirrors a two-party coincidence experiment: a pair source
emits at most one photon pair per analysis frame, each detector adds
Poissonian background, detection times acquire Gaussian jitter, and
post-processing keeps only frames with exactly one click per side before
histogramming them into d x d count matrices per detector pair.

Fixed conventions (verified end to end through the sign of the
reconstructed witness):

* channels are A0, A1 (Alice) and B0, B1 (Bob), in tie-break order;
* computational-basis ("HV") runs route outcome 0 to A0/B0 recorded in the
  photon's own time bin and outcome 1 to A1/B1 recorded one interferometer
  imbalance late (the long-arm delay, wrapped cyclically within the frame
  so both bases share identical kept-frame statistics), the two routings
  equally likely;
* superposition-basis ("DA") runs draw the detector pair and recorded bin
  directly from the exact interference statistics: recorded bin t on a
  detector pair with product sign s (s=+1 for A0B0/A1B1, -1 for A0B1/A1B0)
  weighs the bin pair (t-f, t) as |c_t - s exp(-i phase) c_{t-f}|^2 / 8,
  with the f-shift taken cyclically so the per-frame distribution is
  exactly normalized.  With the default phase pi, A0B0/A1B1 are bright.

Generation is deterministic and partition-invariant: randomness is drawn
per fixed-size frame block from a counter-keyed generator, so any split of
the frame range at block boundaries (``CHUNK_FRAMES``) reproduces the same
stream bit for bit.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .states import Pairing, SchmidtState

BASIS_HV = "HV"
BASIS_DA = "DA"
PAIR_LABELS = ("A0B0", "A0B1", "A1B0", "A1B1")

CHUNK_FRAMES = 4096
MAX_EXPECTED_EVENTS_PER_FRAME = 100.0
FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

FORMAT_MAGIC = b"HDTT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQIIQ")
_RECORD_DTYPE = np.dtype(
    [("timestamp", "<u8"), ("channel", "u1"), ("origin", "u1"), ("pad", "u1", (6,))]
)


class Origin(enum.IntEnum):
    SIGNAL = 0
    NOISE = 1
    UNKNOWN = 2


class TagFormatError(ValueError):
    """Malformed tag file; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ClockConfig:
    """Time-tagger clock: tick length, frame length, interferometer imbalance."""

    tick_seconds: float = 82.3e-12
    frame_ticks: int = 320
    imbalance_ticks: int = 32

    def __post_init__(self):
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.frame_ticks <= 0 or self.imbalance_ticks <= 0:
            raise ValueError("frame_ticks and imbalance_ticks must be positive")
        if self.frame_ticks % self.imbalance_ticks:
            raise ValueError(
                f"frame_ticks={self.frame_ticks} not divisible by "
                f"imbalance_ticks={self.imbalance_ticks}"
            )

    @property
    def frame_seconds(self) -> float:
        return self.frame_ticks * self.tick_seconds


@dataclass(frozen=True)
class BinningConfig:
    """Division of a frame into d bins; f_shift bins span the imbalance."""

    d: int
    bin_ticks: int
    f_shift: int

    def __post_init__(self):
        if self.d <= 0 or self.bin_ticks <= 0 or self.f_shift <= 0:
            raise ValueError("d, bin_ticks and f_shift must be positive")

    @classmethod
    def for_dimension(cls, clock: ClockConfig, d: int) -> "BinningConfig":
        if d <= 0 or clock.frame_ticks % d:
            raise ValueError(f"d={d} does not divide frame_ticks={clock.frame_ticks}")
        bin_ticks = clock.frame_ticks // d
        if clock.imbalance_ticks % bin_ticks:
            raise ValueError(
                f"bin width {bin_ticks} ticks does not divide the imbalance "
                f"({clock.imbalance_ticks} ticks); d={d} unusable"
            )
        return cls(d, bin_ticks, clock.imbalance_ticks // bin_ticks)

    def check_against(self, clock: ClockConfig) -> None:
        if self.d * self.bin_ticks != clock.frame_ticks:
            raise ValueError("binning does not tile the clock frame")
        if self.f_shift * self.bin_ticks != clock.imbalance_ticks:
            raise ValueError("f_shift does not match the clock imbalance")


@dataclass(frozen=True)
class TagStream:
    """Sorted detector events; parallel arrays of ticks, channels, origins."""

    clock: ClockConfig
    timestamps: np.ndarray
    channels: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        ts = np.ascontiguousarray(self.timestamps, dtype=np.uint64)
        ch = np.ascontiguousarray(self.channels, dtype=np.uint8)
        og = np.ascontiguousarray(self.origins, dtype=np.uint8)
        if not (len(ts) == len(ch) == len(og)):
            raise ValueError("timestamps, channels, origins must be equally long")
        if len(ch) and (ch.max() > 3 or og.max() > 2):
            raise ValueError("channel or origin code out of range")
        if len(ts) > 1:
            same = ts[1:] == ts[:-1]
            if np.any(ts[1:] < ts[:-1]) or np.any(same & (ch[1:] < ch[:-1])):
                raise ValueError("stream not sorted by (timestamp, channel)")
        for arr in (ts, ch, og):
            arr.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "origins", og)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class SourceModel:
    """Pair source, background light and detection response for one run."""

    state: SchmidtState
    pair_rate: float
    background_rate_per_detector: float = 0.0
    jitter_fwhm_seconds: float = 800e-12
    p_mix: float = 1.0
    basis: str = BASIS_HV
    franson_phase: float = math.pi

    def __post_init__(self):
        if self.pair_rate < 0 or self.background_rate_per_detector < 0:
            raise ValueError("rates must be non-negative")
        if self.jitter_fwhm_seconds < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.p_mix <= 1.0:
            raise ValueError("p_mix must be in [0, 1]")
        if self.basis not in (BASIS_HV, BASIS_DA):
            raise ValueError(f"basis must be {BASIS_HV!r} or {BASIS_DA!r}")


@dataclass(frozen=True)
class CountMatrixSet:
    """Four d x d coincidence histograms, one per detector pair.

    ``matrices[k]`` follows PAIR_LABELS order (A0B0, A0B1, A1B0, A1B1),
    rows = Alice's recorded bin, columns = Bob's.  ``noise_coincidences``
    counts kept frames where either photon is background; it is None when
    the stream carried unknown origins.
    """

    basis: str
    binning: BinningConfig
    matrices: np.ndarray
    frames_total: int
    frames_kept: int
    noise_coincidences: Optional[int] = None

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrices, dtype=np.int64)
        d = self.binning.d
        if m.shape != (4, d, d):
            raise ValueError(f"expected matrices of shape (4, {d}, {d})")
        if m.min(initial=0) < 0:
            raise ValueError("count matrices must be non-negative")
        if self.frames_kept > self.frames_total:
            raise ValueError("frames_kept exceeds frames_total")
        if self.basis not in (BASIS_HV, BASIS_DA):
            raise ValueError(f"basis must be {BASIS_HV!r} or {BASIS_DA!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    def total_counts(self) -> int:
        return int(self.matrices.sum())

    def __add__(self, other: "CountMatrixSet") -> "CountMatrixSet":
        """Merge results from disjoint frame ranges (entrywise, associative)."""
        if self.basis != other.basis or self.binning != other.binning:
            raise ValueError("cannot merge count sets with different configs")
        if self.noise_coincidences is None or other.noise_coincidences is None:
            noise = None
        else:
            noise = self.noise_coincidences + other.noise_coincidences
        return CountMatrixSet(
            self.basis,
            self.binning,
            self.matrices + other.matrices,
            self.frames_total + other.frames_total,
            self.frames_kept + other.frames_kept,
            noise,
        )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = int(seed) & ((1 << 128) - 1)
    return np.random.Generator(np.random.Philox(key=key, counter=int(block) << 128))


def _signal_tables(model: SourceModel, clock: ClockConfig) -> dict:
    """Exact per-frame outcome distribution plus decode arrays.

    Outcomes are flattened as (routing/detector pair, alice bin, bob bin);
    the returned arrays map an outcome index to detector channels and
    within-frame tick offsets.
    """
    state = model.state
    d = state.dim
    if clock.frame_ticks % d:
        raise ValueError(f"state dimension {d} does not divide the frame")
    bt = clock.frame_ticks // d
    half = bt // 2
    imb = clock.imbalance_ticks
    p = model.p_mix
    arange = np.arange(d)
    row = np.repeat(arange, d)
    col = np.tile(arange, d)
    if model.basis == BASIS_HV:
        joint = np.full((d, d), (1.0 - p) / d ** 2)
        joint[state.alice_indices(), arange] += p * np.abs(state.coefficients) ** 2
        probs = np.concatenate([0.5 * joint.ravel(), 0.5 * joint.ravel()])
        # the delayed route wraps within the frame so that both bases share
        # the same kept-frame statistics (N2 = N1 then holds by construction)
        off_a = np.concatenate([row * bt + half, (row * bt + half + imb) % clock.frame_ticks])
        off_b = np.concatenate([col * bt + half, (col * bt + half + imb) % clock.frame_ticks])
        chan_a = np.repeat(np.array([0, 1], dtype=np.uint8), d * d)
        chan_b = chan_a + 2
    else:
        if state.pairing is not Pairing.CORRELATED:
            raise ValueError("superposition-basis runs need a correlated state")
        if imb % bt:
            raise ValueError(
                f"state dimension {d} puts the imbalance between bins; "
                "choose d so the imbalance is a whole number of bins"
            )
        f = imb // bt
        c = state.coefficients
        c_delayed = np.roll(c, f)  # c[(t - f) mod d]
        phase = np.exp(-1j * model.franson_phase)
        probs = np.full((4, d, d), (1.0 - p) / (4 * d ** 2))
        for k, (x, y) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            sign = 1.0 if x == y else -1.0
            bright = np.abs(c - sign * phase * c_delayed) ** 2 / 8.0
            probs[k, arange, arange] += p * bright
        probs = probs.ravel()
        off_a = np.tile(row * bt + half, 4)
        off_b = np.tile(col * bt + half, 4)
        chan_a = np.repeat(np.array([0, 0, 1, 1], dtype=np.uint8), d * d)
        chan_b = np.repeat(np.array([2, 3, 2, 3], dtype=np.uint8), d * d)
    probs = probs / probs.sum()
    return {
        "cum": np.cumsum(probs),
        "off_a": off_a.astype(np.int64),
        "off_b": off_b.astype(np.int64),
        "chan_a": chan_a,
        "chan_b": chan_b,
    }


def generate_stream(
    model: SourceModel,
    clock: ClockConfig,
    n_frames: int,
    seed: int,
    frame_offset: int = 0,
) -> TagStream:
    """Simulate a tag stream over frames [frame_offset, frame_offset + n_frames).

    Identical (model, clock, n_frames, seed, frame_offset) yield bit-identical
    streams, and ranges split at multiples of CHUNK_FRAMES compose exactly.
    Signal pairs are emitted at most once per frame with probability
    1 - exp(-pair_rate * frame_seconds); background is an independent
    homogeneous Poisson process per detector.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if frame_offset < 0:
        raise ValueError("frame_offset must be >= 0")
    frame_seconds = clock.frame_seconds
    lam_bg = model.background_rate_per_detector * frame_seconds
    lam_pair = model.pair_rate * frame_seconds
    if max(lam_bg, lam_pair) > MAX_EXPECTED_EVENTS_PER_FRAME:
        raise ValueError(
            f"expected events per frame per detector exceeds "
            f"{MAX_EXPECTED_EVENTS_PER_FRAME:g}; unphysical configuration"
        )
    tables = _signal_tables(model, clock) if model.pair_rate > 0 else None
    q_emit = -math.expm1(-lam_pair)
    sigma_ticks = model.jitter_fwhm_seconds / FWHM_TO_SIGMA / clock.tick_seconds
    F = clock.frame_ticks
    lo, hi = frame_offset, frame_offset + n_frames

    ts_parts, ch_parts, og_parts = [], [], []
    for block in range(lo // CHUNK_FRAMES, (hi - 1) // CHUNK_FRAMES + 1):
        rng = _block_rng(seed, block)
        frames = block * CHUNK_FRAMES + np.arange(CHUNK_FRAMES, dtype=np.int64)
        # Fixed draw order per block: emission, outcome, jitter, background
        # counts, background offsets.  Draws cover the whole block so any
        # covered subrange sees identical values.
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
                ta = base + tables["off_a"][oc]
                tb = base + tables["off_b"][oc]
                if z is not None:
                    ta = np.rint(ta + z[emit, 0] * sigma_ticks).astype(np.int64)
                    tb = np.rint(tb + z[emit, 1] * sigma_ticks).astype(np.int64)
                ts_parts += [ta, tb]
                ch_parts += [tables["chan_a"][oc], tables["chan_b"][oc]]
                og_parts.append(
                    np.full(2 * n_emit, Origin.SIGNAL, dtype=np.uint8)
                )
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
    valid = ts >= 0  # jitter may push the first frames before t = 0
    ts, ch, og = ts[valid], ch[valid], og[valid]
    order = np.lexsort((ch, ts))
    return TagStream(clock, ts[order].astype(np.uint64), ch[order], og[order])


def sift_and_bin(
    stream: TagStream,
    binning: BinningConfig,
    basis: str,
    frame_range=None,
) -> CountMatrixSet:
    """Keep frames with exactly one click per side and histogram them.

    Workers may sift disjoint ``frame_range`` intervals of the same stream
    and merge the results with ``+``; the merge equals a single full pass.
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
    if bins.size and int(bins.max()) >= d:
        raise AssertionError("internal invariant failure: bin index >= d")

    matrices = np.zeros((4, d, d), dtype=np.int64)
    frames_kept = 0
    noise: Optional[int] = 0
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


def write_tags(stream: TagStream, path) -> None:
    """Write the binary tag format: magic, version, clock, then 16-byte records."""
    tick_fs = round(stream.clock.tick_seconds * 1e15)
    header = _HEADER.pack(
        FORMAT_MAGIC,
        FORMAT_VERSION,
        tick_fs,
        stream.clock.frame_ticks,
        stream.clock.imbalance_ticks,
        len(stream),
    )
    records = np.zeros(len(stream), dtype=_RECORD_DTYPE)
    records["timestamp"] = stream.timestamps
    records["channel"] = stream.channels
    records["origin"] = stream.origins
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_tags(path) -> TagStream:
    """Read and validate a tag file; bit-exact inverse of ``write_tags``."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TagFormatError("file shorter than header", len(blob))
    magic, version, tick_fs, frame_ticks, imbalance, count = _HEADER.unpack_from(blob)
    if magic != FORMAT_MAGIC:
        raise TagFormatError("bad magic", 0)
    if version != FORMAT_VERSION:
        raise TagFormatError(f"unsupported format version {version}", 4)
    expected = _HEADER.size + count * _RECORD_DTYPE.itemsize
    if len(blob) != expected:
        raise TagFormatError(
            f"expected {expected} bytes for {count} records, got {len(blob)}",
            min(len(blob), expected),
        )
    records = np.frombuffer(blob, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    ts = records["timestamp"]
    ch = records["channel"]
    og = records["origin"]
    if count:
        bad = np.flatnonzero(records["pad"].any(axis=1))
        if bad.size:
            raise TagFormatError(
                "reserved record bytes not zero",
                _HEADER.size + int(bad[0]) * _RECORD_DTYPE.itemsize + 10,
            )
        bad = np.flatnonzero(ch > 3)
        if bad.size:
            raise TagFormatError(
                "unknown channel code",
                _HEADER.size + int(bad[0]) * _RECORD_DTYPE.itemsize + 8,
            )
        bad = np.flatnonzero(og > 2)
        if bad.size:
            raise TagFormatError(
                "unknown origin code",
                _HEADER.size + int(bad[0]) * _RECORD_DTYPE.itemsize + 9,
            )
        disorder = (ts[1:] < ts[:-1]) | ((ts[1:] == ts[:-1]) & (ch[1:] < ch[:-1]))
        bad = np.flatnonzero(disorder)
        if bad.size:
            raise TagFormatError(
                "records not sorted by (timestamp, channel)",
                _HEADER.size + (int(bad[0]) + 1) * _RECORD_DTYPE.itemsize,
            )
    clock = ClockConfig(tick_fs * 1e-15, frame_ticks, imbalance)
    return TagStream(clock, ts.copy(), ch.copy(), og.copy())


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
