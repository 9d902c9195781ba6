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

Streams are sorted by (timestamp, channel); where a signal and a noise event
share both, the signal event comes first.  Generation holds each event as
one tagged int64 key ``((ts * 4 + ch) << 1) | origin`` (origin 0 signal,
1 noise) and sorts the keys, so that rule is the key's low bit.  The key
needs ts < 2**60, so a generated frame range must end by 2**59 ticks.

A stream flows either whole, as a ``TagStream``, or as a ``TagBlocks``: its
clock and its events in consecutive sorted blocks, made as they are read.
Both forms have ``blocks``; a ``TagStream`` is one block.  ``generate_blocks``
and ``read_blocks`` are block sources; ``write_tags`` and ``sift_blocks`` are
sinks that take either form and hold one block at a time, so a tag file can
be made or certified at any length.  ``generate_stream`` and ``read_tags`` are
the concatenations of the two sources.  There is one sifter: ``sift_blocks``
finds the kept frames of a ``TagBlocks`` or a held ``TagStream`` chunk by
chunk and bins them at every binning in one pass; ``sift_and_bin`` is its
one-binning call.  A chunk holds whole frames: the events of its block's last
frame are carried into the next chunk, and after the last block they are the
stream's last frame.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

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
# a record is two little-endian u64 words: the timestamp in ticks, then the
# flag word ``channel | origin << 8``, whose upper 48 bits are reserved zeros
_RECORD_DTYPE = np.dtype([("timestamp", "<u8"), ("flags", "<u8")])
# events per block in the loops that write, read and scan a stream, so that
# they hold one block, not a copy of the stream
_BLOCK_RECORDS = 1 << 16
# the largest |z| of a standard normal jitter draw that generation accepts; it
# bounds how far before its frame an event can land
_MAX_JITTER_Z = 16.0
# the rules that ``_check_events`` applies, in the order in which it reports them
_RULES = ("unknown channel code", "unknown origin code",
          "records not sorted by (timestamp, channel)")


class Origin(enum.IntEnum):
    SIGNAL = 0
    NOISE = 1
    UNKNOWN = 2


class TagFormatError(ValueError):
    """Malformed tag file; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class _BadEvent(ValueError):
    """Event ``index`` breaks rule ``_RULES[rank]``; ``field`` is its record's byte at fault."""

    def __init__(self, rank: int, index, field: int):
        self.rank, self.rule, self.index, self.field = rank, _RULES[rank], int(index), field
        super().__init__(f"{self.rule} at event {self.index}")


def _check_events(ts: np.ndarray, ch: np.ndarray, og: np.ndarray, last=None) -> None:
    """Raise ``_BadEvent`` at the first break of the channel, origin or order rule, in turn.

    ``last`` is the (timestamp, channel) of the event just before ``ts[0]``,
    where the events continue a stream.
    """
    for rank, (field, codes, top) in enumerate(((8, ch, 3), (9, og, 2))):
        if codes.max(initial=0) > top:
            raise _BadEvent(rank, np.flatnonzero(codes > top)[0], field)
    if last is not None and len(ts) and (int(ts[0]), int(ch[0])) < last:
        raise _BadEvent(2, 0, 0)
    # blocks overlap by one event, so a break across a block edge is seen
    for start in range(1, len(ts), _BLOCK_RECORDS):
        t, c = ts[start - 1 : start + _BLOCK_RECORDS], ch[start - 1 : start + _BLOCK_RECORDS]
        bad = np.flatnonzero((t[1:] < t[:-1]) | ((t[1:] == t[:-1]) & (c[1:] < c[:-1])))
        if bad.size:
            raise _BadEvent(2, start + bad[0], 0)


@dataclass(frozen=True)
class ClockConfig:
    """Time-tagger clock: tick length, frame length, interferometer imbalance."""

    tick_seconds: float = 82.3e-12
    frame_ticks: int = 320
    imbalance_ticks: int = 32

    def __post_init__(self):
        if not 0.0 < self.tick_seconds < math.inf:
            raise ValueError(f"tick_seconds must be finite and positive, got {self.tick_seconds}")
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
        _check_events(ts, ch, og)
        for arr in (ts, ch, og):
            arr.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "origins", og)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def blocks(self) -> tuple:
        """The stream as one block ``(timestamps, channels, origins)``, as in ``TagBlocks``."""
        return ((self.timestamps, self.channels, self.origins),)


@dataclass(frozen=True)
class TagBlocks:
    """A stream as its clock and consecutive blocks ``(timestamps, channels, origins)``.

    Each block is sorted, keeps the stream rules and continues the one
    before; the two sources, ``generate_blocks`` and ``read_blocks``, check
    every block as ``TagStream`` checks a stream.  ``blocks`` is then a
    one-shot iterator (a stream being generated, a file being read), so the
    stream is read once, in order, and is never held whole.  A held
    ``TagStream`` has ``blocks`` too, as one block, so every sink reads both
    forms through that one attribute.
    """

    clock: ClockConfig
    blocks: Iterable


def _pieces(stream):
    """The blocks of a ``TagStream`` or ``TagBlocks``, cut to at most ``_BLOCK_RECORDS`` events."""
    for ts, ch, og in stream.blocks:
        for start in range(0, len(ts), _BLOCK_RECORDS):
            stop = start + _BLOCK_RECORDS
            yield ts[start:stop], ch[start:stop], og[start:stop]


def _kept_pairs(ts, ch, frame_ticks: int) -> tuple:
    """Chunk indices ``(a, b)`` of the Alice and Bob event of each kept frame in a chunk.

    A kept frame holds exactly one click per side.  The chunk holds whole
    frames and its events are sorted, so a frame is one run of equal frame
    numbers, and the kept frames are the runs of two events on different sides.
    """
    frames = ts // frame_ticks
    n = len(frames)
    opens = np.ones(n + 2, dtype=bool)  # two opens past the end close the last frame
    opens[1:n] = frames[1:] != frames[:-1]
    # event i starts a run of two when it opens a frame, i + 1 does not, i + 2 does
    i = np.flatnonzero(opens[:n] & ~opens[1 : n + 1] & opens[2:])
    # keep the runs of two events that lie on different sides
    a_first = ch[i] <= 1
    split = a_first != (ch[i + 1] <= 1)
    i, a_first = i[split], a_first[split]
    return np.where(a_first, i, i + 1), np.where(a_first, i + 1, i)


def _kept_values(ts, ch, og, frame_ticks: int) -> tuple:
    """What every binning reads of the kept frames of a chunk (``_kept_pairs``).

    ``(pair, ticks_a, ticks_b, noise, frames)``: the PAIR_LABELS index and
    the Alice and Bob ticks within the frame of each kept pair (int64), the
    pairs with a background event (None when an origin is unknown), and the
    frame span from frame 0 to the frame of the chunk's last event.  A chunk
    is never empty.
    """
    a, b = _kept_pairs(ts, ch, frame_ticks)
    pair = ch[a].astype(np.int64) * 2 + (ch[b] - 2)
    ticks_a = (ts[a] % frame_ticks).astype(np.int64)
    ticks_b = (ts[b] % frame_ticks).astype(np.int64)
    og_a, og_b = og[a], og[b]
    if np.any(og_a == Origin.UNKNOWN) or np.any(og_b == Origin.UNKNOWN):
        noise = None
    else:
        noise = int(np.count_nonzero((og_a == Origin.NOISE) | (og_b == Origin.NOISE)))
    return pair, ticks_a, ticks_b, noise, int(ts[-1]) // frame_ticks + 1


def _kept_chunks(stream):
    """The ``_kept_values`` of each chunk of a ``TagStream`` or ``TagBlocks``, in stream order.

    A chunk is one block of ``_pieces(stream)`` after the events carried from
    the chunk before, cut at the first event of its last frame: the whole
    frames before the cut are sifted and the last frame is carried, so a
    chunk of one frame yields nothing.  A ``TagStream``'s chunk is a view of
    its arrays, since a copy per block fragments the heap of ``sweep-noise``,
    which hands ``sift_blocks`` each stream it generates, held; a
    ``TagBlocks`` chunk joins the carried events to the block.  After the
    last block, the carried events are the stream's last frame and make its
    last chunk.  An empty stream has no chunk.
    """
    frame_ticks = stream.clock.frame_ticks
    whole = isinstance(stream, TagStream)
    offset, carry = 0, None
    for block in _pieces(stream):
        if carry is None:
            chunk = block
        elif whole:
            stop = offset + len(carry[0]) + len(block[0])
            chunk = (stream.timestamps[offset:stop], stream.channels[offset:stop],
                     stream.origins[offset:stop])
        else:
            chunk = tuple(map(np.concatenate, zip(carry, block)))
        ts = chunk[0]
        last = int(ts[-1])
        cut = int(np.searchsorted(ts, ts.dtype.type(last - last % frame_ticks)))
        if cut:
            yield _kept_values(*(part[:cut] for part in chunk), frame_ticks)
        carry = tuple(part[cut:].copy() for part in chunk)
        offset += cut
    if carry is not None:
        yield _kept_values(*carry, frame_ticks)


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
        for name in ("pair_rate", "background_rate_per_detector", "jitter_fwhm_seconds"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 <= self.p_mix <= 1.0:
            raise ValueError(f"p_mix must be in [0, 1], got {self.p_mix}")
        if not math.isfinite(self.franson_phase):
            raise ValueError(f"franson_phase must be finite, got {self.franson_phase}")
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


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed), counter=int(block) << 128))


def _signal_tables(model: SourceModel, clock: ClockConfig) -> dict:
    """Exact per-frame outcome distribution plus decode arrays.

    Outcomes are flattened as (routing/detector pair, alice bin, bob bin);
    the returned ``offsets`` (int64) and ``channels`` (uint8) map an outcome
    index to within-frame tick offsets and detector channels, row 0 on
    Alice's side and row 1 on Bob's.  ``model`` must pass ``check_source``.
    """
    state = model.state
    d = state.dim
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
        "offsets": np.stack([off_a, off_b]).astype(np.int64),
        "channels": np.stack([chan_a, chan_b]),
    }


def check_source(model: SourceModel, clock: ClockConfig) -> None:
    """Raise ValueError where ``generate_stream`` cannot simulate ``model`` on ``clock``.

    That is more than MAX_EXPECTED_EVENTS_PER_FRAME expected events per frame
    and detector, or a pair source whose state does not fit the clock's bins.
    """
    rate = max(model.background_rate_per_detector, model.pair_rate)
    if rate * clock.frame_seconds > MAX_EXPECTED_EVENTS_PER_FRAME:
        raise ValueError(
            f"expected events per frame per detector exceeds "
            f"{MAX_EXPECTED_EVENTS_PER_FRAME:g}; unphysical configuration"
        )
    if model.pair_rate == 0:
        return
    d = model.state.dim
    if clock.frame_ticks % d:
        raise ValueError(f"state dimension {d} does not divide the frame")
    if model.basis == BASIS_DA:
        if model.state.pairing is not Pairing.CORRELATED:
            raise ValueError("superposition-basis runs need a correlated state")
        if clock.imbalance_ticks % (clock.frame_ticks // d):
            raise ValueError(
                f"state dimension {d} puts the imbalance between bins; "
                "choose d so the imbalance is a whole number of bins"
            )


def _event_capacity(model: SourceModel, clock: ClockConfig, n_frames: int) -> int:
    """Events to allocate for: the expected count plus eight times its square root."""
    frame_seconds = clock.frame_seconds
    mean = n_frames * (4 * model.background_rate_per_detector * frame_seconds
                       - 2 * math.expm1(-model.pair_rate * frame_seconds))
    return int(mean + 8 * math.sqrt(mean)) + 1


def _sorted_blocks(model: SourceModel, clock: ClockConfig, seed: int, lo: int, hi: int):
    """Tagged keys of frames [lo, hi) in stream order, as sorted chunks; none is negative.

    Each frame block's keys are sorted, with the keys held back from the
    block before.  No event lands more than ``reach`` ticks before its frame:
    the jitter is at most ``_MAX_JITTER_Z`` sigma (checked on every draw),
    plus the rounding of the float sum.  So every key of every later block is
    at least the key of the next block's first tick less ``reach``; the keys
    below that are final and yielded, and the rest are held back.  At the
    default jitter that is a few events; only jitter wider than a block holds
    back more than one block.  Keys of events jittered before t = 0 are
    dropped.  A yielded chunk is not read again here, so its consumer may
    change it.
    """
    lam_bg = model.background_rate_per_detector * clock.frame_seconds
    tables = _signal_tables(model, clock) if model.pair_rate > 0 else None
    q_emit = -math.expm1(-model.pair_rate * clock.frame_seconds)
    sigma_ticks = model.jitter_fwhm_seconds / FWHM_TO_SIGMA / clock.tick_seconds
    F = clock.frame_ticks
    reach = 0
    if sigma_ticks > 0:
        reach = math.ceil(_MAX_JITTER_Z * sigma_ticks + 2 * math.ulp(float(hi * F))) + 1
    # background key of detector c in frame j of a block, less the block's first tick
    cell_keys = (np.arange(CHUNK_FRAMES, dtype=np.int64)[:, None] * (8 * F)
                 + np.arange(4) * 2 + Origin.NOISE).ravel()

    def block_keys(block, held):
        """The keys of the frames of ``block`` that lie in [lo, hi) and ``held``, sorted."""
        rng = _block_rng(seed, block)
        first = block * CHUNK_FRAMES
        # Fixed draw order per block: emission, outcome, jitter, background
        # counts, background offsets.  Draws cover the whole block so any
        # covered subrange sees identical values.
        u_emit = rng.random(CHUNK_FRAMES)
        u_out = rng.random(CHUNK_FRAMES)
        z = rng.standard_normal((CHUNK_FRAMES, 2)) if sigma_ticks > 0 else None
        if lam_bg > 0:
            n_bg = rng.poisson(lam_bg, (CHUNK_FRAMES, 4))
            u_bg = rng.random(int(n_bg.sum()))
        # the frames first + [start, stop) of this block lie in the range
        start, stop = max(lo - first, 0), min(hi - first, CHUNK_FRAMES)

        signal = np.empty((2, 0), dtype=np.int64)
        if tables is not None:
            emit = np.flatnonzero(u_emit[start:stop] < q_emit) + start
            oc = np.searchsorted(tables["cum"], u_out[emit], side="right")
            oc = np.minimum(oc, len(tables["cum"]) - 1)
            # both sides at once: row 0 is Alice's, row 1 Bob's
            signal = (emit + first) * F + tables["offsets"][:, oc]
            if z is not None:
                jitter = z[emit].T
                if np.abs(jitter).max(initial=0.0) > _MAX_JITTER_Z:
                    raise ValueError(f"a jitter draw lies beyond {_MAX_JITTER_Z:g} sigma")
                signal = np.rint(signal + jitter * sigma_ticks).astype(np.int64)
            signal <<= 3
            signal += tables["channels"][:, oc] << 1  # origin SIGNAL is 0
        n_noise = int(n_bg[start:stop].sum()) if lam_bg > 0 else 0
        keys = np.empty(len(held) + signal.size + n_noise, dtype=np.int64)
        keys[: len(held)] = held
        keys[len(held) : len(held) + signal.size] = signal.ravel()
        if n_noise:
            # background events come frame by frame, then detector by detector
            skip = int(n_bg[:start].sum())
            noise = keys[len(held) + signal.size :]
            noise[:] = u_bg[skip : skip + n_noise] * F  # floor, as u >= 0
            noise <<= 3
            noise += np.repeat(cell_keys[4 * start : 4 * stop], n_bg[start:stop].ravel())
            noise += first * 8 * F
        keys.sort()
        return keys

    held = np.empty(0, dtype=np.int64)
    last = (hi - 1) // CHUNK_FRAMES
    for block in range(lo // CHUNK_FRAMES, last + 1):
        keys = block_keys(block, held)
        final = len(keys)
        if block < last:
            # the key of that tick; keys below 0 are dropped, so no bound need be lower
            final = np.searchsorted(keys, 8 * max((block + 1) * CHUNK_FRAMES * F - reach, 0))
        part = keys[np.searchsorted(keys[:final], 0) : final]
        if len(part):
            yield part
        held = keys[final:].copy()


def _stream_keys(model, clock, n_frames, seed, frame_offset):
    """Check the arguments of ``generate_stream``, then return its key chunks."""
    if not 0 <= int(seed) < 1 << 128:
        raise ValueError(f"seed must be a Philox key in [0, 2**128), got {seed}")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if frame_offset < 0:
        raise ValueError("frame_offset must be >= 0")
    # then ts < 2**60 for any jitter short of 2**59 ticks: the key fits int64
    if (frame_offset + n_frames) * clock.frame_ticks > 2 ** 59:
        raise ValueError("frame range ends beyond 2**59 ticks")
    check_source(model, clock)
    return _sorted_blocks(model, clock, seed, frame_offset, frame_offset + n_frames)


def _decode(keys: np.ndarray) -> tuple:
    """``(timestamps, channels, origins)`` of tagged keys; the timestamps are ``keys``, shifted."""
    ts = keys.view(np.uint64)
    channels = np.empty(len(ts), dtype=np.uint8)
    origins = np.empty(len(ts), dtype=np.uint8)
    for i in range(0, len(ts), _BLOCK_RECORDS):
        part = ts[i : i + _BLOCK_RECORDS]
        np.bitwise_and(part, 1, out=origins[i : i + _BLOCK_RECORDS])
        part >>= 1
        np.bitwise_and(part, 3, out=channels[i : i + _BLOCK_RECORDS])
        part >>= 2
    return ts, channels, origins


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

    Each event is one int64 key ``((ts * 4 + ch) << 1) | origin`` (origin 0
    signal, 1 noise): keys sort by (timestamp, channel), signal first at a tie,
    and equal keys are equal events, so any sort algorithm gives this stream.
    The key needs ts < 2**60, so the range must end by 2**59 ticks (about 1.5
    years of 82.3 ps ticks).  The stream is the concatenation of the sorted
    key chunks of ``generate_blocks``, in one array sized for the expected
    events (pages past the last event stay untouched), so the stream is never
    held twice; a stream that outgrows it grows it.
    """
    keys, n = np.empty(_event_capacity(model, clock, n_frames), dtype=np.int64), 0
    for chunk in _stream_keys(model, clock, n_frames, seed, frame_offset):
        if n + len(chunk) > len(keys):
            keys.resize(2 * (n + len(chunk)), refcheck=False)
        keys[n : n + len(chunk)] = chunk
        n += len(chunk)
    keys.resize(n, refcheck=False)
    return TagStream(clock, *_decode(keys))


def _decoded_blocks(chunks):
    """Each key chunk as ``(timestamps, channels, origins)``, checked as a stream continues."""
    last = None
    for keys in chunks:
        ts, ch, og = _decode(keys)
        _check_events(ts, ch, og, last)
        last = int(ts[-1]), int(ch[-1])
        yield ts, ch, og


def generate_blocks(
    model: SourceModel,
    clock: ClockConfig,
    n_frames: int,
    seed: int,
    frame_offset: int = 0,
) -> TagBlocks:
    """The stream of ``generate_stream`` as ``TagBlocks``, made block by block as it is read.

    The arguments are checked now.  A block is the final keys of about one
    frame block; making one holds about two frame blocks of keys, whatever
    the stream's length.
    """
    chunks = _stream_keys(model, clock, n_frames, seed, frame_offset)
    return TagBlocks(clock, _decoded_blocks(chunks))


def sift_and_bin(stream: TagStream, binning: BinningConfig, basis: str) -> CountMatrixSet:
    """Histogram the frames with exactly one click per side at ``binning``; ``sift_blocks``."""
    return sift_blocks(stream, [binning], basis)[0]


def sift_blocks(stream, binnings, basis: str) -> list:
    """The ``CountMatrixSet`` at each of ``binnings`` of the frames of a ``TagBlocks`` or
    ``TagStream`` with exactly one click per side, in one pass.

    Each chunk's kept pairs (``_kept_chunks``) are added to the counts of
    every binning; the frame still open at a block's end is carried into the
    next, so a ``TagBlocks`` is held one block at a time.  The frame span
    runs from frame 0 to the frame of the last event, and an empty stream
    spans none.  Events tied on (timestamp, channel), signal first in a
    generated stream (the low bit of its key ``((ts * 4 + ch) << 1) |
    origin``, which bounds generation to 2**59 ticks), share a side, so their
    frame is never kept and the tie rule cannot change the counts.
    """
    for binning in binnings:
        binning.check_against(stream.clock)
    counts = [np.zeros((4, b.d, b.d), dtype=np.int64) for b in binnings]
    frames_kept, noise, frames_total = 0, 0, 0
    for pair, ticks_a, ticks_b, chunk_noise, frames_total in _kept_chunks(stream):
        for matrices, binning in zip(counts, binnings):
            d = binning.d
            flat = (pair * d + ticks_a // binning.bin_ticks) * d + ticks_b // binning.bin_ticks
            matrices += np.bincount(flat, minlength=4 * d * d).reshape(4, d, d)
        frames_kept += len(pair)
        noise = None if noise is None or chunk_noise is None else noise + chunk_noise
    return [CountMatrixSet(basis, binning, matrices, frames_total, frames_kept, noise)
            for binning, matrices in zip(binnings, counts)]


def write_tags(stream, path) -> str:
    """Write a ``TagStream`` or ``TagBlocks`` in the binary tag format.

    The format is magic, version, clock and record count, then 16-byte
    records.  Records are filled and written one block at a time, and the
    count goes into the header after the last block; returns the hex sha256
    of the file, read back once it is complete.  The header holds the tick
    as a whole number of femtoseconds, which the reader divides by 1e15; a
    tick that does not come back exactly is refused before the file is opened.
    """
    clock = stream.clock
    tick_fs = clock.tick_seconds * 1e15
    if not 1 <= tick_fs < 2 ** 64 or round(tick_fs) / 1e15 != clock.tick_seconds:
        raise ValueError(f"tick_seconds = {clock.tick_seconds!r} is not a whole number of "
                         "femtoseconds from 1 to 2**64 - 1, so no tag file can hold it")

    def header(count):
        return _HEADER.pack(FORMAT_MAGIC, FORMAT_VERSION, round(tick_fs),
                            clock.frame_ticks, clock.imbalance_ticks, count)

    count = 0
    with open(path, "w+b") as fh:
        fh.write(header(count))
        for ts, ch, og in _pieces(stream):
            records = np.empty(len(ts), dtype=_RECORD_DTYPE)
            records["timestamp"] = ts
            flags = records["flags"]
            flags[:] = og
            flags <<= 8
            flags |= ch
            fh.write(records)
            count += len(ts)
        fh.seek(0)
        fh.write(header(count))
        fh.seek(0)
        digest = hashlib.sha256()
        while data := fh.read(1 << 20):
            digest.update(data)
    return digest.hexdigest()


def _record_offset(index, field: int = 0) -> int:
    """Byte offset of byte ``field`` of record ``index`` in a tag file."""
    return _HEADER.size + int(index) * _RECORD_DTYPE.itemsize + field


def _record_blocks(fh, count: int):
    """The ``count`` records that follow the header in ``fh``, block by block, checked.

    Reserved bits and short reads raise where they are met.  Any other
    defect is raised at the end of the file, so that one that outranks it
    can still be found: the file's first channel defect, then its first
    origin defect, then its first order defect, each at the byte offset of
    its field, whatever ``_BLOCK_RECORDS`` is.  No block is yielded once a
    defect is known.
    """
    rank, defect, last = len(_RULES), None, None
    block = np.empty(min(count, _BLOCK_RECORDS), dtype=_RECORD_DTYPE)
    for start in range(0, count, _BLOCK_RECORDS):
        stop = min(start + _BLOCK_RECORDS, count)
        records = block[: stop - start]
        got = fh.readinto(records)
        if got != records.nbytes:
            raise TagFormatError(
                f"file ended after {got} of the {records.nbytes} bytes of records "
                f"{start}..{stop - 1}",
                _record_offset(start) + got,
            )
        flags = records["flags"]
        bad = np.flatnonzero(flags > 0xFFFF)
        if bad.size:
            raise TagFormatError(
                "reserved record bytes not zero", _record_offset(start + bad[0], 10)
            )
        ts = records["timestamp"].copy()
        ch = flags.astype(np.uint8)  # the low byte
        og = (flags >> 8).astype(np.uint8)
        try:
            _check_events(ts, ch, og, last)
        except _BadEvent as exc:
            if exc.rank < rank:
                rank = exc.rank
                defect = TagFormatError(exc.rule, _record_offset(start + exc.index, exc.field))
        if defect is None:
            yield ts, ch, og
        last = int(ts[-1]), int(ch[-1])
    if defect is not None:
        raise defect


def _tag_file(path):
    """Yield a tag file's clock and record count, then its records as ``_record_blocks`` does.

    The header (magic, version, size, then clock) is judged before any record is read.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TagFormatError("file shorter than header", len(header))
        magic, version, tick_fs, frame_ticks, imbalance, count = _HEADER.unpack(header)
        if magic != FORMAT_MAGIC:
            raise TagFormatError("bad magic", 0)
        if version != FORMAT_VERSION:
            raise TagFormatError(f"unsupported format version {version}", 4)
        size = os.fstat(fh.fileno()).st_size
        expected = _record_offset(count)
        if size != expected:
            raise TagFormatError(
                f"expected {expected} bytes for {count} records, got {size}",
                min(size, expected),
            )
        yield ClockConfig(tick_fs / 1e15, frame_ticks, imbalance), count
        yield from _record_blocks(fh, count)


def read_blocks(path) -> TagBlocks:
    """A tag file as ``TagBlocks``: the header is judged now, the records block by block.

    Defects are reported as ``read_tags`` reports them; one in the records is
    raised by the iteration over the blocks, at the end of the file at the latest.
    """
    blocks = _tag_file(path)
    clock, _ = next(blocks)
    return TagBlocks(clock, blocks)


def read_tags(path) -> TagStream:
    """Read and validate a tag file; bit-exact inverse of ``write_tags``.

    The concatenation of the blocks of ``read_blocks``, in the stream's own
    arrays, so reading takes about one stream plus one block of memory.
    The header is judged first (magic, version, size, then clock), then the
    records: reserved bits where met, then the first channel, origin and
    order defect.  A format error names the byte offset of the defect.
    """
    blocks = _tag_file(path)
    clock, count = next(blocks)
    ts = np.empty(count, dtype=np.uint64)
    ch = np.empty(count, dtype=np.uint8)
    og = np.empty(count, dtype=np.uint8)
    stop = 0
    for block in blocks:
        start, stop = stop, stop + len(block[0])
        for whole, part in zip((ts, ch, og), block):
            whole[start:stop] = part
    return TagStream(clock, ts, ch, og)
