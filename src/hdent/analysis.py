"""Noise quantification, Poisson resampling errors, thresholds, link budget."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .tagstream import CountMatrixSet

GROUND_TRUTH = "ground_truth"
ACCIDENTAL_MODEL = "accidental_model"
DEFAULT_RESAMPLES = 150


@dataclass(frozen=True)
class NoiseFractionEstimate:
    """Fraction of kept coincidences attributable to noise, in [0, 1].

    ``nf_true`` uses simulation origin labels; ``nf_estimated`` is the
    label-free uniform-pedestal estimate.  Only the requested one is set.
    """

    nf_true: Optional[float]
    nf_estimated: Optional[float]
    method: str

    @property
    def value(self) -> float:
        return self.nf_true if self.nf_true is not None else self.nf_estimated


def _pedestal_estimate(matrices: np.ndarray) -> float:
    """NF under a uniform-background model: off-diagonal pedestal level
    extrapolated under the diagonal."""
    m = np.asarray(matrices, dtype=float)
    if m.ndim == 2:
        m = m[None, :, :]
    total = m.sum()
    if total <= 0:
        raise ValueError("cannot estimate a noise fraction without counts")
    n_mat, d, _ = m.shape
    diag = sum(float(np.trace(mm)) for mm in m)
    level = (total - diag) / (n_mat * d * (d - 1))
    return float(min(1.0, max(0.0, level * n_mat * d * d / total)))


def noise_fraction(data, mode: str = GROUND_TRUTH) -> NoiseFractionEstimate:
    """Noise fraction of a count-matrix set or a bare stack of count matrices.

    GROUND_TRUTH counts a kept coincidence as noise when either photon is
    labelled background; it is unavailable for unknown-origin data.
    ACCIDENTAL_MODEL assumes background counts land uniformly across bins
    and detector pairs, estimates the pedestal from all off-diagonal cells,
    and extrapolates it under the diagonals; on exact isotropic-state
    matrices it returns 1 - p.
    """
    if mode == GROUND_TRUTH:
        if not isinstance(data, CountMatrixSet):
            raise ValueError("ground-truth noise fraction needs origin labels")
        if data.noise_coincidences is None:
            raise ValueError("stream carries unknown origins; ground truth unavailable")
        if data.frames_kept == 0:
            raise ValueError("no kept coincidences")
        return NoiseFractionEstimate(
            data.noise_coincidences / data.frames_kept, None, GROUND_TRUTH
        )
    if mode == ACCIDENTAL_MODEL:
        matrices = data.matrices if isinstance(data, CountMatrixSet) else data
        return NoiseFractionEstimate(None, _pedestal_estimate(matrices), ACCIDENTAL_MODEL)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ResampleSummary:
    mean: float
    std: float
    n_resamples: int

    @property
    def three_sigma(self) -> float:
        return 3.0 * self.std


def _part_sampler(part, mask, n_resamples: int, rng: np.random.Generator, index: int):
    """Draw the read cells of one part for every replicate; return ``make``.

    The cells outside ``mask`` are drawn as one lumped Poisson, placed in
    the first unread cell, so each read cell and the part total keep their
    law.  ``make(r)`` returns replicate ``r`` as the part's own type.
    """
    if isinstance(part, CountMatrixSet):
        lam, dtype = part.matrices.astype(float), np.int64
    elif isinstance(part, np.ndarray):
        if np.any(part < 0):
            raise ValueError("counts must be non-negative")
        lam, dtype = part.astype(float), float
    else:
        raise TypeError(f"cannot resample object of type {type(part).__name__}")
    if mask is None:
        mask = np.ones(lam.shape, dtype=bool)
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != lam.shape:
        raise ValueError(
            f"reads[{index}] must be a bool mask of shape {lam.shape}, "
            f"got {mask.dtype} of shape {mask.shape}"
        )
    read = np.flatnonzero(mask)
    unread = np.flatnonzero(~mask)
    cells = rng.poisson(lam.flat[read], (n_resamples, read.size))
    lumped = rng.poisson(lam.flat[unread].sum(), n_resamples)

    def make(r: int):
        flat = np.zeros(lam.size, dtype=dtype)
        flat[read] = cells[r]
        if unread.size:
            flat[unread[0]] = lumped[r]
        drawn = flat.reshape(lam.shape)
        return replace(part, matrices=drawn) if isinstance(part, CountMatrixSet) else drawn

    return make


def poisson_resample(
    data,
    statistic: Callable,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    reads: Optional[Sequence] = None,
) -> ResampleSummary:
    """Spread of a statistic under Poisson fluctuations of the counts.

    Each observed count is taken as the Poisson mean; ``statistic`` is
    re-evaluated on ``n_resamples`` replicates of ``data`` (a count-matrix
    set, a bare array, or a tuple or list of them), each of the same type
    as ``data``.  One generator keyed by ``seed`` draws every replicate.

    ``reads`` holds one bool mask per part of ``data`` (shaped like its
    counts) naming the cells ``statistic`` reads besides the part's total;
    ``None`` means every cell.  Only those cells are drawn one by one; the
    rest of a part is one lumped Poisson in its first unread cell.  The
    joint law of the read cells and the part totals is exact, so the result
    is correct only if ``statistic`` depends on nothing else.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    single = not isinstance(data, (tuple, list))
    parts = (data,) if single else data
    masks = (None,) * len(parts) if reads is None else tuple(reads)
    if len(masks) != len(parts):
        raise ValueError(
            f"reads[{min(len(masks), len(parts))}]: need one mask per part of data, "
            f"got {len(masks)} masks for {len(parts)} parts"
        )
    rng = np.random.Generator(np.random.Philox(key=int(seed) & ((1 << 128) - 1)))
    makers = [
        _part_sampler(part, mask, n_resamples, rng, index)
        for index, (part, mask) in enumerate(zip(parts, masks))
    ]
    values = np.empty(n_resamples)
    for r in range(n_resamples):
        drawn = [make(r) for make in makers]
        values[r] = statistic(drawn[0] if single else type(data)(drawn))
    return ResampleSummary(float(values.mean()), float(values.std(ddof=1)), n_resamples)


@dataclass(frozen=True)
class SweepPoint:
    """One noise setting of a sweep: certification statistic and its error."""

    noise_setting: float
    nf: NoiseFractionEstimate
    witness_value: float
    sigma: float
    certified: bool

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


@dataclass(frozen=True)
class ThresholdResult:
    """Largest noise fraction with a positive certification statistic.

    ``nf_star`` is None when the sweep never crosses zero; ``censored``
    then says on which side the data sit.  ``ambiguous`` flags sweeps whose
    statistic changes sign more than once; all crossings are listed.
    """

    nf_star: Optional[float]
    lower: Optional[float]
    upper: Optional[float]
    crossings: tuple
    ambiguous: bool
    censored: str  # "none", "above" (all certified) or "below" (none certified)


def _interp_root(x0, y0, x1, y1) -> Optional[float]:
    if y0 == y1:
        return None
    t = y0 / (y0 - y1)
    if not 0.0 <= t <= 1.0:
        return None
    return x0 + t * (x1 - x0)


def threshold_scan(points: Sequence[SweepPoint]) -> ThresholdResult:
    """Locate the certification threshold along a noise sweep.

    Points must be sorted by noise fraction; the threshold is the linear
    interpolation of the statistic's sign change, with an uncertainty band
    from interpolating the +/- 1 sigma offsets of the same segment.
    """
    if len(points) < 2:
        raise ValueError("need at least two sweep points")
    xs = [p.nf.value for p in points]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("sweep points must be sorted by noise fraction")
    ys = [p.witness_value for p in points]
    crossings = []
    for k in range(len(points) - 1):
        if (ys[k] > 0) != (ys[k + 1] > 0):
            root = _interp_root(xs[k], ys[k], xs[k + 1], ys[k + 1])
            if root is not None:
                crossings.append((k, root))
    if not crossings:
        censored = "above" if ys[0] > 0 else "below"
        return ThresholdResult(None, None, None, (), False, censored)
    ambiguous = len(crossings) > 1
    # threshold = first certified -> uncertified transition, else first crossing
    chosen = next(((k, r) for k, r in crossings if ys[k] > 0), crossings[0])
    k, nf_star = chosen
    a, b = points[k], points[k + 1]
    lower = _interp_root(xs[k], ys[k] - a.sigma, xs[k + 1], ys[k + 1] - b.sigma)
    upper = _interp_root(xs[k], ys[k] + a.sigma, xs[k + 1], ys[k + 1] + b.sigma)
    return ThresholdResult(
        nf_star, lower, upper, tuple(r for _, r in crossings), ambiguous, "none"
    )


def fiber_distance(loss_db: float, attenuation_db_per_km: float = 0.2) -> float:
    """Fiber length whose attenuation equals the tolerable loss budget."""
    if not 0 <= loss_db < math.inf:
        raise ValueError(f"loss budget must be non-negative and finite, got {loss_db}")
    _check_attenuation(attenuation_db_per_km)
    return loss_db / attenuation_db_per_km


def fiber_loss(distance_km: float, attenuation_db_per_km: float = 0.2) -> float:
    """Attenuation in dB of a fiber of the given length; inverse of ``fiber_distance``."""
    if not 0 <= distance_km < math.inf:
        raise ValueError(f"fiber distance must be non-negative and finite, got {distance_km}")
    _check_attenuation(attenuation_db_per_km)
    return distance_km * attenuation_db_per_km


def _check_attenuation(attenuation_db_per_km: float) -> None:
    if not 0 < attenuation_db_per_km < math.inf:
        raise ValueError(f"attenuation must be positive and finite, got {attenuation_db_per_km}")
