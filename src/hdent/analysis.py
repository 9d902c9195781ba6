"""Noise quantification, Poisson resampling errors, thresholds, link budget.

Everything here takes plain numbers and arrays: ``poisson_resample`` draws
from a tuple of count arrays, each with a mask of the cells its statistic reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .tagstream import CountMatrixSet

DEFAULT_RESAMPLES = 150


def noise_fraction(matrices) -> float:
    """Label-free noise fraction of one count matrix or a stack of them.

    Assumes background counts land uniformly across bins and detector
    pairs: the pedestal level of all off-diagonal cells is extrapolated under
    the diagonals.  Sums run in C order whatever the input's memory layout,
    and on exact isotropic-state matrices the result is 1 - p.
    """
    m = np.ascontiguousarray(matrices, dtype=float)
    if m.ndim == 2:
        m = m[None, :, :]
    total = m.sum()
    if total <= 0:
        raise ValueError("cannot estimate a noise fraction without counts")
    n_mat, d, _ = m.shape
    diag = sum(np.trace(m, axis1=1, axis2=2).tolist())
    level = (total - diag) / (n_mat * d * (d - 1))
    return float(min(1.0, max(0.0, level * n_mat * d * d / total)))


def true_noise_fraction(*counts: CountMatrixSet) -> Optional[float]:
    """Share of the kept coincidences of all ``counts`` together in which
    either photon is labelled background.

    None when any set carries unknown origins or no frame is kept.
    """
    kept = sum(c.frames_kept for c in counts)
    if not kept or any(c.noise_coincidences is None for c in counts):
        return None
    return sum(c.noise_coincidences for c in counts) / kept


@dataclass(frozen=True)
class ResampleSummary:
    mean: float
    std: float
    n_resamples: int

    @property
    def three_sigma(self) -> float:
        return 3.0 * self.std


def poisson_resample(
    data: tuple, statistic: Callable, n_resamples: int, seed: int, reads: tuple
) -> ResampleSummary:
    """Spread of a statistic under Poisson fluctuations of the counts.

    Each observed count of the arrays in ``data`` is a Poisson mean; one
    generator keyed by ``seed``, a Philox key in [0, 2**128), draws
    ``n_resamples`` replicates.
    ``statistic`` gets them all at once, one ``(cells, totals)`` pair per
    array, and returns an array of shape ``(n_resamples,)``.

    ``reads`` holds one bool mask per array of ``data``, shaped like it,
    naming the cells ``statistic`` reads besides the array's total.  Only
    those cells are drawn one by one, as the ``(n_resamples, n_read)`` block
    ``cells``, in the mask's flat order; the rest of an array is one lumped
    Poisson, drawn next and added to the row sums of ``cells`` to give
    ``totals``.  The joint law of the read cells and the totals is exact, so
    the result is correct only if ``statistic`` depends on nothing else.

    Each part is checked just before its draws (finite, then non-negative
    counts, then its mask), so an error names the first bad ``data[i]`` or
    ``reads[i]``.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    if not 0 <= int(seed) < 1 << 128:
        raise ValueError(f"seed must be a Philox key in [0, 2**128), got {seed}")
    if len(reads) != len(data):
        raise ValueError(
            f"reads[{min(len(reads), len(data))}]: need one mask per part of data, "
            f"got {len(reads)} masks for {len(data)} parts"
        )
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    batch = []
    for index, (part, mask) in enumerate(zip(data, reads)):
        lam, mask = np.asarray(part, dtype=float), np.asarray(mask)
        if not np.isfinite(lam).all():
            raise ValueError(f"data[{index}]: counts must be finite")
        if np.any(lam < 0):
            raise ValueError(f"data[{index}]: counts must be non-negative")
        if mask.dtype != bool or mask.shape != lam.shape:
            raise ValueError(
                f"reads[{index}] must be a bool mask of shape {lam.shape}, "
                f"got {mask.dtype} of shape {mask.shape}"
            )
        read = lam[mask]
        cells = rng.poisson(read, (n_resamples, read.size))
        batch.append((cells, cells.sum(1) + rng.poisson(lam[~mask].sum(), n_resamples)))
    values = np.asarray(statistic(tuple(batch)), dtype=float)
    if values.shape != (n_resamples,):
        raise ValueError(f"statistic must return one value per replicate, shape "
                         f"({n_resamples},); got shape {values.shape}")
    return ResampleSummary(float(values.mean()), float(values.std(ddof=1)), n_resamples)


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
    open_side: str  # "none", "lower", "upper" or "both": band edges held at a grid point


def _interp_root(x0, y0, x1, y1) -> Optional[float]:
    if y0 == y1:
        return None
    t = y0 / (y0 - y1)
    if not 0.0 <= t <= 1.0:
        return None
    return x0 + t * (x1 - x0)


def threshold_scan(
    nf: Sequence[float], margin: Sequence[float], sigma: Sequence[float]
) -> ThresholdResult:
    """Locate the certification threshold along a noise sweep.

    ``nf``, ``margin`` and ``sigma`` hold, per sweep point, the noise
    fraction, the certification statistic and its standard error, all
    finite; points must be sorted by noise fraction.  The threshold is the linear
    interpolation of the statistic's sign change, with an uncertainty band
    from interpolating the +/- 1 sigma offsets of the same segment.
    """
    if not len(nf) == len(margin) == len(sigma):
        raise ValueError(
            f"nf, margin and sigma need equal lengths, got {len(nf)}, {len(margin)}, {len(sigma)}"
        )
    for name, values in (("nf", nf), ("margin", margin), ("sigma", sigma)):
        for index, value in enumerate(values):
            if not math.isfinite(value):
                raise ValueError(f"{name}[{index}] must be finite, got {value}")
    if any(s < 0 for s in sigma):
        raise ValueError("sigma must be non-negative")
    if len(nf) < 2:
        raise ValueError("need at least two sweep points")
    if any(b < a for a, b in zip(nf, nf[1:])):
        raise ValueError("sweep points must be sorted by noise fraction")
    crossings = []
    for k in range(len(nf) - 1):
        if (margin[k] > 0) != (margin[k + 1] > 0):
            root = _interp_root(nf[k], margin[k], nf[k + 1], margin[k + 1])
            if root is not None:
                crossings.append((k, root))
    if not crossings:
        censored = "above" if margin[0] > 0 else "below"
        return ThresholdResult(None, None, None, (), False, censored, "none")
    ambiguous = len(crossings) > 1
    # threshold = first certified -> uncertified transition, else first crossing
    k, nf_star = next(((k, r) for k, r in crossings if margin[k] > 0), crossings[0])
    x0, x1 = nf[k], nf[k + 1]
    lower = _interp_root(x0, margin[k] - sigma[k], x1, margin[k + 1] - sigma[k + 1])
    upper = _interp_root(x0, margin[k] + sigma[k], x1, margin[k + 1] + sigma[k + 1])
    # no root inside: a falling margin's -sigma line crosses before the segment, +sigma after
    low_end, high_end = (x0, x1) if margin[k] > 0 else (x1, x0)
    opened = [side for side, edge in (("lower", lower), ("upper", upper)) if edge is None]
    return ThresholdResult(
        nf_star, low_end if lower is None else lower, high_end if upper is None else upper,
        tuple(r for _, r in crossings), ambiguous, "none",
        "both" if len(opened) == 2 else (opened + ["none"])[0],
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
