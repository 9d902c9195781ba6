"""Coherence witness: exact evaluation and estimation from count matrices.

The witness for a d-dimensional state rho with bin shift f is

    W = 1/sqrt(d-1) * sum_i ( |<ii| rho |i+f,i+f>|
                              - sqrt(<i,i+f| rho |i,i+f> <i+f,i| rho |i+f,i>) )

and certifies entanglement when positive.  ``witness_exact`` evaluates it
analytically; ``witness_from_counts`` estimates a lower bound from measured
count matrices in the two bases.  It reads only the cells listed in one
table per (d, f), ``_read_table``, plus the two basis totals;
``witness_read_masks`` turns the same table into the resampler's masks.

Index conventions (0-based recorded bins):

* HV matrices: detector 1 on either side is recorded one f-shift late, so
  the state-level diagonal element <ij|rho|ij> (needed only at the penalty
  elements j = i+f and i = j+f) is estimated by

      ( A0B0[i, j] + A0B1[i, j+f] + A1B0[i+f, j] + A1B1[i+f, j+f] ) / N1,

  where N1 is the total count over all four HV matrices and any term whose
  shifted index leaves the frame is dropped (truncation, counted in the
  report).
* DA matrices: recorded bin t interferes the bin pair (t-f, t), so
  the coherence |<ii|rho|i+f,i+f>| for i = t-f is bounded by the recorded
  diagonal combination (A0B0 + A1B1 - A0B1 - A1B0)[t, t] / N2, with
  N2 = N1 * eta_hwp^2.  The factor from the worst-case polarization bound
  is already absorbed, leaving coefficient 1 on both terms.
* summation ranges: the "wide" variant covers every i with i+f <= d-1 (the
  range on which the witness is defined); the "narrow" variant keeps only
  i with i+2f <= d-1, for which every reconstruction term exists.
  Certification uses whichever variant is smaller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import NoisyState, element
from .tagstream import BASIS_DA, BASIS_HV, CountMatrixSet


def witness_exact(state: NoisyState, d: int, f: int) -> float:
    """Analytic witness value for a noisy state; the estimator ground truth."""
    if state.dim != d:
        raise ValueError(f"state dimension {state.dim} != d={d}")
    if not 1 <= f < d:
        raise ValueError(f"bin shift f must satisfy 1 <= f < d, got f={f}")
    coherence = 0.0
    penalty = 0.0
    for i in range(d - f):
        coherence += abs(element(state, (i, i), (i + f, i + f)))
        penalty += math.sqrt(
            element(state, (i, i + f), (i, i + f)).real
            * element(state, (i + f, i), (i + f, i)).real
        )
    return (coherence - penalty) / math.sqrt(d - 1)


@functools.lru_cache(maxsize=None)
def _read_table(d: int, f: int):
    """Flat indices into a (4, d, d) count array of every cell the witness reads.

    Returns read-only ``(hv_cells, hv_slots, da_cells)``.  The penalty
    elements are diag[i, i+f] for i = 0..d-f-1, then diag[i+f, i]; HV cell
    ``hv_cells[n]`` is one of the up to four terms summed into element
    ``hv_slots[n]``.  ``da_cells[m, t]`` is the diagonal cell [t, t] of DA
    matrix ``m``.  The witness sums only t = f..d-1; the bins below f stay
    in the table so that the DA read mask, and with it the resampler's
    draws, keep their layout.
    """
    if not 1 <= f < d:
        raise ValueError(f"bin shift f must satisfy 1 <= f < d, got f={f}")
    i = np.arange(d - f)
    rows = np.concatenate([i, i + f])
    cols = np.concatenate([i + f, i])
    slots = np.arange(rows.size)
    cells, owners = [], []
    # A0B0[a, b], A0B1[a, b+f], A1B0[a+f, b], A1B1[a+f, b+f]
    for m, (dr, dc) in enumerate(((0, 0), (0, f), (f, 0), (f, f))):
        r, c = rows + dr, cols + dc
        inside = (r < d) & (c < d)
        cells.append((m * d + r[inside]) * d + c[inside])
        owners.append(slots[inside])
    t = np.arange(d)
    table = (
        np.concatenate(cells),
        np.concatenate(owners),
        (np.arange(4)[:, None] * d + t) * d + t,
    )
    for part in table:
        part.setflags(write=False)
    return table


def witness_read_masks(d: int, f: int):
    """Cells of the (4, d, d) HV and DA matrices that the witness reads.

    Besides these, ``witness_from_counts`` reads only each basis's total,
    so the masks are the ``reads`` argument of ``poisson_resample`` for a
    witness statistic.
    """
    hv_cells, _, da_cells = _read_table(d, f)
    masks = np.zeros((2, 4 * d * d), dtype=bool)
    masks[0, hv_cells] = masks[1, da_cells] = True
    return tuple(masks.reshape(2, 4, d, d))


def _check_counts(counts: CountMatrixSet, d: int, f: int) -> None:
    if counts.binning.d != d or counts.binning.f_shift != f:
        raise ValueError(
            f"count set was binned at d={counts.binning.d}, "
            f"f={counts.binning.f_shift}; expected d={d}, f={f}"
        )


@dataclass(frozen=True)
class WitnessReport:
    """Certification outcome with both summation-range variants.

    ``coherence_sum`` and ``penalty_sum`` are the raw sums over the
    conservative range; ``witness_lower_bound`` applies the positive
    prefactor 1/sqrt(d-1), so its sign alone decides ``certified``.
    """

    d: int
    f: int
    coherence_sum: float
    penalty_sum: float
    witness_lower_bound: float
    certified: bool
    n1: float
    n2: float
    eta_hwp: float
    value_wide: float
    value_narrow: float
    terms_wide: int
    terms_narrow: int
    conservative_range: str
    dropped_hv_terms: int
    prefactor: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def witness_from_counts(
    hv: CountMatrixSet,
    da: CountMatrixSet,
    d: int,
    f: int,
    eta_hwp: float = 1.0,
) -> WitnessReport:
    """Witness lower bound from one HV and one DA count-matrix set."""
    if hv.basis != BASIS_HV or da.basis != BASIS_DA:
        raise ValueError("witness needs one HV set and one DA set, in that order")
    _check_counts(hv, d, f)
    _check_counts(da, d, f)
    if not 0.0 < eta_hwp <= 1.0:
        raise ValueError(f"eta_hwp must be in (0, 1], got {eta_hwp}")
    if da.total_counts() == 0:
        raise ValueError("DA count matrices are empty")
    hv_cells, hv_slots, da_cells = _read_table(d, f)
    n1 = float(hv.total_counts())
    if n1 == 0:
        raise ValueError("HV count matrices are empty")
    n2 = n1 * eta_hwp ** 2

    diag = np.bincount(hv_slots, weights=hv.matrices.take(hv_cells)) / n1
    penalty = np.sqrt(diag[: d - f] * diag[d - f :])
    a0b0, a0b1, a1b0, a1b1 = da.matrices.take(da_cells[:, f:])   # index i = t - f
    coherence = (a0b0 + a1b1 - a0b1 - a1b0) / n2
    terms = coherence - penalty
    prefactor = 1.0 / math.sqrt(d - 1)

    n_narrow = max(d - 2 * f, 0)
    value_wide = prefactor * float(terms.sum())
    value_narrow = prefactor * float(terms[:n_narrow].sum())
    if value_narrow <= value_wide:
        which, n_cons = "narrow", n_narrow
    else:
        which, n_cons = "wide", d - f
    value = min(value_wide, value_narrow)
    return WitnessReport(
        d=d,
        f=f,
        coherence_sum=float(coherence[:n_cons].sum()),
        penalty_sum=float(penalty[:n_cons].sum()),
        witness_lower_bound=value,
        certified=bool(value > 0.0),
        n1=n1,
        n2=n2,
        eta_hwp=eta_hwp,
        value_wide=value_wide,
        value_narrow=value_narrow,
        terms_wide=d - f,
        terms_narrow=n_narrow,
        conservative_range=which,
        dropped_hv_terms=3 * d * d - (2 * d * (d - f) + (d - f) ** 2),
        prefactor=prefactor,
    )
