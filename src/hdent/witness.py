"""Coherence witness: exact evaluation and reconstruction from count matrices.

The witness for a d-dimensional state rho with bin shift f is

    W = 1/sqrt(d-1) * sum_i ( |<ii| rho |i+f,i+f>|
                              - sqrt(<i,i+f| rho |i,i+f> <i+f,i| rho |i+f,i>) )

and certifies entanglement when positive.  ``witness_exact`` evaluates it
analytically; ``witness_from_counts`` estimates a lower bound from measured
count matrices in the two bases.

Index conventions (0-based recorded bins):

* HV matrices: detector 1 on either side is recorded one f-shift late, so
  the state-level diagonal element <ij|rho|ij> is estimated by

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

import json
import math
from dataclasses import dataclass
from typing import Optional

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


def _reconstruct(hv: CountMatrixSet, d: int, f: int):
    m = hv.matrices.astype(float)
    n1 = float(m.sum())
    if n1 == 0:
        raise ValueError("HV count matrices are empty")
    diag = np.zeros((d, d))
    diag += m[0]                                   # A0B0[i, j]
    diag[:, : d - f] += m[1][:, f:]                # A0B1[i, j+f]
    diag[: d - f, :] += m[2][f:, :]                # A1B0[i+f, j]
    diag[: d - f, : d - f] += m[3][f:, f:]         # A1B1[i+f, j+f]
    diag /= n1
    dropped = 3 * d * d - (2 * d * (d - f) + (d - f) ** 2)
    return diag, dropped, n1


def reconstruct_hv_diagonals(hv: CountMatrixSet, d: int, f: int) -> np.ndarray:
    """Estimated diagonal elements <ij|rho|ij> from the four HV matrices.

    Entries sum to at most 1; mass recorded beyond the frame edge by the
    delayed detectors is unrecoverable and simply truncated.
    """
    if hv.basis != BASIS_HV:
        raise ValueError(f"expected an HV count set, got basis {hv.basis!r}")
    _check_counts(hv, d, f)
    diag, _, _ = _reconstruct(hv, d, f)
    return diag


def da_coherence_sum(
    da: CountMatrixSet,
    d: int,
    f: int,
    eta_hwp: float = 1.0,
    n1: Optional[float] = None,
) -> float:
    """Interference combination sum_t (A0B0 + A1B1 - A0B1 - A1B0)[t, t] / N2.

    The sum runs over recorded bins t = f..d-1 (bin pairs fully inside the
    frame).  N2 = n1 * eta_hwp^2; when ``n1`` is not given the DA set's own
    total count is used, which matches runs of equal length at eta_hwp = 1.
    """
    if da.basis != BASIS_DA:
        raise ValueError(f"expected a DA count set, got basis {da.basis!r}")
    _check_counts(da, d, f)
    if not 0.0 < eta_hwp <= 1.0:
        raise ValueError(f"eta_hwp must be in (0, 1], got {eta_hwp}")
    total = da.total_counts()
    if total == 0:
        raise ValueError("DA count matrices are empty")
    if n1 is None:
        n1 = float(total)
    n2 = n1 * eta_hwp ** 2
    return float(np.sum(_da_combination(da)[f:]) / n2)


def witness_read_masks(d: int, f: int):
    """Cells of the (4, d, d) HV and DA matrices that the witness reads.

    Besides these, ``witness_from_counts`` reads only each basis's total,
    so the masks are the ``reads`` argument of ``poisson_resample`` for a
    witness statistic.  HV: the four terms ``_reconstruct`` sums into the
    penalty elements diag[i, i+f] and diag[i+f, i]; DA: the diagonals that
    ``_da_combination`` reads.
    """
    if not 1 <= f < d:
        raise ValueError(f"bin shift f must satisfy 1 <= f < d, got f={f}")
    i = np.arange(d - f)
    penalty = np.zeros((d, d), dtype=bool)
    penalty[i, i + f] = penalty[i + f, i] = True
    hv = np.zeros((4, d, d), dtype=bool)
    hv[0] = penalty                                 # A0B0[i, j]
    hv[1][:, f:] = penalty[:, : d - f]              # A0B1[i, j+f]
    hv[2][f:, :] = penalty[: d - f, :]              # A1B0[i+f, j]
    hv[3][f:, f:] = penalty[: d - f, : d - f]       # A1B1[i+f, j+f]
    da = np.zeros((4, d, d), dtype=bool)
    idx = np.arange(d)
    da[:, idx, idx] = True
    return hv, da


def _da_combination(da: CountMatrixSet) -> np.ndarray:
    m = da.matrices.astype(float)
    idx = np.arange(da.binning.d)
    return (m[0] + m[3] - m[1] - m[2])[idx, idx]


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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
    diag, dropped, n1 = _reconstruct(hv, d, f)
    n2 = n1 * eta_hwp ** 2

    i = np.arange(d - f)
    coherence = _da_combination(da)[f:] / n2          # index i = t - f
    penalty = np.sqrt(diag[i, i + f] * diag[i + f, i])
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
        dropped_hv_terms=dropped,
        prefactor=prefactor,
    )
