"""Coherence witness: exact evaluation and estimation from count matrices.

The witness for a d-dimensional state rho with bin shift f is

    W = 1/sqrt(d-1) * sum_i ( |<ii| rho |i+f,i+f>|
                              - sqrt(<i,i+f| rho |i,i+f> <i+f,i| rho |i+f,i>) )

and certifies entanglement when positive.  ``witness_exact`` evaluates it
analytically; ``witness_from_counts`` estimates a lower bound from measured
count matrices in the two bases, at their binning's d and f.  It reads only
the cells of one sorted list per basis, ``_read_table(d, f)``, plus the two
basis totals, through one kernel, ``_bounds``, that takes a stack of
replicates with those cells as columns; ``resample_witness``, its Poisson
error bar, draws just those cells, in that order, and one lumped count per
basis, and hands the kernel all its replicates as drawn.

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

from . import analysis
from .states import NoisyState, element
from .tagstream import BASIS_DA, BASIS_HV, CountMatrixSet


def witness_exact(state: NoisyState, f: int) -> float:
    """Analytic witness value of a noisy state at d = ``state.dim``; the estimator ground truth."""
    d = state.dim
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
    """Every cell the witness reads, per basis, as ascending flat indices into a (4, d, d)
    count array.

    Returns read-only ``(hv_cells, hv_slots, da_cells)``.  The penalty
    elements are diag[i, i+f] for i = 0..d-f-1, then diag[i+f, i]; HV cell
    ``hv_cells[n]`` is one of the up to four terms summed into element
    ``hv_slots[n]``, and no cell feeds two.  ``da_cells`` holds the diagonal
    cells [t, t] of each DA matrix in turn, for the recorded bins t = f..d-1
    that the witness sums.
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
    cells, owners = np.concatenate(cells), np.concatenate(owners)
    order = np.argsort(cells)
    t = np.arange(f, d)
    table = cells[order], owners[order], ((np.arange(4)[:, None] * d + t) * d + t).ravel()
    for part in table:
        part.setflags(write=False)
    return table


def _checked_pair(hv: CountMatrixSet, da: CountMatrixSet, eta_hwp: float) -> tuple:
    """(d, f) of an HV set, then a DA set, of one binning and one frame span, with
    ``eta_hwp`` in (0, 1].

    The estimator normalises the DA coherences by the HV total, so both sets
    must cover the same frames.  A stream's span ends at its last event, so it
    falls short of the frames recorded by the empty frames after it.  A frame
    holds an event at least as often as it is kept, so with r the lower
    kept-frame rate of the two sets, a shortfall of u frames has probability at
    most (1 - r)**u < exp(-r u).  Spans more than 25 / r frames apart (odds
    below 3e-11 for one recording) are refused; the pairs that ``sweep-noise``
    and ``simulate-tags`` make at program seeds 1-20 came within 5.1 / r.
    """
    if hv.basis != BASIS_HV or da.basis != BASIS_DA:
        raise ValueError("witness needs one HV set and one DA set, in that order")
    if hv.binning != da.binning:
        raise ValueError(f"HV and DA sets were binned differently: {hv.binning} and {da.binning}")
    if not 0.0 < eta_hwp <= 1.0:
        raise ValueError(f"eta_hwp must be in (0, 1], got {eta_hwp}")
    rate = min(s.frames_kept / max(s.frames_total, 1) for s in (hv, da))
    if abs(hv.frames_total - da.frames_total) * rate > 25:
        raise ValueError(f"HV and DA sets span {hv.frames_total} and {da.frames_total} frames, "
                         f"more than {25 / rate:.0f} (25 over their kept-frame rate, {rate:.3g}) "
                         "apart; the witness needs both bases recorded over the same frames")
    return hv.binning.d, hv.binning.f_shift


def _bounds(d: int, f: int, hv: tuple, da: tuple, eta_hwp: float) -> tuple:
    """The lower bound of R replicates at once, from each one's read cells and basis totals.

    ``hv`` and ``da`` are ``(counts, totals)``: ``counts[r]`` holds replicate ``r``'s
    counts in the basis's cells of ``_read_table(d, f)``, in that order, and
    ``totals[r]`` its basis total.  The first replicate with an empty basis raises,
    DA before HV.  Returns ``(n1, n2, coherence, penalty, value_wide, value_narrow,
    value)``, each with a leading replicate axis; ``coherence`` and ``penalty`` hold
    the d - f terms.
    """
    (hv_counts, n1), (da_counts, da_totals) = hv, da
    first = int(np.argmax((da_totals == 0) | (n1 == 0)))
    if da_totals[first] == 0:
        raise ValueError("DA count matrices are empty")
    if n1[first] == 0:
        raise ValueError("HV count matrices are empty")
    n1 = n1.astype(float)
    n2 = n1 * eta_hwp ** 2
    reps, slots = n1.size, 2 * (d - f)
    _, hv_slots, _ = _read_table(d, f)
    keys = (hv_slots + slots * np.arange(reps)[:, None]).ravel()
    diag = np.bincount(keys, hv_counts.ravel(), reps * slots).reshape(reps, slots) / n1[:, None]
    penalty = np.sqrt(diag[:, : d - f] * diag[:, d - f :])
    a0b0, a0b1, a1b0, a1b1 = np.moveaxis(da_counts.reshape(reps, 4, d - f), 1, 0)
    coherence = (a0b0 + a1b1 - a0b1 - a1b0) / n2[:, None]   # index i = t - f
    terms = coherence - penalty
    prefactor = 1.0 / math.sqrt(d - 1)
    wide = prefactor * terms.sum(1)
    narrow = prefactor * terms[:, : max(d - 2 * f, 0)].sum(1)
    return n1, n2, coherence, penalty, wide, narrow, np.where(narrow < wide, narrow, wide)


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


def witness_from_counts(
    hv: CountMatrixSet, da: CountMatrixSet, eta_hwp: float = 1.0
) -> WitnessReport:
    """Witness lower bound from one HV and one DA count-matrix set of one binning: ``_bounds``
    on the sets' own matrices, as one replicate."""
    d, f = _checked_pair(hv, da, eta_hwp)
    hv_cells, _, da_cells = _read_table(d, f)
    parts = [(s.matrices.reshape(1, -1)[:, cells], np.array([s.total_counts()]))
             for s, cells in ((hv, hv_cells), (da, da_cells))]
    bounds = _bounds(d, f, *parts, eta_hwp)
    n1, n2, coherence, penalty, value_wide, value_narrow, value = (batch[0] for batch in bounds)
    n_narrow = max(d - 2 * f, 0)
    which, n_cons = ("narrow", n_narrow) if value_narrow <= value_wide else ("wide", d - f)
    return WitnessReport(
        d=d, f=f, coherence_sum=float(coherence[:n_cons].sum()),
        penalty_sum=float(penalty[:n_cons].sum()), witness_lower_bound=float(value),
        certified=bool(value > 0.0), n1=float(n1), n2=float(n2), eta_hwp=eta_hwp,
        value_wide=float(value_wide), value_narrow=float(value_narrow),
        terms_wide=d - f, terms_narrow=n_narrow, conservative_range=which,
        dropped_hv_terms=3 * d * d - (2 * d * (d - f) + (d - f) ** 2),
        prefactor=1.0 / math.sqrt(d - 1),
    )


def resample_witness(
    hv: CountMatrixSet, da: CountMatrixSet, n_resamples: int, seed: int, eta_hwp: float = 1.0
) -> analysis.ResampleSummary:
    """Poisson spread of ``witness_from_counts(hv, da, eta_hwp)``'s lower bound,
    from one generator keyed by ``seed``.

    The pair and ``eta_hwp`` are checked before any draw.  Each basis draws
    its cells of ``_read_table``, in flat order, and one lumped count for the
    rest, which keeps the basis total; ``_bounds`` then evaluates every
    replicate at once.
    """
    d, f = _checked_pair(hv, da, eta_hwp)
    hv_cells, _, da_cells = _read_table(d, f)
    masks = np.zeros((2, 4 * d * d), dtype=bool)
    masks[0, hv_cells] = masks[1, da_cells] = True
    return analysis.poisson_resample(
        (hv.matrices, da.matrices), lambda reps: _bounds(d, f, *reps, eta_hwp)[-1], n_resamples,
        seed, tuple(masks.reshape(2, 4, d, d)),
    )
