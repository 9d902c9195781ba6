"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of this process swings by 25 % or more in phases
that last from seconds to minutes, because other tenants use the same cores,
caches and memory.  Process CPU time swings with wall time, so it does not
help.  The benchmark therefore times this kernel just before and just after
every pass and scales the pass by how long the kernel took around it: a pass
that ran while the host was slow is scaled down by as much as the kernel was
slowed.  The kernel touches no hdent code, so a change to the program moves
the scaled time and leaves the kernel alone.

Contention slows different kinds of work by different amounts, so the kernel
has parts of about equal length, one per kind of work the workloads do, and
each workload is scaled by the parts that match it (``Workload.host_parts``).
Set-up time is scaled the same way, by ``SETUP_PARTS``.  Each part runs
``REPEATS`` times and counts with its median.  The parts that each workload
and set-up use are the ones whose times tracked theirs best in runs of each
workload on the reference host; a page-cache file write and read, tried as a
part, varied far more than any workload and is not used.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

# Median seconds of each part on the host the benchmark was written on (Intel
# Xeon, 2 vCPU, Python 3.11, numpy 2.4), on a quiet stretch.  A scaled time is
# the pass time at that speed; these constants only set the unit.
REFERENCE_S = {
    "loop": 0.0021,
    "small_numpy": 0.0015,
    "poisson": 0.0019,
    "arrays": 0.00096,
    "sha256": 0.0022,
}
SETUP_PARTS = ("poisson", "arrays", "sha256")
REPEATS = 9


class HostSpeed:
    """The kernel parts named in ``parts``; their inputs exist only while measured."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.reference_s = sum(REFERENCE_S[part] for part in self.parts)

    def _make_inputs(self):
        rng = np.random.default_rng(0)
        self._rng = rng
        self._matrix = rng.random((11, 11))
        self._rates = rng.random(10_000) * 50.0
        self._to_sort = rng.random(50_000)
        self._to_copy = rng.random(100_000)
        self._blob = bytes(range(256)) * 1024

    def _drop_inputs(self):
        del self._rng, self._matrix, self._rates, self._to_sort, self._to_copy, self._blob

    def _loop(self):
        total = 0
        for i in range(40_000):
            total += i % 7
        return total

    def _small_numpy(self):
        total = 0.0
        for _ in range(450):
            total += float(np.trace(self._matrix)) / float(self._matrix.sum())
        return total

    def _poisson(self):
        return sum(int(self._rng.poisson(self._rates).sum()) for _ in range(3))

    def _arrays(self):
        total = sum(float(np.sort(self._to_sort)[0]) for _ in range(2))
        for _ in range(10):
            total += self._to_copy.copy()[-1]
        return total

    def _sha256(self):
        digest = hashlib.sha256()
        for _ in range(12):
            digest.update(self._blob)
        return digest.hexdigest()

    def measure(self) -> float:
        """Seconds the kernel takes now: the sum over its parts of each part's median."""
        self._make_inputs()
        total = 0.0
        for part in self.parts:
            run = getattr(self, "_" + part)
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
            total += statistics.median(times)
        self._drop_inputs()
        return total

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` timed between kernel times ``before`` and ``after``, at reference speed."""
        return seconds * self.reference_s / ((before + after) / 2)
