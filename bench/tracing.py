"""Spans around the public hdent functions that the CLI calls.

``Tracer.installed`` replaces module attributes such as
``hdent.tagstream.generate_stream`` with timing wrappers and puts the
originals back when it exits, so the package is never edited and untraced
passes run it unmodified.  The CLI, and the package's own modules, look these
functions up as module globals at call time, so calls made inside other
wrapped functions (the witness inside the resampler's statistic, correlation
matrices inside visibility sums) become child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field


def _cells(data) -> int:
    """Count cells in resampling input: count-matrix sets, arrays, or tuples of them."""
    if isinstance(data, (tuple, list)):
        return sum(_cells(part) for part in data)
    return int(getattr(data, "matrices", data).size)


def _count_generate(args, stream):
    return {"events": len(stream)}


def _count_sift(args, counts):
    return {
        "events_in": len(args["stream"]),
        "frames_kept": counts.frames_kept,
        "frames_total": counts.frames_total,
    }


def _count_file(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _count_resample(args, summary):
    replicates = args["n_resamples"]
    return {"replicates": replicates, "cells_drawn": replicates * _cells(args["data"])}


# (module, attribute, span name, counter).  The counter sees the bound call
# arguments and the result; it runs after the span has closed.
TARGETS = (
    ("hdent.tagstream", "generate_stream", "tagstream.generate", _count_generate),
    ("hdent.tagstream", "sift_and_bin", "tagstream.sift", _count_sift),
    ("hdent.tagstream", "write_tags", "tagstream.io.write", _count_file),
    ("hdent.tagstream", "read_tags", "tagstream.io.read", _count_file),
    ("hdent.analysis", "poisson_resample", "analysis.resample", _count_resample),
    ("hdent.analysis", "noise_fraction", "analysis.noise_fraction", None),
    ("hdent.analysis", "threshold_scan", "analysis.threshold_scan", None),
    ("hdent.witness", "witness_from_counts", "witness.eval", None),
    ("hdent.mub", "build_mubs", "mub.build", None),
    ("hdent.mub", "correlation_matrix", "mub.corr", None),
    ("hdent.mub", "visibility_sum", "mub.vis", None),
    ("hdent.mub", "mub_noise_threshold", "mub.threshold", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one list per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore them."""
        saved = []
        try:
            for module_name, attr, span_name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._open.clear()

    def take(self) -> list:
        """Spans recorded since the last call, as a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def layer_metrics(spans, wall_s: float, cpu_s: float) -> dict:
    """Per-layer sums over one traced pass, named as in BENCHMARK.json."""
    own = self_times(spans)

    def total(name, key=None):
        picked = [s for s in spans if s.name == name]
        if key is None:
            return sum(s.duration for s in picked)
        return sum(s.counts[key] for s in picked)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    generate_s = total("tagstream.generate")
    events = total("tagstream.generate", "events")
    frames_total = total("tagstream.sift", "frames_total")
    roots = sum(s.duration for s in spans if s.parent is None)
    return {
        "analysis.resample.s": total("analysis.resample"),
        "analysis.resample.self_s": sum(
            t for s, t in zip(spans, own) if s.name == "analysis.resample"
        ),
        "analysis.resample.calls": calls("analysis.resample"),
        "analysis.resample.replicates": total("analysis.resample", "replicates"),
        "analysis.resample.cells_drawn": total("analysis.resample", "cells_drawn"),
        "witness.eval.s": total("witness.eval"),
        "witness.eval.calls": calls("witness.eval"),
        "tagstream.sift.s": total("tagstream.sift"),
        "tagstream.sift.calls": calls("tagstream.sift"),
        "tagstream.sift.events_in": total("tagstream.sift", "events_in"),
        "tagstream.sift.kept_ratio": (
            total("tagstream.sift", "frames_kept") / frames_total if frames_total else 0.0
        ),
        "tagstream.generate.s": generate_s,
        "tagstream.generate.events": events,
        "tagstream.generate.events_per_s": events / generate_s if generate_s else 0.0,
        "tagstream.io.write_s": total("tagstream.io.write"),
        "tagstream.io.read_s": total("tagstream.io.read"),
        "tagstream.io.bytes": (
            total("tagstream.io.write", "bytes") + total("tagstream.io.read", "bytes")
        ),
        "mub.corr.s": total("mub.corr"),
        "mub.corr.calls": calls("mub.corr"),
        "mub.vis.s": total("mub.vis"),
        "cli.self_s": wall_s - roots,
        "cli.wait_s": wall_s - cpu_s,
    }


# Counts that must repeat exactly between passes and runs of one seed.
EXACT_COUNTS = (
    "analysis.resample.cells_drawn",
    "analysis.resample.replicates",
    "witness.eval.calls",
    "tagstream.sift.events_in",
    "tagstream.generate.events",
    "tagstream.io.bytes",
    "tagstream.sift.kept_ratio",
)


def spans_to_json(spans) -> list:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}
        for s in spans
    ]
