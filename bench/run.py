"""Benchmark of the hdent CLI: one workload, one process, one worker.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 40 --trace 0

Set-up is timed in fresh interpreters (import hdent, load the config, build
the command lines) and reported as the median of ``SETUP_SAMPLES``.  Then
passes of the workload run back to back (closed loop) until the next pass
would end after ``--seconds``; every pass is checked against the references
recorded for the seed.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics, with the tracing overhead.  Metric
names and units come from BENCHMARK.json.

On a shared host the speed of this process swings by 25 % or more in phases
longer than a run, so raw pass times say more about the neighbours than about
the program.  A fixed reference kernel (``hostspeed.py``) is timed before the
first pass and after every pass; ``wall_ref_s`` is the median over untraced
passes of the pass wall time scaled by the kernel's reference time over its
mean time around that pass.  ``setup_s`` is scaled the same way, by the kernel
timed before and after the set-up probes.  The summary gives the raw times
too: the set-up median, and the median, tail percentile and every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

BENCHMARK_FILE = workloads.ROOT / "BENCHMARK.json"
WORK_DIR = workloads.ROOT / ".bench_work"
SETUP_SAMPLES = 7


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup_once(name: str, size: str) -> float:
    """Seconds to import hdent, load the config and build the command lines."""
    start = time.perf_counter()
    cli = workloads.import_hdent()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workloads.WORKLOADS[name](size, 0, tmp).setup(cli)
        return time.perf_counter() - start


def measure_setup(name: str, size: str) -> list:
    """Set-up times from SETUP_SAMPLES fresh interpreters, one after another."""
    command = [sys.executable, __file__, "--setup-probe", "--workload", name, "--size", size]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def tail_percentile(values: list):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def one_pass(cli, workload, reference, tracer):
    """Run and check one pass; returns (wall_s, cpu_s, failed keys, spans)."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            workload.run_pass(cli)
            ok = True
        except RuntimeError as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            ok = False
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    failed = workload.check(workload.outputs(), reference) if ok else set(reference["rows"])
    workload.finish_pass()
    return wall, cpu, failed, tracer.take() if tracer else None


def run(name: str, seed: int, seconds: float, traced: bool, size: str = "full",
        reference: dict | None = None) -> dict:
    """Set up and run one workload; returns the result and a human summary."""
    import hostspeed  # imports numpy, so not at the top: set-up probes time that import
    cli = workloads.import_hdent()
    declared = declared_metrics()
    if reference is None:
        reference = workloads.load_reference(name, size, seed)
    setup_host = hostspeed.HostSpeed(hostspeed.SETUP_PARTS)
    before = setup_host.measure()
    setup_samples = measure_setup(name, size)
    setup_s = setup_host.scale(statistics.median(setup_samples), before, setup_host.measure())
    WORK_DIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if traced else None
    untraced_walls, traced_walls, layers, traced_spans = [], [], [], []
    # pass wall time scaled to the reference host speed, per untraced/traced pass
    untraced_scaled, traced_scaled = [], []
    attempted = failed = 0
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workload = workloads.WORKLOADS[name](size, seed, tmp)
        workload.setup(cli)
        host = hostspeed.HostSpeed(workload.host_parts)
        kernel_s = [host.measure()]
        start = time.perf_counter()
        while True:
            # with tracing, odd passes are traced and even ones give the baseline
            this_tracer = tracer if traced and len(untraced_walls) > len(traced_walls) else None
            wall, cpu, failed_keys, spans = one_pass(cli, workload, reference, this_tracer)
            kernel_s.append(host.measure())
            scaled = host.scale(wall, kernel_s[-2], kernel_s[-1])
            attempted += len(reference["rows"])
            failed += len(failed_keys)
            if this_tracer:
                traced_walls.append(wall)
                traced_scaled.append(scaled)
                traced_spans.append(spans)
                layers.append(tracing.layer_metrics(spans, wall, cpu))
            else:
                untraced_walls.append(wall)
                untraced_scaled.append(scaled)
            enough = not traced or traced_walls
            if enough and time.perf_counter() - start + wall > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    repeats = all(
        len({layer[key] for layer in layers}) <= 1 for key in tracing.EXACT_COUNTS
    )
    if traced:
        kind = "per_layer"
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        values["trace.overhead_s"] = (
            statistics.median(traced_scaled) - statistics.median(untraced_scaled)
        )
        trace_file = WORK_DIR / f"trace-{name}.json"
        trace_file.write_text(json.dumps(
            {"workload": name, "seed": seed,
             "passes": [tracing.spans_to_json(spans) for spans in traced_spans]}
        ))
    else:
        kind = "end_to_end"
        values = {
            "wall_ref_s": statistics.median(untraced_scaled),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    units = declared[kind]
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json {kind}")

    summary = [
        f"workload {name}  seed {seed} (program seed {workload.seed})  size {size}  "
        f"trace {int(traced)}",
        "machine " + json.dumps(machine_info()) + "; single process, --workers 1",
        f"setup_s      {setup_s:.4f} s at the reference host speed; raw median "
        f"{statistics.median(setup_samples):.4f} s over {len(setup_samples)} fresh interpreters",
    ]
    tail = tail_percentile(untraced_walls)
    summary.append(
        f"wall_s       median {statistics.median(untraced_walls):.4f} s over "
        f"{len(untraced_walls)} untraced passes; "
        + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile has 10 samples above it")
        + "; passes " + " ".join(f"{wall:.3f}" for wall in untraced_walls)
    )
    summary.append(
        f"wall_ref_s   median {statistics.median(untraced_scaled):.4f} s at the reference "
        f"host speed; kernel ({', '.join(host.parts)}) {1e3 * min(kernel_s):.2f} to "
        f"{1e3 * max(kernel_s):.2f} ms around passes, {1e3 * host.reference_s:.2f} ms at "
        "reference speed"
    )
    if traced:
        summary.append(f"traced       median {statistics.median(traced_walls):.4f} s over "
                       f"{len(traced_walls)} passes; spans in {trace_file}")
        if not repeats:
            summary.append("exact counts differ between traced passes of one seed")
    summary.append(f"peak_rss_mb  {peak_rss_mb:.1f} MiB")
    summary.append(f"fail_share   {failed / attempted:.4g} ratio ({failed} of {attempted} "
                   "certifications failed their output check)")
    result = {
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    return {"result": result, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_once(args.workload, args.size))
            return 0
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (ImportError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(outcome["summary"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
