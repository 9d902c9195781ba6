"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root with ``python3 -m pytest bench``.
"""

import copy
import importlib
import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracing
import workloads

SPEC = json.loads(run.BENCHMARK_FILE.read_text())
NAMES = sorted(workloads.WORKLOADS)


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric_and_no_failure(name, traced):
    result = run.run(name, seed=3, seconds=0.1, traced=traced, size="tiny")["result"]
    metrics = {key: m["unit"] for key, m in result["metrics"].items()}
    assert metrics == declared("per_layer" if traced else "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_reference_makes_fail_share_nonzero(name):
    reference = copy.deepcopy(workloads.load_reference(name, "tiny", 3))
    key = sorted(reference["rows"])[0]
    reference["rows"][key][0] += "1"
    result = run.run(name, 3, 0.1, False, "tiny", reference=reference)["result"]
    assert result["failed"] >= 1 and not result["correct"]


def test_sigma_outside_band_and_wrong_tag_digest_fail(tmp_path):
    cli = workloads.import_hdent()
    workload = workloads.TagsLong("tiny", 3, tmp_path)
    workload.setup(cli)
    workload.run_pass(cli)
    outputs = workload.outputs()
    reference = copy.deepcopy(outputs)
    assert workload.check(outputs, reference) == set()
    reference["rows"]["p0 d=10"][1] /= 1.0 + 2.0 * workloads.sigma_band(5)
    reference["sha256"]["p1"][0] = "0" * 64
    assert workload.check(outputs, reference) == {"p0 d=10"} | {
        f"p1 d={d}" for d in (10, 20, 40, 80)
    }


def originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.TARGETS
    }


def test_traced_run_restores_module_attributes():
    workloads.import_hdent()
    before = originals()
    run.run("mub-sweep", 3, 0.1, True, "tiny")
    assert all(fn is before[key] for key, fn in originals().items())
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError
    assert all(fn is before[key] for key, fn in originals().items())


def test_exact_counts_repeat_across_runs_of_one_seed():
    first, second = (
        run.run("sweep-default", 5, 0.1, True, "tiny")["result"]["metrics"] for _ in range(2)
    )
    for key in tracing.EXACT_COUNTS:
        assert first[key]["value"] == second[key]["value"], key
    # 8 noise points x 4 dims, 10 replicates each of 2 x 4 d^2 cells
    assert first["analysis.resample.cells_drawn"]["value"] == 8 * 10 * 8 * (100 + 400 + 1600 + 6400)
    assert first["witness.eval.calls"]["value"] == 32 + 32 * 10
    assert first["tagstream.sift.calls"]["value"] == 64


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("a", 0.0, 10.0),
        tracing.Span("b", 1.0, 4.0, parent=0),
        tracing.Span("c", 2.0, 3.0, parent=1),
        tracing.Span("d", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_host_speed_kernel_scales_by_its_reference_time():
    for parts in [w.host_parts for w in workloads.WORKLOADS.values()] + [hostspeed.SETUP_PARTS]:
        host = hostspeed.HostSpeed(parts)
        assert host.parts and host.measure() > 0
        # a pass that ran while the kernel took twice its reference time counts half
        assert host.scale(4.0, 2 * host.reference_s, 2 * host.reference_s) == pytest.approx(2.0)


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)


def test_command_prints_result_as_last_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tags-long", "--seed", "2",
         "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.BENCHMARK_FILE, tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mub-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
