"""Record the reference outputs that the benchmark checks every pass against.

Runs one pass of each workload and size for every program seed in the pool
and writes ``references/<workload>.json``.  Run it only when a change to the
program is meant to change its outputs, and say so with the change::

    python3 bench/record_references.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import tempfile

import workloads
from run import WORK_DIR, machine_info


def record(name: str, size: str, cli) -> dict:
    per_seed = {}
    for seed in range(workloads.SEED_POOL):
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            workload = workloads.WORKLOADS[name](size, seed, tmp)
            workload.setup(cli)
            workload.run_pass(cli)
            outputs = workload.outputs()
            workload.finish_pass()
        failed = workload.check(outputs, outputs)
        if failed:
            raise SystemExit(f"{name} {size} seed {workload.seed}: invariants fail on {sorted(failed)}")
        per_seed[str(workload.seed)] = outputs
        print(f"{name} {size} program seed {workload.seed}: {len(outputs['rows'])} rows")
    return per_seed


def dump(payload: dict) -> str:
    """JSON with one line per size and seed, so a re-recording diffs by seed."""
    parts = [f'"machine": {json.dumps(payload["machine"], sort_keys=True)}']
    for size in workloads.SIZES:
        seeds = ",\n".join(
            f'  "{seed}": {json.dumps(outputs, sort_keys=True)}'
            for seed, outputs in payload[size].items()
        )
        parts.append(f'"{size}": {{\n{seeds}\n }}')
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    cli = workloads.import_hdent()
    WORK_DIR.mkdir(exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        payload = {"machine": machine_info()}
        payload.update({size: record(name, size, cli) for size in workloads.SIZES})
        workloads.reference_path(name).write_text(dump(payload))


if __name__ == "__main__":
    main()
