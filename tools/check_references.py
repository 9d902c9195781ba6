"""Check one full-size pass of every benchmark workload at every bench seed.

Usage::

    python tools/check_references.py [--workload NAME ...]

Runs each workload of ``bench/workloads.py`` once at the full size for each of
its ``SEED_POOL`` bench seeds, in this process with one worker, and checks the
outputs against ``bench/references/`` with ``bench/run.py``'s own ``one_pass``.
Prints one line per workload and seed, and exits 1 naming every row that
failed.  The tiny size is left out: some of its references fail at today's
band with no change to the program (ROADMAP item 1).
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402
import workloads  # noqa: E402


def failed_rows(cli, name: str, seed: int) -> set:
    """Keys of the rows of one full-size pass that fail their reference check."""
    reference = workloads.load_reference(name, "full", seed)
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.WORKLOADS[name]("full", seed, tmp)
        workload.setup(cli)
        _, _, failed, _ = run.one_pass(cli, workload, reference, None)
        return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    cli = workloads.import_hdent()
    failed = []
    for name in args.workload:
        for seed in range(workloads.SEED_POOL):
            rows = failed_rows(cli, name, seed)
            print(f"{name} seed {seed} (program seed {workloads.program_seed(seed)}): "
                  f"{len(rows)} rows failed")
            failed += [f"{name} seed {seed}: {row}" for row in sorted(rows)]
    if failed:
        print("rows that failed their reference:\n" + "\n".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
