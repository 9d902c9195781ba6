"""The benchmark workloads: set-up, one pass through the hdent CLI, output checks.

Each workload drives ``hdent.cli.main`` in this process with one worker, the
way a user runs the command, and turns the files the command writes into a
JSON-serialisable ``outputs`` dict.  ``check`` compares those outputs with the
references recorded for the same seed (``references/<workload>.json``, made
by ``record_references.py``) and with the paper's invariants, and returns the
certifications that failed.  One certification is one sweep row: a
(noise point, d) or (noise point, k) pair.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# The benchmark's --seed picks one of SEED_POOL program seeds, for each of which
# reference outputs are recorded.
SEED_POOL = 20

SIZES = ("full", "tiny")


def program_seed(seed: int) -> int:
    return 1 + seed % SEED_POOL


def import_hdent():
    """Import hdent from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hdent" / "__init__.py").is_file():
        raise ImportError(f"no hdent sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hdent.cli

    if Path(hdent.__file__).resolve().parent != (src / "hdent").resolve():
        raise ImportError(f"hdent imported from {hdent.__file__}, not from {src}")
    return hdent.cli


def sigma_band(n_resamples: int) -> float:
    """Allowed relative difference between a resampled sigma and its reference.

    For n replicates the sample standard deviation has a relative spread of
    about 1/sqrt(2(n-1)), so two independent estimates differ by about
    1/sqrt(n-1).  Six of those keep a distribution-preserving change to the
    resampler (new draws, same law) inside the band on every row.
    """
    return 6.0 / math.sqrt(n_resamples - 1)


def _write_config(path: Path, sections: dict) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")


def _call_cli(cli, argv) -> None:
    """Run one hdent command; its stdout is swallowed, an error raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hdent {argv[0]} exited with code {code}")


def _csv_records(path: Path) -> list:
    """Records of an hdent CSV file, below its schema comment."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _sweep_rows(path: Path, row_label: str, setting_label: str) -> dict:
    """{row key: [exact columns as written, sigma]} of a sweep CSV file."""
    return {
        f"{row_label}={row['d_or_k']} {setting_label}={row['noise_setting']}": [
            ",".join((row["witness_or_visibility_sum"], row["nf_true"],
                      row["nf_estimated"], row["certified"])),
            float(row["sigma"]),
        ]
        for row in _csv_records(path)
    }


def _check_rows(rows: dict, ref_rows: dict, band: float) -> set:
    """Row keys whose exact columns differ or whose sigma leaves the band."""
    failed = set()
    for key, (ref_exact, ref_sigma) in ref_rows.items():
        if key not in rows:
            failed.add(key)
            continue
        exact, sigma = rows[key]
        if exact != ref_exact or abs(sigma - ref_sigma) > band * ref_sigma:
            failed.add(key)
    return failed


class Workload:
    """One workload at one size; subclasses supply the commands and checks."""

    name = ""
    sizes: dict = {}
    # the parts of the host-speed kernel (hostspeed.py) that do this workload's kind of work
    host_parts: tuple = ()

    def __init__(self, size: str, seed: int, workdir: Path):
        self.params = self.sizes[size]
        self.seed = program_seed(seed)
        self.workdir = Path(workdir)

    def setup(self, cli) -> None:
        """Write and load the config, then build and parse the commands of a pass."""
        self.argvs = [[str(a) for a in argv] for argv in self.commands(cli)]
        parser = cli.build_parser()
        for argv in self.argvs:
            parser.parse_args(argv)

    def commands(self, cli) -> list:
        raise NotImplementedError

    def run_pass(self, cli) -> None:
        for argv in self.argvs:
            _call_cli(cli, argv)

    def outputs(self) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict, reference: dict) -> set:
        raise NotImplementedError

    def finish_pass(self) -> None:
        """Remove what a pass leaves behind that the next pass rewrites."""


class SweepDefault(Workload):
    name = "sweep-default"
    host_parts = ("small_numpy", "poisson", "arrays")
    sizes = {
        "full": {"config": None, "resamples": 150},
        "tiny": {"config": {"sweep": {"n_frames": 40000, "resamples": 10}}, "resamples": 10},
    }

    def commands(self, cli):
        config = None
        if self.params["config"]:
            config = self.workdir / "sweep.ini"
            _write_config(config, self.params["config"])
        cfg = cli.load_run_config(config)
        self.dims = cfg.dims
        self.out = self.workdir / "sweep"
        argv = ["sweep-noise", "--seed", self.seed, "--workers", 1, "--out", self.out]
        if config is not None:
            argv += ["--config", config]
        return [argv]

    def outputs(self):
        rows = _sweep_rows(self.out / "sweep.csv", "d", "rate")
        thresholds = json.loads((self.out / "thresholds.json").read_text())
        nf_star = {d: thresholds[str(d)].get("nf_star") for d in self.dims}
        return {"rows": rows, "nf_star": {str(d): v for d, v in nf_star.items()}}

    def check(self, outputs, reference):
        failed = _check_rows(outputs["rows"], reference["rows"], sigma_band(self.params["resamples"]))
        stars = [outputs["nf_star"].get(str(d)) for d in self.dims]
        rising = None not in stars and all(a < b for a, b in zip(stars, stars[1:]))
        if not rising:  # the paper's claim: noise tolerance grows with d
            failed |= set(reference["rows"])
        return failed


class TagsLong(Workload):
    name = "tags-long"
    host_parts = ("poisson", "arrays", "sha256")
    sizes = {
        "full": {"n_frames": 1000000, "resamples": 20},
        "tiny": {"n_frames": 20000, "resamples": 5},
    }
    rates = ("1e7", "4e7")
    dims = "10,20,40,80"

    def commands(self, cli):
        config = self.workdir / "tags.ini"
        _write_config(config, {
            "source": {"background_rates": ", ".join(self.rates)},
            "sweep": {"n_frames": self.params["n_frames"]},
        })
        cli.load_run_config(config)
        self.tags = self.workdir / "tags"
        argvs = [["simulate-tags", "--config", config, "--out", self.tags, "--seed", self.seed]]
        for point in range(len(self.rates)):
            argvs.append([
                "certify-et",
                "--hv", self.tags / f"tags_p{point:03d}_hv.hdtt",
                "--da", self.tags / f"tags_p{point:03d}_da.hdtt",
                "--dims", self.dims, "--resamples", self.params["resamples"],
                "--seed", self.seed, "--out", self.workdir / f"reports_p{point}",
            ])
        return argvs

    def outputs(self):
        sha256 = {}
        for entry in _csv_records(self.tags / "manifest.csv"):
            sha256.setdefault(f"p{entry['point']}", []).append(entry["sha256"])
        rows = {}
        for point in range(len(self.rates)):
            for d in self.dims.split(","):
                path = self.workdir / f"reports_p{point}" / f"witness_d{d}.json"
                report = json.loads(path.read_text())
                rows[f"p{point} d={d}"] = [
                    ",".join(repr(report[key]) for key in
                             ("witness_lower_bound", "nf_true", "nf_estimated", "certified")),
                    report["sigma"],
                ]
        return {"rows": rows, "sha256": sha256}

    def check(self, outputs, reference):
        failed = _check_rows(outputs["rows"], reference["rows"], sigma_band(self.params["resamples"]))
        for point, digests in reference["sha256"].items():
            if outputs["sha256"].get(point) != digests:
                failed |= {key for key in reference["rows"] if key.startswith(point + " ")}
        return failed

    def finish_pass(self):
        shutil.rmtree(self.tags, ignore_errors=True)


class MubSweep(Workload):
    name = "mub-sweep"
    host_parts = ("loop", "small_numpy", "poisson")
    sizes = {
        "full": {"resamples": 150},
        "tiny": {"resamples": 10},
    }
    dim, k_list, grid, counts = 11, "2,4,8,12", "0:0.95:20", "1e6"

    def commands(self, cli):
        self.out = self.workdir / "mub"
        start, stop, count = self.grid.split(":")
        self.grid_step = (float(stop) - float(start)) / (int(count) - 1)
        argv = ["mub-sweep", "--dim", self.dim, "--k", self.k_list, "--grid", self.grid,
                "--counts", self.counts, "--resamples", self.params["resamples"],
                "--seed", self.seed, "--out", self.out]
        return [argv]

    def outputs(self):
        rows = _sweep_rows(self.out / "mub_sweep.csv", "k", "nf")
        thresholds = json.loads((self.out / "mub_thresholds.json").read_text())
        return {
            "rows": rows,
            "thresholds": {
                k: [t["scan"]["nf_star"], t["exact_nf_star"]] for k, t in thresholds.items()
            },
        }

    def check(self, outputs, reference):
        failed = _check_rows(outputs["rows"], reference["rows"], sigma_band(self.params["resamples"]))
        for k in self.k_list.split(","):
            scan, exact = outputs["thresholds"].get(k, [None, None])
            if scan is None or exact is None or abs(scan - exact) > self.grid_step:
                failed |= {key for key in reference["rows"] if key.startswith(f"k={k} ")}
        return failed


WORKLOADS = {w.name: w for w in (SweepDefault, TagsLong, MubSweep)}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str, size: str, seed: int) -> dict:
    """Reference outputs recorded for this workload, size and program seed."""
    with open(reference_path(name)) as fh:
        return json.load(fh)[size][str(program_seed(seed))]
