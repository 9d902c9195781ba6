"""Run a fixed set of ``hdent`` CLI invocations and keep everything they leave.

Usage::

    python tools/cli_snapshot.py OUT

``OUT`` must not exist.  Every command runs with ``OUT`` as its working
directory and relative paths, against the ``src/`` of the checkout that holds
this script.  Each command's output files land under ``OUT``, and its stdout,
stderr and exit code under ``OUT/runs/<name>.{stdout,stderr,exit}``.  Run the
script in two checkouts and compare them with ``diff -r``.  The script exits
1, naming them, when any of ``COMMANDS`` (which must all succeed) exits
non-zero; so does one of ``DERIVED``, which run on copies of a tag-file pair
that ``derive`` makes once ``COMMANDS`` have run.  The exit codes of
``CHECKS``, many of them expected failures, are only recorded.

The set covers every subcommand on the default and small configs, a
jitter-free stream whose signal and noise events often share a tick and
detector, a tag-file pair without origin labels, tag files corrupted in each
way ``read_tags`` detects, a good HV file with a truncated or bad-magic DA
file, faults in both files or in a file and ``--dims`` (``certify-et`` must
name the first in its error order), an HV/DA pair whose clocks differ, one
tag file named as both HV and DA, an HV/DA pair recorded over different frame
spans, config values and flags that must fail before any output is written,
a default sweep so sparse that one of its
Poisson replicates draws an empty basis, ``mub-sweep`` at d = 2 (whose MUB
set is built apart from the odd primes') and with ``--k`` out of order, and
``mub-sweep`` grids whose points are too close to get seeds of their own or,
with ``--export-matrices``, file names of their own, and a ``mub-sweep
--counts`` above NumPy's largest Poisson mean.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL = """
[source]
pair_rate = 3e6
background_rates = 0, 6e6
jitter_fwhm_seconds = 800e-12
state_dim = 80

[binning]
dims = 10, 20

[sweep]
n_frames = 4000
seed = 3
resamples = 8
"""


def small(*edits) -> str:
    """The small config with each ``(old, new)`` text replacement applied."""
    text = SMALL
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    return text


CONFIGS = {
    "small.ini": small(),
    "three.ini": small(("0, 6e6", "0, 4e6, 1.6e7"), ("10, 20", "10, 20, 40"), ("4000", "20000")),
    "long.ini": small(("0, 6e6", "0"), ("4000", "8000")),
    "one.ini": small(("0, 6e6", "4e6"), ("10, 20", "20")),
    "nan_background.ini": small(("0, 6e6", "nan, 1e7"), ("800e-12", "nan"), ("4000", "2000")),
    "nan_rate.ini": small(("0, 6e6", "0, nan"), ("4000", "2000")),
    "nan_tick.ini": "[clock]\ntick_seconds = nan\n" + small(("4000", "2000")),
    "zero_frames.ini": small(("4000", "0")),
    "nan_pair_rate.ini": small(("3e6", "nan"), ("4000", "2000")),
    "big_p_mix.ini": small(("3e6", "3e6\np_mix = 1.5")),
    "huge_background.ini": small(("0, 6e6", "0, 1e13"), ("4000", "2000")),
    "dim16.ini": small(("state_dim = 80", "state_dim = 16"), ("4000", "2000")),
    "nan_phase.ini": small(("0, 6e6", "0"), ("3e6", "3e6\nfranson_phase = nan"),
                           ("10, 20", "10"), ("4000", "2000")),
    "no_background.ini": small(("0, 6e6", ""), ("4000", "2000")),
    "abc_tick.ini": "[clock]\ntick_seconds = abc\n" + small(),
    "float_seed.ini": small(("seed = 3", "seed = 1.5")),
    "dims30.ini": small(("10, 20", "30")),
    "dim30.ini": small(("state_dim = 80", "state_dim = 30")),
    "other_tick.ini": "[clock]\ntick_seconds = 90e-12\n" + small(("0, 6e6", "0")),
    # no jitter and dense background: signal and noise often share a tick and detector
    "ties.ini": small(("3e6", "2e7"), ("0, 6e6", "4e7"), ("800e-12", "0"), ("4000", "9000")),
    # the default sweep on so few frames that a resampled basis draws no counts (at
    # point 0, d = 10 for this seed)
    "sparse.ini": "[sweep]\nn_frames = 200\nresamples = 20\nseed = 18\n",
}

# (name, offset, bytes written there) applied to a copy of tags_small/tags_p000_hv.hdtt;
# records start at byte 30 and are 16 bytes long
CORRUPTIONS = {
    "bad_magic": [(0, b"NOPE")],
    "reserved": [(30 + 16 * 2 + 13, b"\x01")],
    "channel": [(30 + 16 * 2 + 8, b"\x07")],
    "origin": [(30 + 16 * 3 + 9, b"\x05")],
    "unsorted": [(30, (2 ** 40).to_bytes(8, "little"))],
    "two_defects": [(30, (2 ** 40).to_bytes(8, "little")), (30 + 16 * 4 + 10, b"\x01")],
    # a zero imbalance in the header's clock, then reserved bits in a record
    "clock_reserved": [(18, b"\x00\x00\x00\x00"), (30 + 16 * 2 + 13, b"\x01")],
}

TAGS = "tags_default/tags_p{:03d}_{}.hdtt"


def certify(hv, da, dims, *extra, out=None):
    argv = ["certify-et", "--hv", hv, "--da", da, "--dims", dims, "--resamples", "20", *extra]
    return argv + (["--out", out] if out else [])


COMMANDS = [
    ("sweep_default", ["sweep-noise", "--out", "sweep_default"]),
    ("sweep_three", ["sweep-noise", "--config", "three.ini", "--workers", "2",
                     "--out", "sweep_three"]),
    ("sweep_one", ["sweep-noise", "--config", "one.ini", "--out", "sweep_one"]),
    ("simulate_default", ["simulate-tags", "--out", "tags_default"]),
    ("simulate_small", ["simulate-tags", "--config", "small.ini", "--out", "tags_small"]),
    ("simulate_other_tick", ["simulate-tags", "--config", "other_tick.ini",
                             "--out", "tags_other_tick"]),
    ("simulate_ties", ["simulate-tags", "--config", "ties.ini", "--out", "tags_ties"]),
    ("simulate_long", ["simulate-tags", "--config", "long.ini", "--out", "tags_long"]),
    ("certify_all", certify(TAGS.format(0, "hv"), TAGS.format(0, "da"), "10,20,40,80",
                            out="certify_all")),
    ("certify_eta", certify(TAGS.format(3, "hv"), TAGS.format(3, "da"), "10,40",
                            "--eta-hwp", "0.9", out="certify_eta")),
    ("certify_dense", certify(TAGS.format(7, "hv"), TAGS.format(7, "da"), "80,10",
                              out="certify_dense")),
    ("certify_ties", certify("tags_ties/tags_p000_hv.hdtt", "tags_ties/tags_p000_da.hdtt",
                             "10,80", out="certify_ties")),
    ("mub_d5", ["mub-sweep", "--dim", "5", "--k", "2,3,6", "--grid", "0:0.9:5",
                "--export-matrices", "--out", "mub_d5"]),
    ("mub_d3", ["mub-sweep", "--dim", "3", "--k", "2,3,4", "--out", "mub_d3"]),
    ("mub_d2", ["mub-sweep", "--dim", "2", "--k", "2,3", "--export-matrices",
                "--out", "mub_d2"]),
    ("mub_d11", ["mub-sweep", "--dim", "11", "--k", "2,12", "--grid", "0:0.95:6",
                 "--out", "mub_d11"]),
    ("mub_d11_export", ["mub-sweep", "--dim", "11", "--k", "2,4,8,12", "--grid", "0:0.95:20",
                        "--export-matrices", "--out", "mub_d11_export"]),
    # the rows of each k are prefixes of one stack of 12 bases, in the order given
    ("mub_d11_k_unsorted", ["mub-sweep", "--dim", "11", "--k", "12,3,7", "--grid", "0:0.95:7",
                            "--out", "mub_d11_k_unsorted"]),
    ("link_budget", ["link-budget", "--db", "82", "102", "--km", "410"]),
]
# these read the copies that ``derive`` makes once the commands above have run
DERIVED = [
    ("certify_unlabelled", certify("derived/unlabelled_hv.hdtt", "derived/unlabelled_da.hdtt",
                                   "10,20", out="certify_unlabelled")),
]
CHECKS = [
    (f"tagfile_{name}", certify(f"corrupt/{name}.hdtt", "tags_small/tags_p000_da.hdtt", "10"))
    for name in (*CORRUPTIONS, "truncated")
]
# the DA file is read after the HV file is sifted: a good HV file with a bad DA file
CHECKS += [
    (f"tagfile_da_{name}", certify("tags_small/tags_p000_hv.hdtt", f"corrupt/{name}.hdtt", "10"))
    for name in ("bad_magic", "truncated")
]
# a d that the clock cannot bin
CHECKS.append(("certify_d30", certify(TAGS.format(0, "hv"), TAGS.format(0, "da"), "30")))
# a header or --dims error comes before any record defect, of either file
CHECKS.append(("certify_reserved_d30", certify(
    "corrupt/reserved.hdtt", "tags_small/tags_p000_da.hdtt", "30")))
CHECKS.append(("tagfile_channel_da_bad_magic", certify(
    "corrupt/channel.hdtt", "corrupt/bad_magic.hdtt", "10")))
CHECKS.append(("tagfile_clock_mismatch", certify(
    "tags_small/tags_p000_hv.hdtt", "tags_other_tick/tags_p000_da.hdtt", "10")))
CHECKS.append(("certify_same_file", certify(
    "tags_small/tags_p000_hv.hdtt", "tags_small/tags_p000_hv.hdtt", "10", out="certify_same_file")))
# an HV file of 4000 frames with a DA file of 8000
CHECKS.append(("certify_spans", certify(
    "tags_small/tags_p000_hv.hdtt", "tags_long/tags_p000_da.hdtt", "10,20", out="certify_spans")))
CHECKS += [
    ("config_nan_background", ["sweep-noise", "--config", "nan_background.ini",
                               "--out", "config_nan_background"]),
    ("config_nan_rate", ["sweep-noise", "--config", "nan_rate.ini", "--out", "config_nan_rate"]),
    ("config_nan_tick", ["sweep-noise", "--config", "nan_tick.ini", "--out", "config_nan_tick"]),
    ("config_zero_frames", ["simulate-tags", "--config", "zero_frames.ini",
                            "--out", "config_zero_frames"]),
    ("config_nan_pair_rate", ["simulate-tags", "--config", "nan_pair_rate.ini",
                              "--out", "config_nan_pair_rate"]),
    ("config_big_p_mix", ["simulate-tags", "--config", "big_p_mix.ini",
                          "--out", "config_big_p_mix"]),
    ("config_huge_background", ["simulate-tags", "--config", "huge_background.ini",
                                "--out", "config_huge_background"]),
    ("config_dim16", ["simulate-tags", "--config", "dim16.ini", "--out", "config_dim16"]),
    ("config_nan_phase", ["sweep-noise", "--config", "nan_phase.ini", "--out", "config_nan_phase"]),
    ("config_no_background", ["sweep-noise", "--config", "no_background.ini",
                              "--out", "config_no_background"]),
    ("config_abc_tick", ["sweep-noise", "--config", "abc_tick.ini", "--out", "config_abc_tick"]),
    ("config_float_seed", ["simulate-tags", "--config", "float_seed.ini",
                           "--out", "config_float_seed"]),
    ("config_dims30", ["sweep-noise", "--config", "dims30.ini", "--out", "config_dims30"]),
    # a seed outside [0, 2**62), where resampling and stream keys would meet
    ("seed_2_pow_95", ["sweep-noise", "--seed", str(2**95), "--out", "seed_2_pow_95"]),
    ("config_dim30", ["simulate-tags", "--config", "dim30.ini", "--out", "config_dim30"]),
    ("sweep_sparse", ["sweep-noise", "--config", "sparse.ini", "--out", "sweep_sparse"]),
    ("eta_zero", certify("tags_small/tags_p000_hv.hdtt", "tags_small/tags_p000_da.hdtt", "10",
                         "--eta-hwp", "0", out="eta_zero")),
    ("eta_nan", certify("tags_small/tags_p000_hv.hdtt", "tags_small/tags_p000_da.hdtt", "10",
                        "--eta-hwp", "nan", out="eta_nan")),
    # the last two points round to one millionth, the key of their resampling
    ("mub_close_grid", ["mub-sweep", "--dim", "3", "--k", "2", "--grid", "0.5:0.500001:3",
                        "--counts", "1e4", "--resamples", "50", "--out", "mub_close_grid"]),
    # a count above NumPy's largest Poisson mean, refused before any work
    ("mub_counts_1e19", ["mub-sweep", "--dim", "3", "--k", "2", "--counts", "1e19",
                         "--out", "mub_counts_1e19"]),
    # 0.5 and 0.50005 have seeds of their own but one export file name, nf to 4 decimals
    ("mub_close_export", ["mub-sweep", "--dim", "3", "--k", "2", "--grid", "0.5:0.5001:3",
                          "--export-matrices", "--out", "mub_close_export"]),
]


def derive(out: Path) -> None:
    """Write the copies of the small config's tag files that ``DERIVED`` and ``CHECKS`` read.

    ``out/derived`` gets point 1's pair with every origin set to 2 (unknown),
    as a time-tagger writes it; ``out/corrupt`` gets the malformed copies of
    point 0's HV file.
    """
    (out / "derived").mkdir()
    for basis in ("hv", "da"):
        blob = bytearray((out / "tags_small" / f"tags_p001_{basis}.hdtt").read_bytes())
        for offset in range(30 + 9, len(blob), 16):  # the origin byte of each record
            blob[offset] = 2
        (out / "derived" / f"unlabelled_{basis}.hdtt").write_bytes(bytes(blob))
    good = (out / "tags_small" / "tags_p000_hv.hdtt").read_bytes()
    (out / "corrupt").mkdir()
    for name, edits in CORRUPTIONS.items():
        blob = bytearray(good)
        for offset, data in edits:
            blob[offset:offset + len(data)] = data
        (out / "corrupt" / f"{name}.hdtt").write_bytes(bytes(blob))
    (out / "corrupt" / "truncated.hdtt").write_bytes(good[:-7])


def run(out: Path, commands) -> list:
    """Run and record each ``(name, args)``; returns the names of those that exited non-zero."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failed = []
    for name, args in commands:
        result = subprocess.run(
            [sys.executable, "-m", "hdent.cli", *args], cwd=out, env=env, capture_output=True
        )
        (out / "runs" / f"{name}.stdout").write_bytes(result.stdout)
        (out / "runs" / f"{name}.stderr").write_bytes(result.stderr)
        (out / "runs" / f"{name}.exit").write_text(f"{result.returncode}\n")
        print(f"{name}: exit {result.returncode}")
        if result.returncode:
            failed.append(name)
    return failed


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    (out / "runs").mkdir(parents=True)
    for name, text in CONFIGS.items():
        (out / name).write_text(text)
    failed = run(out, COMMANDS)
    derive(out)
    failed += run(out, DERIVED)
    run(out, CHECKS)
    if failed:
        print(f"commands that must succeed failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
