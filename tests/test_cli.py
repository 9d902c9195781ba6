import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdent import tagstream, witness
from hdent.cli import _visibility_excess, load_run_config, main

from conftest import lump_unread

SMALL_CONFIG = """
[run]
output = {out}

[source]
pair_rate = 3e6
background_rates = 0, 6e6
jitter_fwhm_seconds = 0
p_mix = 1.0
franson_phase = pi
state_dim = 80

[binning]
dims = 10, 20

[sweep]
n_frames = 4000
seed = 3
resamples = 8
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG.format(out=tmp_path / "out"))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestLinkBudget:
    def test_reference_values(self, capsys):
        assert run_cli("link-budget", "--db", "82", "102") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# hdent-linkbudget-csv v1"
        assert out[2] == "82,410" and out[3] == "102,510"

    def test_km_to_db(self, capsys):
        assert run_cli("link-budget", "--km", "410") == 0
        assert "82,410" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "--db or --km"),
            (("--km", "-5", "--attenuation", "-0.2"), "distance"),
            (("--km", "5", "--attenuation", "-0.2"), "attenuation"),
            (("--db", "10", "--attenuation", "0"), "attenuation"),
            (("--db", "nan"), "loss budget"),
            (("--km", "inf"), "distance"),
            (("--km", "5", "--attenuation", "nan"), "attenuation"),
        ],
    )
    def test_bad_input_fails_with_json_error(self, argv, message, capsys):
        assert run_cli("link-budget", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in json.loads(captured.err)["message"]


class TestErrors:
    def test_machine_readable_error(self, capsys):
        code = run_cli("certify-et", "--hv", "/no/such.hdtt", "--da", "/no/such.hdtt",
                       "--dims", "10")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err


def assert_fails_naming(code, capsys, flag, out):
    """Exit code 1, a JSON error naming ``flag``, nothing on stdout and no ``out``."""
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in json.loads(captured.err)["message"]
    assert not out.exists()


class TestNumericFlags:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_fails(self, small_config, tmp_path, capsys, workers):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep-noise", "--config", small_config, "--out", out, f"--workers={workers}"
        )
        assert_fails_naming(code, capsys, "--workers", out)

    @pytest.mark.parametrize("counts", ["0", "nan", "inf", "-5"])
    def test_counts_must_be_finite_and_positive(self, tmp_path, capsys, counts):
        out = tmp_path / "mub"
        code = run_cli("mub-sweep", "--dim", "3", "--k", "4", f"--counts={counts}", "--out", out)
        assert_fails_naming(code, capsys, "--counts", out)

    def test_empty_resampled_basis_names_counts(self, tmp_path, capsys):
        out = tmp_path / "mub"
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "4", "--counts", "1", "--resamples", "10",
            "--out", out,
        )
        assert_fails_naming(code, capsys, "--counts", out)

    @pytest.mark.parametrize("resamples", ["1", "0", "-2"])
    def test_resamples_below_two_fail(self, tmp_path, capsys, resamples):
        out = tmp_path / "out"
        missing = tmp_path / "missing.hdtt"
        code = run_cli(
            "certify-et", "--hv", missing, "--da", missing, "--dims", "10",
            f"--resamples={resamples}", "--out", out,
        )
        assert_fails_naming(code, capsys, "--resamples", out)
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "4", f"--resamples={resamples}", "--out", out
        )
        assert_fails_naming(code, capsys, "--resamples", out)
        path = tmp_path / "bad.ini"
        path.write_text(
            SMALL_CONFIG.format(out=out).replace("resamples = 8", f"resamples = {resamples}")
        )
        code = run_cli("sweep-noise", "--config", path)
        assert_fails_naming(code, capsys, "[sweep] resamples", out)


class TestConfig:
    @pytest.mark.parametrize(
        "section, line, named",
        [
            ("[run]", "experiment = mub", "[run] experiment"),
            ("[sweep]", "resample = 10", "[sweep] resample"),
            ("[mub]", "dim = 5", "[mub]"),
            ("[DEFAULT]", "seed = 5", "[DEFAULT] seed"),
        ],
    )
    def test_unknown_key_fails(self, tmp_path, capsys, section, line, named):
        text = SMALL_CONFIG.format(out=tmp_path / "out")
        if section in text:
            text = text.replace(section + "\n", f"{section}\n{line}\n")
        else:
            text += f"\n{section}\n{line}\n"
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("sweep-noise", "--config", path) == 1
        err = json.loads(capsys.readouterr().err)
        assert named in err["message"] and str(path) in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "dims", ["", "10, 20, 10", "10, a"], ids=["empty", "repeated", "non-integer"]
    )
    @pytest.mark.parametrize("command", ["sweep-noise", "simulate-tags"])
    def test_bad_dims_fail(self, tmp_path, capsys, command, dims):
        path = tmp_path / "bad.ini"
        path.write_text(
            SMALL_CONFIG.format(out=tmp_path / "out").replace("dims = 10, 20", f"dims = {dims}")
        )
        assert run_cli(command, "--config", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[binning] dims" in json.loads(captured.err)["message"]
        assert not (tmp_path / "out").exists()

    def test_readme_example_is_the_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert load_run_config(path) == load_run_config(None)


class TestSimulateAndCertify:
    def test_simulate_is_reproducible(self, small_config, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate-tags", "--config", small_config, "--out", out1) == 0
        assert run_cli("simulate-tags", "--config", small_config, "--out", out2) == 0
        names = sorted(p.name for p in out1.glob("*.hdtt"))
        assert names == [
            "tags_p000_da.hdtt",
            "tags_p000_hv.hdtt",
            "tags_p001_da.hdtt",
            "tags_p001_hv.hdtt",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = (out1 / "manifest.csv").read_text()
        assert manifest.startswith("# hdent-manifest-csv v1")
        assert manifest == (out2 / "manifest.csv").read_text()

    def test_certify_matches_library_calls(self, small_config, tmp_path, capsys):
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        code = run_cli(
            "certify-et",
            "--hv", out / "tags_p000_hv.hdtt",
            "--da", out / "tags_p000_da.hdtt",
            "--dims", "10,20,40,80",
            "--resamples", "8",
            "--out", tmp_path / "reports",
        )
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert set(reports) == {"10", "20", "40", "80"}  # one per discretization
        hv = tagstream.read_tags(out / "tags_p000_hv.hdtt")
        da = tagstream.read_tags(out / "tags_p000_da.hdtt")
        for d in (10, 20, 40, 80):
            binning = tagstream.BinningConfig.for_dimension(hv.clock, d)
            expected = witness.witness_from_counts(
                tagstream.sift_and_bin(hv, binning, "HV"),
                tagstream.sift_and_bin(da, binning, "DA"),
                d,
                binning.f_shift,
            )
            got = reports[str(d)]
            assert got["witness_lower_bound"] == expected.witness_lower_bound
            assert got["certified"] == expected.certified
        on_disk = json.loads((tmp_path / "reports" / "witness_d10.json").read_text())
        assert on_disk == reports["10"]
        summary = (tmp_path / "reports" / "certify_summary.csv").read_text().splitlines()
        assert summary[0] == "# hdent-sweep-csv v1"
        assert summary[1].startswith("d_or_k,")

    def test_certify_rejects_bad_dimension(self, small_config, tmp_path, capsys):
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        code = run_cli(
            "certify-et",
            "--hv", out / "tags_p000_hv.hdtt",
            "--da", out / "tags_p000_da.hdtt",
            "--dims", "30",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "dims", ["", "10,20,10", "ten"], ids=["empty", "repeated", "non-integer"]
    )
    def test_certify_rejects_empty_or_repeated_dims(self, small_config, tmp_path, capsys, dims):
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        code = run_cli(
            "certify-et",
            "--hv", out / "tags_p000_hv.hdtt",
            "--da", out / "tags_p000_da.hdtt",
            "--dims", dims,
            "--out", tmp_path / "reports",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dims" in json.loads(captured.err)["message"]
        assert not (tmp_path / "reports").exists()

    def test_certify_parses_dims_before_reading_tags(self, tmp_path, capsys):
        missing = tmp_path / "missing.hdtt"
        assert run_cli("certify-et", "--hv", missing, "--da", missing, "--dims", "ten") == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert "--dims" in message and "'ten'" in message

    def test_rejects_different_clocks(self, small_config, tmp_path, capsys):
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        da = tagstream.read_tags(out / "tags_p000_da.hdtt")
        other = out / "tags_p000_da_other_tick.hdtt"
        tagstream.write_tags(replace(da, clock=replace(da.clock, tick_seconds=80e-12)), other)
        code = run_cli(
            "certify-et", "--dims", "10", "--hv", out / "tags_p000_hv.hdtt", "--da", other
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "different clock configs" in json.loads(captured.err)["message"]


class TestMubSweep:
    def test_sweep_csv_and_thresholds(self, tmp_path, capsys):
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "2,3,4", "--grid", "0:0.9:7",
            "--counts", "1e5", "--resamples", "10", "--out", tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "mub_sweep.csv").read_text().splitlines()
        assert lines[0] == "# hdent-sweep-csv v1"
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        # certified region shrinks as k decreases
        certified_nf = {
            k: max(
                (float(r["noise_setting"]) for r in rows
                 if r["d_or_k"] == str(k) and r["certified"] == "1"),
                default=-1.0,
            )
            for k in (2, 3, 4)
        }
        assert certified_nf[2] < certified_nf[3] < certified_nf[4]
        thresholds = json.loads((tmp_path / "mub_thresholds.json").read_text())
        for k in (2, 3, 4):
            assert thresholds[str(k)]["exact_nf_star"] == pytest.approx(1 - 1 / k, abs=1e-12)
            assert thresholds[str(k)]["scan"]["nf_star"] == pytest.approx(1 - 1 / k, abs=0.01)

    def test_full_mub_set_runs_for_small_primes(self, tmp_path, capsys):
        for d in (2, 5):
            code = run_cli(
                "mub-sweep", "--dim", d, "--k", str(d + 1), "--grid", "0:0.8:4",
                "--counts", "1e4", "--resamples", "5",
                "--out", tmp_path / f"d{d}",
            )
            assert code == 0

    def test_empty_grid_fails(self, tmp_path, capsys):
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "4", "--grid", "bogus",
            "--out", tmp_path,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "grid",
        [
            "0:0.9",
            "0:0.5:3:1",
            "0:0.9:x",
            "0:0.9:2.5",
            "0:0.9:1",
            "0:0.9:0",
            "0.5:0.5:3",
            "0.9:0.1:5",
            "-0.1:0.5:4",
            "0:1.5:4",
            "nan:0.5:3",
        ],
    )
    def test_bad_grid_fails_before_any_row(self, tmp_path, capsys, grid):
        # "--grid=" keeps argparse from reading a negative start as an option
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "4", f"--grid={grid}", "--out", tmp_path / "mub"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid" in json.loads(captured.err)["message"]
        assert not (tmp_path / "mub").exists()

    @pytest.mark.parametrize("k", ["", "2,2", "2,x"], ids=["empty", "repeated", "non-integer"])
    def test_empty_or_repeated_k_fails(self, tmp_path, capsys, k):
        code = run_cli("mub-sweep", "--dim", "3", "--k", k, "--out", tmp_path / "mub")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k" in json.loads(captured.err)["message"]
        assert not (tmp_path / "mub").exists()

    def test_matrix_export(self, tmp_path, capsys):
        run_cli(
            "mub-sweep", "--dim", "2", "--k", "3", "--grid", "0:0.5:2",
            "--counts", "1e4", "--resamples", "5", "--out", tmp_path,
            "--export-matrices",
        )
        exported = sorted(p.name for p in tmp_path.glob("corr_*.csv"))
        assert len(exported) == 6  # 2 grid points x 3 bases


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((3, 5, 7, 11)),
    k=st.integers(2, 12),
    high=st.integers(1, 1000),
    data=st.data(),
)
@settings(deadline=None, max_examples=60)
def test_visibility_statistic_reads_only_diagonals_and_totals(seed, dim, k, high, data):
    """The MUB resampling masks: unread mass moved into one off-diagonal cell."""
    rng = np.random.default_rng(seed)
    mask = np.eye(dim, dtype=bool)
    observed = []
    for _ in range(k):
        counts = rng.integers(0, high + 1, (dim, dim)).astype(float)
        counts[0, 0] += 1.0
        observed.append(counts)
    lumped = [
        lump_unread(m, mask, data.draw(st.integers(0, dim * dim - dim - 1))) for m in observed
    ]
    assert _visibility_excess(lumped, 1.5) == _visibility_excess(observed, 1.5)


class TestSweepNoise:
    def test_worker_count_does_not_change_output(self, small_config, tmp_path, capsys):
        outs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            code = run_cli(
                "sweep-noise", "--config", small_config, "--out", out,
                "--workers", workers,
            )
            assert code == 0
            outs[workers] = (out / "sweep.csv").read_bytes()
            assert (out / "thresholds.json").exists()
        assert outs[1] == outs[2]
        lines = outs[1].decode().splitlines()
        assert lines[0] == "# hdent-sweep-csv v1"
        assert len(lines) == 2 + 2 * 2  # two rates x two dims
