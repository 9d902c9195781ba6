import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hdent import cli, tagstream, witness
from hdent.analysis import poisson_resample
from hdent.cli import _visibility_excess, load_run_config, main
from hdent.mub import build_mubs, correlation_matrix
from hdent.states import NoisyState, make_max_entangled

from conftest import (
    assert_same_law,
    loop_poisson_resample,
    matched_matrices,
    noise_fraction_oracle,
    put_back,
    threshold,
    vis,
    visibility_excess_oracle,
)

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


def no_records(*args):
    """Stands in for ``tagstream._record_blocks`` where no record may be read."""
    raise AssertionError("a record was read")


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

    @pytest.mark.parametrize("counts", ["1e19", "9.3e18"])
    def test_counts_above_the_poisson_limit_fail(self, tmp_path, capsys, counts):
        out = tmp_path / "mub"
        code = run_cli("mub-sweep", "--dim", "3", "--k", "4", f"--counts={counts}", "--out", out)
        assert_fails_naming(code, capsys, "--counts", out)

    def test_counts_at_the_limit_run(self, tmp_path):
        code = run_cli("mub-sweep", "--dim", "3", "--k", "2,4", "--grid", "0:0.9:2",
                       "--counts", "9e18", "--resamples", "3", "--out", tmp_path)
        assert code == 0 and (tmp_path / "mub_sweep.csv").exists()

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


    @pytest.mark.parametrize("eta", ["0", "-0.5", "1.5", "nan"])
    def test_eta_hwp_is_checked_before_reading_tags(self, tmp_path, capsys, eta):
        out = tmp_path / "out"
        missing = tmp_path / "missing.hdtt"
        code = run_cli(
            "certify-et", "--hv", missing, "--da", missing, "--dims", "10",
            f"--eta-hwp={eta}", "--out", out,
        )
        assert_fails_naming(code, capsys, "--eta-hwp", out)


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
        "dims", ["", "10, 20, 10", "10, a", "30"],
        ids=["empty", "repeated", "non-integer", "unusable"],
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
        message = json.loads(captured.err)["message"]
        assert "[binning] dims" in message and str(path) in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("background_rates = 0, 6e6", "background_rates = nan, 6e6", "background_rates"),
            ("background_rates = 0, 6e6", "background_rates = 0, -1", "background_rates"),
            ("background_rates = 0, 6e6", "background_rates = 0, 1e13",
             "[source] background_rates"),
            ("background_rates = 0, 6e6", "background_rates =", "[source] background_rates"),
            ("background_rates = 0, 6e6", "background_rates = 0, high",
             "[source] background_rates"),
            ("pair_rate = 3e6", "pair_rate = 1e13", "[source] pair_rate"),
            ("state_dim = 80", "state_dim = 16", "[source] state_dim"),
            ("franson_phase = pi", "franson_phase = nan", "franson_phase"),
            ("pair_rate = 3e6", "pair_rate = nan", "pair_rate"),
            ("pair_rate = 3e6", "pair_rate = inf", "pair_rate"),
            ("jitter_fwhm_seconds = 0", "jitter_fwhm_seconds = nan", "jitter_fwhm_seconds"),
            ("p_mix = 1.0", "p_mix = 1.5", "p_mix"),
            ("p_mix = 1.0", "p_mix = nan", "p_mix"),
            ("[source]", "[clock]\ntick_seconds = nan\n\n[source]", "tick_seconds"),
            ("[source]", "[clock]\ntick_seconds = inf\n\n[source]", "tick_seconds"),
            ("n_frames = 4000", "n_frames = 0", "[sweep] n_frames"),
            ("state_dim = 80", "state_dim = 0", "[source] state_dim"),
            ("seed = 3", "seed = 1.5", "[sweep] seed"),
            ("state_dim = 80", "state_dim = 30", "[source] state_dim"),
            # values that ClockConfig and SourceModel reject are named with their section
            ("[source]", "[clock]\ntick_seconds = nan\n\n[source]", "[clock] tick_seconds"),
            ("[source]", "[clock]\nframe_ticks = 0\n\n[source]", "[clock] frame_ticks"),
            # an imbalance of one frame leaves no d with a bin shift below d
            ("[source]", "[clock]\nimbalance_ticks = 320\n\n[source]",
             "[clock] imbalance_ticks=320 must be shorter than frame_ticks=320"),
            ("pair_rate = 3e6", "pair_rate = nan", "[source] pair_rate"),
            ("p_mix = 1.0", "p_mix = 1.5", "[source] p_mix"),
            ("franson_phase = pi", "franson_phase = nan", "[source] franson_phase"),
        ],
    )
    @pytest.mark.parametrize("command", ["sweep-noise", "simulate-tags"])
    def test_bad_values_fail_at_load(self, tmp_path, capsys, command, old, new, named):
        text = SMALL_CONFIG.format(out=tmp_path / "out")
        assert old in text
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(old, new))
        assert run_cli(command, "--config", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["message"]
        assert named in message and str(path) in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key",
        [(section, key) for section, key, _, parse in cli._CONFIG_KEYS if parse is not str],
    )
    @pytest.mark.parametrize("command", ["sweep-noise", "simulate-tags"])
    def test_unparsable_value_names_its_key(self, tmp_path, capsys, command, section, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = abc\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["message"]
        assert f"[{section}] {key} " in message and message.endswith(f" in {path}")
        assert not out.exists()

    def test_direct_config_rejects_a_zero_state_dim(self):
        with pytest.raises(ValueError, match=r"\[source\] state_dim must divide"):
            replace(load_run_config(), state_dim=0)

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

    def test_simulate_writes_the_files_of_whole_streams(self, small_config, tmp_path, capsys):
        """Each tag file, generated and written block by block, and its manifest
        sha256 are those of ``write_tags(generate_stream(...))``."""
        out = tmp_path / "tags"
        assert run_cli("simulate-tags", "--config", small_config, "--out", out) == 0
        cfg = load_run_config(small_config)
        lines = (out / "manifest.csv").read_text().splitlines()[2:]
        assert len(lines) == 4
        for line in lines:
            point, _, basis, name, seed, sha256 = line.split(",")
            model = cfg.point_models[int(point)][basis == "DA"]
            whole = tmp_path / "whole.hdtt"
            digest = tagstream.write_tags(
                tagstream.generate_stream(model, cfg.clock, cfg.n_frames, int(seed)), whole
            )
            blob = (out / name).read_bytes()
            assert blob == whole.read_bytes()
            assert sha256 == digest == hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize("error", [OSError(27, "File too large"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_simulate_failing_mid_write_leaves_no_file(self, small_config, tmp_path, capsys,
                                                       monkeypatch, error):
        """Generation runs inside the write, so a stream that fails after its first
        block must take its ``.tmp`` file with it."""
        real = tagstream.generate_blocks

        def one_block_then_fail(*args):
            stream = real(*args)

            def blocks():
                yield next(iter(stream.blocks))
                raise error

            return tagstream.TagBlocks(stream.clock, blocks())

        monkeypatch.setattr(cli.tagstream, "generate_blocks", one_block_then_fail)
        out = tmp_path / "tags"
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli("simulate-tags", "--config", small_config, "--out", out)
        else:
            assert run_cli("simulate-tags", "--config", small_config, "--out", out) == 1
            assert "File too large" in json.loads(capsys.readouterr().err)["message"]
        assert out.is_dir() and not list(out.iterdir())

    def test_simulate_refuses_a_tick_no_tag_file_can_hold(self, small_config, tmp_path, capsys):
        """A tick under 1 fs would be stored as 0, which no reader accepts."""
        path = tmp_path / "tick.ini"
        path.write_text(small_config.read_text().replace(
            "[source]", "[clock]\ntick_seconds = 3e-16\n\n[source]"))
        out = tmp_path / "tags"
        assert run_cli("simulate-tags", "--config", path, "--out", out) == 1
        assert "tick_seconds = 3e-16 " in json.loads(capsys.readouterr().err)["message"]
        assert out.is_dir() and not list(out.iterdir())

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
            )
            got = reports[str(d)]
            assert got["witness_lower_bound"] == expected.witness_lower_bound
            assert got["certified"] == expected.certified
        on_disk = json.loads((tmp_path / "reports" / "witness_d10.json").read_text())
        assert on_disk == reports["10"]
        summary = (tmp_path / "reports" / "certify_summary.csv").read_text().splitlines()
        assert summary[0] == "# hdent-sweep-csv v1"
        assert summary[1].startswith("d_or_k,")

    @staticmethod
    def sparse_certify(tmp_path, seed, *out):
        """``certify-et`` of point 0 of the default config on 200 frames (HV 10 and DA 4
        counts at each d) at d = 10, 20 and resampling seed ``seed``."""
        config = tmp_path / "sparse.ini"
        config.write_text("[sweep]\nn_frames = 200\n")
        tags = tmp_path / "tags"
        assert run_cli("simulate-tags", "--config", config, "--out", tags) == 0
        return run_cli("certify-et", "--hv", tags / "tags_p000_hv.hdtt",
                       "--da", tags / "tags_p000_da.hdtt", "--dims", "10,20",
                       "--resamples", "20", "--seed", seed, *out)

    def test_certify_names_the_d_of_an_empty_replicate(self, tmp_path, capsys):
        """At seed 3 a replicate at d = 10 draws no DA counts."""
        assert self.sparse_certify(tmp_path, 3) == 1
        assert json.loads(capsys.readouterr().err)["message"] == (
            "d=10: DA count matrices are empty in a Poisson-resampled replicate, "
            "not in the observed counts (HV 10, DA 4)"
        )

    def test_certify_writes_no_report_when_a_later_d_fails(self, tmp_path, capsys):
        """At seed 9, d = 10 certifies and a replicate at d = 20 draws no DA counts."""
        out = tmp_path / "reports"
        assert self.sparse_certify(tmp_path, 9, "--out", out) == 1
        assert json.loads(capsys.readouterr().err)["message"].startswith(
            "d=20: DA count matrices are empty in a Poisson-resampled replicate")
        assert not (out / "witness_d10.json").exists()
        assert not out.exists()

    def test_certify_rejects_bad_dimension(self, small_config, tmp_path, capsys, monkeypatch):
        """A d that the files' clock cannot bin fails, naming --dims, before a
        record of either file is read."""
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        monkeypatch.setattr(cli.tagstream, "_record_blocks", no_records)
        code = run_cli(
            "certify-et",
            "--hv", out / "tags_p000_hv.hdtt",
            "--da", out / "tags_p000_da.hdtt",
            "--dims", "10,30",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["message"]
        assert message.startswith("--dims:") and "d=30" in message

    def test_certify_refuses_one_file_named_twice(self, small_config, tmp_path, capsys,
                                                  monkeypatch):
        """A stream paired with itself can certify, so the pair fails before either is read."""
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        monkeypatch.setattr(cli.tagstream, "read_tags", None)
        hv = out / "tags_p000_hv.hdtt"
        for da in (hv, tmp_path / "tags" / ".." / "tags" / "tags_p000_hv.hdtt"):
            code = run_cli(
                "certify-et", "--hv", hv, "--da", da, "--dims", "10", "--out", tmp_path / "rep"
            )
            assert_fails_naming(code, capsys, "--hv and --da name one file", tmp_path / "rep")

    def test_certify_refuses_a_pair_of_different_frame_spans(self, small_config, tmp_path,
                                                             capsys):
        """An HV file of 4000 frames with a DA file of 8000: the witness would normalise
        the DA coherences by the wrong total.  The error names both flags and both spans,
        and no report is written; the pairs of either run pass."""
        long_config = tmp_path / "long.ini"
        long_config.write_text(small_config.read_text().replace("n_frames = 4000",
                                                                "n_frames = 8000"))
        spans = {}
        for name, config in (("short", small_config), ("long", long_config)):
            assert run_cli("simulate-tags", "--config", config, "--out", tmp_path / name) == 0
            hv, da = (tmp_path / name / f"tags_p000_{b}.hdtt" for b in ("hv", "da"))
            spans[name] = [tagstream.sift_blocks(tagstream.read_blocks(path), [
                tagstream.BinningConfig.for_dimension(tagstream.ClockConfig(), 10)], basis
            )[0].frames_total for path, basis in ((hv, "HV"), (da, "DA"))]
            assert run_cli("certify-et", "--hv", hv, "--da", da, "--dims", "10") == 0
        capsys.readouterr()
        code = run_cli("certify-et", "--hv", tmp_path / "short" / "tags_p000_hv.hdtt",
                       "--da", tmp_path / "long" / "tags_p000_da.hdtt", "--dims", "10,20",
                       "--out", tmp_path / "rep")
        assert_fails_naming(code, capsys, "--hv and --da: HV and DA sets span "
                            f"{spans['short'][0]} and {spans['long'][1]} frames", tmp_path / "rep")

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

    def test_da_header_defect_comes_before_hv_record_defects(self, small_config, tmp_path,
                                                             capsys):
        """Both headers are judged before HV's records are read, so the DA file's
        bad magic is reported, not the HV file's unknown channel."""
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        hv = bytearray((out / "tags_p000_hv.hdtt").read_bytes())
        hv[30 + 16 * 2 + 8] = 7  # an unknown channel
        (out / "bad_hv.hdtt").write_bytes(hv)
        da = bytearray((out / "tags_p000_da.hdtt").read_bytes())
        da[:4] = b"NOPE"
        (out / "bad_da.hdtt").write_bytes(da)
        code = run_cli("certify-et", "--hv", out / "bad_hv.hdtt", "--da", out / "bad_da.hdtt",
                       "--dims", "10")
        assert code == 1
        assert json.loads(capsys.readouterr().err)["message"] == "bad magic (byte offset 0)"

    def test_unlabelled_files_certify_as_labelled_ones(self, small_config, tmp_path, capsys):
        """A time-tagger gives no origin labels (origin 2): ``nf_true`` is then
        unknown, and every other output is that of the labelled pair."""
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        for basis in ("hv", "da"):
            blob = bytearray((out / f"tags_p001_{basis}.hdtt").read_bytes())
            records = np.frombuffer(blob, dtype="<u8", offset=30).reshape(-1, 2)
            records[:, 1] = (records[:, 1] & 0xFF) | 2 << 8
            (out / f"unlabelled_{basis}.hdtt").write_bytes(blob)
        capsys.readouterr()
        reports = {}
        for name in ("tags_p001", "unlabelled"):
            code = run_cli("certify-et", "--hv", out / f"{name}_hv.hdtt",
                           "--da", out / f"{name}_da.hdtt", "--dims", "10,20",
                           "--resamples", "8", "--out", tmp_path / name)
            assert code == 0
            reports[name] = json.loads(capsys.readouterr().out)
        labelled, unlabelled = reports["tags_p001"], reports["unlabelled"]
        assert set(labelled) == set(unlabelled) == {"10", "20"}
        for d in labelled:
            assert labelled[d]["nf_true"] > 0 and unlabelled[d]["nf_true"] is None
            assert {**unlabelled[d], "nf_true": labelled[d]["nf_true"]} == labelled[d]
            assert json.loads((tmp_path / "unlabelled" / f"witness_d{d}.json").read_text()) \
                == unlabelled[d]
        rows = {name: [line.split(",") for line in
                       (tmp_path / name / "certify_summary.csv").read_text().splitlines()[2:]]
                for name in reports}
        column = cli.SWEEP_COLUMNS.index("nf_true")
        for got, want in zip(rows["unlabelled"], rows["tags_p001"], strict=True):
            assert got[column] == "" and want[column] != ""
            assert got[:column] + got[column + 1:] == want[:column] + want[column + 1:]

    def test_rejects_different_clocks(self, small_config, tmp_path, capsys, monkeypatch):
        """A clock mismatch fails before ``--dims`` is checked and before a
        record of either file is read."""
        out = tmp_path / "tags"
        run_cli("simulate-tags", "--config", small_config, "--out", out)
        capsys.readouterr()
        da = tagstream.read_tags(out / "tags_p000_da.hdtt")
        other = out / "tags_p000_da_other_tick.hdtt"
        tagstream.write_tags(replace(da, clock=replace(da.clock, tick_seconds=80e-12)), other)
        monkeypatch.setattr(cli.tagstream, "_record_blocks", no_records)
        code = run_cli(
            "certify-et", "--dims", "10,30", "--hv", out / "tags_p000_hv.hdtt", "--da", other
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
            assert thresholds[str(k)]["scan"]["open_side"] in ("none", "lower", "upper", "both")

    def test_full_mub_set_runs_for_small_primes(self, tmp_path, capsys):
        # at d = 3 and nf = 0, 1 - trace of a correlation matrix rounds below zero
        for d in (2, 3, 5):
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

    @pytest.mark.parametrize("grid, refused", [
        ("0.5:0.500001:3", True), ("0.5:0.500002:3", False), ("0.5:0.500002:4", True),
        ("0:0.000001:3", True), ("0.999999:1:2", False), ("0.999999:1:3", True),
        ("0.25:0.25001:11", False), ("0.25:0.25001:12", True),
    ])
    def test_grid_with_more_points_than_millionths_fails_before_spacing(self, grid, refused,
                                                                        monkeypatch):
        """Such a grid always has two points that round to one millionth; it is refused
        before any point is spaced, so a huge count costs nothing."""
        spaced = []
        linspace = np.linspace
        monkeypatch.setattr(cli.np, "linspace", lambda *args: spaced.append(args) or
                            linspace(*args))
        if refused:
            with pytest.raises(ValueError, match="^--grid has points that round to the same "
                                                 "millionth"):
                cli._parse_grid(grid)
            assert spaced == []
        else:
            points = cli._parse_grid(grid)
            assert len(set(round(nf * 1e6) for nf in points)) == len(points)

    def test_grid_points_sharing_a_seed_fail_before_any_row(self, tmp_path, capsys, monkeypatch):
        """Points that round to one millionth would draw their error bars from one key."""
        monkeypatch.setattr(cli.mub, "correlation_matrix", None)  # every row calls it
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "2", "--grid", "0.5:0.500001:3",
            "--counts", "1e4", "--resamples", "50", "--out", tmp_path / "mub",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["message"]
        assert "--grid" in message and "seed" in message
        assert not (tmp_path / "mub").exists()
        # a library caller's grid is not spaced by ``_parse_grid``; the sweep refuses it too
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            cli.run_mub_sweep(3, (2,), (0.5, 0.7, 0.5000004), 1e4, 5, 0)

    def test_grid_points_a_millionth_apart_get_seeds_of_their_own(self, tmp_path, capsys):
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "2", "--grid", "0.5:0.500002:3",
            "--counts", "1e4", "--resamples", "50", "--out", tmp_path,
        )
        assert code == 0
        sigmas = [line.split(",")[5] for line in
                  (tmp_path / "mub_sweep.csv").read_text().splitlines()[2:]]
        assert len(set(sigmas)) == 3

    def test_grid_points_sharing_an_export_name_fail_before_any_row(self, tmp_path, capsys,
                                                                   monkeypatch):
        """Export file names hold nf to 4 decimals; 0.5 and 0.50005 would share them."""
        argv = ["mub-sweep", "--dim", "3", "--k", "2", "--grid", "0.5:0.5001:3",
                "--counts", "1e4", "--resamples", "5"]
        assert run_cli(*argv, "--out", tmp_path / "plain") == 0  # without files, no clash
        capsys.readouterr()
        monkeypatch.setattr(cli.mub, "correlation_matrix", None)  # every row calls it
        code = run_cli(*argv, "--export-matrices", "--out", tmp_path / "mub")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["message"]
        assert "--grid" in message and "--export-matrices" in message
        assert not (tmp_path / "mub").exists()

    @pytest.mark.parametrize("dim,k_list", [(2, (3, 2)), (3, (4, 2, 3)), (5, (2, 6, 4, 3, 5)),
                                            (11, (2, 7, 12, 3, 4, 5, 6, 8, 9, 10, 11))])
    def test_rows_equal_the_direct_computation(self, dim, k_list, monkeypatch):
        """Every row, resampling mean and exact threshold, with ==, against matrices built
        one basis at a time for that (nf, k).

        Counts of 2**20 per basis scale the means exactly, so a last-bit change in a
        basis's diagonal or off-diagonal sum shows.
        """
        means = []
        resample = cli.analysis.poisson_resample
        monkeypatch.setattr(cli.analysis, "poisson_resample",
                            lambda data, *rest: means.append(data) or resample(data, *rest))
        grid, counts = cli._parse_grid("0:0.95:7"), 2.0 ** 20
        rows, thresholds, _ = cli.run_mub_sweep(dim, k_list, grid, counts, 3, 1)
        mubs, pure = build_mubs(dim), make_max_entangled(dim)
        off_diagonal = ~np.eye(dim, dtype=bool)
        assert [(row["nf_true"], row["d_or_k"]) for row in rows] == [
            (nf, k) for nf in grid for k in k_list]
        assert len(means) == len(rows)
        for row, data in zip(rows, means):
            state = NoisyState(pure, 1.0 - row["nf_true"])
            matrices = matched_matrices(state, mubs, row["d_or_k"])
            report = vis(state, mubs, row["d_or_k"])
            assert row["witness_or_visibility_sum"] == report.visibility_sum
            assert row["margin"] == report.visibility_sum - report.separable_bound
            assert row["certified"] == report.certified
            assert row["nf_estimated"] == noise_fraction_oracle(matrices)
            assert len(data) == len(matrices)
            for part, m in zip(data, matrices):
                assert part.tolist() == (counts * np.array([np.trace(m), m[off_diagonal].sum()])
                                         ).tolist()
        for k in k_list:
            assert thresholds[str(k)]["exact_nf_star"] == 1.0 - threshold(dim, k)

    def test_each_matrix_is_built_once(self, tmp_path, capsys, monkeypatch):
        """One stack of k_max bases per grid point, one at p = 0 and one at p = 1; one MUB set."""
        calls = {"corr": [], "build": 0}
        correlation_matrix, build_mubs = cli.mub.correlation_matrix, cli.mub.build_mubs

        def counting_corr(state, mubs, alpha, beta):
            calls["corr"].append((list(alpha), list(beta)))
            return correlation_matrix(state, mubs, alpha, beta)

        def counting_build(d):
            calls["build"] += 1
            return build_mubs(d)

        monkeypatch.setattr(cli.mub, "correlation_matrix", counting_corr)
        monkeypatch.setattr(cli.mub, "build_mubs", counting_build)
        code = run_cli("mub-sweep", "--dim", "11", "--k", "2,4,8,12", "--grid", "0:0.95:5",
                       "--counts", "1e4", "--resamples", "5", "--out", tmp_path)
        assert code == 0
        assert calls == {"corr": [(list(range(12)), list(range(12)))] * (5 + 2), "build": 1}

    @pytest.mark.parametrize("k", ["", "2,2", "2,x"], ids=["empty", "repeated", "non-integer"])
    def test_empty_or_repeated_k_fails(self, tmp_path, capsys, k):
        code = run_cli("mub-sweep", "--dim", "3", "--k", k, "--out", tmp_path / "mub")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k" in json.loads(captured.err)["message"]
        assert not (tmp_path / "mub").exists()

    def test_matrix_export(self, tmp_path, capsys):
        """One CSV per grid point and basis, rows Alice's outcome m, columns Bob's n."""
        code = run_cli(
            "mub-sweep", "--dim", "3", "--k", "2,4", "--grid", "0:0.5:2",
            "--counts", "1e4", "--resamples", "5", "--out", tmp_path,
            "--export-matrices",
        )
        assert code == 0
        assert len(list(tmp_path.glob("corr_*.csv"))) == 8  # 2 grid points x 4 bases
        mubs = build_mubs(3)
        for nf in (0.0, 0.5):
            state = NoisyState(make_max_entangled(3), 1.0 - nf)
            for alpha in range(4):
                raw = (tmp_path / f"corr_nf{nf:.4f}_b{alpha}.csv").read_bytes()
                assert b"\r" not in raw and raw.endswith(b"\n")
                lines = raw.decode().splitlines()
                assert lines[0] == (f"# hdent-correlation-csv v1 d=3 alpha={alpha} "
                                    f"beta={alpha} nf={nf:.6g}")
                assert lines[1] == "alice_m,bob_0,bob_1,bob_2"
                assert len(lines) == 2 + 3
                expected = correlation_matrix(state, mubs, alpha, alpha)
                for m, line in enumerate(lines[2:]):
                    index, *values = line.split(",")
                    assert index == str(m)
                    assert [float(v) for v in values] == [float(f"{v:.12g}") for v in expected[m]]
        assert not list(tmp_path.glob("*.tmp"))


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((3, 5, 7, 11)),
    k=st.integers(2, 12),
    high=st.integers(1, 1000),
    data=st.data(),
)
@settings(deadline=None, max_examples=60)
def test_visibility_statistic_reads_only_diagonals_and_totals(seed, dim, k, high, data):
    """The MUB resampling parts: per basis, its diagonal sum and off-diagonal sum.

    The batched statistic sees one read cell (the diagonal sum) and the total
    of each basis.  Matrices with the diagonal sum in any one diagonal cell
    and the rest in any one off-diagonal cell give the per-replicate
    statistic of the full matrices, bit for bit.
    """
    rng = np.random.default_rng(seed)
    off_diagonal = np.flatnonzero(~np.eye(dim, dtype=bool))
    observed, collapsed, reps = [], [], []
    for _ in range(k):
        counts = rng.integers(0, high + 1, (dim, dim)).astype(float)
        counts[0, 0] += 1.0
        part = np.array([np.trace(counts), counts.flat[off_diagonal].sum()])
        one = np.zeros_like(counts)
        diagonal_cell = data.draw(st.integers(0, dim - 1))
        one[diagonal_cell, diagonal_cell] = part[0]
        one.flat[off_diagonal[data.draw(st.integers(0, off_diagonal.size - 1))]] = part[1]
        rep = (part[None, :1], part.sum(keepdims=True))
        observed.append(counts)
        collapsed.append(one)
        reps.append(rep)
    want = visibility_excess_oracle(observed, 1.5)
    assert visibility_excess_oracle(collapsed, 1.5) == want
    assert _visibility_excess(tuple(reps), 1.5).tolist() == [want]


def test_two_cell_mub_resampling_matches_the_full_draw_in_law(monkeypatch):
    """``run_mub_sweep``'s visibility excess against every-cell draws of the full matrices.

    d = 5, k = d + 1, 1e3 counts per basis, 2000 replicates per side and
    fixed seeds, at nf = 0, 0.5 and 0.9: a two-sample Kolmogorov-Smirnov
    test at level 1e-6, and ``assert_same_law``.  At nf = 0 the off-diagonal
    mass is below 1e-28, so both sides draw the same value on every
    replicate.
    """
    dim, k, counts, n, grid = 5, 6, 1e3, 2000, (0.0, 0.5, 0.9)
    visibility_excess = cli._visibility_excess
    batches = []

    def recording(reps, bound):
        batches.append((visibility_excess(reps, bound), bound))
        return batches[-1][0]

    monkeypatch.setattr(cli, "_visibility_excess", recording)
    rows, _, per_nf = cli.run_mub_sweep(dim, (k,), grid, counts, n, 7)
    for nf, row, matrices, (two_cell, bound) in zip(grid, rows, per_nf, batches):
        full = []
        loop_poisson_resample(
            tuple(m * counts for m in matrices[:k]),
            lambda mats: full.append(visibility_excess_oracle(mats, bound)) or full[-1], n, 11,
        )
        full = np.array(full)
        assert row["sigma"] == two_cell.std(ddof=1)
        if nf == 0.0:
            assert (two_cell == full[0]).all() and (full == full[0]).all()
            continue
        assert stats.ks_2samp(two_cell, full).pvalue > 1e-6
        assert_same_law(two_cell, full)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((3, 5, 7, 11)),
    k=st.integers(2, 12),
    counts=st.floats(50.0, 1e6),
    n=st.integers(2, 40),
    bound=st.floats(0.0, 13.0),
)
@settings(deadline=None, max_examples=60)
def test_batched_visibility_statistic_equals_the_per_replicate_oracle(
    seed, dim, k, counts, n, bound
):
    """Bit for bit, on every replicate of one MUB-style resampling."""
    rng = np.random.default_rng(seed)
    expected = tuple(rng.dirichlet(np.ones(dim * dim)).reshape(dim, dim) * counts
                     for _ in range(k))
    batches = []

    def statistic(reps):
        batches.append(reps)
        return _visibility_excess(reps, bound)

    mask = np.eye(dim, dtype=bool)
    poisson_resample(expected, statistic, n, seed, (mask,) * k)
    (reps,) = batches
    batched = _visibility_excess(reps, bound)
    assert batched.shape == (n,)
    for r in range(n):
        assert batched[r] == visibility_excess_oracle([put_back(part, mask, r) for part in reps],
                                                      bound)


def test_visibility_statistic_rejects_a_basis_without_counts():
    empty = (np.zeros((2, 3)), np.array([4.0, 0.0]))
    some = (np.ones((2, 3)), np.array([9.0, 9.0]))
    with pytest.raises(ValueError, match="drew no counts; raise --counts"):
        _visibility_excess((some, empty), 1.0)


@pytest.mark.parametrize("command", ["simulate-tags", "certify-et", "sweep-noise", "mub-sweep"])
def test_written_text_files_end_lines_in_lf_and_leave_no_temporaries(
    command, small_config, tmp_path, capsys
):
    tags = tmp_path / "tags"
    if command == "certify-et":
        assert run_cli("simulate-tags", "--config", small_config, "--out", tags) == 0
    argv = {
        "simulate-tags": ["--config", small_config],
        "certify-et": ["--hv", tags / "tags_p000_hv.hdtt", "--da", tags / "tags_p000_da.hdtt",
                       "--dims", "10,20", "--resamples", "8"],
        "sweep-noise": ["--config", small_config],
        "mub-sweep": ["--dim", "3", "--k", "2,4", "--grid", "0:0.5:2", "--counts", "1e4",
                      "--resamples", "5", "--export-matrices"],
    }[command]
    assert run_cli(command, *argv, "--out", tmp_path / "out") == 0
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p.name != "run.ini"]
    text = [p for p in written if p.suffix != ".hdtt"]  # tag files are binary
    assert any(p.suffix == ".csv" for p in text)
    for path in text:
        assert b"\r" not in path.read_bytes(), path
    assert not [p for p in written if p.suffix == ".tmp"]


@pytest.mark.parametrize(
    "command, name",
    [("sweep-noise", "sweep.csv"), ("certify-et", "certify_summary.csv"),
     ("mub-sweep", "mub_sweep.csv")],
)
def test_a_failed_write_leaves_no_temporary(command, name, small_config, tmp_path, capsys):
    """An output path held by a directory fails the command; its ``.tmp`` file goes too."""
    tags = tmp_path / "tags"
    assert run_cli("simulate-tags", "--config", small_config, "--out", tags) == 0
    argv = {
        "certify-et": ["--hv", tags / "tags_p000_hv.hdtt", "--da", tags / "tags_p000_da.hdtt",
                       "--dims", "10", "--resamples", "8"],
        "sweep-noise": ["--config", small_config],
        "mub-sweep": ["--dim", "3", "--k", "2", "--grid", "0:0.5:2", "--counts", "1e4",
                      "--resamples", "5"],
    }[command]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    assert run_cli(command, *argv, "--out", out) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
    assert not list(tmp_path.rglob("*.tmp"))


def test_importing_the_cli_loads_no_process_pool():
    """Only a sweep with more than one worker imports the process pool."""
    code = "import sys, hdent.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(cli.__file__).resolve().parents[1],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "False"


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

    def test_each_stream_is_sifted_at_every_d_in_one_pass(self, small_config, tmp_path,
                                                         monkeypatch, capsys):
        """Two points of two streams each: one ``sift_blocks`` call per stream, at both d."""
        calls = []

        def recording(stream, binnings, basis, real=tagstream.sift_blocks):
            calls.append((basis, [binning.d for binning in binnings]))
            return real(stream, binnings, basis)

        monkeypatch.setattr(tagstream, "sift_blocks", recording)
        monkeypatch.setattr(tagstream, "sift_and_bin", None)
        assert run_cli("sweep-noise", "--config", small_config, "--out", tmp_path / "out") == 0
        assert calls == [("HV", [10, 20]), ("DA", [10, 20])] * 2

    def test_an_empty_replicate_names_its_point_d_and_remedy(self, tmp_path, capsys):
        """The default sweep on 200 frames at seed 18: at point 0, d = 10, whose observed
        counts are HV 3 and DA 6, a resampled replicate draws no HV counts."""
        config = tmp_path / "sparse.ini"
        config.write_text("[sweep]\nn_frames = 200\nresamples = 20\nseed = 18\n")
        out = tmp_path / "out"
        code = run_cli("sweep-noise", "--config", config, "--out", out)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["message"]
        assert message == (
            "sweep point 0 (background rate 0 /s per detector), d=10: HV count matrices are "
            "empty in a Poisson-resampled replicate, not in the observed counts (HV 3, DA 6); "
            "raise [sweep] n_frames"
        )
        assert not out.exists()

    def test_empty_observed_counts_keep_the_witness_message(self, tmp_path, capsys):
        config = tmp_path / "one_frame.ini"
        config.write_text("[sweep]\nn_frames = 1\n")
        out = tmp_path / "out"
        assert run_cli("sweep-noise", "--config", config, "--out", out) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == ("sweep point 0 (background rate 0 /s per detector), "
                           "DA count matrices are empty; raise [sweep] n_frames")
        assert not out.exists()

    def test_pool_gets_no_more_workers_than_points(self, small_config, tmp_path, monkeypatch):
        """A process pool starts all its workers at once, so it is sized by the
        points; one point runs in this process.  The pool here is a stand-in
        that maps in this process, so no worker is started."""
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = load_run_config(small_config)
        serial = cli.run_timebin_sweep(cfg, workers=1)
        assert cli.run_timebin_sweep(cfg, workers=64) == serial
        assert sizes == [2]
        one = replace(cfg, background_rates=cfg.background_rates[1:])
        assert cli.run_timebin_sweep(one, workers=2) == cli.run_timebin_sweep(one, workers=1)
        assert sizes == [2]


class TestKeys:
    """Every Philox key of a run comes from ``cli._key`` and lies in [0, 2**128), the
    keys Philox takes; the generators and the resampler refuse any other key."""

    @staticmethod
    def keys(seed, cfg):
        """{run: (stream, resampling, MUB resampling keys)} of the default sweep,
        ``simulate-tags``, ``certify-et`` at the default dims and ``mub-sweep`` at
        k = 2..12 on the bench's 20-point grid, each in the order the run draws them."""
        points = range(len(cfg.background_rates))
        streams = [cli._key(seed, "stream", p, da) for p in points for da in (False, True)]
        return {
            "sweep-noise": (streams, [cli._key(seed, "resample", p, d)
                                      for p in points for d in cfg.dims], []),
            "simulate-tags": (streams, [], []),
            "certify-et": ([], [cli._key(seed, "resample", d) for d in cfg.dims], []),
            "mub-sweep": ([], [], [cli._key(seed, "mub", round(nf * 1e6), k)
                                   for nf in cli._parse_grid("0:0.95:20")
                                   for k in range(2, 13)]),
        }

    def test_no_key_serves_two_purposes_or_two_draws_of_one_run(self):
        cfg = load_run_config()
        by_purpose = (set(), set(), set())
        for seed in range(101):
            for run, purposes in self.keys(seed, cfg).items():
                drawn = [key for keys in purposes for key in keys]
                assert all(0 <= key < 1 << 128 for key in drawn), (seed, run)
                assert len(set(drawn)) == len(drawn), (seed, run)
                for seen, keys in zip(by_purpose, purposes):
                    seen.update(keys)
        streams, resampling, mub = by_purpose
        assert not streams & resampling and not resampling & mub
        # ``streams & mub`` is not empty: ``mub-sweep``, which reads no stream, draws at
        # seed 0, nf = 0 and k = 2..12 with the stream keys of points 1..6 of seed 0
        # the old schemes' collision: certify-et --seed 0 resampled d = 10 with the key of
        # the point-5 HV stream that simulate-tags --seed 0 writes
        assert cli._key(0, "resample", 10) != cli._key(0, "stream", 5, False)
        # at the largest seed a stream key keeps its top bits 00, a resampling key 10
        top = (1 << 62) - 1
        assert cli._key(top, "stream", 2**31 - 1, True) >> 126 == 0
        assert cli._key(top, "resample", 2**32 - 1, 2**32 - 1) >> 126 == 2

    @pytest.mark.parametrize("key", [-1, 1 << 128], ids=["-1", "2**128"])
    def test_a_key_outside_philox_range_is_refused_at_the_call(self, key):
        """Not wrapped onto the key 2**128 away: ``generate_blocks`` refuses it before
        any block is made, and ``poisson_resample`` before any draw."""
        m = tagstream.SourceModel(make_max_entangled(10), 1e6)
        clock = tagstream.ClockConfig()
        message = re.escape(f"seed must be a Philox key in [0, 2**128), got {key}")
        for generate in (tagstream.generate_stream, tagstream.generate_blocks):
            with pytest.raises(ValueError, match=message):
                generate(m, clock, 10, key)
        with pytest.raises(ValueError, match=message):
            poisson_resample((np.ones(3),), None, 5, key, (np.ones(3, dtype=bool),))

    @pytest.mark.parametrize("seed", [-1, 2**62, 2**95])
    def test_a_seed_outside_the_kept_apart_range_is_refused_before_any_output(
            self, seed, small_config, tmp_path, capsys):
        """At 2**95 a resampling key would equal a stream key of the same run, and
        seeds 2**62 apart would share every resampling key."""
        tags = tmp_path / "tags"
        assert run_cli("simulate-tags", "--config", small_config, "--out", tags) == 0
        config = tmp_path / "seeded.ini"
        config.write_text(small_config.read_text().replace("seed = 3", f"seed = {seed}"))
        pair = ("--hv", tags / "tags_p000_hv.hdtt", "--da", tags / "tags_p000_da.hdtt")
        bound = "at least 0" if seed < 0 else f"below {2**62}"
        flag, key = f"--seed must be {bound}, got {seed}", f"[sweep] seed must be {bound}, got {seed}"
        for argv, message in (
            (("simulate-tags", "--config", small_config, "--seed", seed), flag),
            (("sweep-noise", "--config", small_config, "--seed", seed), flag),
            (("certify-et", *pair, "--dims", "10", "--seed", seed), flag),
            (("mub-sweep", "--dim", "3", "--k", "2", "--seed", seed), flag),
            (("simulate-tags", "--config", config), f"{key} in {config}"),
            (("sweep-noise", "--config", config), f"{key} in {config}"),
        ):
            capsys.readouterr()
            out = tmp_path / "out"
            assert run_cli(*argv, "--out", out) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert json.loads(captured.err)["message"] == message

    def test_each_command_draws_with_the_keys_of_its_indices(self, small_config, tmp_path,
                                                             monkeypatch, capsys):
        """Every stream generator and every resampling gets the key ``_key`` makes of its
        indices: the key is the fourth positional argument of each."""
        drawn = {"stream": [], "resample": []}
        for module, name, purpose in ((cli.tagstream, "generate_stream", "stream"),
                                      (cli.tagstream, "generate_blocks", "stream"),
                                      (cli.analysis, "poisson_resample", "resample")):
            def record(*args, real=getattr(module, name), purpose=purpose):
                drawn[purpose].append(args[3])
                return real(*args)
            monkeypatch.setattr(module, name, record)

        def run(*argv):
            for keys in drawn.values():
                keys.clear()
            assert run_cli(*argv, "--seed", 5) == 0
            return drawn["stream"][:], drawn["resample"][:]

        streams = [cli._key(5, "stream", p, da) for p in (0, 1) for da in (False, True)]
        assert run("sweep-noise", "--config", small_config, "--out", tmp_path / "sweep") == (
            streams, [cli._key(5, "resample", p, d) for p in (0, 1) for d in (10, 20)])
        tags = tmp_path / "tags"
        assert run("simulate-tags", "--config", small_config, "--out", tags) == (streams, [])
        assert run("certify-et", "--hv", tags / "tags_p001_hv.hdtt",
                   "--da", tags / "tags_p001_da.hdtt", "--dims", "20,10") == (
            [], [cli._key(5, "resample", d) for d in (20, 10)])
        assert run("mub-sweep", "--dim", "3", "--k", "4,2", "--grid", "0:0.9:3",
                   "--resamples", "5", "--out", tmp_path / "mub") == (
            [], [cli._key(5, "mub", m, k) for m in (0, 450_000, 900_000) for k in (4, 2)])
        capsys.readouterr()


def test_cli_snapshot_fails_when_a_command_that_must_succeed_fails(tmp_path, monkeypatch,
                                                                   capsys):
    """``tools/cli_snapshot.py`` exits 1 naming a failed command; a failed check only records."""
    script = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    spec = importlib.util.spec_from_file_location("cli_snapshot", script)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    monkeypatch.setattr(snapshot, "CONFIGS", {})
    monkeypatch.setattr(snapshot, "derive", lambda out: None)
    monkeypatch.setattr(snapshot, "DERIVED", [])
    monkeypatch.setattr(snapshot, "CHECKS", [("expected_failure", ["link-budget"])])
    works = ("works", ["link-budget", "--km", "410"])
    monkeypatch.setattr(snapshot, "COMMANDS", [works])
    assert snapshot.main([str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "runs" / "expected_failure.exit").read_text() == "1\n"
    monkeypatch.setattr(snapshot, "COMMANDS", [("breaks", ["link-budget"]), works])
    assert snapshot.main([str(tmp_path / "b")]) == 1
    assert "failed: breaks" in capsys.readouterr().err
