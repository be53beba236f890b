"""Command-line interface: overrides, artifacts, reproducibility."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixnum import cli, ofdm
from mixnum.scenario import ScenarioError


TINY = ["--set", "duration_symbols_base=8", "--set", "max_iterations=5"]


def _run(out_dir, *extra):
    return cli.main(["run", "--out", str(out_dir), *TINY, *extra])


class TestOverrides:
    def test_json_typed_values(self):
        raw = {"papr_target_db": 5.0}
        cli.apply_override(raw, "papr_target_db=7.5")
        assert raw["papr_target_db"] == 7.5
        cli.apply_override(raw, "method=FC_ICEF")
        assert raw["method"] == "FC_ICEF"
        cli.apply_override(raw, "measure.mask_file=null")
        assert raw["measure"]["mask_file"] is None

    def test_list_indexing(self):
        raw = {"bwps": [{"num_prbs": 52}, {"num_prbs": 11}]}
        cli.apply_override(raw, "bwps.1.num_prbs=24")
        assert raw["bwps"][1]["num_prbs"] == 24

    def test_malformed_overrides_are_rejected(self):
        with pytest.raises(ScenarioError):
            cli.apply_override({}, "no_equals_sign")
        with pytest.raises(ScenarioError):
            cli.apply_override({"bwps": []}, "bwps.7.num_prbs=1")

    def test_scenario_file_round_trip(self, tmp_path):
        from mixnum.scenario import default_scenario_dict

        path = tmp_path / "scenario.json"
        d = default_scenario_dict()
        d["papr_target_db"] = 6.5
        path.write_text(json.dumps(d), encoding="utf-8")
        raw = cli.load_raw_scenario(str(path), [])
        assert raw["papr_target_db"] == 6.5


class TestPackaging:
    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency: importing the CLI, and with it
        # every module a run uses, must not pull it in.
        code = ("import sys, mixnum.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestRunCommand:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert _run(out, "--set", "method=FC_ICEF") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "mixnum-report-1"
        assert report["method"] == "FC_ICEF"
        assert len(report["digest"]) == 64
        assert "papr_at_p_db" in report["metrics"]
        assert len(report["metrics"]["mse_db"]) == 2
        ccdf_lines = (out / "ccdf.csv").read_text().splitlines()
        assert ccdf_lines[0].startswith("# schema=mixnum-ccdf-1")
        assert ccdf_lines[1] == "papr_db,probability"
        assert len(ccdf_lines) > 10
        psd_lines = (out / "psd.csv").read_text().splitlines()
        assert psd_lines[0].startswith("# schema=mixnum-psd-1")
        assert psd_lines[1] == "freq_hz,db"

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(a, "--set", "method=E_ICEF_WOLA") == 0
        assert _run(b, "--set", "method=E_ICEF_WOLA") == 0
        for name in ("ccdf.csv", "psd.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_thread_count_leaves_artifacts_byte_identical(self, tmp_path,
                                                          monkeypatch):
        # The three-thread runs also cut the full-length stages into small
        # chunks, so that a short stream still spreads over the pool.
        for method in ("NONE", "FC_F_OFDM", "I_ICEF", "E_ICEF_WOLA", "FC_ICEF"):
            a, b = tmp_path / f"{method}1", tmp_path / f"{method}3"
            assert _run(a, "--set", f"method={method}", "--threads", "1",
                        "--dump-waveform") == 0
            with monkeypatch.context() as m:
                m.setattr(ofdm, "_STAGE_CHUNK_SAMPLES", 1 << 13)
                assert _run(b, "--set", f"method={method}", "--threads", "3",
                            "--dump-waveform") == 0
            for name in ("ccdf.csv", "psd.csv", "report.json", "waveform.c128"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_beyond_64_bits_is_a_scenario_error(self, tmp_path):
        # The payload generator is keyed by 64 bits of seed; a wider seed
        # would draw another seed's payload under its own digest.
        out = tmp_path / "wide-seed"
        assert _run(out, "--set", f"seed={2**64 + 1}") == 2
        assert not out.exists()
        assert _run(out, "--set", f"seed={2**64 - 1}") == 0

    def test_seed_changes_the_digest(self, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        assert _run(a) == 0
        assert _run(b, "--set", "seed=99") == 0
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert rb["scenario"]["seed"] == 99
        assert ra["digest"] != rb["digest"]

    def test_fc_runs_at_a_larger_nominal_transform(self, tmp_path):
        # The filter bank's inverse transform follows the output rate.
        out = tmp_path / "fc4096"
        assert _run(out, "--set", "method=FC_F_OFDM",
                    "--set", "nominal_transform=4096", "--dump-waveform") == 0
        sidecar = json.loads((out / "waveform.c128.json").read_text())
        assert sidecar["sample_rate_hz"] == 245.76e6

    def test_dump_waveform_round_trips(self, tmp_path):
        out = tmp_path / "dump"
        assert _run(out, "--dump-waveform") == 0
        sidecar = json.loads((out / "waveform.c128.json").read_text())
        samples = np.fromfile(out / "waveform.c128", dtype="<c16")
        assert sidecar["sample_rate_hz"] == 122.88e6
        assert samples.size == sidecar["num_samples"] > 0

    def test_unknown_method_fails_cleanly(self, tmp_path):
        rc = _run(tmp_path / "bad", "--set", "method=BOGUS")
        assert rc == 2

    def test_unknown_field_fails_cleanly(self, tmp_path):
        rc = _run(tmp_path / "bad", "--set", "no_such_field=1")
        assert rc == 2

    def test_missing_scenario_file_fails_cleanly(self, tmp_path, capsys):
        # Also a malformed and a non-UTF-8 file: each is named, exits 2
        # and leaves no --out behind.
        (tmp_path / "bad.json").write_text('{"channel_bw_hz": ', encoding="utf-8")
        (tmp_path / "latin1.json").write_bytes(b'{"method": "\xe9"}')
        for name in ("absent.json", "bad.json", "latin1.json"):
            path = tmp_path / name
            rc = cli.main(["run", "--out", str(tmp_path / "x"),
                           "--scenario", str(path)])
            assert rc == 2
            assert f"scenario error: --scenario {path}: " in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("field", ["papr_target_db", "stop_epsilon_db"])
    def test_unrepresentable_db_value_is_a_scenario_error(self, tmp_path,
                                                         capsys, field):
        # 10**(1e308/10) overflows a float; the runners used to die on it
        # with an OverflowError traceback.
        rc = _run(tmp_path / "bad", "--set", "method=I_ICEF",
                  "--set", f"{field}=1e308")
        assert rc == 2
        assert f"scenario error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("sets, path", [
        # At the default 512 base symbols: 561664 blocks of 8192 samples,
        # a 68.6 GiB batch.
        (["method=FC_F_OFDM", "fc.overlap_factor=0.9990234375"], "fc"),
        # 876.8 M oversampled samples per stream.
        (["duration_symbols_base=100000"], "duration_symbols_base"),
        # A 2**42-sample oversampled transform; the 825 G active
        # subcarriers' index array alone would need 6 TiB.
        (["nominal_transform=1099511627776", "channel_bw_hz=1.6e16",
          "bwps.0.num_prbs=68719476736"], "bwps[0]"),
        # Measurement settings that failed after the run or measured
        # nothing: a resolution above the sample rate, ACLR bands that
        # hold no Welch bin, reach past Nyquist or overlap the main band.
        (["measure.psd_rbw_hz=2e9"], "measure.psd_rbw_hz"),
        (["measure.aclr_measurement_bw_hz=1e3"], "measure.aclr_measurement_bw_hz"),
        (["measure.aclr_measurement_bw_hz=1e8"], "measure.aclr_measurement_bw_hz"),
        (["measure.aclr_measurement_bw_hz=3e7"], "measure.aclr_measurement_bw_hz"),
        # A 4096-sample Welch segment fits 8 base symbols; a 100 Hz one
        # would be clipped to the stream, widening its bins.
        (["duration_symbols_base=8", "measure.psd_rbw_hz=100"], "measure.psd_rbw_hz"),
        (["method=BOGUS"], "method"),
        (["channel_bw_hz=40e6"], "channel_bw_hz"),
        # At 512 points, the 120 kHz CP rounds from 4.5 to 4 samples, so
        # its eight symbols run shorter than one 15 kHz symbol.
        (["nominal_transform=512", "channel_bw_hz=5e6",
          "bwps.0.num_prbs=10", "bwps.0.center_offset_hz=-1e6",
          "bwps.1.scs_hz=120e3", "bwps.1.num_prbs=1",
          "bwps.1.center_offset_hz=1.2e6"], "bwps[1]"),
        # Bands of [-187.5, 172.5] and [150, 870] kHz overlap, although no
        # subcarrier centre of one lies on the other's.
        (["bwps.0.num_prbs=2", "bwps.0.center_offset_hz=0",
          "bwps.1.num_prbs=1", "bwps.1.center_offset_hz=540e3"], "bwps[1]"),
    ])
    def test_refused_before_the_run(self, tmp_path, capsys, sets, path):
        rc = cli.main(["run", "--out", str(tmp_path / "big"),
                       *[a for s in sets for a in ("--set", s)]])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.match(rf"scenario error: {re.escape(path)}[ :]", err), err
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("text", [
        "1e7,-30\n1.5e7,nan\n2e7,-40\n",  # a non-finite limit
        "1e7,-30\n",                      # one point
        None,                             # no file
        "1e7,-30\n1.5e7\n2e7,-40\n",      # a row of one field
    ], ids=["non_finite", "one_point", "missing", "one_field"])
    def test_bad_mask_file_is_a_scenario_error(self, tmp_path, capsys, text):
        # Checked before the run, so no --out is left behind.
        mask = tmp_path / "mask.csv"
        if text is not None:
            mask.write_text(text, encoding="utf-8")
        rc = _run(tmp_path / "bad", "--set", f"measure.mask_file={mask}")
        assert rc == 2
        assert "scenario error: measure.mask_file" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_invalid_thread_count_is_a_scenario_error(self, tmp_path, capsys,
                                                      threads):
        rc = _run(tmp_path / "bad", "--threads", threads)
        assert rc == 2
        assert "scenario error: --threads" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


class TestSweepCommand:
    def test_reduced_grid(self, tmp_path):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--out", str(out), *TINY,
                       "--targets", "6", "--methods", "NONE,FC_F_OFDM"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# schema=mixnum-sweep-1"
        header = lines[1].split(",")
        assert header[:3] == ["method", "papr_target_db", "papr_at_p_db"]
        assert len(lines) == 2 + 2  # schema + header + one row per method
        assert lines[2].startswith("NONE,") and lines[3].startswith("FC_F_OFDM,")

    def test_unknown_method_in_grid_is_rejected(self, tmp_path):
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--targets", "6", "--methods", "NOPE"])
        assert rc == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_invalid_thread_count_is_a_scenario_error(self, tmp_path, capsys,
                                                      threads):
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--targets", "6", "--methods", "NONE",
                       "--threads", threads])
        assert rc == 2
        assert "scenario error: --threads" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("targets, methods", [
        ("", "NONE"), ("6", ""), (",", " , ")])
    def test_empty_grid_is_a_scenario_error(self, tmp_path, capsys, targets,
                                            methods):
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--targets", targets, "--methods", methods])
        assert rc == 2
        assert "scenario error: --methods and --targets" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_missing_mask_file_leaves_no_output_directory(self, tmp_path,
                                                         capsys):
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--set", f"measure.mask_file={tmp_path / 'absent.csv'}",
                       "--targets", "6", "--methods", "NONE"])
        assert rc == 2
        assert "scenario error: measure.mask_file" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_non_numeric_target_is_a_scenario_error(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--targets", "abc", "--methods", "NONE"])
        assert rc == 2
        assert "scenario error: --targets" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_invalid_scenario_leaves_no_output_directory(self, tmp_path, capsys):
        # The last (method, target) pair is checked before anything runs.
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--targets", "6,0", "--methods", "NONE,FC_F_OFDM"])
        assert rc == 2
        assert "scenario error: papr_target_db" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--set", "duration_symbols_base=0",
                       "--targets", "6", "--methods", "NONE"])
        assert rc == 2
        assert not (tmp_path / "s").exists()
        rc = cli.main(["sweep", "--out", str(tmp_path / "s"), *TINY,
                       "--set", "duration_symbols_base=100000",
                       "--targets", "6", "--methods", "NONE"])
        assert rc == 2
        assert not (tmp_path / "s").exists()


class TestSelftestCommand:
    def test_battery_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all self-test checks passed" in out
        assert "FAIL" not in out
        # The battery is every selftest.check_* in definition order; this
        # pins the documented list against a dropped or reordered check.
        assert out.splitlines()[:-1] == [f"PASS {name}" for name in (
            "transform_round_trip", "rc_ramp_complementarity",
            "qam_unit_power", "ofdm_back_to_back", "wola_flat_overlap",
            "block_parseval", "fc_all_pass_reconstruction",
            "fc_corrupted_window_detected", "aggregate_noise_confinement",
            "fc_noise_confinement", "repeat_run_determinism")]


class TestCcdfThinning:
    def test_small_curves_are_kept_whole(self):
        assert np.array_equal(cli._ccdf_row_subset(100), np.arange(100))

    def test_large_curves_keep_extremes_and_log_spacing(self):
        n = 1_000_000
        rows = cli._ccdf_row_subset(n)
        assert rows[0] == 0 and rows[-1] == n - 1
        assert rows.size < 3000
        assert (np.diff(rows) > 0).all()
        # Tail must stay dense: every survivor count from 1 to 100 present.
        assert np.isin(np.arange(n - 100, n), rows).sum() >= 90
