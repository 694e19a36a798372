"""Tests for the command-line interface: modes, config merging, exit codes."""

import json
import subprocess
import sys

import pytest

from xchannel import cli
from xchannel.cli import main
from xchannel.schedule import CsitTable, Schedule, build_csit_table, build_schedule


class TestScheduleMode:
    def test_json_round_trips(self, capsys):
        assert main(["schedule", "--M", "3", "--N", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert Schedule.from_dict(payload["schedule"]) == build_schedule(3, 3)
        assert payload["dof"] == {
            "M": 3, "N": 3, "case": "M_GE_N_GENERAL", "k": 1, "T": 6,
            "messages": 9, "achieved": "3/2", "closed_form": "3/2", "equal": True,
        }

    def test_text_output(self, capsys):
        assert main(["schedule", "--M", "4", "--N", "3"]) == 0
        text = capsys.readouterr().out
        assert "Phase 1" in text and "Phase 2" in text
        assert "achieved=8/5" in text and "equal=True" in text


class TestCsitTableMode:
    def test_text_golden(self, capsys):
        assert main(["csit-table", "--M", "3", "--N", "3"]) == 0
        text = capsys.readouterr().out
        rows = [ln for ln in text.splitlines() if ln.lstrip().startswith("R")]
        assert ["".join(c for c in ln if c in "PDN") for ln in rows] == [
            "NDDPPN", "DNDPNP", "DDNNPP",
        ]

    def test_json_round_trips(self, capsys):
        assert main(["csit-table", "--M", "2", "--N", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert CsitTable.from_dict(payload) == build_csit_table(build_schedule(2, 4))


class TestSimulateMode:
    def test_multiple_seeds(self, capsys):
        assert main(["simulate", "--M", "2", "--N", "4", "--seeds", "0", "1", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["seed"] for r in payload["runs"]] == [0, 1, 2]
        assert all(r["all_recovered"] for r in payload["runs"])
        assert all(r["csit_violations"] == 0 for r in payload["runs"])
        assert all(r["max_relative_error"] < 1e-8 for r in payload["runs"])

    def test_noise_flag(self, capsys):
        assert main(["simulate", "--M", "2", "--N", "2", "--noise", "on",
                     "--normalize", "on"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["noise"] is True and payload["normalize"] is True


class TestSweepMode:
    ARGS = ["sweep", "--M", "2", "--N", "2", "--snr", "40", "--snr", "60",
            "--snr", "80", "--draws", "10", "--seed", "1"]

    def test_csv_deterministic_bytes(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(f1)]) == 0
        assert main(self.ARGS + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        header = f1.read_text().splitlines()[0]
        assert header == "snr_db,sum_rate,rate_r1,rate_r2"
        # slope summary goes to stdout, not into the data file
        assert "slope=" in capsys.readouterr().out
        assert "slope=" not in f1.read_text()

    def test_json_slope_near_target(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        slope = payload["slope"]
        assert slope["target"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert slope["fitted"] == pytest.approx(slope["target"], rel=0.05)
        assert len(payload["points"]) == 3


class TestVerifyMode:
    def test_passes_and_prints_lines(self, capsys):
        assert main(["verify", "--grid", "4", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].endswith("checks passed")
        assert "FAIL" not in out


class TestConfigHandling:
    def test_config_file_supplies_dims(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "N": 3}))
        assert main(["csit-table", "--config", str(cfg)]) == 0
        assert "M=3 N=3" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "N": 3}))
        assert main(["schedule", "--config", str(cfg), "--M", "2", "--N", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedule"]["M"] == 2

    def test_missing_config_file(self, capsys):
        assert main(["schedule", "--config", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["schedule", "--config", str(cfg)]) == 2

    def test_non_object_config(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["schedule", "--config", str(cfg)]) == 2


class TestErrorPaths:
    def test_missing_dims(self, capsys):
        assert main(["schedule", "--M", "3"]) == 2
        assert "--N is required" in capsys.readouterr().err

    def test_single_receiver_unsupported(self, capsys):
        assert main(["schedule", "--M", "3", "--N", "1"]) == 2

    def test_bad_flag_value_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--M", "2", "--N", "2", "--noise", "sometimes"])
        assert exc.value.code == 2

    def test_unknown_mode_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_draws(self, capsys):
        assert main(["sweep", "--M", "2", "--N", "2", "--draws", "0"]) == 2

    def test_no_file_left_on_error(self, tmp_path):
        target = tmp_path / "out.json"
        assert main(["schedule", "--M", "3", "--out", str(target)]) == 2
        assert not target.exists()

    def test_out_file_written_on_success(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["schedule", "--M", "3", "--N", "3", "--format", "json",
                     "--out", str(target)]) == 0
        assert json.loads(target.read_text())["dof"]["equal"] is True
        assert capsys.readouterr().out == ""


class TestInputValidation:
    """Bad input exits 2 with xchannel's own message before any numeric work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("numeric work started on invalid input")

        for name in ("run_simulation", "sweep_rates", "build_schedule"):
            monkeypatch.setattr(cli, name, fail)

    def test_bool_rejected_where_int_expected(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": True, "N": 3}))
        assert main(["schedule", "--config", str(cfg)]) == 2
        assert "--M must be a positive integer, got True" in capsys.readouterr().err

    def test_non_numeric_snr_in_config(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 2, "N": 2, "snr": ["x", 40, 80]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "--snr must be a list of finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_snr_flag(self, value, capsys, no_work):
        assert main(["sweep", "--M", "2", "--N", "2", "--snr", "40", "--snr", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --snr must be a list of finite numbers")
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["simulate", "--M", "2", "--N", "2", "--seeds", "0", "-1"], "--seeds"),
            (["sweep", "--M", "2", "--N", "2", "--seed", "-5"], "--seed"),
        ],
    )
    def test_negative_seed(self, argv, field, capsys, no_work):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be")
        assert "non-negative integer" in err and "expected" not in err

    def test_too_few_snrs(self, capsys, no_work):
        assert main(["sweep", "--M", "8", "--N", "8", "--snr", "40", "--snr", "50"]) == 2
        assert capsys.readouterr().err == "error: need at least 3 rate points, got 2\n"

    def test_snr_span_below_20_db(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 8, "N": 8, "snr": [40, 45, 50]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: rate points must span at least 20 dB\n"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "xchannel.cli", "schedule", "--M", "2", "--N", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "Phase 2" in proc.stdout
