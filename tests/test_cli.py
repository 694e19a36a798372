"""Tests for the command-line interface: modes, config merging, exit codes."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from xchannel import cli, receive, simulate
from xchannel.cli import main
from xchannel.schedule import build_csit_table, build_schedule


# The full text output of `schedule` and `csit-table`, phase banners and their
# trailing spaces included, so the table layout cannot change unnoticed.
SCHEDULE_3X3_TEXT = (
    "M=3 N=3 case=M_GE_N_GENERAL k=1 T=6 messages=9\n"
    "        Phase 1   |       Phase 2      \n"
    "Time |  1   2   3 |     4      5      6\n"
    "Tx   | W1  W2  W3 | W1,W2  W1,W3  W2,W3\n"
    "DoF achieved=3/2 closed_form=3/2 equal=True\n"
)

CSIT_TABLE_4X3_TEXT = (
    "M=4 N=3 case=M_GE_N_EVEN_M_ODD_N k=2 T=15\n"
    "           Phase 1      |             Phase 2            \n"
    "Time | 1  2  3  4  5  6 | 7  8  9  10  11  12  13  14  15\n"
    "R1   | N  D  D  N  D  D | P  P  N   P   P   N   P   P   N\n"
    "R2   | D  N  D  D  N  D | P  N  P   P   N   P   P   N   P\n"
    "R3   | D  D  N  D  D  N | N  P  P   N   P   P   N   P   P\n"
)


class TestScheduleMode:
    def test_json_round_trips(self, capsys):
        assert main(["schedule", "--M", "3", "--N", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        phase1, phase2 = payload["schedule"]["phase1"], payload["schedule"]["phase2"]
        members = [[[e["receiver"], e["copy"]]] * 2 for e in phase1]
        members += [[[m["receiver"], m["copy"]] for m in e["pair"]] for e in phase2]
        assert members == build_schedule(3, 3).members.tolist()
        assert payload["dof"] == {
            "M": 3, "N": 3, "case": "M_GE_N_GENERAL", "k": 1, "T": 6,
            "messages": 9, "achieved": "3/2", "closed_form": "3/2", "equal": True,
        }

    def test_text_output(self, capsys):
        assert main(["schedule", "--M", "4", "--N", "3"]) == 0
        text = capsys.readouterr().out
        assert "Phase 1" in text and "Phase 2" in text
        assert "achieved=8/5" in text and "equal=True" in text

    def test_text_is_pinned(self, capsys):
        assert main(["schedule", "--M", "3", "--N", "3"]) == 0
        assert capsys.readouterr().out == SCHEDULE_3X3_TEXT


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
        states = tuple("".join(row) for row in payload["states"])
        assert states == build_csit_table(build_schedule(2, 4)).states

    def test_text_is_pinned(self, capsys):
        assert main(["csit-table", "--M", "4", "--N", "3"]) == 0
        assert capsys.readouterr().out == CSIT_TABLE_4X3_TEXT


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

    @pytest.mark.parametrize("args, digest", [
        (["--M", "4", "--N", "6", "--seeds", "0", "1", "2", "--noise", "on", "--normalize", "on"],
         "9820e9b255a322d8913d4dda980773e65046c2099e91552b057ab2bf5fe320ee"),
        (["--M", "2", "--N", "4", "--seeds", "0", "1", "2", "--noise", "off"],
         "0347273250f838ca39fba4701a457601d25ffa31db70d736ad10834357142fe6"),
        (["--M", "32", "--N", "32", "--seeds", "0", "--noise", "off"],
         "6ee69510580f2bc4b3fe7398d6000a2ca0c4d2e0ecff0090a1baf74df6109db0"),
        (["--M", "4", "--N", "3", "--seeds", "0", "1", "--noise", "off"],
         "ceed7b57c213545d2edee0bce597a8b17610e5c78e41c62ef16ca8854afc713e"),
        (["--M", "3", "--N", "5", "--seeds", "0", "1", "--noise", "on", "--normalize", "on"],
         "9e7135f8d629411382dccbc41b140ac11ecbc2aadf1e887d4aa6e0cb6b8b9bc4"),
    ], ids=["4x6-noisy-normalized", "2x4-noiseless", "32x32-noiseless", "4x3-k2-noiseless",
            "3x5-k2-noisy-normalized"])
    def test_output_bytes_are_pinned(self, args, digest, capsys):
        # sha256 of the whole JSON, so no change to how runs and records are built
        # can alter a byte unnoticed
        assert main(["simulate", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_failed_decode_record(self, monkeypatch, capsys):
        # receiver 1's system zeroed: its decode fails with an infinite condition,
        # printed as null, and so does its relative error
        original = simulate.assemble_system

        def zeroed(log):
            systems = original(log)
            G = systems.G.copy()
            G[..., 1, :, :] = 0
            return dataclasses.replace(systems, G=G)

        monkeypatch.setattr(simulate, "assemble_system", zeroed)
        assert main(["simulate", "--M", "3", "--N", "3", "--seeds", "0"]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        records, errors = run["receivers"], run["relative_errors"]
        assert records[1] == {"condition": None, "rank": 0, "receiver": 1, "success": False}
        assert [r["success"] for r in records] == [True, False, True]
        assert all(type(r["condition"]) is float and r["rank"] == 3 for r in records[::2])
        assert errors[1] is None and all(e < 1e-8 for e in errors[::2])
        assert run["max_relative_error"] == max(errors[::2])
        assert run["all_recovered"] is False and run["csit_violations"] == 0

    def test_ill_conditioned_record_keeps_its_condition(self, monkeypatch, capsys):
        # a limit of 1 fails every system with a finite condition, which is printed
        monkeypatch.setattr(receive, "CONDITION_LIMIT", 1.0)
        assert main(["simulate", "--M", "3", "--N", "3", "--seeds", "0"]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert [r["receiver"] for r in run["receivers"]] == [0, 1, 2]
        for r in run["receivers"]:
            assert r["success"] is False and r["rank"] == 3
            assert type(r["condition"]) is float and r["condition"] > 1.0
        assert run["relative_errors"] == [None] * 3
        assert run["max_relative_error"] is None and run["all_recovered"] is False


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

    @pytest.mark.parametrize("args, digest", [
        (["--M", "3", "--N", "7", "--draws", "10", "--format", "csv"],
         "d98c131b6d697ea815224a1f516426984eec0640bf49abf97bb55bed9669c0f7"),
        (["--M", "8", "--N", "8", "--draws", "20", "--format", "json"],
         "8fdcb56c3aedb21ecc4882ba00ec9929c44fb089479c4fba4edcd0d31a5e5742"),
        (["--M", "4", "--N", "3", "--draws", "30", "--normalize", "off", "--format", "text"],
         "21689068c4ce8cbe75cc8f18d8b839fc92d34586a986d53fe04e11fa6906f740"),
    ], ids=["3x7-csv", "8x8-json", "4x3-unnormalized-text"])
    def test_output_bytes_are_pinned(self, args, digest, capsys):
        # sha256 of all of stdout, rates and slope line, so no change to how draws, systems
        # or rates are built can alter a byte unnoticed
        assert main(["sweep", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# The full text of `verify`, so a refactor of the suite cannot change it unnoticed.
VERIFY_GRID8_SEEDS5 = (
    "PASS csit-table-3x3 (NDDPPN DNDPNP DDNNPP)\n"
    "PASS oracle-3x3-5-seeds (5 seeds)\n"
    "PASS dof-grid-to-8 (7 x 8 configs)\n"
    "PASS csit-state-counts (per-receiver P/D/N counts)\n"
    "PASS csit-audit (all reads within contract)\n"
    "PASS noiseless-decode (exact recovery)\n"
    "PASS variant-count-3x3 (36)\n"
    "PASS permutation-decode (10 permutations)\n"
    "8/8 checks passed\n"
)

VERIFY_GRID2_SEEDS1 = (
    "PASS csit-table-3x3 (NDDPPN DNDPNP DDNNPP)\n"
    "PASS oracle-3x3-1-seeds (1 seeds)\n"
    "PASS dof-grid-to-2 (1 x 2 configs)\n"
    "PASS csit-state-counts (per-receiver P/D/N counts)\n"
    "PASS csit-audit (all reads within contract)\n"
    "PASS noiseless-decode (exact recovery)\n"
    "PASS variant-count-3x3 (36)\n"
    "PASS permutation-decode (10 permutations)\n"
    "8/8 checks passed\n"
)


class TestVerifyMode:
    def test_passes_and_prints_lines(self, capsys):
        assert main(["verify", "--grid", "4", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].endswith("checks passed")
        assert "FAIL" not in out

    @pytest.mark.parametrize("grid, seeds, golden", [(8, 5, VERIFY_GRID8_SEEDS5), (2, 1, VERIFY_GRID2_SEEDS1)])
    def test_output_is_pinned(self, grid, seeds, golden, capsys):
        assert main(["verify", "--grid", str(grid), "--seeds", str(seeds)]) == 0
        assert capsys.readouterr().out == golden


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


class TestSharedSchedules:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--M", "4", "--N", "6", "--seeds", "0", "1", "2", "--noise", "on", "--normalize", "on"],
        ["sweep", "--M", "3", "--N", "3", "--draws", "20", "--format", "json"],
        ["verify", "--grid", "4", "--seeds", "2"],
    ], ids=["simulate", "sweep", "verify"])
    def test_second_run_in_process_is_byte_identical(self, argv, capsys):
        # the first run builds every schedule it needs, the second reuses them
        build_schedule.cache_clear()
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[1] == outputs[0]


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

    def test_empty_snr_list_in_config(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 2, "N": 2, "snr": []}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: need at least 3 rate points, got 0\n"

    def test_snr_span_below_20_db(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 8, "N": 8, "snr": [40, 45, 50]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: rate points must span at least 20 dB\n"

    @pytest.mark.parametrize("snr", ["4000", "-4000", "300.5"])
    def test_snr_beyond_300_db(self, snr, tmp_path, capsys, no_work):
        # 10^400 overflows to inf and NaN, which is no JSON; -4000 dB rates are all zero
        out = tmp_path / "rates.json"
        argv = ["sweep", "--M", "2", "--N", "2", "--snr", snr, "--snr", "0", "--snr", "10",
                "--format", "json", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: SNRs must lie between -300 and 300 dB, got {float(snr)!r}\n"
        assert not out.exists()

    def test_unknown_config_keys(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "N": 3, "drawz": 5, "snrs": [10]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys for sweep: drawz, snrs\n"

    @pytest.mark.parametrize(
        "mode, fmt, choices",
        [("schedule", "xml", "json, text"), ("simulate", "csv", "json")],
    )
    def test_config_format_outside_mode_choices(self, mode, fmt, choices, tmp_path, capsys,
                                                no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "N": 3, "format": fmt}))
        assert main([mode, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: --format must be one of {choices}, got {fmt!r}\n"
        )

    def test_out_in_config_must_be_a_path(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "N": 3, "out": 5}))
        assert main(["schedule", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: --out must be a file path, got 5\n"

    def test_out_in_missing_directory(self, tmp_path, capsys, no_work):
        target = tmp_path / "missing" / "x"
        assert main(["schedule", "--M", "3", "--N", "3", "--out", str(target)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out directory {str(target.parent)!r} does not exist\n"
        )
        assert not target.parent.exists()

    def test_out_is_an_existing_directory(self, tmp_path, capsys, no_work):
        assert main(["sweep", "--M", "2", "--N", "2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out must be a file path, got the directory {str(tmp_path)!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_out_in_config_is_honoured(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "N": 3, "format": "json", "out": str(target)}))
        assert main(["schedule", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["dof"]["equal"] is True


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "xchannel.cli", "schedule", "--M", "2", "--N", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "Phase 2" in proc.stdout
