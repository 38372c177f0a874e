"""CLI: commands, formats, manifests, config files, exit codes."""

import argparse
import dataclasses
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import norsim
from norsim import cli
from norsim.cli import build_parser, format_sig1, main
from norsim.codec import read_byte

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def exit_code(capsys, *argv):
    """(exit status, stderr) of a run, argparse rejections included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def fresh_python(*args) -> str:
    """Standard output of a new interpreter with this checkout's norsim."""
    src = Path(norsim.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout


def rerun_argv(manifest):
    """Command line that re-runs a report from its manifest's parameters."""
    argv = [manifest["command"]]
    for k, v in manifest["params"].items():
        if isinstance(v, bool):
            argv.append(f"--{k}" if v else f"--no-{k}")
        else:
            argv.extend([f"--{k}", str(v)])
    return argv


class TestFormatSig1:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (5e-6, "5.E-06"),
            (7.1019e-8, "7.E-08"),
            (1.345e-2, "1.E-02"),
            (9.6e-4, "1.E-03"),
            (0.0, "0.E+00"),
            (3.5039e-10, "4.E-10"),
        ],
    )
    def test_values(self, value, expected):
        assert format_sig1(value) == expected


class TestTable1Command:
    def test_first_row_display(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        assert "1.E-02 1.E-03 5.E-06 7.E-08 1.E-02" in out

    def test_json_shape(self, capsys):
        doc = run_json(capsys, "table1")
        rows = doc["results"]["rows"]
        assert len(rows) == 12
        for row in rows:
            assert set(row) == {"exp_margin", "tail", "e0", "e2", "ratio"}
            assert all(isinstance(v, float) for v in row.values())

    def test_csv_and_json_agree(self, capsys, tmp_path):
        doc = run_json(capsys, "table1")
        csv_path = tmp_path / "t1.csv"
        code, _, _ = run_cli(capsys, "table1", "--format", "csv", "--out", str(csv_path))
        assert code == 0
        lines = [
            l for l in csv_path.read_text().splitlines() if l and not l.startswith("#")
        ]
        header = lines[0].split(",")
        for row, line in zip(doc["results"]["rows"], lines[1:]):
            vals = dict(zip(header, line.split(",")))
            for k, v in vals.items():
                assert float(v) == pytest.approx(row[k], rel=1e-15)

    def test_manifest_embedded(self, capsys, tmp_path):
        path = tmp_path / "t1.json"
        code, _, _ = run_cli(capsys, "table1", "--format", "json", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        m = doc["manifest"]
        assert m["command"] == "table1" and m["version"] and m["created_utc"]
        assert m["numpy"] == np.__version__
        # the version tells the random streams of fixed-seed outputs apart
        assert m["version"] == norsim.__version__
        _, out, _ = run_cli(capsys, "table1")
        assert f" numpy={np.__version__} " in out.splitlines()[0]


class TestAnalyticCommand:
    def test_purely_exponential_headline_point(self, capsys):
        ad0 = math.log(1e10)
        doc = run_json(capsys, "analytic", "--a-delta0", str(ad0), "--aw", "0",
                       "--tail", "1")
        res = doc["results"]
        assert res["baseline"]["e0"] == pytest.approx(0.5e-10, rel=1e-3)
        assert 1e-15 <= res["protected"]["e2_total"] <= 2e-14

    def test_zero_tail_all_zero(self, capsys):
        doc = run_json(capsys, "analytic", "--a-delta0", "6", "--tail", "0")
        res = doc["results"]
        assert res["baseline"]["p0"] == 0.0
        assert res["protected"]["e2_total"] == 0.0
        assert res["approximations"]["applicable_regime"] == "noiseless"

    def test_matches_table1_grid_point_at_display_precision(self, capsys):
        ad0 = -math.log(1e-2)
        doc = run_json(capsys, "analytic", "--a-delta0", str(ad0), "--aw", str(ad0),
                       "--tail", "1e-3")
        t1 = run_json(capsys, "table1")["results"]["rows"][0]
        res = doc["results"]
        assert format_sig1(res["baseline"]["e0"]) == format_sig1(t1["e0"])
        assert format_sig1(res["protected"]["e2_total"]) == format_sig1(t1["e2"])

    def test_exp_margin_alias(self, capsys):
        a = run_json(capsys, "analytic", "--exp-margin", "1e-2")
        b = run_json(capsys, "analytic", "--a-delta0", str(-math.log(1e-2)))
        assert a["results"]["baseline"]["e0"] == pytest.approx(
            b["results"]["baseline"]["e0"], rel=1e-12
        )

    def test_missing_point_is_param_error(self, capsys):
        code, _, err = run_cli(capsys, "analytic")
        assert code == 2 and "exp-margin" in err

    def test_both_point_flags_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "--a-delta0", "6", "--exp-margin", "1e-2"])
        assert exc.value.code == 2

    def test_bad_domain_is_param_error(self, capsys):
        code, _, _ = run_cli(capsys, "analytic", "--a-delta0", "6", "--tail", "2")
        assert code == 2
        code, _, _ = run_cli(capsys, "analytic", "--exp-margin", "1.5")
        assert code == 2


class TestSimulateCommand:
    ARGS = ("simulate", "--a-delta0", "3", "--aw", "0.5", "--tail", "0.3",
            "--trials", "2e4", "--seed", "42")

    def test_runs_and_reports(self, capsys):
        doc = run_json(capsys, *self.ARGS)
        est = doc["results"]["estimate"]
        assert est["trials"] == 20_000
        assert doc["manifest"]["params"]["trials"] == 20_000
        assert isinstance(doc["manifest"]["params"]["trials"], int)
        assert est["word_error_events"] > 0
        assert doc["results"]["analytic"]["e2_total"] > 0
        assert "type_ii" in doc["results"]["empirical_over_analytic"]

    def test_repeat_run_identical_results(self, capsys):
        # two runs differ only in when they were made
        a, b = (run_json(capsys, *self.ARGS) for _ in range(2))
        for doc in (a, b):
            del doc["manifest"]["created_utc"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_unprotected_mode(self, capsys):
        doc = run_json(capsys, *self.ARGS, "--no-protected")
        assert "e0" in doc["results"]["analytic"]
        assert doc["results"]["estimate"]["word_error_events"] > 0

    def test_stratified_mode(self, capsys):
        doc = run_json(capsys, "simulate", "--a-delta0", "4", "--aw", "1",
                       "--tail", "0.05", "--stratified", "--subtrials", "5e3",
                       "--seed", "1")
        est = doc["results"]["estimate"]
        assert est["weighted"] and len(est["strata"]) == 5

    def test_stratified_csv_rows_match_header(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--a-delta0", "4", "--aw", "1",
                               "--tail", "0.05", "--stratified", "--subtrials", "2e3",
                               "--seed", "1", "--format", "csv")
        assert code == 0
        header, row = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
        assert len(header) == len(row)
        assert "estimate.strata.1.events" in header

    @pytest.mark.parametrize("flags", [
        ("--stratified", "--subtrials", "0", "--trials", "400"),
        ("--trials", "0"),
        ("--trials", "2.5"),
        ("--trials", "nan"),
        ("--shards", "0"),
    ])
    def test_count_flags_take_whole_numbers(self, capsys, flags):
        code, err = exit_code(capsys, "simulate", "--a-delta0", "3", *flags)
        assert code == 2 and "whole number >= 1" in err

    @pytest.mark.parametrize("flag", ["--trials", "--subtrials", "--shards"])
    @pytest.mark.parametrize("value", ["1e19", str(2**63)])
    def test_counts_must_fit_int64(self, capsys, tmp_path, flag, value):
        # a stratified run echoes --trials = 4 * --subtrials, which must fit too
        top = (2**63 - 1) // 4 if flag == "--subtrials" else 2**63 - 1
        for text in (value, str(top + 1)):
            code, err = exit_code(capsys, "simulate", "--a-delta0", "9", flag, text)
            assert code == 2 and flag in err and f"<= {top}," in err
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"a-delta0 = 9\n{flag[2:]} = {text}\n")
            code, err = exit_code(capsys, "simulate", "--config", str(cfg))
            assert code == 2 and f"{flag[2:]} must be a whole number" in err
            assert f"<= {top}," in err and "Traceback" not in err

    def test_largest_count_runs(self, capsys):
        # at a*margin > 36 no lattice point reaches, so no word is drawn;
        # at tail 0.5 all four tail strata are simulated
        for flags, trials in (
            (("--trials", str(2**63 - 1)), 2**63 - 1),
            (("--stratified", "--tail", "0.5", "--subtrials", str((2**63 - 1) // 4)), 2**63 - 4),
        ):
            doc = run_json(capsys, "simulate", "--a-delta0", "200", *flags)
            est = doc["results"]["estimate"]
            assert doc["results"]["config"]["trials"] == trials
            assert est["trials"] == trials and est["word_error_events"] == 0

    def test_negative_seed_names_the_flag(self, capsys, tmp_path):
        code, err = exit_code(capsys, "simulate", "--a-delta0", "3", "--seed", "-1")
        assert code == 2 and "--seed" in err and "whole number >= 0" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a-delta0 = 3\nseed = -1\n")
        code, err = exit_code(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and "seed must be a whole number >= 0" in err

    @pytest.mark.parametrize("flags,named", [
        (("--shards", "3", "--subtrials", "10"), "--shards"),
        (("--shards", "2"), "--shards"),
        (("--trials", "5", "--subtrials", "10"), "--trials"),
    ])
    def test_stratified_rejects_flags_it_does_not_use(self, capsys, flags, named):
        code, err = exit_code(capsys, "simulate", "--a-delta0", "3", "--tail", "0.1",
                              "--stratified", *flags)
        assert code == 2 and named in err

    def test_plain_run_rejects_subtrials(self, capsys, tmp_path):
        code, err = exit_code(capsys, "simulate", "--a-delta0", "3", "--trials", "1000",
                              "--subtrials", "7")
        assert code == 2 and "--subtrials" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a-delta0 = 3\ntrials = 1000\nsubtrials = 7\n")
        code, err = exit_code(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and "--subtrials" in err

    @pytest.mark.parametrize("ad0,aw,named", [
        ("1", "4", "5-level margin"),
        ("-1", "0", "delta0 must be > 0"),
    ])
    def test_bad_point_message_matches_analytic(self, capsys, ad0, aw, named):
        point = ("--a-delta0", ad0, "--aw", aw)
        sim_code, sim_err = exit_code(capsys, "simulate", *point)
        an_code, an_err = exit_code(capsys, "analytic", *point)
        assert sim_code == an_code == 2
        assert sim_err == an_err and named in sim_err

    def test_shards_take_count_notation(self, capsys):
        doc = run_json(capsys, "simulate", "--a-delta0", "3", "--trials", "1000",
                       "--shards", "2e0")
        assert doc["manifest"]["params"]["shards"] == 2
        assert doc["results"]["config"]["shards"] == 2

    def test_stratified_zero_tail_is_param_error(self, capsys):
        code, err = exit_code(capsys, "simulate", "--a-delta0", "3", "--tail", "0",
                              "--stratified", "--subtrials", "100")
        assert code == 2 and "tail" in err and "Traceback" not in err

    def test_stratified_unprotected_is_param_error(self, capsys):
        code, err = exit_code(capsys, "simulate", "--a-delta0", "3", "--tail", "0.1",
                              "--stratified", "--subtrials", "100", "--no-protected")
        assert code == 2
        assert err == "norsim: error: stratified runs support the protected mode only\n"

    def test_stratified_config_rejects_shards(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a-delta0 = 3\ntail = 0.1\nstratified = true\nshards = 3\n")
        code, err = exit_code(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and "--shards" in err

    def test_stratified_trials_alone_sets_the_stratum_size(self, capsys):
        doc = run_json(capsys, "simulate", "--a-delta0", "3", "--tail", "0.1",
                       "--stratified", "--trials", "400")
        strata = doc["results"]["estimate"]["strata"]
        assert [s["trials"] for s in strata if s["simulated"]] == [100] * 4

    def test_stratified_subtrials_echo_their_trials(self, capsys):
        # 4 * --subtrials is the --trials value of the same run
        point = ("simulate", "--a-delta0", "3", "--tail", "0.1", "--stratified",
                 "--seed", "5")
        by_subtrials = run_json(capsys, *point, "--subtrials", "100")["results"]
        by_trials = run_json(capsys, *point, "--trials", "400")["results"]
        assert by_subtrials["config"]["trials"] == 400
        assert by_subtrials["estimate"] == by_trials["estimate"]

    def test_config_count_is_checked(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a-delta0 = 3\nstratified = true\nsubtrials = 0\n")
        code, err = exit_code(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and "subtrials must be a whole number" in err

    def test_statistical_outcome_never_changes_exit_code(self, capsys):
        # zero-error run still exits 0
        code, out, _ = run_cli(capsys, "simulate", "--a-delta0", "9", "--tail", "0",
                               "--trials", "1e3", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["estimate"]["word_error_events"] == 0

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "a-delta0 = 3\naw = 0.5\ntail = 0.3\ntrials = 2e4\nseed = 42\n"
            "# comment line\nprotected = true\n"
        )
        a = run_json(capsys, "simulate", "--config", str(cfg))
        b = run_json(capsys, *self.ARGS)
        assert a["results"]["estimate"] == b["results"]["estimate"]
        c = run_json(capsys, "simulate", "--config", str(cfg), "--seed", "7")
        assert c["results"]["estimate"] != a["results"]["estimate"]

    def test_rerun_from_manifest_params(self, capsys):
        doc = run_json(capsys, *self.ARGS)
        redo = run_json(capsys, *rerun_argv(doc["manifest"]))
        assert json.dumps(redo["results"], sort_keys=True) == json.dumps(
            doc["results"], sort_keys=True
        )

    def test_config_run_reruns_from_manifest_params(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "a-delta0 = 3\naw = 0.5\ntail = 0.3\ntrials = 2e4\nseed = 42\n"
            "protected = false\nstratified = false\ndata-mode = interior\n"
        )
        doc = run_json(capsys, "simulate", "--config", str(cfg), "--seed", "7")
        params = doc["manifest"]["params"]
        assert params["seed"] == 7  # the flag wins over the file
        assert params["a-delta0"] == 3.0 and params["protected"] is False
        assert "stratified" not in params
        redo = run_json(capsys, *rerun_argv(doc["manifest"]))
        assert json.dumps(redo["results"], sort_keys=True) == json.dumps(
            doc["results"], sort_keys=True
        )

    def test_config_sets_output_path_and_format(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a-delta0 = 3\ntrials = 100\nformat = json\nout = {report}\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0 and out == ""
        doc = json.loads(report.read_text())
        assert doc["manifest"]["out"] == str(report)
        assert doc["results"]["estimate"]["trials"] == 100

    @pytest.mark.parametrize("line,named", [
        ("stratified", "'stratified'"),
        ("stratified = maybe", "stratified must be a boolean, got 'maybe'"),
        ("data-mode = edge", "data-mode must be one of ('uniform', 'interior')"),
    ])
    def test_bad_config_line_names_file_and_key(self, capsys, tmp_path, line, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a-delta0 = 3\n{line}\n")
        code, err = exit_code(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and str(cfg) in err and named in err

    def test_unknown_config_key_is_param_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a-delta0 = 3\ntials = 5\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and "'tials'" in err

    def test_non_finite_point_is_param_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--a-delta0", "3", "--aw", "nan")
        assert code == 2 and "width must be finite" in err
        code, _, err = run_cli(capsys, "simulate", "--a-delta0", "inf")
        assert code == 2 and "delta0 must be finite" in err

    def test_stratified_zero_width(self, capsys):
        # at width 0 interior cells read exactly at their level voltage
        doc = run_json(capsys, "simulate", "--a-delta0", "2", "--aw", "0",
                       "--tail", "0.1", "--stratified", "--subtrials", "2e3")
        assert doc["results"]["estimate"]["word_error_events"] > 0

    def test_seed_resolved_exactly(self, capsys):
        seed = 2**60 + 1  # not representable as a float
        doc = run_json(capsys, "simulate", "--a-delta0", "6", "--trials", "10",
                       "--seed", str(seed))
        assert doc["results"]["config"]["seed"] == seed
        assert doc["manifest"]["params"]["seed"] == seed

    def test_unwritable_output_is_error(self, capsys, monkeypatch, tmp_path):
        # refused before any trial runs, with open()'s message, creating nothing
        def no_run(config):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli, "run_trials", no_run)
        (tmp_path / "a-file").write_text("keep")
        for target in ("no-such-dir/report.json", "a-file/report.json", "."):
            path = tmp_path / target
            code, _, err = run_cli(capsys, "simulate", "--a-delta0", "6", "--trials", "1e12",
                                   "--out", str(path))
            with pytest.raises(OSError) as opened:
                open(path, "w")
            assert code == 2 and err == f"norsim: error: {opened.value}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]
            assert (tmp_path / "a-file").read_text() == "keep"

    def test_failed_run_leaves_existing_output(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        report.write_text("keep")
        code, _, err = run_cli(capsys, *self.ARGS, "--stratified", "--no-protected",
                               "--out", str(report))
        assert code == 2 and "protected" in err
        assert report.read_text() == "keep"


class TestSweepCommand:
    def test_analytic_slope(self, capsys):
        doc = run_json(capsys, "sweep", "--grid", "5,6,7,8", "--tail", "1",
                       "--aw", "0")
        rows = doc["results"]["rows"]
        assert [r["a_delta0"] for r in rows] == [5.0, 6.0, 7.0, 8.0]
        assert doc["results"]["slopes"]["analytic"] == pytest.approx(1.3788, abs=5e-4)

    def test_single_point_slope_absent(self, capsys):
        doc = run_json(capsys, "sweep", "--grid", "6")
        assert doc["results"]["slopes"]["analytic"] is None

    def test_repeated_point_slope_absent(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no polyfit RankWarning either
            doc = run_json(capsys, "sweep", "--grid", "5,5")
        assert doc["results"]["slopes"]["analytic"] is None

    @pytest.mark.parametrize("flags", [(), ("--mode", "both", "--trials", "1000")])
    def test_underflowing_rate_gives_null_slope(self, capsys, flags):
        # at a*delta0 = 800 the closed forms underflow to 0 and no word errs
        doc = run_json(capsys, "sweep", "--grid", "5,800", "--tail", "1", *flags)
        rows, slopes = doc["results"]["rows"], doc["results"]["slopes"]
        assert rows[1]["e0"] == rows[1]["e2_analytic"] == 0.0
        assert slopes["analytic"] is None
        if flags:
            assert rows[1]["e2_simulated"] == 0.0 and slopes["simulated"] is None

    def test_simulated_sweep(self, capsys):
        doc = run_json(capsys, "sweep", "--grid", "3,4", "--mode", "both",
                       "--trials", "5e4", "--seed", "3", "--data-mode", "interior")
        rows = doc["results"]["rows"]
        assert all("e2_simulated" in r for r in rows)
        slopes = doc["results"]["slopes"]
        assert slopes["analytic"] is not None and slopes["simulated"] is not None

    def test_stratified_simulated_sweep(self, capsys):
        doc = run_json(capsys, "sweep", "--grid", "3,4", "--mode", "simulate",
                       "--aw", "1", "--tail", "0.05", "--stratified",
                       "--subtrials", "2e3", "--seed", "3")
        rows = doc["results"]["rows"]
        assert all(r["e2_simulated"] > 0 and r["ci95_lo"] <= r["ci95_hi"] for r in rows)

    def test_plain_sweep_rejects_subtrials(self, capsys):
        code, err = exit_code(capsys, "sweep", "--grid", "3,4", "--mode", "simulate",
                              "--trials", "1000", "--subtrials", "7")
        assert code == 2 and "--subtrials" in err

    @pytest.mark.parametrize("flags,named", [
        (("--trials", "7", "--subtrials", "3", "--stratified", "--shards", "2"), "--trials"),
        (("--no-protected",), "--protected"),
        (("--mode", "analytic", "--seed", "1"), "--seed"),
        (("--data-mode", "interior"), "--data-mode"),
    ])
    def test_analytic_sweep_rejects_simulation_flags(self, capsys, flags, named):
        code, err = exit_code(capsys, "sweep", "--grid", "4,5", *flags)
        assert code == 2 and named in err

    def test_analytic_sweep_config_rejects_simulation_flags(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("grid = 4,5\nstratified = true\n")
        code, err = exit_code(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "--stratified" in err

    def test_stratified_zero_tail_is_param_error(self, capsys):
        code, err = exit_code(capsys, "sweep", "--grid", "3,4", "--mode", "simulate",
                              "--stratified", "--tail", "0")
        assert code == 2 and "tail" in err

    def test_empty_grid_is_error(self, capsys):
        code, _, _ = run_cli(capsys, "sweep")
        assert code == 2
        code, _, _ = run_cli(capsys, "sweep", "--grid", ",")
        assert code == 2

    def test_bad_grid_value_names_the_flag(self, capsys):
        code, err = exit_code(capsys, "sweep", "--grid", "5,abc")
        assert code == 2 and "--grid" in err and "'abc'" in err

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--grid", "5,6,7,8", "--format", "csv",
                             "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert data[0].split(",")[0] == "a_delta0"
        assert len(data) == 5


class TestRoundtripCommand:
    def test_self_test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip")
        assert code == 0
        assert "ok  zero_noise_roundtrip_256" in out
        assert "ok  codeword_count_313" in out
        assert "FAIL" not in out

    def test_broken_decoder_fails(self, capsys, monkeypatch):
        def wrong_byte(volts, grid, book):
            out = read_byte(volts, grid, book)
            return dataclasses.replace(out, byte=None if out.byte is None else out.byte ^ 1)

        monkeypatch.setattr(cli, "read_byte", wrong_byte)
        code, out, _ = run_cli(capsys, "roundtrip")
        assert code == 1
        assert "FAIL  zero_noise_roundtrip_256" in out and "FAIL  all_ok" in out
        assert "ok  codeword_count_313" in out


def test_readme_examples_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(l, comments=True) for l in lines) if argv]
    assert commands and all(argv[0] == "norsim" for argv in commands)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_version_is_the_package_version():
    # pyproject.toml declares the version dynamic, read from norsim.__version__
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyproject.read_configuration(README.parent / "pyproject.toml", expand=True)
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == norsim.__version__


def test_readme_library_table_names_exist():
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = [l for l in lines if l.startswith("| `norsim.")]
    assert rows
    for row in rows:
        module, contents = (cell.strip() for cell in row.strip("|").split("|"))
        mod = importlib.import_module(module.strip("`"))
        # names inside parentheses describe a listed name, e.g. CodeBook's byte_of
        names = re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", contents))
        assert names, row
        assert [n for n in names if not hasattr(mod, n)] == [], module


def test_package_reexports_every_module_all():
    from norsim import analytic, channel, codec, montecarlo

    modules = (channel, codec, analytic, montecarlo)
    public = {n: v for n, v in vars(norsim).items() if not n.startswith("_")}
    submodules = {n for n, v in public.items() if isinstance(v, type(norsim))}
    assert {"channel", "codec", "analytic", "montecarlo"} <= submodules
    assert all(public[n].__name__ == f"norsim.{n}" for n in submodules)
    assert public.keys() - submodules == {n for m in modules for n in m.__all__}
    for m in modules:
        assert [n for n in m.__all__ if getattr(norsim, n) is not getattr(m, n)] == []
    assert isinstance(norsim.__version__, str)


def test_package_exports_names_it_once_left_out():
    from norsim import (  # noqa: F401
        TABLE1_EXP_MARGINS,
        TABLE1_TAILS,
        StratumResult,
        Table1Row,
        estimate_to_dict,
        fit_loglog_slope,
        scaling_sweep,
        variance_reduction_factor,
    )


def test_cli_import_leaves_out_thread_pools():
    # the engine runs its tasks serially, so a fresh process need not pay
    # for importing concurrent.futures
    probe = (
        "import sys, norsim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    assert fresh_python("-c", probe).strip() == "[]"


def test_cli_import_builds_no_parser():
    # main builds its parser on its first call, so library importers pay nothing
    probe = (
        "import argparse; built = []; init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
        "import norsim.cli; print(len(built))"
    )
    assert fresh_python("-c", probe).strip() == "0"


class TestSharedParser:
    """main builds one parser per process and parses every call with it, so
    no call may leave state on it that a later call sees."""

    # few flags, so a flag leaked from an earlier call shows in the manifest
    LATER = "simulate --a-delta0 3 --tail 0.3 --trials 2e3 --format json"

    @pytest.fixture(scope="class")
    def alone(self):
        return json.loads(fresh_python("-m", "norsim", *self.LATER.split()))

    @pytest.mark.parametrize("first,code", [
        ("simulate --a-delta0 4 --tail 0.05 --stratified --subtrials 1e3", 0),
        ("{later} --config {cfg}", 0),
        ("simulate --a-delta0 4 --stratified --shards 2", 2),
        ("simulate --stratified --seed -1", 2),  # argparse stops mid-parse
        ("simulate --help", 0),
    ])
    def test_later_call_runs_as_alone(self, capsys, tmp_path, alone, first, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protected = false\nshards = 2\ndata-mode = interior\nseed = 9\n")
        argv = first.format(later=self.LATER, cfg=cfg).split()
        assert exit_code(capsys, *argv)[0] == code
        later = run_json(capsys, *self.LATER.split())
        manifests = [{k: v for k, v in doc["manifest"].items() if k != "created_utc"}
                     for doc in (later, alone)]
        assert manifests[0] == manifests[1]
        assert later["results"] == alone["results"]

    def test_two_calls_build_at_most_one_parser(self, capsys, monkeypatch):
        roots = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            roots.append(kwargs.get("prog") == "norsim")
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert run_cli(capsys, "table1")[0] == 0
        assert sum(roots) <= 1
