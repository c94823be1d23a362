"""Unit tests for the command line front end."""
import csv
import subprocess
import sys
from importlib import resources

import pytest

from dstbc_ofdm.cli import load_config_file, main, parse_snr_grid
from dstbc_ofdm.harness import ConfigError


def test_parse_snr_range_inclusive():
    assert parse_snr_grid("0:40:5") == tuple(float(s) for s in range(0, 45, 5))
    assert parse_snr_grid("10:11:0.25") == (10.0, 10.25, 10.5, 10.75, 11.0)


def test_parse_snr_list_and_scalar():
    assert parse_snr_grid("5, 10, 17.5") == (5.0, 10.0, 17.5)
    assert parse_snr_grid("25") == (25.0,)


def test_parse_snr_errors():
    for bad in ("1:2", "5:1:1", "0:10:-2", "a,b", ""):
        with pytest.raises(ConfigError):
            parse_snr_grid(bad)


def bundled_config(name):
    return resources.files("dstbc_ofdm") / "configs" / name


def test_bundled_baseline_config_loads():
    kwargs = load_config_file(str(bundled_config("iqi_baseline.cfg")))
    assert kwargs["channel"] == "itu-pb"
    assert kwargs["iqi_kappa_db"] == 2.0
    assert kwargs["iqi_phi_deg"] == 8.0
    assert kwargs["compensation"] == "off"
    assert kwargs["snr_grid_db"] == tuple(float(s) for s in range(0, 45, 5))


def test_bundled_lms_config_loads():
    kwargs = load_config_file(str(bundled_config("lms_compensation.cfg")))
    assert kwargs["compensation"] == "lms"
    assert kwargs["lms_step_size"] == 0.005


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError):
        load_config_file(str(missing))
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("[run]\nwindow = 5\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad_key))
    wrong_section = tmp_path / "wrong_section.cfg"
    wrong_section.write_text("[system]\ndetection = coherent\n")
    with pytest.raises(ConfigError):
        load_config_file(str(wrong_section))
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("[system]\ncp_len = twenty\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad_value))


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(
        [
            "simulate",
            "--snr",
            "12",
            "--min-bits",
            "5000",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "snr_db=12" in captured and "ber=" in captured
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["detection"] == "differential"


def test_simulate_honours_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[iqi]\nkappa_db = 2.0\nphi_deg = 8.0\n"
        "[run]\nsnr_db = 10\nmin_bits = 5000\nseed = 9\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert "snr_db=10" in capsys.readouterr().out


def test_simulate_gamma_trajectory_export(tmp_path):
    out = tmp_path / "gamma.csv"
    code = main(
        [
            "simulate",
            "--snr",
            "25",
            "--min-bits",
            "5000",
            "--kappa-db",
            "2",
            "--phi-deg",
            "8",
            "--compensation",
            "lms",
            "--gamma-out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iteration", "gamma_re", "gamma_im"]
    assert len(rows) == 1 + 2 * 31 * 20


def test_gamma_out_requires_lms(tmp_path):
    code = main(["simulate", "--snr", "25", "--gamma-out", str(tmp_path / "g.csv")])
    assert code == 2


def test_gamma_out_requires_single_point(tmp_path):
    code = main(
        [
            "simulate",
            "--snr",
            "20,25",
            "--compensation",
            "lms",
            "--kappa-db",
            "2",
            "--gamma-out",
            str(tmp_path / "g.csv"),
        ]
    )
    assert code == 2


def test_invalid_config_exits_two(capsys):
    assert main(["simulate", "--snr", "10", "--cp-len", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analytic_reports_figures(capsys):
    assert main(["analytic", "--kappa-db", "2", "--phi-deg", "8"]) == 0
    out = capsys.readouterr().out
    assert "irr_db = 17.44" in out
    assert "gamma_true" in out
    assert "floor_onset_snr_db = 27.44" in out


def test_analytic_curve_csv(tmp_path):
    out = tmp_path / "model.csv"
    code = main(
        ["analytic", "--kappa-db", "2", "--phi-deg", "8", "--snr", "10:20:5", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(r["snr_db"]) for r in rows] == [10.0, 15.0, 20.0]
    assert all(float(r["ber_model"]) > 0 for r in rows)


def test_compare_table(tmp_path, capsys):
    results = tmp_path / "results.csv"
    main(["simulate", "--snr", "15", "--min-bits", "5000", "--out", str(results)])
    capsys.readouterr()
    assert main(["compare", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert "ber_model" in out and "ratio" in out


def test_compare_rejects_missing_file(tmp_path):
    assert main(["compare", "--results", str(tmp_path / "none.csv")]) == 2


def test_console_script_runs(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "dstbc_ofdm.cli", "analytic", "--kappa-db", "2"],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    assert "irr_db" in proc.stdout
