"""Unit tests for the command line front end."""
import csv
import math
import subprocess
import sys
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from dstbc_ofdm import cli, harness
from dstbc_ofdm.cli import load_config_file, main, parse_snr_grid
from dstbc_ofdm.harness import BerRecord, ConfigError, SimConfig


def test_parse_snr_range_inclusive():
    assert parse_snr_grid("0:40:5") == tuple(float(s) for s in range(0, 45, 5))
    assert parse_snr_grid("10:11:0.25") == (10.0, 10.25, 10.5, 10.75, 11.0)


def test_parse_snr_list_and_scalar():
    assert parse_snr_grid("5, 10, 17.5") == (5.0, 10.0, 17.5)
    assert parse_snr_grid("25") == (25.0,)


def test_parse_snr_errors():
    for bad in ("1:2", "5:1:1", "0:10:-2", "a,b", "", "0:2000:1", "0:1000:0.01"):
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
    # one field under its name and its short name, the same key twice, no section
    for name, text in [
        ("name_and_alias.cfg", "[channel]\nprofile = flat\nchannel = itu-va\n"),
        ("repeated_key.cfg", "[run]\nseed = 1\nseed = 2\n"),
        ("no_section.cfg", "seed = 1\n"),
        # configparser copies [DEFAULT] keys into every section
        ("default_only.cfg", "[DEFAULT]\nseed = 1\n"),
        ("default_and_system.cfg", "[DEFAULT]\nseed = 1\n[system]\ncp_len = 20\n"),
        # the removed block cap is an unknown key like any other
        ("removed_key.cfg", "[run]\nmax_block_pairs = 50000000\n"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config_file(str(path))


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


def test_csv_round_trip(tmp_path, monkeypatch):
    # fixed records: float fields at 9 significant digits, the rest as str()
    fixed = [
        BerRecord(math.inf, "differential", "lms", "itu-pb", 11.6, 1234567890, 0, 0.0, 20240, 1.25),
        BerRecord(12.5, "coherent", "off", "flat", 463, 30720, 7, 7 / 30720, 3, 0.0123456789012),
    ]
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, workers: fixed)
    path = tmp_path / "records.csv"
    assert main(["simulate", "--out", str(path)]) == 0
    assert path.read_bytes() == (
        b"snr_db,detection,compensation,channel,doppler_hz,bits,bit_errors,ber,seed,elapsed_s\r\n"
        b"inf,differential,lms,itu-pb,11.6,1234567890,0,0,20240,1.25\r\n"
        b"12.5,coherent,off,flat,463,30720,7,0.000227864583,3,0.0123456789\r\n"
    )


def test_trajectory_csv_round_trip(tmp_path, monkeypatch):
    record = BerRecord(25.0, "differential", "lms", "itu-pb", 11.6, 7440, 0, 0.0, 20240)
    trajectory = np.array([0.1 + 0.2j, 0.3 - 0.4j])
    monkeypatch.setattr(cli, "run_point_with_trace", lambda cfg, snr_db: (record, trajectory))
    path = tmp_path / "gamma.csv"
    argv = ["simulate", "--snr", "25", "--compensation", "lms", "--gamma-out", str(path)]
    assert main(argv) == 0
    assert path.read_bytes() == b"iteration,gamma_re,gamma_im\r\n1,0.1,0.2\r\n2,0.3,-0.4\r\n"


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
    assert out.read_bytes() == (
        b"snr_db,ber_model\r\n"
        b"10,0.122100769\r\n"
        b"15,0.0721240102\r\n"
        b"20,0.0421436124\r\n"
    )


def test_compare_table(tmp_path, capsys):
    results = tmp_path / "results.csv"
    main(["simulate", "--snr", "15", "--min-bits", "5000", "--out", str(results)])
    capsys.readouterr()
    assert main(["compare", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert "ber_model" in out and "ratio" in out


def test_compare_rejects_missing_file(tmp_path):
    assert main(["compare", "--results", str(tmp_path / "none.csv")]) == 2


def test_compare_rejects_non_utf8_results(tmp_path, capsys):
    results = tmp_path / "latin1.csv"
    results.write_bytes("snr_db,ber\n10,0.01\n# \u00b0\n".encode("latin-1"))
    assert main(["compare", "--results", str(results)]) == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_console_script_runs(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "dstbc_ofdm.cli", "analytic", "--kappa-db", "2"],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    assert "irr_db" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--snr", "0:inf:5"],
        ["simulate", "--snr", "0:nan:1"],
        ["analytic", "--snr", "0:inf:5"],
        ["analytic", "--psk-order", "3"],
        ["analytic", "--kappa-db", "0", "--phi-deg", "180"],
        ["analytic", "--snr=-inf"],
        ["analytic", "--snr", "4000"],
        # non-finite and overflowing imbalances are rejected as simulate
        # rejects them, not printed as nan figures or raised as overflows
        ["analytic", "--kappa-db", "nan"],
        ["compare", "--phi-deg", "nan"],
        ["simulate", "--snr", "10", "--kappa-db", "7000"],
        ["analytic", "--kappa-db", "7000"],
        # only the draws reveal that gamma diverges; it is still a config error
        ["simulate", "--compensation", "lms", "--kappa-db", "2", "--phi-deg", "8",
         "--lms-step", "100", "--snr", "20", "--min-bits", "20000"],
    ],
)
def test_bad_arguments_exit_two_without_traceback(argv, package_env, tmp_path):
    if argv[0] == "compare":
        results = tmp_path / "results.csv"
        results.write_text("snr_db,ber\n10,0.01\n")
        argv = [*argv, "--results", str(results)]
    proc = subprocess.run(
        [sys.executable, "-m", "dstbc_ofdm.cli", *argv],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    # an SNR beyond simulate's bound is named as such, not as a raw overflow
    if argv[-1] == "4000":
        assert "error: snr_db 4000 out of supported range" in proc.stderr
    if "nan" in argv:
        assert "must be finite" in proc.stderr
    if "7000" in argv:
        assert "error: iqi_kappa_db 7000 dB overflows" in proc.stderr
    if "--lms-step" in argv:
        assert "error: lms_step_size 100 is too large: gamma diverged" in proc.stderr


def test_analytic_noiseless_point_without_imbalance(capsys):
    assert main(["analytic", "--snr", "inf"]) == 0
    assert "snr_db=inf ber_model=0" in capsys.readouterr().out


# (flag, INI section, INI key, value): each differs from SimConfig's default
FLAG_CASES = [
    ("--n-subcarriers", "system", "n_subcarriers", "128"),
    ("--cp-len", "system", "cp_len", "24"),
    ("--psk-order", "system", "psk_order", "4"),
    ("--channel", "channel", "profile", "itu-va"),
    ("--doppler-hz", "channel", "doppler_hz", "50.5"),
    ("--kappa-db", "iqi", "kappa_db", "1.5"),
    ("--phi-deg", "iqi", "phi_deg", "-3"),
    ("--detection", "run", "detection", "coherent"),
    ("--compensation", "run", "compensation", "genie_gamma"),
    ("--snr", "run", "snr_db", "0:20:10"),
    ("--min-bits", "run", "min_bits", "1000"),
    ("--blocks-per-frame", "run", "blocks_per_frame", "5"),
    ("--lms-step", "run", "step_size", "0.01"),
    ("--seed", "run", "seed", "7"),
]


def test_schema_covers_every_config_field_and_flag():
    assert list(cli._SCHEMA) == [f.name for f in fields(SimConfig)]
    assert all(f.type in cli._PARSERS for f in fields(SimConfig))
    flags = {row[2] for row in cli._SCHEMA.values() if row[2]}
    assert flags == {case[0] for case in FLAG_CASES}
    # the model subcommands' flags are schema flags too, stored under the
    # SimConfig field each one sets
    model = ["--kappa-db", "1.5", "--phi-deg", "-3", "--psk-order", "4"]
    expected = {"iqi_kappa_db": 1.5, "iqi_phi_deg": -3.0, "psk_order": 4}
    parser = cli._build_parser()
    analytic = vars(parser.parse_args(["analytic", *model, "--snr", "0:20:10"]))
    assert analytic == {**expected, "snr_grid_db": (0.0, 10.0, 20.0), "command": "analytic", "out": None}
    compare = vars(parser.parse_args(["compare", *model, "--results", "r.csv"]))
    assert compare == {**expected, "command": "compare", "results": "r.csv"}


def test_model_flags_default_to_the_config_defaults():
    parser = cli._build_parser()
    for argv in (["analytic"], ["compare", "--results", "r.csv"]):
        cfg = cli._config_from_args(parser.parse_args(argv))
        assert (cfg.iqi_kappa_db, cfg.iqi_phi_deg, cfg.psk_order) == (0.0, 0.0, 8)


@pytest.mark.parametrize("flag, section, key, value", FLAG_CASES)
def test_flag_and_ini_key_set_the_same_value(tmp_path, flag, section, key, value):
    path = tmp_path / "one.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    from_file = cli._config_from_args(cli._build_parser().parse_args(["simulate", "--config", str(path)]))
    from_flag = cli._config_from_args(cli._build_parser().parse_args(["simulate", flag, value]))
    assert from_flag == from_file != SimConfig()


def fail_if_called(*args, **kwargs):
    raise AssertionError("a frame was simulated")


def test_non_finite_flag_exits_two_before_any_frame(monkeypatch, capsys):
    monkeypatch.setattr(harness, "realize_fading", fail_if_called)
    assert main(["simulate", "--snr", "20", "--doppler-hz", "nan"]) == 2
    assert "error: doppler_hz must be finite" in capsys.readouterr().err


def test_non_utf8_config_exits_two_before_any_frame(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "realize_fading", fail_if_called)
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[iqi]\n# \u00b0 in Latin-1\nphi_deg = 8.0\n".encode("latin-1"))
    assert main(["simulate", "--config", str(path), "--snr", "10"]) == 2
    assert "error: cannot parse config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--out", "{missing}/results.csv"],
        ["--compensation", "lms", "--kappa-db", "2", "--gamma-out", "{missing}/gamma.csv"],
    ],
)
def test_unwritable_output_exits_two_before_the_sweep(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.setattr(cli, "run_sweep", fail_if_called)
    monkeypatch.setattr(cli, "run_point_with_trace", fail_if_called)
    missing = tmp_path / "no_such_dir"
    argv = ["simulate", "--snr", "10", *(f.format(missing=missing) for f in flags)]
    assert main(argv) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert not missing.exists()


def test_analytic_out_requires_snr(tmp_path, capsys):
    out = tmp_path / "model.csv"
    assert main(["analytic", "--kappa-db", "2", "--out", str(out)]) == 2
    assert "error: --out requires --snr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_non_positive_workers_exit_two_before_any_frame(monkeypatch, capsys, workers):
    monkeypatch.setattr(harness, "realize_fading", fail_if_called)
    assert main(["simulate", "--snr", "10", "--workers", workers]) == 2
    assert f"error: --workers must be positive, got {workers}" in capsys.readouterr().err
