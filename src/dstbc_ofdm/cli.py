"""Command line front end.

Subcommands:

* ``simulate``: run a BER sweep from an INI config file and/or flag
  overrides, write CSV results, optionally export the LMS gamma trajectory.
* ``analytic``: print imbalance figures (image-rejection ratio, residual
  leakage ratio, exact nulling coefficient, error floor) and optionally
  write a closed-form BER curve.
* ``compare``: put simulated CSV results side by side with the closed-form
  model at the same operating point.

Every subcommand takes its config flags from one schema and builds a
``SimConfig`` from them, which validates itself.  This module writes every
output file, through ``_write_csv``.

Exit status is 0 on success and 2 for configuration or usage errors.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import astuple, fields

from .analysis import ber_closed_form, ber_floor, equivalent_snr, floor_onset_and_ideal_snr
from .compensator import gamma_true
from .harness import (
    COMPENSATION_MODES,
    DETECTION_MODES,
    BerRecord,
    ConfigError,
    SimConfig,
    _check_snr_db,
    run_point_with_trace,
    run_sweep,
)
from .iqi import IqiParams, derive_iqi_params

# Most points a start:stop:step SNR range may expand to.
_MAX_RANGE_POINTS = 10_000


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive) or a comma-separated value list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"SNR range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"bad SNR range {text!r}") from exc
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError(f"SNR range needs finite start, stop and step, got {text!r}")
        if step <= 0 or stop < start:
            raise ConfigError(f"SNR range needs step > 0 and stop >= start, got {text!r}")
        _check_snr_db(start)
        _check_snr_db(stop)
        # bounded before the range is built; the span is inf if step underflows
        span = (stop - start) / step + 1e-9
        if span >= _MAX_RANGE_POINTS:
            raise ConfigError(f"SNR range {text!r} has more than {_MAX_RANGE_POINTS} points")
        return tuple(start + i * step for i in range(int(math.floor(span)) + 1))
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad SNR list {text!r}") from exc
    if not values:
        raise ConfigError("empty SNR list")
    return values


# Parser of an INI value or a simulate flag, by the SimConfig field's annotation.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str.strip,
    "tuple[float, ...]": parse_snr_grid,
    "tuple[float, ...] | None": lambda text: tuple(float(p) for p in text.split(",") if p.strip()),
}


def _key(section: str, alias: str | None = None, flag: str | None = None, **flag_options):
    return section, alias, flag, flag_options


# The config schema, one row per SimConfig field in field order: INI section,
# short INI name (the field name is always accepted too), command line flag
# and any further add_argument keywords of that flag.
_SCHEMA = {
    "n_subcarriers": _key("system", flag="--n-subcarriers"),
    "cp_len": _key("system", flag="--cp-len"),
    "psk_order": _key("system", flag="--psk-order", help="PSK order: 2, 4, 8 or 16"),
    "bandwidth_hz": _key("system"),
    "channel": _key("channel", "profile", "--channel", help="itu-pb, itu-va, flat or custom"),
    "doppler_hz": _key("channel", flag="--doppler-hz"),
    "custom_delays_ns": _key("channel"),
    "custom_powers_db": _key("channel"),
    "iqi_kappa_db": _key("iqi", "kappa_db", "--kappa-db", help="receiver gain imbalance in dB"),
    "iqi_phi_deg": _key("iqi", "phi_deg", "--phi-deg", help="receiver phase imbalance in degrees"),
    "detection": _key("run", flag="--detection", choices=DETECTION_MODES),
    "compensation": _key("run", flag="--compensation", choices=COMPENSATION_MODES),
    "snr_grid_db": _key("run", "snr_db", "--snr", help="SNR grid in dB: start:stop:step or comma list"),
    "min_bits": _key("run", flag="--min-bits"),
    "blocks_per_frame": _key("run", flag="--blocks-per-frame"),
    "lms_step_size": _key("run", "step_size", "--lms-step"),
    "seed": _key("run", flag="--seed"),
}
_PARSER_OF = {name: _PARSERS[annotation] for name, annotation in SimConfig.__annotations__.items()}
_FIELD_OF_INI_KEY = {key: name for name, row in _SCHEMA.items() for key in (name, row[1]) if key}
# The fields of the closed-form model, the flags of analytic and compare.
_MODEL_FIELDS = ("psk_order", "iqi_kappa_db", "iqi_phi_deg")


def _flag_type(parse):
    """``parse`` as an argparse type that reports a ConfigError's own message."""
    def convert(text: str):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    convert.__name__ = parse.__name__
    return convert


def load_config_file(path: str) -> dict:
    """Read an INI file into SimConfig keyword arguments."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if parser.defaults():
        # configparser would copy these keys into every section
        keys = ", ".join(parser.defaults())
        raise ConfigError(f"keys in section [DEFAULT] are not supported: {keys}")
    out: dict = {}
    for section in parser.sections():
        for raw_key, raw_value in parser.items(section):
            name = _FIELD_OF_INI_KEY.get(raw_key)
            if name is None:
                raise ConfigError(f"unknown config key {raw_key!r} in section [{section}]")
            expected = _SCHEMA[name][0]
            if expected != section:
                raise ConfigError(
                    f"config key {raw_key!r} belongs in section [{expected}], found in [{section}]"
                )
            if name in out:
                raise ConfigError(f"config field {name!r} is set twice in [{section}]")
            try:
                out[name] = _PARSER_OF[name](raw_value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {raw_key!r}: {raw_value!r}") from exc
    return out


def _add_schema_flags(parser: argparse.ArgumentParser, names) -> None:
    """Declare the flags of the named SimConfig fields, each storing to its field."""
    for name in names:
        _, _, flag, options = _SCHEMA[name]
        parser.add_argument(flag, dest=name, type=_flag_type(_PARSER_OF[name]), **options)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstbc-ofdm",
        description="Differential Alamouti STBC-OFDM link simulator with receiver I/Q imbalance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a BER sweep")
    sim.add_argument("--config", help="INI config file")
    _add_schema_flags(sim, [name for name, row in _SCHEMA.items() if row[2]])
    sim.add_argument("--workers", type=int, default=1, help="parallel processes over SNR points")
    sim.add_argument("--out", help="write results CSV here")
    sim.add_argument(
        "--gamma-out",
        help="write the LMS gamma trajectory CSV (requires lms compensation and a single SNR point)",
    )

    ana = sub.add_parser("analytic", help="print imbalance figures and model curves")
    _add_schema_flags(ana, _MODEL_FIELDS + ("snr_grid_db",))
    ana.add_argument("--out", help="write the closed-form curve CSV here (requires --snr)")

    cmp_ = sub.add_parser("compare", help="simulated results vs closed-form model")
    _add_schema_flags(cmp_, _MODEL_FIELDS)
    cmp_.add_argument("--results", required=True, help="CSV produced by simulate")
    return parser


def _config_from_args(args, **overrides) -> SimConfig:
    """The SimConfig of ``--config`` (if the subcommand has it), the schema
    flags given, then ``overrides``, each overriding what came before."""
    kwargs = load_config_file(args.config) if getattr(args, "config", None) else {}
    for name in _SCHEMA:
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def _check_writable(path: str) -> None:
    """Fail now, before any frame, if ``path`` cannot be opened for writing."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _write_csv(path: str, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, floats at 9 significant digits and the rest as str()."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row] for row in rows)


def _cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be positive, got {args.workers}")
    cfg = _config_from_args(args)
    if args.gamma_out:
        if cfg.compensation != "lms":
            raise ConfigError("--gamma-out requires lms compensation")
        if len(set(cfg.snr_grid_db)) != 1:
            raise ConfigError("--gamma-out requires a single SNR point")
    for path in filter(None, (args.out, args.gamma_out)):
        _check_writable(path)
    if args.gamma_out:
        record, trace = run_point_with_trace(cfg, cfg.snr_grid_db[0])
        rows = ((i, z.real, z.imag) for i, z in enumerate(trace.tolist(), 1))
        _write_csv(args.gamma_out, ("iteration", "gamma_re", "gamma_im"), rows)
        records = [record]
    else:
        records = run_sweep(cfg, workers=args.workers)
    for r in records:
        print(
            f"snr_db={r.snr_db:g} detection={r.detection} compensation={r.compensation} "
            f"bits={r.bits} errors={r.bit_errors} ber={r.ber:.6g}"
        )
    if args.out:
        _write_csv(args.out, [f.name for f in fields(BerRecord)], map(astuple, records))
        print(f"wrote {args.out}")
    return 0


def _closed_form(cfg: SimConfig, snrs_db) -> tuple[IqiParams, list[float]]:
    """The validated config's imbalance and the closed-form BER at each SNR in dB."""
    params = derive_iqi_params(cfg.iqi_kappa_db, cfg.iqi_phi_deg)
    bers = [ber_closed_form(cfg.psk_order, equivalent_snr(10.0 ** (s / 10.0), params.rho)) for s in snrs_db]
    return params, bers


def _cmd_analytic(args) -> int:
    if args.out and args.snr_grid_db is None:
        raise ConfigError("--out requires --snr")
    cfg = _config_from_args(args)
    grid = () if args.snr_grid_db is None else cfg.snr_grid_db
    if args.out:
        _check_writable(args.out)
    params, bers = _closed_form(cfg, grid)
    floor = ber_floor(cfg.psk_order, params.rho)
    print(f"alpha = {params.alpha:.9g}")
    print(f"beta = {params.beta:.9g}")
    print(f"rho = {params.rho:.9g}")
    print(f"irr_db = {params.irr_db:.9g}")
    print(f"gamma_true = {gamma_true(params):.9g}")
    print(f"ber_floor = {floor:.9g}")
    if math.isfinite(params.irr_db):
        onset_db, ideal_db = floor_onset_and_ideal_snr(params.irr_db)
        print(f"floor_onset_snr_db = {onset_db:.9g}")
        print(f"ideal_reference_snr_db = {ideal_db:.9g}")
    if args.out:
        _write_csv(args.out, ("snr_db", "ber_model"), zip(grid, bers))
        print(f"wrote {args.out}")
    else:
        for snr_db, ber in zip(grid, bers):
            print(f"snr_db={snr_db:g} ber_model={ber:.6g}")
    return 0


def _cmd_compare(args) -> int:
    try:
        with open(args.results, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {args.results!r}: {exc}") from exc
    if not rows:
        raise ConfigError(f"no data rows in {args.results!r}")
    try:
        points = [(float(row["snr_db"]), float(row["ber"])) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.results!r} is not a simulate results CSV") from exc
    cfg = _config_from_args(args, snr_grid_db=tuple(snr_db for snr_db, _ in points))
    _, models = _closed_form(cfg, cfg.snr_grid_db)
    print("snr_db    ber_sim       ber_model     ratio")
    for (snr_db, ber_sim), ber_model in zip(points, models):
        ratio = ber_sim / ber_model if ber_model > 0 else math.inf
        print(f"{snr_db:<9g} {ber_sim:<13.6g} {ber_model:<13.6g} {ratio:.3f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analytic":
            return _cmd_analytic(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
