"""Command-line front end: schedule inspection, simulation, sweeps, verification."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import check_snr_grid, dof_report, dof_slope, sweep_rates, verify_suite
from .schedule import (
    UnsupportedConfigurationError,
    build_csit_table,
    build_schedule,
    format_csit_table,
    format_schedule,
)
from .simulate import run_simulation

_ON_OFF = {"on": True, "off": False}


class ConfigError(ValueError):
    pass


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xchannel",
        description="Two-phase alternating-CSIT schemes on the MxN SISO X channel",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p, fmt_choices):
        p.add_argument("--M", type=int, default=None, help="number of transmitters")
        p.add_argument("--N", type=int, default=None, help="number of receivers")
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
        p.add_argument("--out", type=str, default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=fmt_choices, default=None)

    p = sub.add_parser("schedule", help="print the slot schedule and DoF report")
    common(p, ["json", "text"])

    p = sub.add_parser("csit-table", help="print the per-slot CSIT state table")
    common(p, ["json", "text"])

    p = sub.add_parser("simulate", help="run seeded end-to-end transmissions")
    common(p, ["json"])
    p.add_argument("--seeds", type=int, nargs="+", default=None)
    p.add_argument("--noise", choices=["on", "off"], default=None)
    p.add_argument("--normalize", choices=["on", "off"], default=None)

    p = sub.add_parser("sweep", help="rate-vs-SNR sweep with slope fit")
    common(p, ["json", "csv", "text"])
    p.add_argument("--snr", type=float, action="append", default=None, help="SNR in dB, repeatable")
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--normalize", choices=["on", "off"], default=None)

    p = sub.add_parser("verify", help="run the invariant suite, nonzero exit on failure")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--grid", type=int, default=None, help="largest M and N checked exactly")
    p.add_argument("--seeds", type=int, default=None, help="number of oracle seeds")

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(loaded)
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        merged[key] = value
    return merged


def _is_int(value, minimum: int) -> bool:
    # bool is an int subclass, but True is no count
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_POSITIVE = (lambda v: _is_int(v, 1), "a positive integer")
_DIMS = {"M": _POSITIVE, "N": _POSITIVE}
_SWITCH = (lambda v: isinstance(v, bool) or (isinstance(v, str) and v in _ON_OFF), "on or off")
# Per mode, every field it reads: (test, description). Absent fields take
# their defaults, except M and N, which the modes that have them require.
_FIELDS = {
    "schedule": _DIMS,
    "csit-table": _DIMS,
    "simulate": {
        **_DIMS,
        "seeds": (
            lambda v: isinstance(v, list) and v and all(_is_int(s, 0) for s in v),
            "one or more non-negative integers",
        ),
        "noise": _SWITCH,
        "normalize": _SWITCH,
    },
    "sweep": {
        **_DIMS,
        "snr": (
            lambda v: isinstance(v, list) and all(_is_finite_number(x) for x in v),
            "a list of finite numbers (dB)",
        ),
        "draws": _POSITIVE,
        "seed": (lambda v: _is_int(v, 0), "a non-negative integer"),
        "normalize": _SWITCH,
    },
    "verify": {"grid": (lambda v: _is_int(v, 2), "an integer >= 2"), "seeds": _POSITIVE},
}


def _validate(mode: str, cfg: dict) -> None:
    """Reject a missing, mistyped or out-of-range field before any numeric work."""
    for name, (ok, what) in _FIELDS[mode].items():
        if name not in cfg:
            if name in _DIMS:
                raise ConfigError(f"--{name} is required for this mode")
        elif not ok(cfg[name]):
            raise ConfigError(f"--{name} must be {what}, got {cfg[name]!r}")
    if mode == "sweep" and cfg.get("snr"):
        check_snr_grid(cfg["snr"])  # the slope fit's own rule, checked up front


def _flag(cfg: dict, name: str, default: bool) -> bool:
    raw = cfg.get(name, default)
    return _ON_OFF.get(raw, raw)


class _Output:
    """Writes to --out (or stdout) and removes the file again on failure."""

    def __init__(self, out: str | None):
        self.path = Path(out) if out else None
        self.written = False

    def emit(self, text: str) -> None:
        if self.path is None:
            sys.stdout.write(text)
        else:
            self.path.write_text(text)
            self.written = True

    def discard(self) -> None:
        if self.written and self.path is not None:
            self.path.unlink(missing_ok=True)


def _mode_schedule(cfg: dict, out: _Output) -> int:
    M, N = cfg["M"], cfg["N"]
    schedule = build_schedule(M, N)
    report = dof_report(schedule)
    if cfg.get("format", "text") == "json":
        payload = {"schedule": schedule.to_dict(), "dof": report.to_dict()}
        out.emit(_json_dumps(payload))
    else:
        out.emit(
            format_schedule(schedule)
            + f"\nDoF achieved={report.achieved} closed_form={report.closed_form}"
            + f" equal={report.equal}\n"
        )
    return 0


def _mode_csit_table(cfg: dict, out: _Output) -> int:
    M, N = cfg["M"], cfg["N"]
    schedule = build_schedule(M, N)
    table = build_csit_table(schedule)
    if cfg.get("format", "text") == "json":
        out.emit(_json_dumps(table.to_dict()))
    else:
        head = f"M={M} N={N} case={schedule.case.value} k={schedule.k} T={schedule.T}"
        out.emit(head + "\n" + format_csit_table(table, len(schedule.phase1)) + "\n")
    return 0


def _mode_simulate(cfg: dict, out: _Output) -> int:
    M, N = cfg["M"], cfg["N"]
    seeds = cfg.get("seeds", [0])
    noise = _flag(cfg, "noise", False)
    normalize = _flag(cfg, "normalize", False)
    runs = []
    for seed in seeds:
        sim = run_simulation(M, N, seed=seed, noise_enabled=noise, normalize=normalize)
        errors = sim.relative_errors()
        finite = [e for e in errors if e == e]  # drop NaNs from failed decodes
        runs.append(
            {
                "seed": seed,
                "receivers": [d.to_record() for d in sim.decodes],
                "relative_errors": [e if e == e else None for e in errors],
                "max_relative_error": max(finite) if finite else None,
                "all_recovered": sim.all_recovered(),
                "csit_violations": len(sim.plan.csit_violations),
            }
        )
    payload = {"M": M, "N": N, "noise": noise, "normalize": normalize, "runs": runs}
    out.emit(_json_dumps(payload))
    return 0


def _mode_sweep(cfg: dict, out: _Output) -> int:
    M, N = cfg["M"], cfg["N"]
    snrs = cfg.get("snr") or [40.0, 50.0, 60.0, 70.0, 80.0]
    draws = cfg.get("draws", 200)
    seed = cfg.get("seed", 0)
    normalize = _flag(cfg, "normalize", True)
    points = sweep_rates(M, N, snrs, draws=draws, seed=seed, normalize=normalize)
    fit = dof_slope(points)
    target = 2 * M / (M + 1)
    fmt = cfg.get("format", "csv")
    if fmt == "csv":
        lines = ["snr_db,sum_rate," + ",".join(f"rate_r{i + 1}" for i in range(N))]
        for p in points:
            lines.append(
                f"{p.snr_db!r},{p.sum_rate!r}," + ",".join(repr(r) for r in p.per_receiver)
            )
        lines.append("")
        out.emit("\n".join(lines))
        sys.stdout.write(
            f"slope={fit.slope:.6f} target={target:.6f} "
            f"intercept={fit.intercept:.6f} residual_rms={fit.residual_rms:.3g}\n"
        )
    elif fmt == "json":
        payload = {
            "M": M,
            "N": N,
            "draws": draws,
            "seed": seed,
            "normalize": normalize,
            "points": [
                {"snr_db": p.snr_db, "sum_rate": p.sum_rate, "per_receiver": list(p.per_receiver)}
                for p in points
            ],
            "slope": {
                "fitted": fit.slope,
                "target": target,
                "intercept": fit.intercept,
                "residual_rms": fit.residual_rms,
            },
        }
        out.emit(_json_dumps(payload))
    else:
        lines = [f"{'snr_db':>8} {'sum_rate':>12}"]
        lines += [f"{p.snr_db:8.1f} {p.sum_rate:12.4f}" for p in points]
        lines.append(f"slope={fit.slope:.6f} target={target:.6f}")
        lines.append("")
        out.emit("\n".join(lines))
    return 0


def _mode_verify(cfg: dict, out: _Output) -> int:
    checks = verify_suite(grid=cfg.get("grid", 8), oracle_seeds=cfg.get("seeds", 5))
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name}" + (f" ({c.detail})" if c.detail else ""))
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    lines.append("")
    out.emit("\n".join(lines))
    return 1 if failed else 0


_MODES = {
    "schedule": _mode_schedule,
    "csit-table": _mode_csit_table,
    "simulate": _mode_simulate,
    "sweep": _mode_sweep,
    "verify": _mode_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(getattr(args, "out", None))
    try:
        cfg = _merge_config(args)
        _validate(args.mode, cfg)
        return _MODES[args.mode](cfg, out)
    except (ConfigError, UnsupportedConfigurationError, ValueError) as exc:
        out.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report, clean up, signal failure
        out.discard()
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
