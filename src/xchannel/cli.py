"""Command-line front end: schedule inspection, simulation, sweeps, verification."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .analysis import DofReport, check_snr_grid, dof_slope, sweep_rates, verify_suite
from .schedule import (
    UnsupportedConfigurationError,
    build_schedule,
    format_csit_table,
    format_schedule,
)
from .simulate import run_simulation

_ON_OFF = {"on": True, "off": False}
_FORMATS = {
    "schedule": ["json", "text"],
    "csit-table": ["json", "text"],
    "simulate": ["json"],
    "sweep": ["json", "csv", "text"],
}


class ConfigError(ValueError):
    pass


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xchannel",
        description="Two-phase alternating-CSIT schemes on the MxN SISO X channel",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(mode, help):
        p = sub.add_parser(mode, help=help)
        p.add_argument("--M", type=int, default=None, help="number of transmitters")
        p.add_argument("--N", type=int, default=None, help="number of receivers")
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
        p.add_argument("--out", type=str, default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=_FORMATS[mode], default=None)
        return p

    common("schedule", "print the slot schedule and DoF report")
    common("csit-table", "print the per-slot CSIT state table")

    p = common("simulate", "run seeded end-to-end transmissions")
    p.add_argument("--seeds", type=int, nargs="+", default=None)
    p.add_argument("--noise", choices=["on", "off"], default=None)
    p.add_argument("--normalize", choices=["on", "off"], default=None)

    p = common("sweep", "rate-vs-SNR sweep with slope fit")
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
        if key in ("config", "mode") or value is None:
            continue
        merged[key] = value
    return merged


def _is_int(value, minimum: int) -> bool:
    # bool is an int subclass, but True is no count
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_POSITIVE = (lambda v: _is_int(v, 1), "a positive integer")
_OUT = (lambda v: isinstance(v, str), "a file path")
_SWITCH = (lambda v: isinstance(v, bool) or (isinstance(v, str) and v in _ON_OFF), "on or off")


def _common(mode: str) -> dict:
    """Fields of the modes with --M and --N; --format takes the mode's own choices."""
    choices = _FORMATS[mode]
    fmt = (lambda v: isinstance(v, str) and v in choices, "one of " + ", ".join(choices))
    return {"M": _POSITIVE, "N": _POSITIVE, "out": _OUT, "format": fmt}


# Per mode, every field it accepts: (test, description). Absent fields take
# their defaults, except M and N, which the modes that have them require.
_FIELDS = {
    "schedule": _common("schedule"),
    "csit-table": _common("csit-table"),
    "simulate": {
        **_common("simulate"),
        "seeds": (
            lambda v: isinstance(v, list) and v and all(_is_int(s, 0) for s in v),
            "one or more non-negative integers",
        ),
        "noise": _SWITCH,
        "normalize": _SWITCH,
    },
    "sweep": {
        **_common("sweep"),
        "snr": (
            lambda v: isinstance(v, list) and all(_is_finite_number(x) for x in v),
            "a list of finite numbers (dB)",
        ),
        "draws": _POSITIVE,
        "seed": (lambda v: _is_int(v, 0), "a non-negative integer"),
        "normalize": _SWITCH,
    },
    "verify": {
        "out": _OUT,
        "grid": (lambda v: _is_int(v, 2), "an integer >= 2"),
        "seeds": _POSITIVE,
    },
}


def _validate(mode: str, cfg: dict) -> None:
    """Reject an unknown, missing, mistyped or out-of-range field before any numeric work."""
    unknown = sorted(set(cfg) - set(_FIELDS[mode]))
    if unknown:
        raise ConfigError(f"unknown config keys for {mode}: {', '.join(unknown)}")
    for name, (ok, what) in _FIELDS[mode].items():
        if name not in cfg:
            if name in ("M", "N"):
                raise ConfigError(f"--{name} is required for this mode")
        elif not ok(cfg[name]):
            raise ConfigError(f"--{name} must be {what}, got {cfg[name]!r}")
    if cfg.get("out"):  # a path, by now; "" means stdout
        path = Path(cfg["out"])
        if path.is_dir():
            raise ConfigError(f"--out must be a file path, got the directory {cfg['out']!r}")
        if not path.parent.is_dir():
            raise ConfigError(f"--out directory {str(path.parent)!r} does not exist")
    if mode == "sweep" and "snr" in cfg:
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
    report = DofReport(schedule)
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
    schedule = build_schedule(cfg["M"], cfg["N"])
    if cfg.get("format", "text") == "json":
        out.emit(_json_dumps(schedule.csit.to_dict()))
    else:
        out.emit(format_csit_table(schedule) + "\n")
    return 0


def _mode_simulate(cfg: dict, out: _Output) -> int:
    M, N = cfg["M"], cfg["N"]
    seeds = cfg.get("seeds", [0])
    noise = _flag(cfg, "noise", False)
    normalize = _flag(cfg, "normalize", False)
    schedule = build_schedule(M, N)
    runs = []
    for seed in seeds:
        sim = run_simulation(schedule, seed, noise_enabled=noise, normalize=normalize)
        d = sim.decoding
        errors = sim.relative_errors()
        finite = [e for e in errors if e == e]  # drop NaNs from failed decodes
        runs.append(
            {
                "seed": seed,
                "receivers": [  # receiver i is system i of the run
                    {"receiver": i, "success": ok, "rank": rank,
                     "condition": condition if math.isfinite(condition) else None}
                    for i, (ok, rank, condition) in enumerate(
                        zip(d.decoded.tolist(), d.rank.tolist(), d.condition.tolist())
                    )
                ],
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
    snrs = cfg.get("snr", [40.0, 50.0, 60.0, 70.0, 80.0])
    draws = cfg.get("draws", 200)
    seed = cfg.get("seed", 0)
    normalize = _flag(cfg, "normalize", True)
    points = sweep_rates(build_schedule(M, N), snrs, draws=draws, seed=seed, normalize=normalize)
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
    args = build_parser().parse_args(argv)
    out = _Output(None)
    try:
        cfg = _merge_config(args)
        _validate(args.mode, cfg)
        out = _Output(cfg.get("out"))
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
