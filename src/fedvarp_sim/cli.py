"""Command line front end: run, sweep, verify.

Exit codes: 0 success, 1 run/verification failure, 2 configuration error.
Progress goes to stderr; machine-readable artifacts only to output_dir.
"""
from __future__ import annotations

import argparse
import sys

from .core import ConfigError, DivergenceError
from .config import SWEEP_AXES, RunConfig, load_config, sweep_axis_type
from .harness import run
from .oracles import verify
from .sweeps import floor_estimate, sweep


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _config_from_args(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config PATH is required for this subcommand")
    return load_config(args.config, args.set or [])


def _parse_values(axis: str, text: str) -> list:
    items = [s for s in text.split(",") if s]
    if not items:
        raise ConfigError("--values must list at least one value")
    typ = sweep_axis_type(axis)
    values = []
    for s in items:
        try:
            values.append(typ(s))
        except ValueError as exc:
            # One sign and decimal digits: int reads those unless they run past its conversion limit.
            digits = s.strip()
            digits = digits[1:] if digits[:1] in ("+", "-") else digits
            if digits.isdecimal():
                raise ConfigError(f"--values for axis {axis} holds a number too long to read: {exc}") from None
            raise ConfigError(f"--values for axis {axis} must be {typ.__name__}s, got {text!r}") from None
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedvarp-sim",
        description="Deterministic federated-optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key by dotted path, e.g. hyper.M=5",
        )
    sweep_p = sub.choices["sweep"]
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sub.add_parser("verify")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            checks = verify()
            failed = [c for c in checks if not c.passed]
            for c in checks:
                _say(f"[{'PASS' if c.passed else 'FAIL'}] {c.name} ({c.detail})")
            _say(f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed")
            return 1 if failed else 0

        if args.command == "run":
            cfg = _config_from_args(args)
            _say(f"run: algo={cfg.algo.name} N={cfg.federation.N} T={cfg.hyper.T} -> {cfg.output_dir}")
            result = run(cfg)
            _say(
                f"run: done, {len(result.rounds)} metric rows, "
                f"floor {floor_estimate(result.metrics[:, 0]):.6g}"
            )
            return 0

        cfg = _config_from_args(args)
        values = _parse_values(args.axis, args.values)
        _say(f"sweep: axis={args.axis} over {values} -> {cfg.output_dir}")
        result = sweep(cfg, args.axis, values)
        _say(f"sweep: done, summary at {result.summary_path}")
        aborted = [(v, r) for v, r in zip(values, result.results) if not r.completed]
        for value, r in aborted:
            _say(f"sweep: point {args.axis}={value} aborted at round={r.aborted_round}")
        return 1 if aborted else 0
    except (ConfigError, MemoryError) as exc:  # MemoryError: a configured size too large to allocate
        _say(f"configuration error: {exc}")
        return 2
    except DivergenceError as exc:
        _say(f"run aborted: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
