"""Command-line interface: sweep, verify, dump.

Exit status is 0 on success, 1 when verification fails, and 2 on a
configuration problem. All file locations come from the config files;
no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import sys

from .config import dump_config_from_text, sweep_config_from_text
from .exceptions import ConfigError, FockLabError
from .harness import dump_state, run_sweep
from .verify import run_verification


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = sweep_config_from_text(_read(args.config))
    run_sweep(config)
    points = 1
    for axis in config.axes:
        points *= axis.steps
    print(f"wrote {points} rows to {config.output_path}")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    config = dump_config_from_text(_read(args.config))
    dump_state(config)
    print(f"wrote {config.output_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(args.seed)
    print(f"verification seed {report.seed}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"[{status}] {check.name}: max_abs={check.max_abs_error:.3e} "
            f"max_rel={check.max_rel_error:.3e} tol={check.tolerance:.1e} "
            f"({check.points} points)"
        )
    if report.all_passed:
        print("all checks passed")
        return 0
    print("verification FAILED")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Engineered bosonic states: sweeps, verification, state dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("config", help="flat key=value sweep configuration")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle-vs-closed-form suites")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.set_defaults(func=_cmd_verify)

    p_dump = sub.add_parser("dump", help="dump a state's Fock amplitudes to CSV")
    p_dump.add_argument("config", help="flat key=value state configuration")
    p_dump.set_defaults(func=_cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FockLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
