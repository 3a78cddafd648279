"""Command-line interface.

    nemflow run <config>       run a simulation
    nemflow check <config>     validate a configuration and exit
    nemflow inspect <snapshot> print a snapshot header

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error,
5 energy-law violation.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .runner import EXIT_CONFIG, EXIT_IO, EXIT_OK, run_simulation
from .snapshots import SnapshotFormatError, read_header


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nemflow",
        description="Structure-preserving pseudospectral nematic flow solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a simulation from a config file")
    run_p.add_argument("config", help="path to the key-value config file")
    check_p = sub.add_parser("check", help="validate a config file and exit")
    check_p.add_argument("config", help="path to the key-value config file")
    ins_p = sub.add_parser("inspect", help="print a snapshot header")
    ins_p.add_argument("snapshot", help="path to a .nemf snapshot file")
    return parser


def _load(path: str):
    try:
        return load_config(path), EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None, EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return None, EXIT_IO


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "check":
        cfg, status = _load(args.config)
        if cfg is not None:
            print("config ok")
        return status

    if args.command == "run":
        cfg, status = _load(args.config)
        if cfg is None:
            return status
        report = run_simulation(cfg)
        if report.failure:
            print(f"run failed: {report.failure}", file=sys.stderr)
        print(
            f"steps={report.steps} final_time={report.final_time!r} "
            f"trace={report.trace_path} snapshots={len(report.snapshot_paths)} "
            f"energy_checks={'pass' if report.energy_checks_passed else 'FAIL'}"
        )
        return report.status

    if args.command == "inspect":
        try:
            header = read_header(args.snapshot)
        except SnapshotFormatError as exc:
            print(f"bad snapshot: {exc}", file=sys.stderr)
            return EXIT_IO
        except OSError as exc:
            print(f"cannot read snapshot: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"dim: {header.dim}")
        print("n: " + " ".join(str(n) for n in header.shape))
        print("fields: " + " ".join(f"{name}({comps})" for name, comps in header.fields))
        return EXIT_OK

    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
