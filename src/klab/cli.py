"""Command-line interface.

Three subcommands, all batch-oriented:

- ``klab simulate --config c.json --out d/`` integrates the configured flows
  and writes timeseries CSVs (ignoring the config's scenario field).
- ``klab verify --config c.json --out d/`` runs the configured scenario's
  checks and writes CSVs plus ``report.json``.
- ``klab report --out d/`` re-renders ``report.json`` from the stored CSVs.

``simulate`` and ``verify`` apply each ``--override key=value`` to the config
first, for example ``--override epsilon=[0.04,0.02,0.01]``.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration or
environment error, 3 integration or other runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .evolution import IntegrationError
from .harness import (
    ConfigError,
    _read_json,
    apply_override,
    config_from_dict,
    render_report,
    run_scenario,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klab",
        description="Spectral simulation and verification runs, batch in, files out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("simulate", "integrate the configured flows and write timeseries CSVs"),
        ("verify", "run the configured scenario's checks and write a report"),
    ):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field (JSON fragment value; dotted keys allowed)",
        )
    rp = sub.add_parser("report", help="re-render report.json from stored CSVs")
    rp.add_argument("--out", required=True, help="output directory of a previous run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return render_report(Path(args.out))
        raw = _read_json(Path(args.config), "config file")
        for override in args.override:
            if not isinstance(raw, dict):
                raise ConfigError("config root must be a JSON object")
            apply_override(raw, override)
        if args.command == "simulate":
            if isinstance(raw, dict):
                raw["scenario"] = "simulate"
        cfg = config_from_dict(raw)
        return run_scenario(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the exit-code contract is closed
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
