"""``repro`` — the single command-line entry point.

One command, six subcommands, each delegating to a subsystem CLI::

    repro experiment fig06 --scale smoke     (experiment runner)
    repro analyze report .repro-traces       (offline trace analysis)
    repro validate run all                   (paper-shape claims)
    repro serve --port 8321                  (the job service)
    repro top --url http://host:8321         (live service dashboard)
    repro metrics --lint                     (scrape/lint /metrics)

Global flags (before the subcommand) configure structured logging for
every subsystem: ``repro --log-level debug --log-json serve ...``.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, Sequence

PROG = "repro"

_USAGE = """\
usage: repro [--log-level LEVEL] [--log-json] <command> [args...]

commands:
  experiment  regenerate the paper's tables and figures
  analyze     offline trace analysis and run comparison
  validate    judge machine-checkable paper-shape claims
  serve       run the async job service (POST /jobs, SSE progress)
  top         live terminal dashboard over a running service
  metrics     fetch, snapshot, or lint a service's /metrics scrape

global options:
  --log-level LEVEL   emit repro.* logs at LEVEL (debug/info/warning/...)
  --log-json          structured one-JSON-object-per-line logs

run 'repro <command> --help' for command-specific options.
"""


def _command_main(command: str) -> Callable[[Optional[Sequence[str]]], int]:
    """Resolve a subcommand's main lazily: 'repro serve --help' must not
    import the experiment registry, and vice versa."""
    if command == "experiment":
        from repro.experiments.runner import main
    elif command == "analyze":
        from repro.obs.cli import main
    elif command == "validate":
        from repro.validate.cli import main
    elif command == "serve":
        from repro.service.server import main
    elif command == "top":
        from repro.obs.top import top_main as main
    elif command == "metrics":
        from repro.obs.top import metrics_main as main
    else:
        raise KeyError(command)
    return main


def _strip_logging_flags(argv: list) -> tuple[list, Optional[str], bool]:
    """Pull global ``--log-level``/``--log-json`` out of the front of
    argv (before the subcommand), leaving subcommand args untouched."""
    level: Optional[str] = None
    json_mode = False
    rest: list = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if rest:  # past the subcommand: everything belongs to it
            rest.append(arg)
        elif arg == "--log-json":
            json_mode = True
        elif arg == "--log-level":
            if i + 1 >= len(argv):
                raise ValueError("--log-level needs a value")
            level = argv[i + 1]
            i += 1
        elif arg.startswith("--log-level="):
            level = arg.split("=", 1)[1]
        else:
            rest.append(arg)
        i += 1
    return rest, level, json_mode


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, log_level, log_json = _strip_logging_flags(argv)
    except ValueError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    if log_level is not None or log_json:
        from repro.obs.logs import configure_logging
        try:
            configure_logging(level=log_level or "info", json_mode=log_json)
        except ValueError as exc:
            print(f"{PROG}: {exc}", file=sys.stderr)
            return 2
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    if argv[0] in ("-V", "--version"):
        from repro import __version__
        print(f"repro {__version__}")
        return 0
    try:
        command_main = _command_main(argv[0])
    except KeyError:
        print(f"{PROG}: unknown command {argv[0]!r}\n", file=sys.stderr)
        print(_USAGE, end="", file=sys.stderr)
        return 2
    return command_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
