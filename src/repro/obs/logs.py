"""Structured logging for the service: one line per record.

Two output shapes, chosen by ``repro --log-json``:

- **text** (default): ``2026-08-08T12:00:00 INFO repro.service.worker
  claimed job 3f2a job_id='3f2a'`` — human tails;
- **json**: one JSON object per line (``ts``, ``level``, ``logger``,
  ``msg``, plus any ``extra=`` fields) — machine shippers.

Configuration is idempotent and opt-in: importing this module does
nothing; library code just calls :func:`get_logger` and emits, and the
records go nowhere until an entry point calls :func:`configure_logging`
(the unified CLI wires ``--log-level``/``--log-json`` to it).
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO, Optional

__all__ = ["configure_logging", "get_logger", "JsonFormatter",
           "TextFormatter"]

ROOT_LOGGER = "repro"

#: Attributes of a LogRecord that are plumbing, not user payload.
_RESERVED = frozenset(logging.LogRecord(
    "", 0, "", 0, "", (), None).__dict__) | {"message", "asctime",
                                             "taskName"}


def _record_extras(record: logging.LogRecord) -> dict:
    return {k: v for k, v in record.__dict__.items()
            if k not in _RESERVED and not k.startswith("_")}


def _iso(created: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S",
                         time.localtime(created)) + f".{int(created % 1 * 1000):03d}"


class JsonFormatter(logging.Formatter):
    """One JSON object per line; unserializable extras become repr()."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": _iso(record.created),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        for key, value in _record_extras(record).items():
            if key in payload:
                continue
            try:
                json.dumps(value)
                payload[key] = value
            except (TypeError, ValueError):
                payload[key] = repr(value)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, separators=(",", ":"))


class TextFormatter(logging.Formatter):
    """Human-readable line; ``extra=`` fields follow as ``key=value``."""

    def format(self, record: logging.LogRecord) -> str:
        base = (f"{_iso(record.created)} {record.levelname:<7} "
                f"{record.name} {record.getMessage()}")
        extras = _record_extras(record)
        if extras:
            base += " " + " ".join(f"{k}={v!r}"
                                   for k, v in sorted(extras.items()))
        if record.exc_info:
            base += "\n" + self.formatException(record.exc_info)
        return base


def configure_logging(level: str = "info", json_mode: bool = False,
                      stream: Optional[IO] = None) -> logging.Logger:
    """(Re)configure the ``repro`` logger hierarchy; returns its root.

    Idempotent: replaces any handler a previous call installed instead
    of stacking duplicates, so tests and long-lived CLIs can reconfigure
    freely.  Records do not propagate to the root logger (the service's
    stderr stays clean of double emission under uvicorn).
    """
    numeric = getattr(logging, str(level).upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(numeric)
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    handler.setFormatter(JsonFormatter() if json_mode else TextFormatter())
    logger.addHandler(handler)
    return logger


def get_logger(name: str) -> logging.Logger:
    """A child of the ``repro`` hierarchy (silent until configured)."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")
