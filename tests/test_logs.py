"""Structured logging: JSON and text formatters, opt-in configuration."""

import io
import json
import logging

import pytest

from repro.obs.logs import configure_logging, get_logger


def test_json_logging_carries_fields_and_extras():
    stream = io.StringIO()
    configure_logging(level="info", json_mode=True, stream=stream)
    try:
        get_logger("service.worker").info(
            "job %s claimed", "abc123", extra={"job_id": "abc123"})
        record = json.loads(stream.getvalue().strip())
        assert record["msg"] == "job abc123 claimed"
        assert record["level"] == "info"
        assert record["logger"] == "repro.service.worker"
        assert record["job_id"] == "abc123"
    finally:
        logging.getLogger("repro").handlers.clear()


def test_text_logging_carries_level_logger_and_message():
    stream = io.StringIO()
    configure_logging(level="debug", json_mode=False, stream=stream)
    try:
        get_logger("repro.test").debug("hello")
        line = stream.getvalue()
        assert "hello" in line
        assert " DEBUG " in line
        assert " repro.test " in line
    finally:
        logging.getLogger("repro").handlers.clear()


def test_configure_logging_is_idempotent():
    stream = io.StringIO()
    try:
        configure_logging(level="info", stream=stream)
        configure_logging(level="info", stream=stream)
        handlers = [h for h in logging.getLogger("repro").handlers
                    if getattr(h, "_repro_obs_handler", False)]
        assert len(handlers) == 1
        get_logger("x").info("once")
        assert stream.getvalue().count("once") == 1
    finally:
        logging.getLogger("repro").handlers.clear()


def test_unconfigured_logging_is_silent(capsys):
    logging.getLogger("repro").handlers.clear()
    get_logger("quiet").info("nothing to see")
    captured = capsys.readouterr()
    assert "nothing to see" not in captured.err


def test_configure_logging_rejects_unknown_level():
    with pytest.raises(ValueError):
        configure_logging(level="loud")
