"""The unified ``repro`` CLI."""

import pytest

from repro.cli import main


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("experiment", "analyze", "validate", "serve",
                    "top", "metrics"):
        assert command in out
    assert "--log-level" in out


def test_no_arguments_prints_usage_and_succeeds(capsys):
    assert main([]) == 0
    assert "usage: repro" in capsys.readouterr().out


def test_version_flag(capsys):
    from repro import __version__
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_command_is_an_error(capsys):
    # 'profile' and 'dash' were subcommands once; they are unknown now.
    for command in ("frobnicate", "profile", "dash"):
        assert main([command]) == 2
        captured = capsys.readouterr()
        assert f"unknown command {command!r}" in captured.err
        assert "usage: repro" in captured.err
        assert captured.out == ""


def test_experiment_subcommand_delegates(capsys):
    assert main(["experiment", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig06" in out


@pytest.mark.parametrize("subcommand", ["experiment", "analyze",
                                        "validate", "serve",
                                        "top", "metrics"])
def test_each_subcommand_wires_to_a_real_parser(subcommand, capsys):
    # argparse exits 0 on --help; reaching it proves the lazy import
    # resolved and the delegation passed arguments through.
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out


# ----------------------------------------------------------------------
# Global logging flags
# ----------------------------------------------------------------------

def test_global_log_flags_configure_and_strip(capsys):
    import logging

    try:
        assert main(["--log-level", "debug", "--log-json",
                     "experiment", "--list"]) == 0
        logger = logging.getLogger("repro")
        assert logger.level == logging.DEBUG
        handlers = [h for h in logger.handlers
                    if getattr(h, "_repro_obs_handler", False)]
        assert len(handlers) == 1
        assert "fig06" in capsys.readouterr().out  # flags were stripped
    finally:
        logging.getLogger("repro").handlers.clear()


def test_log_flags_after_subcommand_belong_to_it(capsys):
    # Only *global* (pre-subcommand) flags are intercepted; a trailing
    # --log-level reaches the subcommand parser and errors there.
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "--log-level", "debug", "--list"])
    assert excinfo.value.code == 2


def test_log_level_requires_a_value(capsys):
    assert main(["--log-level"]) == 2
    assert "needs a value" in capsys.readouterr().err


def test_bad_log_level_is_an_error(capsys):
    assert main(["--log-level=loud", "experiment", "--list"]) == 2
    assert "unknown log level" in capsys.readouterr().err
