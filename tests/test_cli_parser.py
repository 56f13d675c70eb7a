"""The CLI's argument surface, pinned per subcommand.

``tests/golden/cli_parser.json`` holds, for every subcommand, the sorted
``(option_strings, dest, default, type, choices, nargs, action)`` of
each argparse action.  Shared flags are declared once on parent parsers
with per-command defaults, so this pin is what proves that no command
gained, lost or re-typed a flag, or changed a default.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli_parser.json"


def _row(action: argparse.Action) -> list:
    kind = action.type
    return [
        list(action.option_strings),
        action.dest,
        action.default,
        getattr(kind, "__name__", kind),
        list(action.choices) if action.choices is not None else None,
        action.nargs,
        type(action).__name__,
    ]


def parser_snapshot(parser: argparse.ArgumentParser) -> dict:
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    snapshot = {}
    for name, command in sub.choices.items():
        rows = [
            _row(a) for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        snapshot[name] = sorted(rows, key=lambda r: json.dumps(r[:2]))
    return snapshot


def test_parser_matches_pin():
    snapshot = json.loads(json.dumps(parser_snapshot(build_parser())))
    assert snapshot == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--switches", "-1", "--duration-us", "2"],
        ["sweep", "--switches", "-2", "--loads", "0.5", "--duration-us", "2"],
        ["simulate", "--duration-us", "inf"],
        ["simulate", "--duration-us", "nan"],
        ["faults", "--duration-us", "nan"],
        ["fabric", "--duration-us", "nan", "--fidelity", "flow"],
        ["fabric", "--link-delay-ns", "nan", "--fidelity", "flow"],
        ["control", "--tick-ns", "nan", "--duration-us", "5"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_bad_values_exit_with_config_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: "), captured.err
    assert captured.out == ""


def test_workers_help_states_each_default():
    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    for name, command in sub.choices.items():
        for action in command._actions:
            if action.dest != "workers":
                continue
            if action.default is None:
                assert "all cores" in action.help, name
            else:
                assert f"default: {action.default}, sequential, for {name}" in action.help
