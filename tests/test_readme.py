"""README examples name only what exists: public names and parseable command lines.

Nothing is run: the library example alone takes about a second.
"""

import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

import rosenbench
from rosenbench import cli
from rosenbench.errors import InvalidInputError

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_python_imports_are_public():
    names = [
        alias.name
        for block in _blocks("python")
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "rosenbench"
        for alias in node.names
    ]
    assert names
    assert not set(names) - set(rosenbench.__all__)


def test_command_lines_parse():
    lines = [
        line
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("rosenbench ")
    ]
    assert len(lines) >= 8
    for line in lines:
        try:
            cli.parse_args(shlex.split(line)[1:])
        except (SystemExit, InvalidInputError):
            pytest.fail(f"README command line does not parse: {line}")


def test_named_flags_are_options():
    # Prose too: a flag that the CLI has dropped must leave the README with it.
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {option for parser in subcommands.choices.values()
               for action in parser._actions for option in action.option_strings}
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", README))
    assert len(flags) >= 8
    assert not flags - options, sorted(flags - options)
