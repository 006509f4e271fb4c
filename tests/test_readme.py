"""The README's examples stay in step with the public API and the CLI."""

import ast
import inspect
import re
import shlex
from pathlib import Path

import pytest

import jchm
from jchm.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.S | re.M)


def test_readme_examples_use_the_public_api():
    found = blocks("python")
    assert found
    for block in found:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "jchm":
                for alias in node.names:
                    assert alias.name in jchm.__all__, alias.name
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in jchm.__all__ and callable(getattr(jchm, name)):
                    accepted = inspect.signature(getattr(jchm, name)).parameters
                    for keyword in node.keywords:
                        assert keyword.arg in accepted, (name, keyword.arg)


def test_readme_command_lines_parse():
    # every `jchm <cmd>` line of the sh blocks, continuation lines joined:
    # each --flag must be one of that subcommand's own (argparse would take
    # an abbreviation), and the whole line must parse
    parser = build_parser()
    subcommands = next(a.choices for a in parser._actions
                       if isinstance(a.choices, dict))
    lines = "\n".join(blocks("sh")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("jchm ")]
    assert {argv[1] for argv in commands} == set(subcommands)
    for argv in commands:
        flags = {s for a in subcommands[argv[1]]._actions for s in a.option_strings}
        for word in argv[2:]:
            if word.startswith("--"):
                assert word.split("=")[0] in flags, (argv[1], word)
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line rejected by the parser: {shlex.join(argv)}")
        assert args.command == argv[1]
