"""The README's Python examples stay in step with the public API."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import jchm

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_examples_use_the_public_api():
    blocks = python_blocks()
    assert blocks
    settings_fields = {f.name for f in fields(jchm.SolverSettings)}
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "jchm":
                for alias in node.names:
                    assert alias.name in jchm.__all__, alias.name
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "SolverSettings":
                    for keyword in node.keywords:
                        assert keyword.arg in settings_fields, keyword.arg
