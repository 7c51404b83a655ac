"""Rules every module of the package keeps: it imports only the standard
library, and it generates no code (no bare ``compile``, ``exec`` or ``eval``)."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "simpbound").rglob("*.py"))
GENERATORS = {"compile", "exec", "eval"}


def test_the_package_sources_are_found():
    assert any(path.name == "expr.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [f"line {node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_generates_no_code(path):
    calls = [f"line {node.lineno}: {node.func.id}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in GENERATORS]
    assert calls == []
