"""Rules every module of the package keeps: it imports only the standard
library, and of it not ``dataclasses``, whose import brings ``inspect``,
``ast``, ``dis`` and ``tokenize`` into every start of the command line, and
it generates no code (no bare ``compile``, ``exec`` or ``eval``)."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "simpbound").rglob("*.py"))
GENERATORS = {"compile", "exec", "eval"}
SLOW_IMPORTS = {"dataclasses", "inspect"}


def test_the_package_sources_are_found():
    assert any(path.name == "expr.py" for path in SOURCES)


def _imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of each absolute import in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = [f"line {line}: {name}" for line, name in _imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_no_dataclasses(path):
    assert [line for line, name in _imports(path) if name.split(".")[0] == "dataclasses"] == []


def test_the_command_line_starts_without_dataclasses_or_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import simpbound.cli; "
            "simpbound.cli.build_parser(); print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-c", code, str(SRC), *SLOW_IMPORTS],
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.split() == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_generates_no_code(path):
    calls = [f"line {node.lineno}: {node.func.id}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in GENERATORS]
    assert calls == []
