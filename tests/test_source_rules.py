"""Rules every module of the package keeps: it imports only the standard
library, and of it not ``dataclasses``, whose import brings ``inspect``,
``ast``, ``dis`` and ``tokenize`` into every start of the command line, it
generates no code (no bare ``compile``, ``exec`` or ``eval``), and it keeps
no cache that outlives a stage (no ``functools`` cache) except on
``cli._parser``, which holds one argument parser per process and no
expression, tape or value.  The package itself lists no names: it re-exports
the ``__all__`` of its library modules, and importing it loads no command
line."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "simpbound").rglob("*.py"))
GENERATORS = {"compile", "exec", "eval"}
SLOW_IMPORTS = {"dataclasses", "inspect"}
CACHES = {"cache", "lru_cache", "cached_property"}
CACHED_PARSER = ("cli.py", "_parser")  # the one function a cache may decorate


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


def _cache_uses(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, name) of each import or ``functools.`` use of a cache, but the parser's decorator."""
    tree = ast.parse(source, filename)
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    exempt = {id(part) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and (filename, node.name) == CACHED_PARSER
              for decorator in node.decorator_list for part in ast.walk(decorator)}
    uses = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            uses += [(node.lineno, alias.name) for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_keeps_no_cache_but_the_parsers(path):
    assert _cache_uses(path.read_text(), path.name) == []


def test_the_parser_is_the_only_cache_the_rule_lets_through():
    # without its exemption, cli.py breaks the rule at the parser's decorator alone
    source = (SRC / "simpbound" / "cli.py").read_text()
    ((line, name),) = _cache_uses(source, "elsewhere.py")
    decorated = source.splitlines()[line]  # the line after line ``line``, counted from 1
    assert (name, decorated) == ("functools.cache", "def _parser() -> argparse.ArgumentParser:")


@pytest.mark.parametrize("source, filename", [
    ("import functools\n@functools.cache\ndef differentiate(e): pass\n", "expr.py"),
    ("import functools as ft\nclass Tape:\n    @ft.cached_property\n    def n(self): pass\n",
     "expr.py"),
    ("from functools import lru_cache\n", "bounds.py"),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef _parser(): pass\n", "report.py"),
])
def test_a_cache_anywhere_else_breaks_the_rule(source, filename):
    assert len(_cache_uses(source, filename)) == 1


# The modules whose ``__all__`` the package re-exports, in order.
EXPORTING = ("bounds", "convexity", "domain", "expr", "identity", "quad")


def test_the_package_exports_its_modules_names_in_order():
    import simpbound
    joined = [name for module in EXPORTING
              for name in importlib.import_module(f"simpbound.{module}").__all__]
    assert simpbound.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_each_exported_name_is_its_modules_object():
    import simpbound
    for module in EXPORTING:
        owner = importlib.import_module(f"simpbound.{module}")
        for name in owner.__all__:
            assert getattr(simpbound, name) is getattr(owner, name), f"{module}.{name}"


def test_the_package_lists_no_names_of_its_own():
    tree = ast.parse((SRC / "simpbound" / "__init__.py").read_text())
    listed = [f"line {node.lineno}: from .{node.module}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and [alias.name for alias in node.names] != ["*"]]
    assert listed == []


def test_importing_the_package_loads_no_command_line():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import simpbound; "
            "print(*sorted({'simpbound.cli', 'argparse'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.split() == []
