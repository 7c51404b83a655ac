"""``tools/code_lines.py`` counts the lines that hold code, and only those."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a comment after code

TEXT = """a string that is not a docstring
counts on both of its lines"""


def area(r):
    """A function docstring."""
    # a comment on a line of its own
    return (math.pi
            * r * r)
'''


def test_counts_statements_but_not_docstrings_comments_or_blank_lines():
    # import, both lines of TEXT, def, and both lines of the return statement
    assert code_lines.code_lines(FIXTURE) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["6", "a.py"], ["1", "b.py"], ["7", "total"]]


@pytest.mark.parametrize("argv", [["--help"], ["{tmp}/missing"], ["{tmp}/empty"], ["{tmp}", "{tmp}"]])
def test_anything_but_one_directory_of_modules_is_a_usage_error(argv, tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "empty").mkdir()
    assert code_lines.main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ")
