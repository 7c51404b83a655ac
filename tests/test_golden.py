"""Byte-identity gate: fixed CLI runs must reproduce the committed reports.

Each case runs ``main`` with ``--output`` and compares the written bytes and
the exit code with ``tests/golden/<name>``.  The corpus covers every report
format, the classical row (phi = 0), a rotated segment, a sweep cell that
fails with a domain error, a sweep with an overflow at one q between two ok
cells of the same segment, a repeated q and an a > b segment, and a violated
certificate.  JSON and CSV files hold numbers as Python's ``repr`` writes
them, the shortest text that reads back to the same double.  A change that
alters any report byte must say why and regenerate the corpus with

    PYTHONPATH=src python tests/test_golden.py

which, before it overwrites each file, prints one line saying what moved:
``unchanged``, ``bytes changed, values identical`` or ``N values changed,
K not numbers`` followed by the first JSON paths, CSV cells or table lines
that changed, those that are not numbers (flags, statuses, verdicts, error
texts, table lines) first, and, when numbers moved, the largest relative
change among them and its size in units in the last place.  So a move in
the last bits reads as one, and ``0 not numbers`` shows that no flag or
verdict flipped.  Numbers are compared bit for bit as IEEE-754 doubles
(JSON integers read as floats), so a change of number text alone, such as
``24`` to ``24.0``, keeps the values identical while ``0`` to ``-0`` does
not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import pytest

from simpbound.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

DEEP = ["--f", "exp(sin(x))/(1+x^2)", "--a", "0", "--b", "2"]
SWEEP = ["sweep", "--f", "log(x)", "--f", "x^3 - x", "--a", "0,0.5", "--b", "1.5",
         "--phi", "0,pi/4", "--q", "1,2", "--samples", "201"]
MIXED = ["sweep", "--f", "exp(x)", "--f", "x", "--a", "0,12", "--b", "10", "--q", "1,400,1",
         "--samples", "51"]
VIOLATED = ["verify", "--f", "sin(x)", "--a", "1", "--b", "3", "--phi", "pi/2", "--q", "1,2"]

# name -> (argv without --output, exit code)
CASES = {
    "verify-phi0.json": (["verify", *DEEP, "--phi", "0", "--format", "json"], 0),
    "verify-phi0.csv": (["verify", *DEEP, "--phi", "0", "--format", "csv"], 0),
    "verify-phi0.txt": (["verify", *DEEP, "--phi", "0", "--format", "table"], 0),
    "verify-pi4.json": (["verify", *DEEP, "--phi", "pi/4", "--format", "json"], 0),
    "verify-pi4.csv": (["verify", *DEEP, "--phi", "pi/4", "--format", "csv"], 0),
    "verify-pi4.txt": (["verify", *DEEP, "--phi", "pi/4", "--format", "table"], 0),
    "sweep-domain-error.csv": ([*SWEEP, "--format", "csv"], 0),
    "sweep-domain-error.json": ([*SWEEP, "--format", "json"], 0),
    "sweep-domain-error.txt": ([*SWEEP, "--format", "table"], 0),
    "sweep-mixed.json": ([*MIXED, "--format", "json"], 0),
    "sweep-mixed.txt": ([*MIXED, "--format", "table"], 0),
    "violated-certificate.json": ([*VIOLATED, "--format", "json"], 0),
}


SHOWN_CHANGES = 5  # paths named after the count of changed values


def _bits(value):
    """A float as its IEEE-754 bytes, so that -0.0 and 0.0 differ; other values as they are."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def _json_values(value, path: str, out: dict) -> dict:
    if isinstance(value, dict):
        for key, item in value.items():
            _json_values(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _json_values(item, f"{path}[{i}]", out)
    else:
        out[path] = _bits(value)
    return out


def _csv_cell(text: str):
    try:
        return _bits(float(text))
    except ValueError:
        return text


def report_values(name: str, data: bytes) -> dict:
    """Each value of a report by where it is: a JSON path, a CSV cell or a table line."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        return _json_values(json.loads(text, parse_int=float), "", {})
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        return {f"row {n} {column}": _csv_cell(cell)
                for n, row in enumerate(rows, start=1) for column, cell in zip(header, row)}
    return {f"line {n}": line for n, line in enumerate(text.splitlines(), start=1)}


def describe_change(name: str, old: bytes, new: bytes) -> str:
    """What regenerating report ``name`` moves: its bytes, its values, or nothing."""
    if old == new:
        return "unchanged"
    before, after = report_values(name, old), report_values(name, new)
    moved = [where for where in {**before, **after}
             if where not in before or where not in after or before[where] != after[where]]
    if not moved:
        return "bytes changed, values identical"
    not_numbers = [where for where in moved if not (isinstance(before.get(where), bytes)
                                                    and isinstance(after.get(where), bytes))]
    numbers = [(_relative_change(before[where], after[where]), where) for where in moved
               if where not in not_numbers]
    named = [*not_numbers, *(where for _, where in numbers)][:SHOWN_CHANGES]
    change = f"{len(moved)} values changed, {len(not_numbers)} not numbers: {', '.join(named)}"
    if not numbers:
        return change
    (relative, ulps), where = max(numbers)
    return f"{change}; largest relative change {relative:.3g} ({ulps} ulp) at {where}"


def _ordered(bits: bytes) -> int:
    """A double's bits as an integer that counts ulps: adjacent doubles, and -0.0 and 0.0,
    differ by 1."""
    (n,) = struct.unpack("<q", bits)
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF) - 1


def _relative_change(old: bytes, new: bytes) -> tuple[float, int]:
    """|new - old| / |old| of two doubles given as bits, and their distance in ulps."""
    (x,), (y,) = struct.unpack("<d", old), struct.unpack("<d", new)
    relative = abs(y - x) / abs(x) if x else (math.inf if y else 0.0)
    return relative, abs(_ordered(new) - _ordered(old))


def run_case(name: str, out: Path) -> tuple[int, bytes]:
    argv, _ = CASES[name]
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    code, text = run_case(name, tmp_path / name)
    assert code == CASES[name][1]
    assert text == (GOLDEN / name).read_bytes()


def test_corpus_covers_the_shapes_it_gates():
    assert b"CLASSICAL" in (GOLDEN / "verify-phi0.csv").read_bytes()
    assert b"CLASSICAL" not in (GOLDEN / "verify-pi4.csv").read_bytes()
    assert b"log of 0" in (GOLDEN / "sweep-domain-error.json").read_bytes()
    mixed = (GOLDEN / "sweep-mixed.txt").read_bytes()
    assert b"numerical overflow" in mixed and b"need a < b" in mixed
    assert b'"violated"' in (GOLDEN / "violated-certificate.json").read_bytes()


def test_a_change_of_number_text_alone_keeps_the_values():
    assert describe_change("r.json", b'{"q": [24]}', b'{"q": [24.0]}') == (
        "bytes changed, values identical")
    assert describe_change("r.csv", b"a,q\nx,24\n", b"a,q\nx,24.0\n") == (
        "bytes changed, values identical")
    assert describe_change("r.json", b'{"q": 1}', b'{"q": 1}') == "unchanged"


def test_a_changed_value_is_named_down_to_its_sign():
    assert describe_change("r.json", b'{"b": [0, 1]}', b'{"b": [-0.0, 1]}') == (
        "1 values changed, 0 not numbers: b[0]; largest relative change 0 (1 ulp) at b[0]")
    assert describe_change("r.csv", b"a,q\nx,1\n", b"a,q\ny,1.5\n") == (
        "2 values changed, 1 not numbers: row 1 a, row 1 q; "
        "largest relative change 0.5 (2251799813685248 ulp) at row 1 q")
    assert describe_change("r.txt", b"x\ny\n", b"x\nz\n") == (
        "1 values changed, 1 not numbers: line 2")


def test_values_that_are_not_numbers_are_counted_and_named_first():
    old = b'{"bound": 1.0, "slack": 2.0, "dominant": true, "verdict": "all-dominant"}'
    new = b'{"bound": 1.5, "slack": 2.0, "dominant": false, "verdict": "violation"}'
    assert describe_change("r.json", old, new) == (
        "3 values changed, 2 not numbers: dominant, verdict, bound; "
        "largest relative change 0.5 (2251799813685248 ulp) at bound")
    # a number that becomes text, or a cell that appears, is not a number either
    assert describe_change("r.csv", b"a,b\n1.0,2.0\n", b"a,b,c\n1.0,x,3.0\n") == (
        "2 values changed, 2 not numbers: row 1 b, row 1 c")


def test_a_changed_number_is_measured_in_ulps():
    assert describe_change("r.json", b'{"m4": 1.0, "b": 3.0}',
                           b'{"m4": 1.0000000000000002, "b": 3.0}') == (
        "1 values changed, 0 not numbers: m4; largest relative change 2.22e-16 (1 ulp) at m4")
    # the largest of several relative changes is named; crossing zero passes -0.0 and 0.0
    assert describe_change("r.csv", b"m,s\n2.0,5e-324\n", b"m,s\n2.5,-5e-324\n") == (
        "2 values changed, 0 not numbers: row 1 m, row 1 s; "
        "largest relative change 2 (3 ulp) at row 1 s")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        path = GOLDEN / case
        with tempfile.TemporaryDirectory() as scratch:
            exit_code, text = run_case(case, Path(scratch) / case)
        change = describe_change(case, path.read_bytes(), text) if path.exists() else "new file"
        print(f"{case}: exit {exit_code}, {change}")
        path.write_bytes(text)
