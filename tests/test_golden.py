"""Byte-identity gate: fixed CLI runs must reproduce the committed reports.

Each case runs ``main`` with ``--output`` and compares the written bytes and
the exit code with ``tests/golden/<name>``.  The corpus covers every report
format, the classical row (phi = 0), a rotated segment, a sweep cell that
fails with a domain error, a sweep with an overflow at one q between two ok
cells of the same segment, a repeated q and an a > b segment, and a violated
certificate.  A change that alters
any report byte must say why and regenerate the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        exit_code, _ = run_case(case, GOLDEN / case)
        print(f"{case}: exit {exit_code}", file=sys.stderr)
