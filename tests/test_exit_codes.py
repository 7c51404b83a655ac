"""Every input ends in a documented exit code, never in a traceback.

Hypothesis drives ``main`` in-process with generated expressions and
configurations, for both commands and all three formats.  No exception may
escape, the exit code must be 0 to 3 (reports go to standard output, so 4
cannot occur), every JSON report must parse with non-finite constants
rejected, and exit 1 must come with an identity failure or a violation under
a verified certificate in the report.

The generator keeps every example far from the quadrature's 10^6-evaluation
budget, which a slow example would otherwise spend at several seconds each.
Generated functions are entire: sums, differences and products of up to
three terms c*x^k, exp(c*x), sin(c*x) and cos(c*x) with |c| <= 1 and k <= 3,
on segments with |a| <= 1 and b - a <= 1.  So |z| <= 2 on every path, |f|
and |f'| stay below about 10^4, and each quadrature meets its 1e-11
tolerance in a few hundred evaluations.  Failures come from a fixed list of
inputs that fail before or at their first evaluation: domain errors at an
endpoint or the midpoint, syntax errors, invalid configurations and
overflows.

``python -m simpbound`` is checked against ``main`` in a subprocess.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from simpbound.cli import main

# (verify arguments, exit code): each fails before or at its first evaluation
FAILING = [
    (["--f", "log(x)", "--a", "0", "--b", "1"], 3),
    (["--f", "1/(x-1)", "--a", "0", "--b", "2"], 3),
    (["--f", "x^^2", "--a", "0", "--b", "1"], 2),
    (["--f", "foo(x)", "--a", "0", "--b", "1"], 2),
    (["--f", " ", "--a", "0", "--b", "1"], 2),
    (["--f", "x", "--a", "1", "--b", "0"], 2),
    (["--f", "x", "--a", "0", "--b", "1", "--phi", "-1e-3"], 2),
    (["--f", "x", "--a", "0", "--b", "1", "--q", "0.5"], 2),
    (["--f", "x", "--a", "0", "--b", "1", "--tol", "inf"], 2),
    (["--f", "exp(x)", "--a", "0", "--b", "700", "--q", "1"], 3),
    (["--f", "exp(x)", "--a", "0", "--b", "10", "--q", "400"], 3),
    (["--f", "1e308*x", "--a", "0", "--b", "1.7", "--q", "1"], 3),
    (["--f", "exp(x)", "--a", "0", "--b", "1", "--identity-tol", "1e-18"], 1),
]

# (verify arguments, exit code) of inputs that once ended in another code
FIXED = [
    # tol / (b - a), the kernel integral's tolerance, underflowed to 0: was exit 3
    (["--f", "x", "--a", "0", "--b", "2", "--q", "1", "--tol", "5e-324"], 2),
    (["--f", "x", "--a", "0", "--b", "1e5", "--tol", "1e-320"], 2),
    # kernel_moment(p) left the float range for q just above 1: T32 = T33 = 0
    # and exit 1 at q = 1.00254, exit 3 at q = 1.001; exit 0 with a JSON report
    # that parses without non-finite constants means finite, dominant T32/T33
    (["--f", "exp(x)", "--a", "0", "--b", "1", "--q", "1.00254"], 0),
    (["--f", "exp(x)", "--a", "0", "--b", "1", "--q", "1.001"], 0),
]

_coefficients = st.integers(-10, 10).map(lambda n: f"{n / 10:g}")
_terms = st.one_of(
    st.builds(lambda c, k: f"{c}*x^{k}", _coefficients, st.integers(0, 3)),
    st.builds(lambda fn, c: f"{fn}({c}*x)", st.sampled_from(["exp", "sin", "cos"]),
              _coefficients),
)
_expressions = st.builds(
    lambda first, rest: first + "".join(f" {op} {term}" for op, term in rest),
    _terms, st.lists(st.tuples(st.sampled_from("+-*"), _terms), max_size=2))
_left = st.integers(-10, 10).map(lambda n: n / 10)
_width = st.integers(1, 10).map(lambda n: n / 10)
_phis = st.sampled_from(["0", "pi/6", "pi/4", "pi/3", "pi/2", "0.3"])
_qs = st.lists(st.sampled_from(["1", "1.5", "2", "3", "400"]), min_size=1, max_size=3)


def _csv(values) -> str:
    return ",".join(values)


@st.composite
def _verify_argv(draw) -> list[str]:
    a = draw(_left)
    return ["verify", "--f", draw(_expressions), "--a", repr(a), "--b", repr(a + draw(_width)),
            "--phi", draw(_phis), "--q", _csv(draw(_qs))]


@st.composite
def _sweep_argv(draw) -> list[str]:
    argv = ["sweep"]
    for expression in draw(st.lists(_expressions, min_size=1, max_size=2)):
        argv += ["--f", expression]
    a_values = draw(st.lists(_left, min_size=1, max_size=2))
    b = max(a_values) + draw(_width)
    return argv + ["--a", _csv(map(repr, a_values)), "--b", repr(b),
                   "--phi", _csv(draw(st.lists(_phis, min_size=1, max_size=2))),
                   "--q", _csv(draw(_qs))]


def _reject(constant):
    raise ValueError(f"non-finite constant {constant}")


def _shows_a_failure(run: dict) -> bool:
    """An identity failure or a bound violated under a verified certificate."""
    rows = run["bounds"] + ([run["classical"]] if run["classical"] else [])
    return (not run["identity"]["within_tolerance"]
            or any(row["certificate_status"] == "verified" and not row["dominant"]
                   for row in rows))


def run_main(argv: list[str], fmt: str) -> int:
    """Exit code of ``main`` on ``argv`` with ``--format fmt``.

    Every check of the exit-code contract runs here: no exception escapes,
    the code is 0 to 3, a failed run writes only its ``simpbound:`` line, a
    JSON report parses with non-finite constants rejected, and exit 1 comes
    with a failure the report shows.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    assert code in (0, 1, 2, 3), err.getvalue()
    if code >= 2:
        assert out.getvalue() == "" and err.getvalue().startswith("simpbound: ")
    elif fmt == "json":
        doc = json.loads(out.getvalue(), parse_constant=_reject)
        runs = [r for r in doc.get("runs", [doc]) if r.get("status", "ok") == "ok"]
        assert (code == 1) == any(_shows_a_failure(r) for r in runs)
    return code


FORMATS = ("json", "csv", "table")


@settings(max_examples=150)
@given(argv=st.one_of(_verify_argv(), _sweep_argv()), fmt=st.sampled_from(FORMATS),
       samples=st.integers(3, 41))
def test_generated_inputs_keep_the_exit_code_contract(argv, fmt, samples):
    run_main([*argv, "--samples", str(samples)], fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv,expected", FAILING, ids=[" ".join(a) for a, _ in FAILING])
def test_failing_inputs_keep_the_exit_code_contract(argv, expected, fmt):
    assert run_main(["verify", *argv, "--samples", "11"], fmt) == expected


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv,expected", FIXED, ids=[" ".join(a) for a, _ in FIXED])
def test_fixed_inputs_keep_their_exit_code(argv, expected, fmt):
    assert run_main(["verify", *argv, "--samples", "11"], fmt) == expected


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--f", "exp(x)", "--a", "0", "--b", "1", "--q", "2"], 0),
    (["verify", "--f", "x", "--a", "1", "--b", "0"], 2),
])
def test_python_m_simpbound_runs_main(argv, expected):
    """``python -m simpbound`` gives ``main``'s exit code, report and message."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    src = str(Path(__file__).resolve().parent.parent / "src")
    module = subprocess.run([sys.executable, "-m", "simpbound", *argv], capture_output=True,
                            text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert code == expected
    assert (module.returncode, module.stdout, module.stderr) == (code, out.getvalue(),
                                                                 err.getvalue())
