"""The repository's pytest settings let a session outlive a failing Hypothesis test.

``filterwarnings = ["error"]`` makes every warning an error, and Hypothesis
may warn while it reports a falsifying example (``mypy_extensions.TypedDict
is deprecated``); as an error, that warning ends the session with an
INTERNALERROR, and no later test runs.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0
"""

PASSING = """\
def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_a_fails.py").write_text(FAILING)
    (tmp_path / "test_b_passes.py").write_text(PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_a_fails.py", "test_b_passes.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
