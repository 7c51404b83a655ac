"""The README's library snippet runs as printed."""

import re
from pathlib import Path

from simpbound import BoundInputs, PhiInterval, bound_t34, parse

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_snippet_runs():
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    names: dict = {}
    exec(snippet, names)
    iv = PhiInterval(0.0, 2.0, phi=0.785398163397448)
    without_certificate = bound_t34(BoundInputs.from_function(parse("exp(x)"), iv, q=2.0))
    assert names["bound"] == without_certificate == 1.4422273479089347
