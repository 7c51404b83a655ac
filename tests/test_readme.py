"""The README's library snippet runs as printed, and its Options table gives the
parser's defaults."""

import re
from pathlib import Path

from simpbound import BoundInputs, PhiInterval, bound_t34, parse
from simpbound.cli import DEFAULT_Q_LIST, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_snippet_runs():
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    names: dict = {}
    exec(snippet, names)
    iv = PhiInterval(0.0, 2.0, phi=0.785398163397448)
    without_certificate = bound_t34(BoundInputs.from_function(parse("exp(x)"), iv, q=2.0))
    assert names["bound"] == without_certificate == 1.4422273479089347


def _option_defaults() -> dict[str, str]:
    """{flag: default column} of each ``| `--flag` | meaning | default |`` row."""
    rows = re.findall(r"^\| (`--.*?) \| .* \| (.*) \|$", README.read_text(), re.M)
    return {flag: default for flags, default in rows for flag in re.findall(r"`(--[\w-]+)`", flags)}


def _code(text: str) -> list[str]:
    return re.findall(r"`([^`]*)`", text)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


def test_the_options_table_gives_the_parser_defaults():
    defaults = _option_defaults()
    parser = build_parser()
    verify = parser.parse_args(["verify", "--f", "x", "--a", "0", "--b", "1"])
    sweep = parser.parse_args(["sweep", "--f", "x"])
    for args in (verify, sweep):
        assert _code(defaults["--phi"]) == [args.phi]
        assert _floats(*_code(defaults["--q"])) == _floats(args.q) == DEFAULT_Q_LIST
        assert float(*_code(defaults["--tol"])) == args.tol
        assert float(*_code(defaults["--identity-tol"])) == args.identity_tol
        assert int(*_code(defaults["--samples"])) == args.samples
        assert _code(defaults["--format"]) == [args.fmt]
    # verify requires both endpoints; sweep defaults them to 0 and 1
    assert defaults["--a"] == defaults["--b"] == "required / `0`,`1`"
    assert _code(defaults["--a"]) == [sweep.a, sweep.b]
