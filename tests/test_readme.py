"""The README's library snippet runs as printed, its Options table gives the
parser's defaults, and its machine report schema lists the JSON report's fields."""

import re
from pathlib import Path

from simpbound import BoundInputs, PhiInterval, bound_t34, parse
from simpbound.cli import DEFAULT_Q_LIST, RunConfig, build_parser, cmd_sweep, cmd_verify
from simpbound.report import sweep_json_doc, verify_json_doc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_snippet_runs():
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    names: dict = {}
    exec(snippet, names)
    iv = PhiInterval(0.0, 2.0, phi=0.785398163397448)
    without_certificate = bound_t34(BoundInputs.from_function(parse("exp(x)"), iv, q=2.0))
    assert names["bound"] == without_certificate == 1.442227347908935


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


def _schema() -> tuple[dict, str]:
    """The JSON block of "Machine report schema" as {field: listing}, and the sweep paragraph."""
    section = README.read_text().split("## Machine report schema", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    entries = dict(re.findall(r"^(\w+) +(.*?)(?=^\w|\Z)", block, re.M | re.S))
    sweep = re.search(r"^Sweeps wrap .*?(?=\n\n)", section, re.M | re.S).group(0)
    return entries, sweep


def _shape(listing: str):
    """``{ a, b{c,d}, e[] }`` as {a: None, b: {c: None, d: None}, e: None};
    ``[ { ... } ]`` as a list of that."""
    tokens = re.findall(r"\w+|[{}\[\],]", listing)

    def read_object(i: int) -> tuple[dict, int]:  # tokens[i] is "{"
        fields: dict = {}
        i += 1
        while tokens[i] != "}":
            name, i = tokens[i], i + 1
            fields[name] = None
            if tokens[i] == "{":
                fields[name], i = read_object(i)
            elif tokens[i] == "[":  # a list of numbers: name[]
                i += 2
            i += tokens[i] == ","
        return fields, i + 1

    if tokens[0] == "[":
        return [read_object(1)[0]]
    return read_object(0)[0]


def _assert_fields(shape, value) -> None:
    if isinstance(shape, list):
        assert value
        for item in value:
            _assert_fields(shape[0], item)
    else:
        assert list(shape) == list(value)
        for name, inner in shape.items():
            if inner is not None:
                _assert_fields(inner, value[name])


def test_the_schema_lists_the_fields_of_real_reports():
    entries, sweep_text = _schema()
    doc = verify_json_doc(cmd_verify(RunConfig("x^4", 0.0, 1.0, qs=(1.0, 2.0),
                                               certificate_samples=101)))
    assert list(entries) == list(doc)
    for name in ("config", "identity", "certificates", "bounds"):
        _assert_fields(_shape(entries[name]), doc[name])
    assert entries["classical"].startswith("bound row + m4_estimate")
    assert list(doc["classical"]) == [*doc["bounds"][0], "m4_estimate"]
    assert doc["verdict"] in re.findall(r'"([\w-]+)"', entries["verdict"])

    # the segment [2, 1] fails, so the sweep has one run of each kind
    sweep = sweep_json_doc(cmd_sweep([RunConfig("x^4", a, 1.0, qs=(2.0,), certificate_samples=11)
                                      for a in (0.0, 2.0)]))
    runs_text, summary_text = sweep_text.split("`summary`")
    runs_names = _code(runs_text)  # runs, then each run's leading fields and a failed cell's
    assert list(sweep) == [runs_names[0], "summary"]
    ok, failed = sweep["runs"]
    assert list(ok) == [*runs_names[1:3], *doc]
    assert list(failed) == runs_names[1:]
    assert list(sweep["summary"]) == _code(summary_text)
