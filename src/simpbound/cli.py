"""Command-line front end: verify one configuration or sweep a list of segments.

A segment is one ``RunConfig``: one f on one [a, a + e^{i phi}(b - a)] with
its own q list and tolerances.  ``sweep`` on the command line builds its
segments as the grid of every (f, a, b, phi), each with the whole q list.

Exit codes: 0 success, 1 identity failure or a dominance violation under a
verified certificate, 2 invalid configuration (including expression syntax
errors), 3 math/domain errors during evaluation, 4 I/O errors while writing
the report.

The tuples that every run builds (its q list, certificates, theorem rows and
a report's bounds) are made from lists, and its float config is built by
``RunConfig`` itself, not ``_replace``, whose ``_make(map(...))`` goes the
same way.  CPython's ``tuple()`` of an iterator of unknown length grows the
tuple by resizing, so it never takes a tuple from the interpreter's free
lists, yet it returns one to them when it is freed: run after run in one
process then fills those lists, up to 2 000 tuples of each length, until a
full garbage collection, which a run that allocates few containers seldom
triggers.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import re
import sys
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

from .bounds import (
    BoundInputs,
    BoundReport,
    bound_t31,
    bound_t32,
    bound_t33,
    bound_t34,
    classical_bound,
    estimate_m4,
    make_bound_report,
)
from .convexity import (
    DEFAULT_CERT_SAMPLES,
    SKIPPED,
    VERIFIED,
    ConvexityCertificate,
    certify_phi_convexity,
)
from .domain import PhiInterval
from .expr import EvalDomainError, ParseError, parse
from .identity import DEFAULT_IDENTITY_TOL, IdentityReport, identity_residual
from .quad import DEFAULT_TOL, QuadratureError
from .report import (
    render_csv_sweep,
    render_csv_verify,
    render_json,
    render_table_sweep,
    render_table_verify,
    sweep_json_doc,
    verify_json_doc,
)

__all__ = [
    "RunConfig",
    "RunReport",
    "SweepCell",
    "SweepSummary",
    "SweepReport",
    "ConfigError",
    "cmd_verify",
    "cmd_sweep",
    "emit_report",
    "main",
]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_MATH = 3
EXIT_IO = 4

FORMATS = ("table", "json", "csv")
DEFAULT_Q_LIST = (1.0, 1.5, 2.0, 3.0, 5.0)
THEOREM_ORDER = ("T31", "T32", "T33", "T34", "CLASSICAL")

# phi accepts radians as a decimal or one of these exact tokens
PHI_TOKENS = {
    "0": 0.0,
    "pi/6": math.pi / 6.0,
    "pi/4": math.pi / 4.0,
    "pi/3": math.pi / 3.0,
    "pi/2": math.pi / 2.0,
}

VERDICT_ALL_DOMINANT = "all-dominant"
VERDICT_VIOLATIONS = "violations-listed"

# Prefix for an OverflowError, whose own text is a bare errno tuple; a float
# power such as |f'(b)|^q raises one when the result is out of range.
OVERFLOW = "numerical overflow:"

# Errors raised while evaluating a configuration (exit 3, or a failed cell).
MATH_ERRORS = (EvalDomainError, QuadratureError, ValueError, OverflowError)


class ConfigError(Exception):
    """Invalid run configuration (maps to exit code 2)."""


class RunConfig(NamedTuple):
    expression: str
    a: float
    b: float
    phi: float = 0.0
    qs: tuple[float, ...] = DEFAULT_Q_LIST
    oracle_tol: float = DEFAULT_TOL
    identity_tol: float = DEFAULT_IDENTITY_TOL
    certificate_samples: int = DEFAULT_CERT_SAMPLES


class RunReport(NamedTuple):
    config: RunConfig
    identity: IdentityReport
    certificates: tuple[ConvexityCertificate, ...]
    rows_per_q: tuple[tuple[BoundReport, ...], ...]  # the theorem rows of each certificate
    classical: Optional[BoundReport]
    m4_estimate: Optional[float]

    @property
    def bounds(self) -> tuple[BoundReport, ...]:
        return tuple([row for rows in self.rows_per_q for row in rows])

    def all_rows(self) -> tuple[BoundReport, ...]:
        return self.bounds + (() if self.classical is None else (self.classical,))

    @property
    def identity_ok(self) -> bool:
        return self.identity.residual <= self.config.identity_tol

    @property
    def verdict(self) -> str:
        dominant = all(r.dominant for r in self.all_rows())
        return VERDICT_ALL_DOMINANT if dominant else VERDICT_VIOLATIONS

    @property
    def passed(self) -> bool:
        """Identity within tolerance and no verified-certificate violation."""
        return self.identity_ok and not any(
            r.certificate_status == VERIFIED and not r.dominant for r in self.bounds)

    def cell(self, k: int) -> "RunReport":
        """The report of the k-th q alone: what ``cmd_verify`` gives for it."""
        return RunReport(self.config._replace(qs=self.config.qs[k:k + 1]), self.identity,
                         self.certificates[k:k + 1], self.rows_per_q[k:k + 1],
                         self.classical, self.m4_estimate)


def _as_floats(config: RunConfig) -> RunConfig:
    """``config`` with every number but the sample count made a float.

    The one coercion of the pipeline: a run on int endpoints or q computes
    and reports exactly what the same run on floats does.
    """
    return RunConfig(config.expression, float(config.a), float(config.b), float(config.phi),
                     tuple([float(q) for q in config.qs]), float(config.oracle_tol),
                     float(config.identity_tol), config.certificate_samples)


def validate_config(config: RunConfig) -> PhiInterval:
    """Check ``config`` and return its segment; raises ConfigError."""
    if not config.expression.strip():
        raise ConfigError("expression must be nonempty")
    try:
        iv = PhiInterval(config.a, config.b, config.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not config.qs:
        raise ConfigError("q list must be nonempty")
    for q in config.qs:
        if not (math.isfinite(q) and q >= 1.0):
            raise ConfigError(f"every q must be finite and >= 1, got {q}")
    for name, tol in (("oracle", config.oracle_tol), ("identity", config.identity_tol)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ConfigError(f"{name} tolerance must be finite and positive, got {tol}")
    if not config.oracle_tol * abs(iv.chord) > 0.0:  # the path integral's tolerance scales by it
        raise ConfigError(f"oracle tolerance {config.oracle_tol} times the segment length "
                          f"{iv.length} underflows to 0")
    if not config.oracle_tol / abs(iv.chord) > 0.0:  # the kernel integral's, divided by it
        raise ConfigError(f"oracle tolerance {config.oracle_tol} divided by the segment length "
                          f"{iv.length} underflows to 0")
    if config.certificate_samples < 3:
        raise ConfigError(f"certificate samples must be >= 3, got {config.certificate_samples}")
    return iv


def cmd_verify(config: RunConfig) -> RunReport:
    """Run the full pipeline for one configuration.

    parse -> identity residual -> certificate per q -> every applicable
    bound, from that certificate's |f'(a)| and |f'(b)| -> classical bound
    (phi = 0 only).  A side of the identity, its residual or a bound that
    is not finite raises OverflowError naming it, so no report carries inf
    or nan.  The report's config is ``config`` with its numbers made floats.
    """
    config = _as_floats(config)
    iv = validate_config(config)
    f = parse(config.expression)

    identity = identity_residual(f, iv, tol=config.oracle_tol)
    if not math.isfinite(identity.residual):  # as it is whenever a side is not finite
        sides = (("Simpson functional", identity.simpson_value),
                 ("path mean", identity.path_mean), ("right side", identity.rhs))
        named = [f"{name} is {value}" for name, value in sides if not cmath.isfinite(value)]
        raise OverflowError("identity " + (", ".join(named) or f"residual is {identity.residual}"))
    actual = abs(identity.lhs)

    certificates = certify_phi_convexity(f, iv, config.qs, samples=config.certificate_samples)
    rows_per_q = tuple([_theorem_rows(cert, iv.length, actual) for cert in certificates])

    classical = m4 = None
    if config.phi == 0.0:
        m4 = estimate_m4(f, iv)
        classical = make_bound_report("CLASSICAL", None, classical_bound(m4, iv.length),
                                      actual, SKIPPED)
    report = RunReport(config, identity, certificates, rows_per_q, classical, m4)
    for row in report.all_rows():
        if not math.isfinite(row.bound):
            raise OverflowError(f"{row.theorem} bound is {row.bound}")
    return report


def _theorem_rows(cert: ConvexityCertificate, length: float,
                  actual: float) -> tuple[BoundReport, ...]:
    """T31 to T34 from one certificate's |f'(a)|, |f'(b)| and q; T32 and T33 need q > 1."""
    inputs = BoundInputs(cert.deriv_a, cert.deriv_b, length, cert.q)
    theorems = (("T31", bound_t31), ("T32", bound_t32), ("T33", bound_t33), ("T34", bound_t34))
    return tuple([make_bound_report(name, cert.q, bound(inputs), actual, cert.status)
                  for name, bound in theorems if cert.q > 1.0 or name in ("T31", "T34")])


class SweepCell(NamedTuple):
    config: RunConfig
    report: Optional[RunReport]
    error: Optional[str]


class SweepSummary(NamedTuple):
    cells: int
    errors: int
    max_residual: Optional[float]
    min_slack: dict[str, Optional[float]]
    violations: int
    verified_violations: int


class SweepReport(NamedTuple):
    cells: tuple[SweepCell, ...]
    summary: SweepSummary

    @property
    def passed(self) -> bool:
        return all(cell.report.passed for cell in self.cells if cell.report is not None)


def cmd_sweep(segments: Sequence[RunConfig]) -> SweepReport:
    """One cell per q of each segment, in order; failing cells are recorded, not fatal.

    Each segment is verified once for its whole q list and its report
    sliced into one cell per q.  When that run fails, the segment's cells
    are run one by one, so each keeps its own error.
    """
    cells: list[SweepCell] = []
    for segment in map(_as_floats, segments):
        report, error = _attempt(segment)
        if report is not None:
            cells.extend(SweepCell(cell.config, cell, None)
                         for cell in map(report.cell, range(len(segment.qs))))
        elif len(segment.qs) <= 1:
            cells.append(SweepCell(segment, None, error))
        else:
            for q in segment.qs:
                cell_config = segment._replace(qs=(q,))
                cells.append(SweepCell(cell_config, *_attempt(cell_config)))
    return SweepReport(tuple(cells), _summarize(cells))


def _attempt(config: RunConfig) -> tuple[Optional[RunReport], Optional[str]]:
    """``cmd_verify``'s report, or the text of the error it raised."""
    try:
        return cmd_verify(config), None
    except (ConfigError, ParseError, *MATH_ERRORS) as exc:
        return None, _error_text(exc)


def _error_text(exc: Exception) -> str:
    return f"{OVERFLOW} {exc}" if isinstance(exc, OverflowError) else str(exc)


def _summarize(cells: Sequence[SweepCell]) -> SweepSummary:
    residuals = [cell.report.identity.residual for cell in cells if cell.report is not None]
    rows = [row for cell in cells if cell.report is not None
            for row in cell.report.all_rows()]
    min_slack: dict[str, Optional[float]] = {}
    for theorem in THEOREM_ORDER:
        slacks = [row.slack for row in rows if row.theorem == theorem]
        min_slack[theorem] = min(slacks) if slacks else None
    violations = sum(1 for row in rows if not row.dominant)
    verified_violations = sum(
        1 for row in rows if not row.dominant and row.certificate_status == VERIFIED
    )
    return SweepSummary(
        cells=len(cells),
        errors=sum(1 for cell in cells if cell.report is None),
        max_residual=max(residuals) if residuals else None,
        min_slack=min_slack,
        violations=violations,
        verified_violations=verified_violations,
    )


def emit_report(report, fmt: str, path: Optional[str] = None) -> None:
    """Write the rendered report to ``path`` or standard output (UTF-8)."""
    sweep = isinstance(report, SweepReport)
    if fmt == "json":
        text = render_json(sweep_json_doc(report) if sweep else verify_json_doc(report))
    elif fmt == "csv":
        text = (render_csv_sweep if sweep else render_csv_verify)(report)
    else:
        text = (render_table_sweep if sweep else render_table_verify)(report)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Argument handling

def parse_phi(token: str) -> float:
    text = token.strip()
    if text in PHI_TOKENS:
        return PHI_TOKENS[text]
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"invalid phi {token!r}: expected radians or one of {', '.join(PHI_TOKENS)}"
        ) from None


def _parse_float_list(text: str, name: str,
                      convert: Callable[[str], float] = float) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{name} list must be nonempty")
    try:
        return tuple([convert(piece) for piece in items])
    except ValueError as exc:
        raise ConfigError(f"invalid {name} list {text!r}: {exc}") from None


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", default=",".join(map(str, DEFAULT_Q_LIST)),
                     help="comma-separated exponents q >= 1")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="quadrature oracle tolerance (default 1e-11)")
    sub.add_argument("--identity-tol", type=float, default=DEFAULT_IDENTITY_TOL,
                     help="identity residual tolerance (default 1e-8)")
    sub.add_argument("--samples", type=int, default=DEFAULT_CERT_SAMPLES,
                     help="convexity certificate sample count (default 1001)")
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default="table",
                     help="output format (default table)")
    sub.add_argument("--output", "-o", default=None,
                     help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simpbound",
        description="Verify the Simpson-functional error identity on rotated "
                    "segments and certify its closed-form bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one configuration")
    verify.add_argument("--f", dest="expression", required=True, metavar="EXPR",
                        help="expression in x, e.g. 'exp(x) + x^2'")
    verify.add_argument("--a", type=float, required=True, help="left endpoint")
    verify.add_argument("--b", type=float, required=True, help="right endpoint")
    verify.add_argument("--phi", default="0",
                        help=f"rotation angle in radians, or {', '.join(PHI_TOKENS)}")
    _add_common_arguments(verify)

    sweep = sub.add_parser("sweep", help="cartesian grid of configurations")
    sweep.add_argument("--f", dest="expressions", action="append", required=True,
                       metavar="EXPR", help="expression (repeatable)")
    sweep.add_argument("--a", default="0", help="comma-separated left endpoints")
    sweep.add_argument("--b", default="1", help="comma-separated right endpoints")
    sweep.add_argument("--phi", default="0", help="comma-separated angles")
    _add_common_arguments(sweep)

    return parser


def _verify_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(args.expression, args.a, args.b, parse_phi(args.phi),
                     _parse_float_list(args.q, "q"), args.tol, args.identity_tol, args.samples)


def _sweep_segments(args: argparse.Namespace) -> list[RunConfig]:
    """One segment per (f, a, b, phi) of the grid, each with the whole q list."""
    axes = (_parse_float_list(args.a, "a"), _parse_float_list(args.b, "b"),
            _parse_float_list(args.phi, "phi", parse_phi))
    qs = _parse_float_list(args.q, "q")
    return [RunConfig(expression, a, b, phi, qs, args.tol, args.identity_tol, args.samples)
            for expression, a, b, phi in product(args.expressions, *axes)]


# Options whose value may be a negative number or a list starting with one.
NUMERIC_OPTIONS = ("--a", "--b", "--phi", "--q", "--tol", "--identity-tol")
# A negative number as float() reads it: a digit or a dot, or inf, infinity or nan in any case.
_NEGATIVE_VALUE = r"-(?:[\d.]|(?i:infinity|inf|nan)\b)"


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Write ``--a -1e-300`` as ``--a=-1e-300`` and ``--f -x`` as ``--f=-x``.

    argparse takes a separate argument that starts with ``-`` for an option
    unless it looks like a plain negative number, which rules out scientific
    notation, comma lists, ``-inf``, ``-nan`` and expressions such as
    ``-x^2``.
    """
    out: list[str] = []
    for arg in argv:
        if out and (out[-1] == "--f" or out[-1] in NUMERIC_OPTIONS
                    and re.match(_NEGATIVE_VALUE, arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built once per process for :func:`main`.

    A parser is a web of reference cycles, so one built per call lingers
    until the cyclic garbage collector runs; parsing does not change it.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return _run_command(args)
    except Exception as exc:  # unlisted failures are the tool's own: exit 3, never 1
        print(f"simpbound: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH


def _run_command(args: argparse.Namespace) -> int:
    """Run the parsed command, report it and map each listed error to its exit code."""
    try:
        if args.command == "verify":
            report = cmd_verify(_verify_config(args))
        else:
            report = cmd_sweep(_sweep_segments(args))
    except (ConfigError, ParseError) as exc:
        print(f"simpbound: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MATH_ERRORS as exc:
        print(f"simpbound: {_error_text(exc)}", file=sys.stderr)
        return EXIT_MATH
    try:
        emit_report(report, args.fmt, args.output)
    except OSError as exc:
        print(f"simpbound: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if report.passed else EXIT_VIOLATION
