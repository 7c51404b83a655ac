"""Command-line front end: verify one configuration or sweep a grid.

Exit codes: 0 success, 1 identity failure or a dominance violation under a
verified certificate, 2 invalid configuration (including expression syntax
errors), 3 math/domain errors during evaluation, 4 I/O errors while writing
the report.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Optional, Sequence

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
    "SweepConfig",
    "SweepCell",
    "SweepSummary",
    "SweepReport",
    "ConfigError",
    "cmd_verify",
    "cmd_sweep",
    "emit_report",
    "main",
    "run",
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


@dataclass(frozen=True)
class RunConfig:
    expression: str
    a: float
    b: float
    phi: float = 0.0
    qs: tuple[float, ...] = DEFAULT_Q_LIST
    oracle_tol: float = DEFAULT_TOL
    identity_tol: float = DEFAULT_IDENTITY_TOL
    certificate_samples: int = DEFAULT_CERT_SAMPLES


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
    identity: IdentityReport
    certificates: tuple[ConvexityCertificate, ...]
    rows_per_q: tuple[tuple[BoundReport, ...], ...]  # the theorem rows of each certificate
    classical: Optional[BoundReport]
    m4_estimate: Optional[float]

    @property
    def bounds(self) -> tuple[BoundReport, ...]:
        return tuple(row for rows in self.rows_per_q for row in rows)

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
        return RunReport(replace(self.config, qs=self.config.qs[k:k + 1]), self.identity,
                         self.certificates[k:k + 1], self.rows_per_q[k:k + 1],
                         self.classical, self.m4_estimate)


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
    if config.certificate_samples < 3:
        raise ConfigError(f"certificate samples must be >= 3, got {config.certificate_samples}")
    return iv


def cmd_verify(config: RunConfig) -> RunReport:
    """Run the full pipeline for one configuration.

    parse -> identity residual -> certificate per q -> every applicable
    bound -> classical bound (phi = 0 only).  A residual or a bound that is
    not finite raises OverflowError, so no report carries inf or nan.
    """
    iv = validate_config(config)
    f = parse(config.expression)

    identity = identity_residual(f, iv, tol=config.oracle_tol)
    if not math.isfinite(identity.residual):
        raise OverflowError(f"identity residual is {identity.residual}")
    actual = abs(identity.lhs)

    certificates = certify_phi_convexity(f, iv, config.qs, samples=config.certificate_samples)
    inputs = BoundInputs.from_function(f, iv)
    rows_per_q = tuple(_theorem_rows(replace(inputs, q=cert.q), cert, actual)
                       for cert in certificates)

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


def _theorem_rows(inputs: BoundInputs, cert: ConvexityCertificate,
                  actual: float) -> tuple[BoundReport, ...]:
    """T31 to T34 for one certificate, from ``inputs`` at its q; T32 and T33 need q > 1."""
    theorems = (("T31", bound_t31), ("T32", bound_t32), ("T33", bound_t33), ("T34", bound_t34))
    return tuple(make_bound_report(name, cert.q, bound(inputs), actual, cert.status)
                 for name, bound in theorems if cert.q > 1.0 or name in ("T31", "T34"))


@dataclass(frozen=True)
class SweepConfig:
    expressions: tuple[str, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    phi_values: tuple[float, ...]
    q_values: tuple[float, ...]
    oracle_tol: float = DEFAULT_TOL
    identity_tol: float = DEFAULT_IDENTITY_TOL
    certificate_samples: int = DEFAULT_CERT_SAMPLES


@dataclass(frozen=True)
class SweepCell:
    config: RunConfig
    report: Optional[RunReport]
    error: Optional[str]


@dataclass(frozen=True)
class SweepSummary:
    cells: int
    errors: int
    max_residual: Optional[float]
    min_slack: dict[str, Optional[float]]
    violations: int
    verified_violations: int


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]
    summary: SweepSummary

    @property
    def passed(self) -> bool:
        return all(cell.report.passed for cell in self.cells if cell.report is not None)


def cmd_sweep(config: SweepConfig) -> SweepReport:
    """One cell per (f, a, b, phi, q); failing cells are recorded, not fatal.

    Each (f, a, b, phi) segment is verified once for the whole q list and
    its report sliced into one cell per q.  When that run fails, the
    segment's cells are run one by one, so each keeps its own error.
    """
    for name, values in (("expression", config.expressions), ("a", config.a_values),
                         ("b", config.b_values), ("phi", config.phi_values),
                         ("q", config.q_values)):
        if not values:
            raise ConfigError(f"{name} list must be nonempty")

    cells: list[SweepCell] = []
    for expression, a, b, phi in product(config.expressions, config.a_values,
                                         config.b_values, config.phi_values):
        segment = RunConfig(expression, a, b, phi, config.q_values, config.oracle_tol,
                            config.identity_tol, config.certificate_samples)
        report, error = _attempt(segment)
        if report is not None:
            cells.extend(SweepCell(cell.config, cell, None)
                         for cell in map(report.cell, range(len(segment.qs))))
        elif len(segment.qs) == 1:
            cells.append(SweepCell(segment, None, error))
        else:
            for q in segment.qs:
                cell_config = replace(segment, qs=(q,))
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
        return tuple(convert(piece) for piece in items)
    except ValueError as exc:
        raise ConfigError(f"invalid {name} list {text!r}: {exc}") from None


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
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
                        help="rotation angle in radians, or 0, pi/6, pi/4, pi/3, pi/2")
    verify.add_argument("--q", default="1,1.5,2,3,5",
                        help="comma-separated exponents q >= 1")
    _add_common_arguments(verify)

    sweep = sub.add_parser("sweep", help="cartesian grid of configurations")
    sweep.add_argument("--f", dest="expressions", action="append", required=True,
                       metavar="EXPR", help="expression (repeatable)")
    sweep.add_argument("--a", default="0", help="comma-separated left endpoints")
    sweep.add_argument("--b", default="1", help="comma-separated right endpoints")
    sweep.add_argument("--phi", default="0", help="comma-separated angles")
    sweep.add_argument("--q", default="1,1.5,2,3,5", help="comma-separated exponents")
    _add_common_arguments(sweep)

    return parser


def _verify_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        expression=args.expression,
        a=args.a,
        b=args.b,
        phi=parse_phi(args.phi),
        qs=_parse_float_list(args.q, "q"),
        oracle_tol=args.tol,
        identity_tol=args.identity_tol,
        certificate_samples=args.samples,
    )


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    return SweepConfig(
        expressions=tuple(args.expressions),
        a_values=_parse_float_list(args.a, "a"),
        b_values=_parse_float_list(args.b, "b"),
        phi_values=_parse_float_list(args.phi, "phi", parse_phi),
        q_values=_parse_float_list(args.q, "q"),
        oracle_tol=args.tol,
        identity_tol=args.identity_tol,
        certificate_samples=args.samples,
    )


# Options whose value may be a negative number or a list starting with one.
NUMERIC_OPTIONS = ("--a", "--b", "--phi", "--q")
_NEGATIVE_VALUE = r"-[\d.]"


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Write ``--a -1e-300`` as ``--a=-1e-300`` and ``--f -x`` as ``--f=-x``.

    argparse takes a separate argument that starts with ``-`` for an option
    unless it looks like a plain negative number, which rules out scientific
    notation, comma lists and expressions such as ``-x^2``.
    """
    out: list[str] = []
    for arg in argv:
        if out and (out[-1] == "--f" or out[-1] in NUMERIC_OPTIONS
                    and re.match(_NEGATIVE_VALUE, arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
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
            report = cmd_sweep(_sweep_config(args))
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


def run() -> None:
    raise SystemExit(main())
