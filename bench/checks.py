"""Output checks by content, and independent oracles, for benchmark ops.

The checks read the report the way a user would (JSON or CSV), so a change
that legitimately alters report bytes does not break them, while a fast
wrong answer still fails.  Each check returns a list of problems; an empty
list means the op's output is accepted.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

from workloads import Op

DOMINANCE_SLOP = 1e-12  # the tool's documented slack allowance
IDENTITY_TOL = 1e-8  # the CLI default, which no op overrides
STATUSES = {"verified", "violated", "skipped"}
CSV_COLUMNS = ["expression", "a", "b", "phi", "theorem", "q",
               "bound", "actual", "slack", "dominant", "certificate_status"]

# Oracle tolerances.  The oracles and the tool agree to about 1e-15 on these
# inputs; the quadrature asks for 1e-11, so 1e-9 leaves room without letting
# a wrong segment, branch or formula through.
MEAN_TOL = 1e-9
SIMPSON_RTOL = 1e-12
T31_RTOL = 1e-12


def expected_rows(phi: float, qs: tuple[float, ...]) -> list[tuple[str, float | None]]:
    """(theorem, q) rows in report order: no T32/T33 at q = 1, CLASSICAL only at phi = 0."""
    rows: list[tuple[str, float | None]] = []
    for q in qs:
        rows.append(("T31", q))
        if q > 1.0:
            rows += [("T32", q), ("T33", q)]
        rows.append(("T34", q))
    if phi == 0.0:
        rows.append(("CLASSICAL", None))
    return rows


def check(op: Op, text: str) -> list[str]:
    """Problems found in the report ``text`` that ``op`` wrote."""
    try:
        return _check_csv(op, text) if op.fmt == "csv" else _check_json(op, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def _row_problems(where: str, theorem: str, slack: float, dominant: bool, status: str) -> list[str]:
    problems = []
    if dominant != (slack >= -DOMINANCE_SLOP):
        problems.append(f"{where}: dominant={dominant} but slack={slack!r}")
    if status not in STATUSES or (theorem == "CLASSICAL") != (status == "skipped"):
        problems.append(f"{where}: certificate status {status!r}")
    if status == "verified" and not dominant:
        problems.append(f"{where}: verified certificate but bound violated")
    return problems


def _check_json(op: Op, text: str) -> list[str]:
    doc = json.loads(text)
    cfg, identity = doc["config"], doc["identity"]
    (expression,), (a,), (b,), (phi,) = op.expressions, op.a_values, op.b_values, op.phis
    problems = []
    if (cfg["expression"], cfg["a"], cfg["b"], cfg["phi"], tuple(cfg["q"])) != (
            expression, a, b, phi, op.qs):
        problems.append(f"config echo differs: {cfg}")
    if not (identity["residual"] <= IDENTITY_TOL and identity["within_tolerance"] is True):
        problems.append(f"identity residual {identity['residual']!r} not within {IDENTITY_TOL}")
    if [cert["q"] for cert in doc["certificates"]] != list(op.qs):
        problems.append("one certificate per q expected")

    rows = doc["bounds"] + ([doc["classical"]] if doc["classical"] is not None else [])
    if [(row["theorem"], row["q"]) for row in rows] != expected_rows(phi, op.qs):
        problems.append(f"row set {[(row['theorem'], row['q']) for row in rows]}")
    for row in rows:
        problems += _row_problems(f"{row['theorem']} q={row['q']}", row["theorem"],
                                  row["slack"], row["dominant"], row["certificate_status"])
    verdict = "all-dominant" if all(row["dominant"] for row in rows) else "violations-listed"
    if doc["verdict"] != verdict:
        problems.append(f"verdict {doc['verdict']!r}, rows say {verdict!r}")

    simpson, mean, lhs, rhs = (complex(identity[k]["re"], identity[k]["im"])
                               for k in ("simpson", "path_mean", "lhs", "rhs"))
    scale = max(1.0, abs(simpson), abs(mean))
    if abs(lhs - (simpson - mean)) > 1e-12 * scale:
        problems.append(f"lhs {lhs!r} is not simpson - path_mean")
    if abs(identity["residual"] - abs(lhs - rhs)) > 1e-12 * scale:
        problems.append(f"residual {identity['residual']!r} is not |lhs - rhs|")
    if op.workload == "verify-deep":
        want = simpson_oracle(op.c, a, b)
        if abs(simpson - want) > SIMPSON_RTOL * abs(want):
            problems.append(f"simpson {simpson!r}, oracle {want!r}")
    elif op.workload == "near-pole":
        want = pole_mean_oracle(op.c, a, b, phi)
        if abs(mean - want) > MEAN_TOL * max(1.0, abs(want)):
            problems.append(f"path_mean {mean!r}, oracle {want!r}")
    return problems


def _check_csv(op: Op, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return [f"CSV header {rows[:1]}"]
    rows = rows[1:]
    want = [(f, a, b, phi, theorem, q)
            for f, a, b, phi, q in op.cells()
            for theorem, q in expected_rows(phi, (q,))]
    if len(rows) != len(want):
        return [f"CSV has {len(rows)} rows, expected {len(want)}"]

    problems = []
    for n, (row, (f, a, b, phi, theorem, q)) in enumerate(zip(rows, want), start=1):
        expr, ra, rb, rphi, rtheorem, rq, bound, actual, slack, dominant, status = row
        key = (expr, float(ra), float(rb), float(rphi), rtheorem, float(rq) if rq else None)
        if key != (f, a, b, phi, theorem, q):
            problems.append(f"row {n}: {key} where {(f, a, b, phi, theorem, q)} expected")
            continue
        if dominant not in ("true", "false"):
            problems.append(f"row {n}: dominant {dominant!r}")
            continue
        problems += _row_problems(f"row {n}", theorem, float(slack), dominant == "true", status)
        if f == op.expressions[1]:  # the quintic has closed forms for both checks
            want_actual = abs(quintic_lhs_oracle(op.c, a, b, phi))
            if abs(float(actual) - want_actual) > MEAN_TOL * max(1.0, want_actual):
                problems.append(f"row {n}: actual {actual}, oracle {want_actual!r}")
            if theorem == "T31":
                want_t31 = quintic_t31_oracle(op.c, a, b)
                if abs(float(bound) - want_t31) > T31_RTOL * want_t31:
                    problems.append(f"row {n}: T31 {bound}, oracle {want_t31!r}")
    return problems


# ---------------------------------------------------------------------------
# Oracles, written without the tool's parser, derivatives or quadrature

def simpson_oracle(c: float, a: float, b: float) -> complex:
    """Three-point Simpson mean of exp(sin(c x))/(1+x^2) on the real segment [a, b]."""
    def f(x: float) -> float:
        return math.exp(math.sin(c * x)) / (1.0 + x * x)
    return complex((f(a) + 4.0 * f(0.5 * (a + b)) + f(b)) / 6.0)


def pole_mean_oracle(c: float, a: float, b: float, phi: float) -> complex:
    """Mean of 1/(c+z^2) along the rotated chord: arctan(z/sqrt(c))/sqrt(c) at both ends."""
    root = math.sqrt(c)
    chord = cmath.exp(1j * phi) * (b - a)
    return (cmath.atan((a + chord) / root) - cmath.atan(a / root)) / root / chord


def quintic_lhs_oracle(c: float, a: float, b: float, phi: float) -> complex:
    """Simpson mean minus path mean of z^5 - 2c z^3 + z, exact by its antiderivative."""
    def f(z: complex) -> complex:
        return z**5 - 2.0 * c * z**3 + z

    def antiderivative(z: complex) -> complex:
        return z**6 / 6.0 - c * z**4 / 2.0 + z**2 / 2.0

    chord = cmath.exp(1j * phi) * (b - a)
    simpson = (f(a) + 4.0 * f(a + 0.5 * chord) + f(a + chord)) / 6.0
    return simpson - (antiderivative(a + chord) - antiderivative(a)) / chord


def quintic_t31_oracle(c: float, a: float, b: float) -> float:
    """(5/72) L (|f'(a)| + |f'(b)|) with f' = 5x^4 - 6c x^2 + 1."""
    def fp(x: float) -> float:
        return 5.0 * x**4 - 6.0 * c * x**2 + 1.0
    return 5.0 / 72.0 * (b - a) * (abs(fp(a)) + abs(fp(b)))
