"""Render run reports as an aligned table, canonical JSON, or CSV.

Machine formats (json, csv) print every float as Python's ``repr``: the
shortest text that reads back to the same IEEE-754 value, always with a
``.`` or an exponent, while counts print as integers.  The numbers are
floats because ``cli`` makes every number of a ``RunConfig`` but the sample
count a float before it runs.  JSON objects are emitted with a fixed key
order and no wall-clock or environment data, so identical configurations
produce byte-identical documents.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

__all__ = [
    "render_json",
    "verify_json_doc",
    "sweep_json_doc",
    "render_csv_verify",
    "render_csv_sweep",
    "render_table_verify",
    "render_table_sweep",
]

CSV_COLUMNS = (
    "expression", "a", "b", "phi", "theorem", "q",
    "bound", "actual", "slack", "dominant", "certificate_status",
)


# ---------------------------------------------------------------------------
# JSON

def render_json(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _complex_doc(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _config_doc(cfg) -> dict:
    """The config's fields in order, with ``qs`` written as ``q``."""
    return {"q" if key == "qs" else key: value for key, value in cfg._asdict().items()}


def verify_json_doc(report) -> dict:
    identity = report.identity
    doc = {
        "config": _config_doc(report.config),
        "identity": {
            "simpson": _complex_doc(identity.simpson_value),
            "path_mean": _complex_doc(identity.path_mean),
            "lhs": _complex_doc(identity.lhs),
            "rhs": _complex_doc(identity.rhs),
            "residual": identity.residual,
            "within_tolerance": report.identity_ok,
        },
        "certificates": [
            {
                "q": cert.q,
                "status": cert.status,
                "worst_margin": cert.worst_margin,
                "violation_t": cert.violation_t,
                "sample_count": cert.sample_count,
            }
            for cert in report.certificates
        ],
        "bounds": [row._asdict() for row in report.bounds],
        "classical": None,
        "verdict": report.verdict,
    }
    if report.classical is not None:
        doc["classical"] = {**report.classical._asdict(), "m4_estimate": report.m4_estimate}
    return doc


def sweep_json_doc(sweep) -> dict:
    runs = []
    for cell in sweep.cells:
        if cell.report is None:
            runs.append({"status": "error", "error": cell.error,
                         "config": _config_doc(cell.config)})
        else:
            runs.append({"status": "ok", "error": None, **verify_json_doc(cell.report)})
    return {"runs": runs, "summary": sweep.summary._asdict()}


# ---------------------------------------------------------------------------
# CSV

def _csv_rows(report) -> list[list]:
    """One row per bound: the segment of the config, then the bound row's fields.

    ``csv.writer`` writes None as an empty cell and a float as its repr; a
    flag is written true/false.
    """
    cfg = report.config
    return [[cfg.expression, cfg.a, cfg.b, cfg.phi]
            + [("true" if value else "false") if isinstance(value, bool) else value
               for value in row]
            for row in report.all_rows()]


def _write_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def render_csv_verify(report) -> str:
    return _write_csv(_csv_rows(report))


def render_csv_sweep(sweep) -> str:
    rows: list[list] = []
    for cell in sweep.cells:
        if cell.report is not None:
            rows.extend(_csv_rows(cell.report))
    return _write_csv(rows)


# ---------------------------------------------------------------------------
# Human-readable table

def _cx(z: complex) -> str:
    return f"{z.real:.12g} {'+' if z.imag >= 0 else '-'} {abs(z.imag):.12g}i"


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def _bound_table_lines(report) -> list[str]:
    rows = [["theorem", "q", "bound", "actual", "slack", "dominant", "certificate"]]
    for row in report.all_rows():
        rows.append([
            row.theorem,
            "-" if row.q is None else f"{row.q:g}",
            f"{row.bound:.9e}",
            f"{row.actual:.9e}",
            f"{row.slack:.9e}",
            "yes" if row.dominant else "NO",
            row.certificate_status,
        ])
    return ["  " + line for line in _table(rows)]


def render_table_verify(report) -> str:
    cfg = report.config
    identity = report.identity
    lines = [
        f"f(x) = {cfg.expression}   interval [{cfg.a:g}, {cfg.b:g}]   phi = {cfg.phi:.12g}",
        "",
        "identity",
        f"  simpson functional  {_cx(identity.simpson_value)}",
        f"  path mean           {_cx(identity.path_mean)}",
        f"  lhs (difference)    {_cx(identity.lhs)}",
        f"  rhs (kernel form)   {_cx(identity.rhs)}",
        f"  residual            {identity.residual:.3e}"
        f"   (tolerance {cfg.identity_tol:g}) -> {'OK' if report.identity_ok else 'FAIL'}",
        "",
        "certificates",
    ]
    for cert in report.certificates:
        where = "" if cert.violation_t is None else f"   at t = {cert.violation_t:.6g}"
        lines.append(f"  q = {cert.q:<6g} {cert.status:<9} worst margin {cert.worst_margin:.6e}{where}")
    lines.append("")
    lines.append("bounds")
    lines.extend(_bound_table_lines(report))
    if report.m4_estimate is not None:
        lines.append("")
        lines.append(f"  m4 (grid estimate, not certified)  {report.m4_estimate:.12g}")
    lines.append("")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def render_table_sweep(sweep) -> str:
    rows = [["expression", "a", "b", "phi", "q", "residual", "certificate", "min slack", "status"]]
    for cell in sweep.cells:
        cfg, report = cell.config, cell.report
        key = [cfg.expression, f"{cfg.a:g}", f"{cfg.b:g}", f"{cfg.phi:.6g}", f"{cfg.qs[0]:g}"]
        if report is None:
            rows.append(key + ["-", "-", "-", "error"])
            continue
        slack = min(r.slack for r in report.all_rows())
        status = ("ok" if report.passed
                  else "bound-violation" if report.identity_ok else "identity-fail")
        rows.append(key + [f"{report.identity.residual:.3e}", report.certificates[0].status,
                           f"{slack:.6e}", status])
    lines = _table(rows)
    summary = sweep.summary
    lines.append("")
    lines.append("summary")
    lines.append(f"  cells                {summary.cells}")
    lines.append(f"  errors               {summary.errors}")
    max_residual = "-" if summary.max_residual is None else f"{summary.max_residual:.3e}"
    lines.append(f"  max residual         {max_residual}")
    lines.append(f"  violations           {summary.violations}"
                 f" ({summary.verified_violations} under verified certificates)")
    for theorem, slack in summary.min_slack.items():
        value = "-" if slack is None else f"{slack:.6e}"
        lines.append(f"  min slack {theorem:<10} {value}")
    for cell in sweep.cells:
        if cell.report is None:
            lines.append(f"  failed cell: f={cell.config.expression!r} a={cell.config.a:g} "
                         f"b={cell.config.b:g} phi={cell.config.phi:.6g}: {cell.error}")
    return "\n".join(lines) + "\n"
