"""Render run reports as an aligned table, canonical JSON, or CSV.

Machine formats (json, csv) print every float with 17 significant digits so
that output is byte-stable across runs and parses back to the identical
IEEE-754 value.  JSON objects are emitted with a fixed key order and no
wall-clock or environment data, so identical configurations produce
byte-identical documents.
"""

from __future__ import annotations

import csv
import io
import json as _json
from typing import Any

__all__ = [
    "float17",
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


def float17(x: float) -> str:
    """Decimal form with 17 significant digits (round-trips bit-for-bit)."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# JSON

def render_json(doc: Any) -> str:
    parts: list[str] = []
    _write_json(doc, 0, parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(float17(value))
    elif isinstance(value, (dict, list, tuple)):
        is_object = isinstance(value, dict)
        brackets = "{}" if is_object else "[]"
        if not value:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for i, item in enumerate(value):  # an object's keys, or an array's items
            out.append(pad + "  ")
            if is_object:
                out.append(f"{_json.dumps(item)}: ")
                item = value[item]
            _write_json(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + brackets[1])
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _complex_doc(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _config_doc(cfg) -> dict:
    return {
        "expression": cfg.expression,
        "a": float(cfg.a),
        "b": float(cfg.b),
        "phi": float(cfg.phi),
        "q": [float(q) for q in cfg.qs],
        "oracle_tol": float(cfg.oracle_tol),
        "identity_tol": float(cfg.identity_tol),
        "certificate_samples": int(cfg.certificate_samples),
    }


def _bound_doc(row) -> dict:
    return {
        "theorem": row.theorem,
        "q": None if row.q is None else float(row.q),
        "bound": row.bound,
        "actual": row.actual,
        "slack": row.slack,
        "dominant": row.dominant,
        "certificate_status": row.certificate_status,
    }


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
        "bounds": [_bound_doc(row) for row in report.bounds],
        "classical": None,
        "verdict": report.verdict,
    }
    if report.classical is not None:
        classical = _bound_doc(report.classical)
        classical["m4_estimate"] = report.m4_estimate
        doc["classical"] = classical
    return doc


def sweep_json_doc(sweep) -> dict:
    runs = []
    for cell in sweep.cells:
        if cell.report is None:
            runs.append({
                "status": "error",
                "error": cell.error,
                "config": _config_doc(cell.config),
            })
        else:
            entry: dict = {"status": "ok", "error": None}
            entry.update(verify_json_doc(cell.report))
            runs.append(entry)
    summary = sweep.summary
    return {
        "runs": runs,
        "summary": {
            "cells": summary.cells,
            "errors": summary.errors,
            "max_residual": summary.max_residual,
            "min_slack": dict(summary.min_slack),
            "violations": summary.violations,
            "verified_violations": summary.verified_violations,
        },
    }


# ---------------------------------------------------------------------------
# CSV

def _csv_cell(value: Any) -> str:
    """A CSV cell: text as it is, a flag as true/false, a missing value empty, a number float17."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else float17(value)


def _csv_rows(report) -> list[list[str]]:
    """One row per bound: the segment of the config, then the bound row's JSON fields."""
    cfg = report.config
    prefix = [_csv_cell(value) for value in (cfg.expression, cfg.a, cfg.b, cfg.phi)]
    return [prefix + [_csv_cell(value) for value in _bound_doc(row).values()]
            for row in report.all_rows()]


def _write_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def render_csv_verify(report) -> str:
    return _write_csv(_csv_rows(report))


def render_csv_sweep(sweep) -> str:
    rows: list[list[str]] = []
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
