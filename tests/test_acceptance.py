"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the terminal.
"""

import math
import random
import time

import pytest

from simpbound import (
    BoundInputs,
    PhiInterval,
    bound_t31,
    bound_t32,
    bound_t33,
    bound_t34,
    certify_phi_convexity,
    classical_bound,
    identity_residual,
    integrate_01,
    kernel_moment,
    parse,
)
from simpbound.cli import RunConfig, cmd_sweep
from simpbound.report import render_csv_sweep, render_json, sweep_json_doc

CORPUS = ("x^2", "x^3", "x^4", "exp(x)", "sin(x)", "log(x + 2)")
PHIS = (0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 2.0)
INTERVALS = ((0.0, 1.0), (-1.0, 2.0), (1.0, 3.0))
QS = (1.0, 1.5, 2.0, 3.0, 5.0)


def _criterion(number, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed {suffix}"


@pytest.fixture(scope="module")
def identity_grid():
    """IdentityReport for every corpus (expression, interval, phi) cell."""
    start = time.perf_counter()
    grid = {}
    for text in CORPUS:
        f = parse(text)
        for a, b in INTERVALS:
            for phi in PHIS:
                grid[(text, a, b, phi)] = identity_residual(f, PhiInterval(a, b, phi))
    elapsed = time.perf_counter() - start
    return grid, elapsed


def test_criterion_1_identity_suite(identity_grid):
    grid, elapsed = identity_grid
    worst = max(report.residual for report in grid.values())
    ok = len(grid) == 72 and worst <= 1e-8
    _criterion(1, "identity residual <= 1e-8 on the full corpus grid", ok,
               f"72 cells, max residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_dominance_suite(identity_grid):
    grid, _ = identity_grid
    verified_cells = 0
    violations = []
    for text in CORPUS:
        f = parse(text)
        for a, b in INTERVALS:
            for phi in PHIS:
                iv = PhiInterval(a, b, phi)
                actual = abs(grid[(text, a, b, phi)].lhs)
                for q in QS:
                    (cert,) = certify_phi_convexity(f, iv, (q,))
                    if cert.status != "verified":
                        continue
                    verified_cells += 1
                    inputs = BoundInputs.from_function(f, iv, q)
                    bounds = {"T31": bound_t31(inputs), "T34": bound_t34(inputs)}
                    if q > 1.0:
                        bounds["T32"] = bound_t32(inputs)
                        bounds["T33"] = bound_t33(inputs)
                    for theorem, bound in bounds.items():
                        if actual > bound + 1e-12:
                            violations.append((text, a, b, phi, q, theorem))
    ok = verified_cells >= 150 and not violations
    _criterion(2, "dominance on every verified-certificate cell", ok,
               f"{verified_cells} verified cells, {len(violations)} violations")


def _half_moment_oracle(weight, p=1.0):
    result = integrate_01(
        lambda u: abs(u / 2.0 - 1.0 / 6.0) ** p * weight(u / 2.0),
        tol=1e-13,
        breakpoints=(1.0 / 3.0,),
    )
    return 0.5 * result.value.real


def test_criterion_3_constant_checks():
    exact_ok = kernel_moment(1.0) == 5.0 / 72.0 and kernel_moment(2.0) == 1.0 / 72.0
    moment_errors = [abs(kernel_moment(p) - _half_moment_oracle(lambda t: 1.0, p))
                     for p in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)]
    half_a = abs(_half_moment_oracle(lambda t: 1.0 - t) - 61.0 / 1296.0)
    half_b = abs(_half_moment_oracle(lambda t: t) - 29.0 / 1296.0)
    ok = exact_ok and max(moment_errors) < 1e-10 and half_a < 1e-10 and half_b < 1e-10
    _criterion(3, "kernel moments and 61/1296, 29/1296 proof constants", ok,
               f"max moment error {max(moment_errors):.2e}, "
               f"half moments {half_a:.2e}/{half_b:.2e}")


def test_criterion_4_reduction_checks(identity_grid):
    grid, _ = identity_grid
    rng = random.Random(42)
    reduction_ok = True
    for _ in range(50):
        inputs = BoundInputs(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                             rng.uniform(0.1, 5.0), q=1.0)
        t31, t34 = bound_t31(inputs), bound_t34(inputs)
        if abs(t34 - t31) > 1e-14 * max(1.0, t31):
            reduction_ok = False
    worst_imag = max(
        max(abs(report.simpson_value.imag), abs(report.path_mean.imag),
            abs(report.lhs.imag), abs(report.rhs.imag))
        for (text, a, b, phi), report in grid.items() if phi == 0.0
    )
    ok = reduction_ok and worst_imag < 1e-12
    _criterion(4, "T34 at q=1 equals T31; flat-segment reports are real", ok,
               f"max |imag| at phi=0: {worst_imag:.2e}")


def test_criterion_5_classical_tightness(identity_grid):
    grid, _ = identity_grid
    actual = abs(grid[("x^4", 0.0, 1.0, 0.0)].lhs)
    bound = classical_bound(24.0, 1.0)
    ok = (abs(actual - 1.0 / 120.0) < 1e-10
          and abs(bound - 1.0 / 120.0) < 1e-10
          and abs(bound - actual) < 1e-10)
    _criterion(5, "x^4 classical bound 24/2880 is attained", ok,
               f"actual {actual:.12e}, bound {bound:.12e}")


def test_criterion_6_cubic_exactness():
    rng = random.Random(7)
    polynomials = ["1", "x", "x^2", "x^3"]
    for _ in range(4):
        c0, c1, c2, c3 = (round(rng.uniform(-5.0, 5.0), 3) for _ in range(4))
        polynomials.append(f"({c0}) + ({c1})*x + ({c2})*x^2 + ({c3})*x^3")
    worst = 0.0
    for text in polynomials:
        f = parse(text)
        for a, b in INTERVALS:
            report = identity_residual(f, PhiInterval(a, b, 0.0))
            worst = max(worst, abs(report.lhs))
    ok = worst < 1e-10
    _criterion(6, "Simpson functional exact for cubics on flat segments", ok,
               f"{len(polynomials)} polynomials x 3 intervals, max |lhs| {worst:.2e}")


def test_criterion_7_violation_detection():
    (cert,) = certify_phi_convexity(parse("x - x^3/3"), PhiInterval(-1.0, 1.0), (1.0,))
    ok = (cert.status == "violated"
          and cert.violation_t is not None
          and cert.worst_margin <= -0.5)
    detail = f"status {cert.status}, worst margin {cert.worst_margin:.3f}"
    if cert.violation_t is not None:
        detail += f" at t = {cert.violation_t:g}"
    _criterion(7, "non-convex slope magnitude is flagged", ok, detail)


def test_criterion_8_sweep_determinism():
    segments = [RunConfig(expression, 0.0, b, phi, (1.0, 2.0), certificate_samples=101)
                for expression in ("x^2", "exp(x)", "sin(x)")
                for b in (1.0, 2.0) for phi in (0.0, math.pi / 4.0)]
    first = cmd_sweep(segments)
    second = cmd_sweep(segments)
    json_equal = render_json(sweep_json_doc(first)) == render_json(sweep_json_doc(second))
    csv_equal = render_csv_sweep(first) == render_csv_sweep(second)
    ok = json_equal and csv_equal
    _criterion(8, "repeated sweeps produce byte-identical machine reports", ok,
               f"{first.summary.cells} cells, json and csv compared")
