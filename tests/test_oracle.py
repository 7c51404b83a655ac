"""An independent 30-digit oracle for the paper's quantities.

mpmath walks the parsed ``Expr`` tree itself, with the principal branches
that ``cmath`` takes, and f' is ``mpmath.diff`` of that walk, so neither the
tool's evaluator, nor its ``differentiate``, nor its quadrature enters a
reference value.  For each case the oracle computes

* the Simpson functional (1/6)[f(a) + 4 f(mid) + f(end)];
* the mean of f along a + t e^{i phi} (b - a), with ``mpmath.quad`` on [0, 1];
* the kernel side chord * integral of kernel(t) f'(path(t)), with
  ``mpmath.quad`` split at 1/6, 1/2 and 5/6;
* |f'(a)| and |f'(b)|, which the certificate carries, and the certificate's
  worst margin over its own sample grid, whose sign must give the tool's
  status wherever it clears the certificate's tolerance;
* T31 to T34 from the certificate's own |f'(a)|, |f'(b)|, length and q, with
  the kernel moment integrated rather than taken in closed form;
* at phi = 0, the largest |f''''| at the tool's own M4_SAMPLES points, with
  f'''' from ``mpmath.diff(..., 4)`` of the walk, and the classical bound
  m4 (b - a)^4 / 2880 from the tool's own m4.

The tool asks its quadrature for the contour integral to ``oracle_tol``
times |chord| and for the kernel integral to ``oracle_tol`` over |chord|, so
the path mean and the kernel side each carry an absolute error of at most
``oracle_tol``.  Each tool value must lie within that tolerance (none for
the Simpson functional and |f'|) plus a rounding allowance for evaluating f
and f' in double precision: ROUNDING times (1 + the largest modulus that a
subterm of f, or f', takes at the surveyed path points), times |chord| on
the kernel side.  A margin within ROUNDING * q * (1 + the largest power in
it) of the certificate's tolerance decides no status.  The bounds, the
classical one included, must agree with the oracle to BOUND_RTOL relative,
and the m4 estimate to M4_RTOL relative: each of its values of f'''' is a
handful of rounded operations, by Taylor jets or by a symbolic derivative,
and on these cases both stay within 3e-15 of the oracle.

The cases are the golden-corpus and benchmark expressions on fixed
segments, and Hypothesis expressions on segments that keep clear of branch
cuts and singularities.  One strict xfail records a known defect until it
is mended.
"""

from __future__ import annotations

import math
from functools import cached_property

import pytest
from hypothesis import assume, given, settings, strategies as st

from simpbound import M4_SAMPLES, BudgetExceededError, PhiInterval, integrate_01, parse, to_text
from simpbound.cli import RunConfig, cmd_verify
from simpbound.convexity import DEFAULT_CERT_TOL, VERIFIED, VIOLATED
from simpbound.expr import Const, Unary, Var

from test_expr import _exprs

mpmath = pytest.importorskip("mpmath")

DPS = 30
ROUNDING = 2.0 ** -44  # 512 units in the last place of each unit of magnitude
BOUND_RTOL = 1e-14
M4_RTOL = 1e-14
QUAD_ERROR = 1e-20  # the oracle's own quadrature must claim at least this accuracy
SURVEY_POINTS = 257  # path points at which a case is checked to keep clear of cuts and poles
CLEARANCE = 0.05  # least distance from a cut or a pole a Hypothesis case must keep
LARGEST = 1e3  # largest subterm modulus a Hypothesis case may reach

_UNARY = {"exp": "exp", "log": "ln", "sin": "sin", "cos": "cos", "sqrt": "sqrt"}
_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}
_CUTS = ("log", "sqrt")


def mp_eval(e, z, watch=None):
    """f(z) at the working precision.

    ``watch(kind, value)`` sees every subterm's value ("node"), every
    argument of a branch cut along (-inf, 0] ("cut") and every divisor or
    base raised to a negative power ("pole").
    """
    if isinstance(e, Const):
        v = mpmath.mpc(e.value)
    elif isinstance(e, Var):
        v = z
    elif isinstance(e, Unary):
        a = mp_eval(e.arg, z, watch)
        if watch and e.op in _CUTS:
            watch("cut", a)
        v = -a if e.op == "neg" else getattr(mpmath, _UNARY[e.op])(a)
    else:
        a, b = mp_eval(e.left, z, watch), mp_eval(e.right, z, watch)
        if e.op == "^":
            v = _mp_power(a, b, watch)
        else:
            if watch and e.op == "/":
                watch("pole", b)
            v = _BINARY[e.op](a, b)
    if watch:
        watch("node", v)
    return v


def _mp_power(base, exponent, watch):
    """z^n for an integer n, exp(w log z) on the principal branch for any other w."""
    if exponent.imag == 0 and exponent.real == int(exponent.real):
        n = int(exponent.real)
        if watch and n < 0:
            watch("pole", base)
        return base ** n
    if watch:
        watch("cut", base)
    if base == 0:
        return mpmath.mpc(0)
    return mpmath.exp(exponent * mpmath.ln(base))


def _cut_distance(w) -> float:
    """Distance from w to the ray (-inf, 0] that log, sqrt and powers cut along."""
    return float(abs(w) if w.real >= 0 else abs(w.imag))


class Oracle:
    """f on the segment a + t e^{i phi} (b - a), t in [0, 1], at DPS digits."""

    def __init__(self, text: str, a: float, b: float, phi: float, splits=()):
        self.segment = (text, a, b, phi)
        self.f = parse(text)
        self.a, self.b = mpmath.mpf(a), mpmath.mpf(b)
        self.chord = mpmath.expj(mpmath.mpf(phi)) * (self.b - self.a)
        self.splits = tuple(mpmath.mpf(t) for t in splits)  # extra quadrature edges, near a pole

    def value(self, z):
        return mp_eval(self.f, z)

    def derivative(self, z):
        return mpmath.diff(self.value, z)

    def path(self, t):
        return self.a + t * self.chord

    def _quad(self, g, edges):
        points = sorted({mpmath.mpf(0), mpmath.mpf(1), *edges, *self.splits})
        value, error = mpmath.quad(g, points, error=True)
        assert error <= QUAD_ERROR * max(1, abs(value)), f"oracle quadrature error {error}"
        return value

    def simpson(self):
        return (self.value(self.a) + 4 * self.value(self.path(0.5))
                + self.value(self.path(1))) / 6

    def path_mean(self):
        return self._quad(lambda t: self.value(self.path(t)), ())

    def kernel_side(self):
        sixth = mpmath.mpf(1) / 6

        def kernel(t):
            return t - sixth if t < 0.5 else t - 5 * sixth

        inner = self._quad(lambda t: kernel(t) * self.derivative(self.path(t)),
                           (sixth, mpmath.mpf(1) / 2, 5 * sixth))
        return self.chord * inner

    @cached_property
    def survey(self):
        """(least distance to a cut or pole, largest step of a cut argument
        between neighbouring points, largest subterm modulus, largest |f'|)
        over SURVEY_POINTS path points and the split points."""
        ts = sorted({mpmath.mpf(k) / (SURVEY_POINTS - 1) for k in range(SURVEY_POINTS)}
                    | set(self.splits))
        clearance, step, largest, slope = math.inf, 0.0, 0.0, 0.0
        previous = None
        for t in ts:
            cuts, seen = [], []

            def watch(kind, value):
                nonlocal clearance
                if kind == "node":
                    seen.append(abs(value))
                elif kind == "cut":
                    cuts.append(value)
                    clearance = min(clearance, _cut_distance(value))
                else:
                    clearance = min(clearance, float(abs(value)))

            z = self.path(t)
            mp_eval(self.f, z, watch)
            largest = max(largest, float(max(seen)))
            slope = max(slope, float(abs(self.derivative(z))))
            if previous is not None:
                step = max([step, *(float(abs(u - w)) for u, w in zip(cuts, previous))])
            previous = cuts
        return clearance, step, largest, slope


def mp_bounds(deriv_a: float, deriv_b: float, length: float, q: float) -> dict:
    """T31 to T34 from the paper's formulas, the kernel moment by quadrature."""
    A, B, L, q = (mpmath.mpf(v) for v in (deriv_a, deriv_b, length, q))
    aq, bq = A ** q, B ** q
    bounds = {"T31": mpmath.mpf(5) / 72 * L * (A + B),
              "T34": L * (mpmath.mpf(5) / 72) ** (1 - 1 / q)
              * (((61 * aq + 29 * bq) / 1296) ** (1 / q)
                 + ((29 * aq + 61 * bq) / 1296) ** (1 / q))}
    if q > 1:
        p = q / (q - 1)
        moment = mpmath.quad(lambda t: abs(t - mpmath.mpf(1) / 6) ** p,
                             [0, mpmath.mpf(1) / 6, mpmath.mpf(1) / 2])
        bounds["T32"] = L * moment ** (1 / p) * (((3 * aq + bq) / 8) ** (1 / q)
                                                 + ((aq + 3 * bq) / 8) ** (1 / q))
        bounds["T33"] = L * (2 * moment) ** (1 / p) * ((aq + bq) / 2) ** (1 / q)
    return bounds


def check_against_oracle(oracle: Oracle, qs=(1.0, 2.0), samples=101):
    """Run ``cmd_verify`` on the oracle's segment and hold each quantity to the oracle."""
    report = cmd_verify(RunConfig(*oracle.segment, tuple(qs), certificate_samples=samples))
    tol = report.config.oracle_tol
    with mpmath.workdps(DPS):
        _, _, largest, slope = oracle.survey
        allowance_f = ROUNDING * (1 + largest)
        allowance_fp = ROUNDING * (1 + max(largest, slope))
        identity = report.identity
        assert abs(identity.simpson_value - oracle.simpson()) <= allowance_f
        assert abs(identity.path_mean - oracle.path_mean()) <= tol + allowance_f
        assert abs(identity.rhs - oracle.kernel_side()) <= tol + allowance_fp * abs(oracle.chord)
        ends = abs(oracle.derivative(oracle.a)), abs(oracle.derivative(oracle.b))
        ts = [mpmath.mpf(k) / (samples - 1) for k in range(samples)]
        moduli = [abs(oracle.derivative(oracle.path(t))) for t in ts]
        for cert in report.certificates:
            assert abs(cert.deriv_a - ends[0]) <= allowance_fp
            assert abs(cert.deriv_b - ends[1]) <= allowance_fp
            at_a, at_b = ends[0] ** cert.q, ends[1] ** cert.q
            margin = min((1 - t) * at_a + t * at_b - value ** cert.q
                         for t, value in zip(ts, moduli))
            slop = ROUNDING * cert.q * (1 + max(at_a, at_b, max(moduli) ** cert.q))
            if abs(margin + DEFAULT_CERT_TOL) > slop:
                assert cert.status == (VIOLATED if margin < -DEFAULT_CERT_TOL else VERIFIED)
    check_bounds(report)


def check_bounds(report):
    """Each theorem row within BOUND_RTOL of the oracle's bound from the same inputs."""
    length = report.config.b - report.config.a
    with mpmath.workdps(DPS):
        for cert, rows in zip(report.certificates, report.rows_per_q):
            want = mp_bounds(cert.deriv_a, cert.deriv_b, length, cert.q)
            assert sorted(row.theorem for row in rows) == sorted(want)
            for row in rows:
                assert abs(row.bound - want[row.theorem]) <= BOUND_RTOL * want[row.theorem], \
                    (row.theorem, row.q, row.bound, want[row.theorem])


# (expression, a, b, phi, qs, oracle quadrature splits)
FIXED = {
    "golden deep, phi 0": ("exp(sin(x))/(1+x^2)", 0.0, 2.0, 0.0, (1.0, 1.5, 2.0, 3.0, 5.0), ()),
    "golden deep, phi pi/4": ("exp(sin(x))/(1+x^2)", 0.0, 2.0, math.pi / 4, (1.0, 2.0), ()),
    "golden sweep log": ("log(x)", 0.5, 1.5, math.pi / 4, (1.0, 2.0), ()),
    "golden sweep cubic": ("x^3 - x", 0.0, 1.5, 0.0, (1.0, 2.0), ()),
    "golden mixed exp": ("exp(x)", 0.0, 10.0, 0.0, (1.0,), ()),
    "golden mixed x": ("x", 0.0, 10.0, 0.0, (1.0, 400.0), ()),
    "golden violated": ("sin(x)", 1.0, 3.0, math.pi / 2, (1.0, 2.0), ()),
    "bench sweep-grid": ("x^5 - 2*1.0*x^3 + x", 0.6, 3.0, math.pi / 3, (1.0, 1.5, 5.0), ()),
    "bench verify-deep": ("exp(sin(1.1*x))/(1+x^2)", 0.3, 2.0, 0.0, (1.0, 3.0), ()),
    # the path passes within 0.002 of the pole at i: split the oracle's quadrature there
    "bench near-pole": ("1/(1.0+x^2)", 0.002, 2.0, math.pi / 2, (2.0,), (1.0 / 1.998,)),
}


@pytest.mark.parametrize("case", sorted(FIXED))
def test_fixed_cases_agree_with_the_oracle(case):
    text, a, b, phi, qs, splits = FIXED[case]
    with mpmath.workdps(DPS):
        oracle = Oracle(text, a, b, phi, splits)
    check_against_oracle(oracle, qs)


# (expression, a, b) at phi = 0: the golden-corpus and benchmark expressions
M4_CASES = {
    "golden deep": ("exp(sin(x))/(1+x^2)", 0.0, 2.0),
    "golden sweep log": ("log(x)", 0.5, 1.5),
    "golden sweep cubic": ("x^3 - x", 0.0, 1.5),
    "golden mixed exp": ("exp(x)", 0.0, 10.0),
    "golden mixed x": ("x", 0.0, 10.0),
    "golden violated": ("sin(x)", 1.0, 3.0),
    "bench sweep-grid deep": ("exp(sin(1.0*x))/(1+x^2)", 0.6, 3.0),
    "bench sweep-grid quintic": ("x^5 - 2*1.0*x^3 + x", 0.6, 3.0),
    "bench verify-deep": ("exp(sin(1.1*x))/(1+x^2)", 0.3, 2.0),
    "bench near-pole": ("1/(1.0+x^2)", 0.002, 2.0),
}


@pytest.mark.parametrize("case", sorted(M4_CASES))
def test_m4_estimate_and_classical_bound_agree_with_the_oracle(case):
    text, a, b = M4_CASES[case]
    report = cmd_verify(RunConfig(text, a, b, 0.0, (1.0,), certificate_samples=101))
    iv = PhiInterval(a, b)
    points = [iv.a + k / (M4_SAMPLES - 1) * iv.chord for k in range(M4_SAMPLES)]
    with mpmath.workdps(DPS):
        oracle = Oracle(text, a, b, 0.0)
        want = max(abs(mpmath.diff(oracle.value, mpmath.mpf(z.real), 4)) for z in points)
        assert abs(report.m4_estimate - want) <= M4_RTOL * want, (report.m4_estimate, want)
        bound = mpmath.mpf(report.m4_estimate) * mpmath.mpf(b - a) ** 4 / 2880
        assert abs(report.classical.bound - bound) <= BOUND_RTOL * bound


_segments = st.tuples(st.floats(0.4, 1.2), st.floats(0.2, 0.8),
                      st.sampled_from((0.0, math.pi / 6, math.pi / 4, math.pi / 3)))


@given(e=_exprs, segment=_segments)
@settings(max_examples=20, deadline=None)
def test_generated_expressions_agree_with_the_oracle(e, segment):
    a, length, phi = segment
    with mpmath.workdps(DPS):
        oracle = Oracle(to_text(e), a, a + length, phi)
        clearance, step, largest, slope = oracle.survey
    assume(clearance >= CLEARANCE and step < CLEARANCE and max(largest, slope) <= LARGEST)
    check_against_oracle(oracle)


def test_large_q_bounds_keep_their_value():
    # |f'| is below 0.1 at both ends, so |f'|^400 underflows to 0 unless it is scaled first
    report = cmd_verify(RunConfig("cos(0.3*x)", 0.8, 0.9, math.pi / 6, (400.0,),
                                  certificate_samples=31))
    check_bounds(report)


@pytest.mark.xfail(strict=True, reason="integrate_01's running error total absorbs small "
                                       "panel errors next to a large one and stops early")
def test_quadrature_does_not_stop_above_its_tolerance():
    tol = 1e-11
    try:
        result = integrate_01(lambda t: 1 / abs(t - 0.5 + 1e-300), tol=tol)
    except BudgetExceededError:
        return  # the integral diverges: refusing it is a right answer
    assert result.error_estimate <= tol, result
