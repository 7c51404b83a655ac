import csv
import functools
import gc
import io
import json
import math
import struct
import sys
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from simpbound import bounds, cli
from simpbound.cli import (
    ConfigError,
    RunConfig,
    cmd_sweep,
    cmd_verify,
    main,
    parse_phi,
)
from simpbound.identity import IdentityReport
from simpbound.report import (
    CSV_COLUMNS,
    render_csv_sweep,
    render_csv_verify,
    render_json,
    render_table_sweep,
    sweep_json_doc,
    verify_json_doc,
)

from test_bounds import failing_jets


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _grid(expressions, a_values, b_values, phi_values, qs, **settings):
    """The segments ``sweep`` builds on the command line: one per (f, a, b, phi)."""
    return [RunConfig(expression, a, b, phi, qs, **settings)
            for expression, a, b, phi in product(expressions, a_values, b_values, phi_values)]


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--f", "x^4", "--a", "0", "--b", "1",
                                     "--phi", "0", "--q", "1,2"])
        assert code == 0
        assert "T31" in out
        assert "all-dominant" in out

    def test_parse_error_is_config_error(self, capsys):
        code, _, err = _run(capsys, ["verify", "--f", "x^^2", "--a", "0", "--b", "1"])
        assert code == 2
        assert "syntax error" in err
        assert "offset 2" in err

    def test_empty_q_list(self, capsys):
        code, _, err = _run(capsys, ["verify", "--f", "x^2", "--a", "0", "--b", "1",
                                     "--q", " , "])
        assert code == 2

    def test_reversed_interval(self, capsys):
        code, _, _ = _run(capsys, ["verify", "--f", "x^2", "--a", "2", "--b", "1"])
        assert code == 2

    def test_phi_out_of_range(self, capsys):
        code, _, _ = _run(capsys, ["verify", "--f", "x^2", "--a", "0", "--b", "1",
                                   "--phi", "2.0"])
        assert code == 2

    def test_math_error(self, capsys):
        # the Simpson functional evaluates f at the midpoint x = 1 exactly
        code, _, err = _run(capsys, ["verify", "--f", "1/(x-1)", "--a", "0", "--b", "2"])
        assert code == 3
        assert "division by zero" in err

    def test_identity_failure(self, capsys):
        # an identity tolerance below the quadrature roundoff floor must fail
        code, _, _ = _run(capsys, ["verify", "--f", "exp(x)", "--a", "0", "--b", "1",
                                   "--identity-tol", "1e-18"])
        assert code == 1

    def test_io_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["verify", "--f", "x^2", "--a", "0", "--b", "1",
                                     "--output", str(tmp_path / "missing" / "out.json")])
        assert code == 4

    def test_overflow_is_a_math_error(self, capsys):
        # |f'(10)|^400 = e^4000 overflows a float power in the certificate
        code, _, err = _run(capsys, ["verify", "--f", "exp(x)", "--a", "0", "--b", "10",
                                     "--q", "400", "--samples", "51"])
        assert code == 3
        assert "numerical overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--f", "exp(x)", "--a", "0", "--b", "10", "--q", "400"],
         "|f'(b)|^q out of range: |f'(b)| = 22026.465794806718, q = 400.0"),
        # |cos(1 + 2i)| = 3.67 at the end of the path, whose |f'| is largest there
        (["--f", "sin(x)", "--a", "1", "--b", "3", "--phi", "pi/2", "--q", "600"],
         "|f'(path(t))|^q out of range at t = 1.0: |f'(path(t))| = 3.6668846449997132, "
         "q = 600.0"),
        (["--f", "x", "--a", "0", "--b", "1e100", "--q", "1"],
         "(b-a)^4 out of range: b-a = 1e+100"),
    ], ids=["endpoint", "path-point", "classical"])
    def test_an_overflowing_power_is_named(self, capsys, argv, message):
        code, out, err = _run(capsys, ["verify", *argv, "--samples", "11"])
        assert (code, out) == (3, "")
        assert err == f"simpbound: numerical overflow: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["--f", "exp(x)", "--a", "0", "--b", "700"], "CLASSICAL bound is inf"),
        (["--f", "1e308*x", "--a", "0", "--b", "1.7"], "identity Simpson functional is (inf+nanj)"),
        (["--f", "x", "--a", "0", "--b", "1e308"],
         "identity Simpson functional is (inf+nanj), path mean is (inf+nanj)"),
    ], ids=["bound", "simpson", "simpson-and-mean"])
    def test_a_non_finite_result_is_an_overflow_not_a_report(self, capsys, argv, message):
        # e^700 * 700^4 / 2880 and 4 f(mid) = 3.4e308 overflow without raising; on
        # [0, 1e308] every f value is finite, but 4 f(mid) = 2e308 is not, nor is the
        # contour integral 5e615 that the path mean divides by the chord
        code, out, err = _run(capsys, ["verify", *argv, "--q", "1", "--samples", "11",
                                       "--format", "json"])
        assert (code, out) == (3, "")
        assert err == f"simpbound: numerical overflow: {message}\n"

    def test_a_residual_overflowing_between_finite_sides_is_named(self, capsys, monkeypatch):
        side = complex(1.5e308)  # simpson - mean = 3e308 overflows
        monkeypatch.setattr(cli, "identity_residual", lambda f, iv, tol: IdentityReport(
            side, -side, side + side, 0j, math.inf))
        code, out, err = _run(capsys, ["verify", "--f", "x", "--a", "0", "--b", "1"])
        assert (code, out) == (3, "")
        assert err == "simpbound: numerical overflow: identity residual is inf\n"

    def test_an_infinite_power_argument_names_its_subterm(self, capsys):
        # 1e308*log(-2) has an infinite imaginary part at x = 1, the first Simpson point
        code, out, err = _run(capsys, ["verify", "--f", "(0-2)^(1e308*x)", "--a", "1",
                                       "--b", "2", "--q", "1"])
        assert (code, out) == (3, "")
        assert err == "simpbound: overflow in power in '(0.0 - 2.0)^(1e+308*x)'\n"

    def test_a_wide_product_verifies_at_phi_zero(self, capsys):
        # estimate_m4 runs Taylor jets through the 63 products
        code, _, err = _run(capsys, ["verify", "--f", "*".join(["x"] * 64), "--a", "0.5",
                                     "--b", "1", "--phi", "0", "--q", "1"])
        assert code == 0, err

    def test_a_wide_product_verifies_at_phi_zero_without_jets(self, capsys, monkeypatch):
        # where the jets fail, estimate_m4 differentiates all 64 factors four times
        monkeypatch.setattr(bounds, "taylor_grid", failing_jets)
        self.test_a_wide_product_verifies_at_phi_zero(capsys)

    @pytest.mark.parametrize("flag", ["--tol", "--identity-tol"])
    def test_non_finite_tolerance_is_a_config_error(self, capsys, flag):
        code, _, err = _run(capsys, ["verify", "--f", "x", "--a", "0", "--b", "1",
                                     flag, "inf"])
        assert code == 2
        assert "tolerance must be finite and positive, got inf" in err

    @pytest.mark.parametrize("argv,message", [
        (["--f", "x", "--samples", "2"], "certificate samples must be >= 3, got 2"),
        (["--f", "x", "--q", "1,abc"],
         "invalid q list '1,abc': could not convert string to float: 'abc'"),
        (["--f", "1e999", "--q", "1"], "number out of range: '1e999' (offset 0)"),
        (["--f", "x", "--tol", "-1e-3"],
         "oracle tolerance must be finite and positive, got -0.001"),
        (["--f", "x", "--identity-tol", "-1e-3"],
         "identity tolerance must be finite and positive, got -0.001"),
        # -inf, -infinity and -nan reach the check in any case, as inf and nan do
        (["--f", "x", "--tol", "-inf"], "oracle tolerance must be finite and positive, got -inf"),
        (["--f", "x", "--identity-tol", "-NaN"],
         "identity tolerance must be finite and positive, got nan"),
        (["--f", "x", "--q", "-inf"], "every q must be finite and >= 1, got -inf"),
        (["--f", "x", "--q", "-Infinity,2"], "every q must be finite and >= 1, got -inf"),
    ], ids=["samples", "q-list", "literal", "negative-tol", "negative-identity-tol",
            "minus-inf-tol", "minus-nan-identity-tol", "minus-inf-q", "minus-infinity-q-list"])
    def test_option_errors_keep_their_text(self, capsys, argv, message):
        code, out, err = _run(capsys, ["verify", *argv, "--a", "0", "--b", "1"])
        assert (code, out, err) == (2, "", f"simpbound: {message}\n")

    def test_an_error_of_the_fourth_derivative_grid_exits_3(self, capsys):
        code, out, err = _run(capsys, ["verify", "--f", "(x-0.5)^3.5", "--a", "0",
                                       "--b", "1", "--q", "1"])
        assert (code, out) == (3, "")
        assert err == "simpbound: zero raised to the power (-0.5+0j) in '(x - 0.5)^-0.5'\n"

    @pytest.mark.parametrize("text,evaluations", [
        ("1/(1.0+x^2)", 3165),    # the path integral of f stalls
        ("1/(1+x^2)^2", 110520),  # the kernel integral of f' stalls
    ])
    def test_stalled_refinement_exits_3(self, capsys, text, evaluations):
        # the segment [0, 2i] passes through the pole at x = i
        code, out, err = _run(capsys, ["verify", "--f", text, "--a", "0", "--b", "2",
                                       "--phi", "pi/2", "--q", "2"])
        assert (code, out) == (3, "")
        assert err.startswith("simpbound: refinement stalled at floating-point resolution; ")
        assert err.endswith(f" after {evaluations} evaluations\n")

    @pytest.mark.parametrize("command,name", [("verify", "cmd_verify"), ("sweep", "cmd_sweep")])
    def test_an_unlisted_exception_exits_3_with_its_type(self, capsys, monkeypatch,
                                                         command, name):
        def fail(config):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, name, fail)
        code, out, err = _run(capsys, [command, "--f", "x", "--a", "0", "--b", "1"])
        assert (code, out) == (3, "")
        assert err == "simpbound: RecursionError: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize("a,b,phi,tol,message", [
        ("0", "inf", "0", "1e-11", "interval endpoints must be finite"),
        ("-inf", "1", "0", "1e-11", "interval endpoints must be finite"),
        ("0", "1", "-INF", "1e-11", "phi must lie in [0, pi/2], got -inf"),
        ("2", "1", "0", "1e-11", "need a < b, got a=2.0, b=1.0"),
        ("0", "1", "2.0", "1e-11", "phi must lie in [0, pi/2], got 2.0"),
        ("-1e308", "1e308", "0", "1e-11", "segment length b - a must be finite, got inf"),
        # the path integral's tolerance, 1e-11 * 1e-320, would underflow to 0
        ("0", "1e-320", "0", "1e-11",
         "oracle tolerance 1e-11 times the segment length 1e-320 underflows to 0"),
        # the kernel integral's tolerance, tol / (b - a), would underflow to 0
        ("0", "2", "0", "5e-324",
         "oracle tolerance 5e-324 divided by the segment length 2.0 underflows to 0"),
        ("0", "1e5", "0", "1e-320",
         "oracle tolerance 1e-320 divided by the segment length 100000.0 underflows to 0"),
        # the path integral scales by |chord|, one ulp below b - a at pi/4
        ("0", "0.011111111111111112", "pi/4", "2.2e-322",
         "oracle tolerance 2.2e-322 times the segment length 0.011111111111111112 underflows to 0"),
    ], ids=["endpoint", "minus-inf-endpoint", "minus-inf-phi", "order", "phi", "length-overflows",
            "tolerance-underflows", "kernel-tolerance-underflows",
            "kernel-tolerance-underflows-on-a-long-segment",
            "tolerance-underflows-on-the-rotated-chord"])
    def test_segment_errors_keep_their_text(self, capsys, a, b, phi, tol, message):
        code, _, err = _run(capsys, ["verify", "--f", "x", "--a", a, "--b", b, "--phi", phi,
                                     "--tol", tol])
        assert (code, err) == (2, f"simpbound: {message}\n")

    @pytest.mark.parametrize("text", ["(" * 600 + "x" + ")" * 600, " + ".join(["x"] * 3000)],
                             ids=["parentheses", "long-sum"])
    def test_nesting_beyond_the_depth_limit_is_a_config_error(self, capsys, text):
        code, _, err = _run(capsys, ["verify", "--f", text, "--a", "0", "--b", "1"])
        assert code == 2
        assert "nested deeper than 64 levels" in err

    @pytest.mark.parametrize("a,b", [("-1e-300", "1"), ("-2.5E+0", "-1e-300")])
    def test_negative_scientific_endpoints(self, capsys, a, b):
        code, out, err = _run(capsys, ["verify", "--f", "x^2", "--a", a, "--b", b,
                                       "--q", "2e0", "--format", "csv"])
        assert code == 0, err
        row = out.splitlines()[1].split(",")
        assert (float(row[1]), float(row[2]), float(row[5])) == (float(a), float(b), 2.0)

    def test_negative_q_reaches_the_configuration_check(self, capsys):
        code, _, err = _run(capsys, ["verify", "--f", "x^2", "--a", "0", "--b", "1",
                                     "--q", "-1e0"])
        assert code == 2
        assert "q must be finite and >= 1" in err


class TestPhiParsing:
    @pytest.mark.parametrize("token,expected", [
        ("0", 0.0),
        ("pi/6", math.pi / 6),
        ("pi/4", math.pi / 4),
        ("pi/3", math.pi / 3),
        ("pi/2", math.pi / 2),
        ("0.25", 0.25),
    ])
    def test_tokens(self, token, expected):
        assert parse_phi(token) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_phi("quarter-turn")


def _quick_config(**overrides):
    defaults = dict(expression="x^4", a=0.0, b=1.0, phi=0.0, qs=(1.0, 2.0),
                    certificate_samples=101)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestVerifyPipeline:
    def test_report_shape(self):
        report = cmd_verify(_quick_config())
        assert report.identity_ok
        assert [c.q for c in report.certificates] == [1.0, 2.0]
        assert [(r.theorem, r.q) for r in report.bounds] == [
            ("T31", 1.0), ("T34", 1.0),
            ("T31", 2.0), ("T32", 2.0), ("T33", 2.0), ("T34", 2.0),
        ]
        assert report.classical is not None
        assert report.classical.certificate_status == "skipped"
        assert report.verdict == "all-dominant"
        assert report.passed

    def test_repeated_runs_leave_no_tuples_in_the_free_lists(self):
        # with the garbage collector off, nothing but the interpreter's free lists can
        # keep a block once a run has returned: a tuple built from an iterator adds one
        config = RunConfig("exp(sin(1.1*x))/(1+x^2)", 0.3, 2.0, certificate_samples=101)

        def run():
            report = cmd_verify(config)
            return report.passed, report.verdict, report.all_rows()

        run()
        gc.collect()  # a full collection also empties the free lists
        gc.disable()
        try:
            run()
            before = sys.getallocatedblocks()
            for _ in range(50):
                run()
            grown = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert grown < 50, grown

    def test_no_classical_row_when_rotated(self):
        report = cmd_verify(_quick_config(phi=math.pi / 4))
        assert report.classical is None
        assert report.m4_estimate is None

    def test_violated_certificate_does_not_fail_run(self):
        report = cmd_verify(_quick_config(expression="x - x^3/3", a=-1.0, b=1.0,
                                          qs=(1.0,)))
        assert report.certificates[0].status == "violated"
        assert report.passed  # dominance only gates under verified certificates

    def test_json_fields_schema(self):
        doc = verify_json_doc(cmd_verify(_quick_config()))
        for row in doc["bounds"]:
            assert list(row) == ["theorem", "q", "bound", "actual", "slack",
                                 "dominant", "certificate_status"]
        assert doc["verdict"] == "all-dominant"
        assert list(doc["classical"])[:7] == ["theorem", "q", "bound", "actual",
                                              "slack", "dominant", "certificate_status"]

    def test_json_round_trips_bit_for_bit(self):
        report = cmd_verify(_quick_config())
        parsed = json.loads(render_json(verify_json_doc(report)))
        for row, original in zip(parsed["bounds"], report.bounds):
            assert row["bound"] == original.bound
            assert row["actual"] == original.actual
            assert row["slack"] == original.slack
        assert parsed["identity"]["residual"] == report.identity.residual

    def test_csv_row_count_and_round_trip(self):
        report = cmd_verify(_quick_config())
        lines = render_csv_verify(report).splitlines()
        # header + T31/T34 at q=1 + four theorems at q=2 + classical
        assert len(lines) == 1 + 2 + 4 + 1
        header = lines[0].split(",")
        assert header[4:] == ["theorem", "q", "bound", "actual", "slack",
                              "dominant", "certificate_status"]
        first = lines[1].split(",")
        assert first[4] == "T31"
        assert float(first[6]) == report.bounds[0].bound

    def test_csv_columns_after_the_segment_are_the_bound_fields(self):
        report = cmd_verify(_quick_config())
        for row in verify_json_doc(report)["bounds"]:
            assert CSV_COLUMNS[4:] == tuple(row)

    def test_csv_rows_without_classical_when_rotated(self):
        report = cmd_verify(_quick_config(phi=math.pi / 2))
        lines = render_csv_verify(report).splitlines()
        assert len(lines) == 1 + 2 + 4
        assert not any("CLASSICAL" in line for line in lines)


class TestSweep:
    def test_cardinality(self):
        segments = _grid(("x", "x^2", "x^3", "2*x", "x + 1"), (0.0,), (1.0,),
                         (0.0, math.pi / 6, math.pi / 4, math.pi / 2), (1.0, 2.0, 3.0),
                         certificate_samples=51)
        sweep = cmd_sweep(segments)
        assert sweep.summary.cells == 60
        assert sweep.summary.errors == 0
        doc = sweep_json_doc(sweep)
        assert len(doc["runs"]) == 60

    def test_violated_certificate_cells_are_informational(self, capsys):
        code, out, _ = _run(capsys, [
            "sweep", "--f", "x^2", "--f", "x - x^3/3",
            "--a", "-1", "--b", "1", "--phi", "0", "--q", "1",
            "--samples", "101",
        ])
        assert code == 0
        assert "violated" in out

    def test_empty_q_list_rejected(self, capsys):
        code, _, _ = _run(capsys, ["sweep", "--f", "x^2", "--a", "0", "--b", "1",
                                   "--q", ","])
        assert code == 2

    def test_failing_cell_recorded_not_fatal(self):
        sweep = cmd_sweep(_grid(("1/(x-1)", "x^2"), (0.0,), (2.0,), (0.0,), (2.0,),
                                certificate_samples=51))
        assert sweep.summary.cells == 2
        assert sweep.summary.errors == 1
        assert sweep.cells[0].report is None
        assert "division by zero" in sweep.cells[0].error
        assert sweep.cells[1].report is not None

    def test_overflowing_cell_recorded_not_fatal(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--f", "exp(x)", "--f", "x", "--a", "0",
                                     "--b", "10", "--q", "400", "--samples", "51",
                                     "--format", "json"])
        assert code == 0
        runs = json.loads(out)["runs"]
        assert [run["status"] for run in runs] == ["error", "ok"]
        assert runs[0]["error"].startswith("numerical overflow")

    def test_non_finite_bound_is_a_failed_cell(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--f", "exp(x)", "--f", "x", "--a", "0",
                                     "--b", "700", "--q", "1", "--samples", "11",
                                     "--format", "json"])
        assert code == 0
        runs = json.loads(out, parse_constant=_reject)["runs"]
        assert [run["status"] for run in runs] == ["error", "ok"]
        assert runs[0]["error"] == "numerical overflow: CLASSICAL bound is inf"

    def test_a_segment_too_long_or_too_short_is_a_failed_cell(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--f", "x", "--a", "-1e308,0", "--b", "1e308,1e-320",
                                     "--q", "1", "--samples", "11", "--format", "json"])
        assert code == 0
        errors = {(run["config"]["a"], run["config"]["b"]): run.get("error")
                  for run in json.loads(out)["runs"]}
        assert errors[(-1e308, 1e308)] == "segment length b - a must be finite, got inf"
        assert errors[(0.0, 1e-320)] == (
            "oracle tolerance 1e-11 times the segment length 1e-320 underflows to 0")

    def test_a_kernel_tolerance_that_underflows_is_a_failed_cell(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--f", "x", "--a", "0", "--b", "1,2",
                                     "--q", "1", "--tol", "5e-324", "--samples", "11",
                                     "--format", "json"])
        assert code == 0
        runs = json.loads(out)["runs"]
        assert [run["status"] for run in runs] == ["ok", "error"]
        assert runs[1]["error"] == (
            "oracle tolerance 5e-324 divided by the segment length 2.0 underflows to 0")

    def test_negative_scientific_endpoints(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--f", "x^2", "--a", "-1e-3,-.5", "--b", "1",
                                     "--q", "2", "--samples", "51", "--format", "csv"])
        assert code == 0
        assert {line.split(",")[1] for line in out.splitlines()[1:]} == {"-0.001", "-0.5"}

    def test_summary_fields(self):
        summary = cmd_sweep(_grid(("x^2", "exp(x)"), (0.0,), (1.0,), (0.0, math.pi / 4), (2.0,),
                                  certificate_samples=51)).summary
        assert summary.cells == 4
        assert summary.max_residual <= 1e-8
        assert summary.verified_violations == 0
        assert set(summary.min_slack) == {"T31", "T32", "T33", "T34", "CLASSICAL"}


def _reject(constant):
    raise ValueError(f"non-finite constant {constant} in a JSON report")


class TestSweepSegments:
    """A sweep verifies each (f, a, b, phi) segment once for its whole q list."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config.qs)
            return cmd_verify(config)
        monkeypatch.setattr(cli, "cmd_verify", counted)
        return calls

    @staticmethod
    def _sweep(expressions, b, qs):
        return cmd_sweep(_grid(expressions, (0.0,), (b,), (0.0, math.pi / 4), qs,
                               certificate_samples=51))

    def test_one_run_per_segment(self, verify_calls):
        sweep = self._sweep(("x^2", "sin(x)"), 1.0, (1.0, 2.0, 3.0))
        assert verify_calls == [(1.0, 2.0, 3.0)] * 4
        assert [cell.config.qs for cell in sweep.cells] == [(1.0,), (2.0,), (3.0,)] * 4

    def test_cells_equal_separate_runs(self):
        sweep = self._sweep(("exp(sin(x))", "x^3 - x"), 1.5, (2.0, 1.0, 2.0))
        assert sweep.summary.errors == 0
        for cell in sweep.cells:
            alone = cmd_verify(cell.config)
            assert render_json(verify_json_doc(cell.report)) == render_json(verify_json_doc(alone))
            assert render_csv_verify(cell.report) == render_csv_verify(alone)

    def test_a_failing_segment_is_rerun_cell_by_cell(self, verify_calls):
        # q = 400 overflows |f'(10)|^q; the cells by position, not by q value
        sweep = self._sweep(("exp(x)",), 10.0, (1.0, 400.0, 1.0))
        assert verify_calls == [(1.0, 400.0, 1.0), (1.0,), (400.0,), (1.0,)] * 2
        assert [cell.error is None for cell in sweep.cells] == [True, False, True] * 2
        assert all(cell.error.startswith("numerical overflow") for cell in sweep.cells
                   if cell.error is not None)

    def test_a_failing_single_q_segment_runs_once(self, verify_calls):
        sweep = self._sweep(("log(x)",), 2.0, (2.0,))
        assert verify_calls == [(2.0,)] * 2
        assert [cell.error for cell in sweep.cells] == ["log of 0 in 'log(x)'"] * 2

    def test_segments_off_any_grid_keep_their_order_and_settings(self, verify_calls):
        # their q lists and oracle tolerances differ, so no (f, a, b, phi, q) grid holds both
        segments = [RunConfig("exp(sin(x))", 0.0, 1.5, math.pi / 4, (2.0, 1.0),
                              certificate_samples=51),
                    RunConfig("x^3 - x", 0.5, 2.0, 0.0, (3.0,), oracle_tol=1e-9,
                              certificate_samples=51)]
        sweep = cmd_sweep(segments)
        assert verify_calls == [(2.0, 1.0), (3.0,)]
        assert [cell.config for cell in sweep.cells] == [
            segments[0]._replace(qs=(2.0,)), segments[0]._replace(qs=(1.0,)), segments[1]]
        for cell in sweep.cells:
            alone = cmd_verify(cell.config)
            assert render_json(verify_json_doc(cell.report)) == render_json(verify_json_doc(alone))
            assert render_csv_verify(cell.report) == render_csv_verify(alone)

    def test_no_segments_give_an_empty_report(self):
        sweep = cmd_sweep([])
        assert (sweep.cells, sweep.summary.cells, sweep.passed) == ((), 0, True)
        assert json.loads(render_json(sweep_json_doc(sweep)))["runs"] == []
        assert render_csv_sweep(sweep).count("\n") == 1  # the header alone
        assert "  cells                0" in render_table_sweep(sweep).splitlines()

    def test_a_segment_without_q_is_one_failed_cell(self, verify_calls):
        sweep = cmd_sweep([RunConfig("x", 0.0, 1.0, qs=())])
        assert verify_calls == [()]
        assert [(cell.config.qs, cell.error) for cell in sweep.cells] == [
            ((), "q list must be nonempty")]


class TestOneCertificatePass:
    """``cmd_verify`` certifies its whole q list in one call, and its bounds
    read |f'(a)| and |f'(b)| from those certificates."""

    def test_one_certificate_call_and_no_from_function_call(self, monkeypatch):
        certify_calls = []
        certify = cli.certify_phi_convexity

        def counted_certify(f, iv, qs, **kwargs):
            certify_calls.append(qs)
            return certify(f, iv, qs, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("cmd_verify called BoundInputs.from_function")
        monkeypatch.setattr(cli, "certify_phi_convexity", counted_certify)
        monkeypatch.setattr(cli.BoundInputs, "from_function", classmethod(refused))
        report = cmd_verify(RunConfig("exp(sin(x))", 0.0, 2.0, certificate_samples=51))
        qs = cli.DEFAULT_Q_LIST
        assert certify_calls == [qs]
        assert tuple(cert.q for cert in report.certificates) == qs
        assert tuple(row.q for row in report.bounds if row.theorem == "T34") == qs

    @pytest.mark.parametrize("phi", [0.0, math.pi / 4], ids=["phi-0", "phi-pi/4"])
    @pytest.mark.parametrize("expression, a, b", [("exp(sin(x))", 0.0, 2.0),
                                                  ("x^5 - 2.2*x^3 + x", 1.0, 2.0),
                                                  ("sin(x)", 1.0, 3.0)])
    def test_rows_match_the_inputs_from_function_gives(self, expression, a, b, phi):
        config = RunConfig(expression, a, b, phi, qs=(1.0, 1.5, 2.0, 5.0),
                           certificate_samples=51)
        report = cmd_verify(config)
        inputs = cli.BoundInputs.from_function(cli.parse(expression), cli.PhiInterval(a, b, phi))
        actual = abs(report.identity.lhs)
        expected = []
        for cert in report.certificates:
            at_q = inputs._replace(q=cert.q)
            expected.extend(cli.make_bound_report(name, cert.q, bound(at_q), actual, cert.status)
                            for name, bound in (("T31", cli.bound_t31), ("T32", cli.bound_t32),
                                                ("T33", cli.bound_t33), ("T34", cli.bound_t34))
                            if cert.q > 1.0 or name in ("T31", "T34"))
        assert repr(report.bounds) == repr(tuple(expected))

    # f' divides by zero at x = 0.7, a certificate point the identity never
    # evaluates, and |f'(0)|^400 overflows
    POLE = ["--f", "100*sin(x-0.7)/(x-0.7)", "--a", "0", "--b", "1"]

    @pytest.mark.parametrize("q, message", [("1", "division by zero"),
                                            ("400", "numerical overflow"),
                                            ("1,400", "numerical overflow")])
    def test_first_error_of_the_pass_exits_3(self, capsys, q, message):
        code, _, err = _run(capsys, ["verify", *self.POLE, "--q", q])
        assert code == 3
        assert err.startswith(f"simpbound: {message}")

    def test_sweep_cells_keep_their_own_errors(self):
        sweep = cmd_sweep([RunConfig(self.POLE[1], 0.0, 1.0, 0.0, (1.0, 400.0))])
        first, second = (cell.error for cell in sweep.cells)
        assert first.startswith("division by zero")
        assert second.startswith("numerical overflow")


class TestDeterminism:
    def test_verify_json_byte_identical(self, capsys):
        argv = ["verify", "--f", "exp(x)", "--a", "0", "--b", "2", "--phi", "pi/4",
                "--q", "1,2", "--format", "json", "--samples", "101"]
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sweep_machine_formats_byte_identical(self, capsys):
        argv = ["sweep", "--f", "x^2", "--f", "sin(x)", "--a", "0", "--b", "1,2",
                "--phi", "0,pi/4", "--q", "1,2", "--samples", "51"]
        for fmt in ("json", "csv"):
            code1, out1, _ = _run(capsys, argv + ["--format", fmt])
            code2, out2, _ = _run(capsys, argv + ["--format", fmt])
            assert code1 == code2 == 0
            assert out1 == out2

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["verify", "--f", "x^4", "--a", "0", "--b", "1", "--format", "json",
                "--samples", "101"]
        _, out, _ = _run(capsys, argv)
        path = tmp_path / "report.json"
        code = main(argv + ["--output", str(path)])
        capsys.readouterr()
        assert code == 0
        assert path.read_text(encoding="utf-8") == out


@functools.lru_cache(maxsize=None)
def _phi0_report():
    return cmd_verify(_quick_config())


def _bits(value) -> bytes:
    return struct.pack("<d", value)


class TestNumbersReadBack:
    """Every float of a machine report reads back as the same float, bit for bit."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(1.7976931348623157e308)
    @example(24.0)
    @example(0.1)
    @example(1.0 / 3.0)
    @example(math.pi)
    @example(5.0 / 72.0)
    @example(1e-300)
    @example(12345.678901234567)
    def test_bound_row_values_round_trip(self, value):
        report = _phi0_report()
        first, *rest = report.rows_per_q[0]
        row = first._replace(bound=value, actual=value, slack=value)
        report = report._replace(rows_per_q=((row, *rest), *report.rows_per_q[1:]))

        doc = json.loads(render_json(verify_json_doc(report)))["bounds"][0]
        cells = list(csv.reader(io.StringIO(render_csv_verify(report))))[1]
        for name in ("bound", "actual", "slack"):
            assert type(doc[name]) is float and _bits(doc[name]) == _bits(value)
            cell = cells[CSV_COLUMNS.index(name)]
            assert "." in cell or "e" in cell
            assert _bits(float(cell)) == _bits(value)

    def test_int_config_reports_the_same_bytes_as_floats(self):
        def segments(number):
            return [RunConfig("x^4", number(0), number(1), number(0), (number(1), number(2)),
                              identity_tol=number(1), certificate_samples=51),
                    RunConfig("log(x)", number(0), number(2), number(0), (number(2),),
                              certificate_samples=51)]

        ints, floats = segments(int), segments(float)
        verify = cmd_verify(ints[0]), cmd_verify(floats[0])
        sweep = cmd_sweep(ints), cmd_sweep(floats)
        assert sweep[1].summary.errors == 1  # log(x) at 0: an error cell echoes its config
        for render, reports in ((lambda r: render_json(verify_json_doc(r)), verify),
                                (render_csv_verify, verify),
                                (lambda r: render_json(sweep_json_doc(r)), sweep),
                                (render_csv_sweep, sweep)):
            assert render(reports[0]) == render(reports[1])


def test_csv_sweep_covers_all_reported_cells():
    sweep = cmd_sweep(_grid(("x^2",), (0.0,), (1.0,), (0.0, math.pi / 2), (1.0, 2.0),
                            certificate_samples=51))
    lines = render_csv_sweep(sweep).splitlines()
    # per phi=0 cell: q=1 -> 2+1 rows, q=2 -> 4+1 rows; rotated cells drop classical
    expected_rows = (2 + 1) + (4 + 1) + 2 + 4
    assert len(lines) == 1 + expected_rows
