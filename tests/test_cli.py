import json
import math

import pytest

from simpbound import cli
from simpbound.cli import (
    ConfigError,
    RunConfig,
    SweepConfig,
    cmd_sweep,
    cmd_verify,
    main,
    parse_phi,
)
from simpbound.report import (
    float17,
    render_csv_sweep,
    render_csv_verify,
    render_json,
    sweep_json_doc,
    verify_json_doc,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        (["--f", "exp(x)", "--a", "0", "--b", "700"], "CLASSICAL bound is inf"),
        (["--f", "1e308*x", "--a", "0", "--b", "1.7"], "identity residual is inf"),
    ], ids=["bound", "residual"])
    def test_a_non_finite_result_is_an_overflow_not_a_report(self, capsys, argv, message):
        # e^700 * 700^4 / 2880 and 4 f(mid) = 3.4e308 overflow without raising
        code, out, err = _run(capsys, ["verify", *argv, "--q", "1", "--samples", "11",
                                       "--format", "json"])
        assert (code, out) == (3, "")
        assert err == f"simpbound: numerical overflow: {message}\n"

    def test_an_infinite_power_argument_names_its_subterm(self, capsys):
        # 1e308*log(-2) has an infinite imaginary part at x = 1, the first Simpson point
        code, out, err = _run(capsys, ["verify", "--f", "(0-2)^(1e308*x)", "--a", "1",
                                       "--b", "2", "--q", "1"])
        assert (code, out) == (3, "")
        assert err == "simpbound: overflow in power in '(0.0 - 2.0)^(1e+308*x)'\n"

    def test_a_wide_product_verifies_at_phi_zero(self, capsys):
        # estimate_m4 takes the fourth derivative of all 64 factors
        code, _, err = _run(capsys, ["verify", "--f", "*".join(["x"] * 64), "--a", "0.5",
                                     "--b", "1", "--phi", "0", "--q", "1"])
        assert code == 0, err

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
    ], ids=["samples", "q-list", "literal"])
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

    @pytest.mark.parametrize("a,b,phi,message", [
        ("0", "inf", "0", "interval endpoints must be finite"),
        ("2", "1", "0", "need a < b, got a=2.0, b=1.0"),
        ("0", "1", "2.0", "phi must lie in [0, pi/2], got 2.0"),
    ])
    def test_segment_errors_keep_their_text(self, capsys, a, b, phi, message):
        code, _, err = _run(capsys, ["verify", "--f", "x", "--a", a, "--b", b, "--phi", phi])
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

    def test_csv_rows_without_classical_when_rotated(self):
        report = cmd_verify(_quick_config(phi=math.pi / 2))
        lines = render_csv_verify(report).splitlines()
        assert len(lines) == 1 + 2 + 4
        assert not any("CLASSICAL" in line for line in lines)


class TestSweep:
    def test_cardinality(self):
        config = SweepConfig(
            expressions=("x", "x^2", "x^3", "2*x", "x + 1"),
            a_values=(0.0,),
            b_values=(1.0,),
            phi_values=(0.0, math.pi / 6, math.pi / 4, math.pi / 2),
            q_values=(1.0, 2.0, 3.0),
            certificate_samples=51,
        )
        sweep = cmd_sweep(config)
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
        config = SweepConfig(
            expressions=("1/(x-1)", "x^2"),
            a_values=(0.0,),
            b_values=(2.0,),
            phi_values=(0.0,),
            q_values=(2.0,),
            certificate_samples=51,
        )
        sweep = cmd_sweep(config)
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

    def test_negative_scientific_endpoints(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--f", "x^2", "--a", "-1e-3,-.5", "--b", "1",
                                     "--q", "2", "--samples", "51", "--format", "csv"])
        assert code == 0
        assert {line.split(",")[1] for line in out.splitlines()[1:]} == {"-0.001", "-0.5"}

    def test_summary_fields(self):
        config = SweepConfig(
            expressions=("x^2", "exp(x)"),
            a_values=(0.0,),
            b_values=(1.0,),
            phi_values=(0.0, math.pi / 4),
            q_values=(2.0,),
            certificate_samples=51,
        )
        summary = cmd_sweep(config).summary
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
        return cmd_sweep(SweepConfig(expressions=expressions, a_values=(0.0,), b_values=(b,),
                                     phi_values=(0.0, math.pi / 4), q_values=qs,
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


class TestOneCertificatePass:
    """``cmd_verify`` certifies its whole q list in one call."""

    def test_one_certificate_and_one_from_function_call(self, monkeypatch):
        certify_calls, inputs_calls = [], []
        certify, from_function = cli.certify_phi_convexity, cli.BoundInputs.from_function

        def counted_certify(f, iv, qs, **kwargs):
            certify_calls.append(qs)
            return certify(f, iv, qs, **kwargs)

        def counted_from_function(*args, **kwargs):
            inputs_calls.append(args)
            return from_function(*args, **kwargs)
        monkeypatch.setattr(cli, "certify_phi_convexity", counted_certify)
        monkeypatch.setattr(cli.BoundInputs, "from_function", counted_from_function)
        report = cmd_verify(RunConfig("exp(sin(x))", 0.0, 2.0, certificate_samples=51))
        qs = cli.DEFAULT_Q_LIST
        assert certify_calls == [qs]
        assert len(inputs_calls) == 1
        assert tuple(cert.q for cert in report.certificates) == qs
        assert tuple(row.q for row in report.bounds if row.theorem == "T34") == qs

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
        sweep = cmd_sweep(SweepConfig(expressions=(self.POLE[1],), a_values=(0.0,),
                                      b_values=(1.0,), phi_values=(0.0,),
                                      q_values=(1.0, 400.0)))
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


class TestFloat17:
    @pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, math.pi, 5.0 / 72.0,
                                       1e-300, 12345.678901234567])
    def test_round_trips(self, value):
        assert float(float17(value)) == value

    def test_whole_numbers_stay_compact(self):
        assert float17(24.0) == "24"


def test_csv_sweep_covers_all_reported_cells():
    config = SweepConfig(
        expressions=("x^2",),
        a_values=(0.0,),
        b_values=(1.0,),
        phi_values=(0.0, math.pi / 2),
        q_values=(1.0, 2.0),
        certificate_samples=51,
    )
    sweep = cmd_sweep(config)
    lines = render_csv_sweep(sweep).splitlines()
    # per phi=0 cell: q=1 -> 2+1 rows, q=2 -> 4+1 rows; rotated cells drop classical
    expected_rows = (2 + 1) + (4 + 1) + 2 + 4
    assert len(lines) == 1 + expected_rows
