"""Tests of the benchmark itself: tracing, checks, oracles and the generator."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import reference  # noqa: E402
from checks import check  # noqa: E402
from reference import NOMINAL_S, SpeedProbe  # noqa: E402
from tracer import Span, Tracer, layer_self_seconds, self_times, traced_bindings  # noqa: E402
from workloads import RANGES, ops  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_op(workload: str, seed: int = 1):
    return next(ops(workload, seed))


def small_sweep(seed: int = 1):
    """A two-cell sweep-grid op: same expressions and checks, far less work."""
    op = first_op("sweep-grid", seed)
    return dataclasses.replace(op, a_values=op.a_values[:1], phi_tokens=("pi/4",),
                               qs=(2.0,), q_arg="2")


# -- tracing ---------------------------------------------------------------

def snapshot() -> list:
    return [vars(owner)[attr] for owner, attr in traced_bindings()]


def test_wrappers_restore_every_binding():
    before = snapshot()
    with Tracer(count_nodes=True).installed():
        during = snapshot()
    assert all(new is not old for new, old in zip(during, before))
    assert all(new is old for new, old in zip(snapshot(), before))


def test_wrappers_restore_bindings_after_an_error():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with Tracer(count_nodes=True).installed():
            raise RuntimeError("boom")
    assert all(new is old for new, old in zip(snapshot(), before))


@pytest.mark.parametrize("make_op", [lambda: first_op("near-pole"), small_sweep])
@pytest.mark.parametrize("count_nodes", [False, True])
def test_traced_and_untraced_reports_are_byte_identical(tmp_path, make_op, count_nodes):
    op = make_op()
    out = str(tmp_path / "report")
    plain = harness.run_op(op, out)
    tracer = Tracer(count_nodes=count_nodes)
    with tracer.installed():
        traced = harness.run_op(op, out, tracer)
    assert plain.problem is None and traced.problem is None
    assert traced.text == plain.text
    assert {span.name for span in tracer.spans} >= {
        "cli.main", "cli.cmd_verify", "expr.parse", "identity.identity_residual",
        "quad.integrate_01", "convexity.certify_phi_convexity", "report.emit_report"}


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    def count_once() -> tuple:
        tracer = Tracer(count_nodes=True)
        stream = ops("near-pole", 5)
        with tracer.installed():
            for op in islice(stream, 2):
                harness.run_op(op, str(tmp_path / "report"), tracer)
        return (tracer.nodes(), dict(tracer.counts), [s.name for s in tracer.spans],
                [s.evals for s in tracer.spans], len(tracer.cert_points))

    first = count_once()
    assert first == count_once()
    assert first[1]["quad.evaluations"] > 0


def test_quadrature_evaluations_match_folded_evaluate_calls(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        harness.run_op(first_op("near-pole"), str(tmp_path / "report"), tracer)
    folded = sum(s.evals for s in tracer.spans if s.name == "quad.integrate_01")
    assert folded == tracer.counts["quad.evaluations"]


def test_budget_exhaustion_is_counted_with_its_evaluations():
    from simpbound import quad

    tracer = Tracer()
    with tracer.installed(), tracer.op_span():
        with pytest.raises(quad.BudgetExceededError) as caught:
            quad.integrate_01(lambda t: 1.0 / (t - 0.5 + 1e-12j), budget=200)
    assert tracer.counts["quad.budget_exhausted"] == 1
    assert tracer.counts["quad.evaluations"] == caught.value.best.evaluations > 0


def test_an_unexpected_exit_code_is_a_failed_op(tmp_path):
    op = dataclasses.replace(first_op("near-pole"), b_values=(0.0,))  # b < a: exit 2
    result = harness.run_op(op, str(tmp_path / "report"))
    assert result.problem is not None and result.problem.startswith("exit 2")
    outcome = harness.Outcome()
    outcome.account([result])
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, -1, 0, "cli.main", 0.0, 10.0, evals=3, eval_s=0.5, paused=0.3),
        Span(1, 0, 0, "identity.identity_residual", 1.0, 3.0, paused=0.1),
        Span(2, 0, 0, "identity.identity_residual", 3.5, 4.5),
        Span(3, 1, 0, "quad.integrate_01", 1.5, 2.5, evals=10, eval_s=0.25),
        Span(4, 0, 0, "report.emit_report", 9.0, 9.5),
    ]
    own = self_times(spans)
    # cli.main: 9.7 s without the probe, minus children 1.9 + 1.0 + 0.5 and its folded 0.5.
    assert own == pytest.approx([5.8, 1.9 - 1.0, 1.0, 1.0 - 0.25, 0.5])
    layers = layer_self_seconds(spans, [2.0])
    assert layers["cli"] == pytest.approx(2 * 5.8)
    assert layers["expr"] == pytest.approx(2 * 0.75)
    assert layers["identity"] == pytest.approx(2 * 1.9)
    assert sum(layers.values()) == pytest.approx(2 * 9.7)


def test_self_times_add_up_to_the_ops_without_the_probe(tmp_path, monkeypatch):
    monkeypatch.setattr(reference, "PROBE_INTERVAL_S", 0.05)
    tracer = Tracer()
    probe = SpeedProbe(on_sample=tracer.pause)
    with tracer.installed(), probe.running():
        for op in islice(ops("near-pole", 1), 4):
            harness.run_op(op, str(tmp_path / "report"), tracer)
    roots = [span for span in tracer.spans if span.parent < 0]
    assert len(roots) == 4 and sum(root.paused for root in roots) > 0
    for root in roots:
        assert root.paused == pytest.approx(probe.probe_seconds(root.start, root.end))
    own = sum(self_times(tracer.spans)) + sum(span.eval_s for span in tracer.spans)
    assert own == pytest.approx(sum(r.end - r.start - r.paused for r in roots), rel=1e-9)


# -- checks and oracles ----------------------------------------------------

def run_report(tmp_path, op) -> str:
    result = harness.run_op(op, str(tmp_path / "report"))
    assert result.problem is None, result.problem
    return result.text


@pytest.mark.parametrize("field", ["path_mean", "simpson"])
def test_json_check_rejects_a_wrong_identity_value(tmp_path, field):
    op = first_op("near-pole")
    doc = json.loads(run_report(tmp_path, op))
    doc["identity"][field]["im"] += 1e-6
    assert check(op, json.dumps(doc))


def test_json_check_rejects_a_flipped_dominance_flag_and_a_missing_row(tmp_path):
    op = first_op("near-pole")
    doc = json.loads(run_report(tmp_path, op))
    assert not check(op, json.dumps(doc))
    doc["bounds"][0]["dominant"] = not doc["bounds"][0]["dominant"]
    assert check(op, json.dumps(doc))
    doc = json.loads(run_report(tmp_path, op))
    del doc["bounds"][1]
    assert check(op, json.dumps(doc))


def test_simpson_oracle_catches_a_consistent_but_wrong_identity(tmp_path):
    op = dataclasses.replace(first_op("verify-deep"), qs=(2.0,), q_arg="2")
    doc = json.loads(run_report(tmp_path, op))
    identity = doc["identity"]
    for side in ("simpson", "lhs", "rhs"):  # keeps the report self-consistent
        identity[side]["re"] += 1e-6
    assert [p for p in check(op, json.dumps(doc)) if "oracle" in p]
    assert not [p for p in check(op, json.dumps(doc)) if "oracle" not in p]


def test_csv_check_rejects_a_wrong_actual_and_a_dropped_row(tmp_path):
    op = small_sweep()
    text = run_report(tmp_path, op)
    rows = list(csv.reader(io.StringIO(text)))

    def render(table) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue()

    assert not check(op, render(rows))
    assert check(op, render(rows[:-1]))
    quintic = next(i for i, row in enumerate(rows) if row[0] == op.expressions[1])
    rows[quintic][7] = repr(float(rows[quintic][7]) * 1.001)
    assert any("oracle" in p for p in check(op, render(rows)))


def test_expected_sweep_grid_row_count():
    op = first_op("sweep-grid")
    rows = sum(2 + 2 * (q > 1.0) + (phi == 0.0) for _, _, _, phi, q in op.cells())
    assert op.configs == 100 and rows == 380


# -- generator -------------------------------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_generator_is_seeded_never_repeats_text_and_stays_in_range(workload):
    drawn = list(islice(ops(workload, 3), 2000))
    assert drawn[:50] == list(islice(ops(workload, 3), 50))
    assert drawn[:50] != list(islice(ops(workload, 4), 50))
    texts = [text for op in drawn for text in op.expressions]
    assert len(texts) == len(set(texts))
    r = RANGES[workload]
    for op in drawn:
        assert r["c"][0] <= op.c <= r["c"][1]
        assert all(repr(op.c) in text for text in op.expressions)
        (b,) = op.b_values
        assert r["b"][0] <= b <= r["b"][1]
        if workload == "sweep-grid":
            a1, a2 = op.a_values
            assert r["a1"][0] <= a1 <= r["a1"][1] and r["a2"][0] <= a2 <= r["a2"][1]
        else:
            assert r["a"][0] <= op.a_values[0] <= r["a"][1]
        assert all(not math.isnan(v) for v in op.a_values + op.b_values)


# -- the whole benchmark ----------------------------------------------------

def units(outcome: harness.Outcome) -> dict[str, str]:
    return {name: unit for name, (_, unit, _) in outcome.metrics.items()}


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.COUNTING_OPS, "near-pole", 1)
    outcome = harness.trace("near-pole", 1, 0.2, str(tmp_path / "report"), str(tmp_path / "spans"))
    assert outcome.failed == 0
    assert units(outcome) == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert (tmp_path / "spans-traced.jsonl").read_text().count("cli.main") >= 1


def test_untraced_run_reports_every_declared_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    outcome = harness.measure("near-pole", 1, 0.2, str(tmp_path / "report"), str(ROOT / "src"))
    assert outcome.failed == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert declared.items() <= units(outcome).items()
    assert all(outcome.metrics[name][0] > 0 for name in declared)
    assert 0 < outcome.metrics["setup_s"][0] < 5


def test_benchmark_refuses_to_run_without_the_tool(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "near-pole", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_scale_and_its_own_time_on_synthetic_samples():
    probe = SpeedProbe()
    probe.starts, probe.ends = [0.0, 0.5, 1.0, 1.5], [0.01, 0.51, 1.01, 1.51]
    probe.references = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S]
    assert probe.scale(0.1, 0.4) == pytest.approx(1 / 1.5)  # samples at 0.0 and 0.5
    assert probe.scale(0.6, 1.2) == pytest.approx(3 / 7)  # samples at 0.5, 1.0, 1.5
    assert probe.probe_seconds(0.1, 1.2) == pytest.approx(0.02)
    assert probe.probe_seconds(0.505, 0.6) == pytest.approx(0.005)


def test_speed_probe_samples_while_running_and_restores_the_signal_handler(monkeypatch):
    import signal
    monkeypatch.setattr(reference, "PROBE_INTERVAL_S", 0.05)
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.running():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.references) >= 4
    assert probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_sample_arriving_during_a_sample_is_dropped():
    probe = SpeedProbe(on_sample=lambda seconds: probe.sample())  # as a signal would
    probe.sample()
    assert len(probe.references) == len(probe.starts) == 1
