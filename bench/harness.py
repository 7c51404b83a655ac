"""Closed-loop, single-client load generator: one op at a time, no threads.

Each op calls ``simpbound.cli.main(argv)`` in this process with ``--output``
pointing at a file, times the call (report write included), then checks the
report's content before the op counts.  An untraced run gives the end-to-end
metrics; a traced run gives the per-layer ones.

Op times are reported scaled to nominal machine speed (see ``reference``);
the wall times are printed beside them.
"""

from __future__ import annotations

import io
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Iterator

from simpbound import cli

from checks import check
from reference import SpeedProbe
from tracer import Tracer, layer_self_seconds, self_times, write_spans
from workloads import Op, ops

SETUP_REPEATS = 21
# Ops in the counting pass: fixed, so its counts repeat exactly for a seed.
COUNTING_OPS = {"sweep-grid": 1, "verify-deep": 3, "near-pole": 20}
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import simpbound.cli; simpbound.cli.build_parser(); print(time.monotonic())")


@dataclass
class OpResult:
    op: Op
    start: float
    seconds: float
    text: str  # the report; empty when none was written
    problem: str | None  # None when the op succeeded and its output passed every check
    scale: float = 1.0  # nominal over measured reference time during the op

    @property
    def scaled_ms(self) -> float:
        return self.seconds * self.scale * 1e3


def run_op(op: Op, out_path: str, tracer: Tracer | None = None) -> OpResult:
    """Run one op and check its report; every failure is recorded, never raised."""
    if os.path.exists(out_path):
        os.unlink(out_path)
    argv = op.argv(out_path)
    errors = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stderr(errors):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.op_span():
                    code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a crash of the tool is a failed op, not a failed benchmark
        return OpResult(op, t0, perf_counter() - t0, "", f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    if code != 0:
        return OpResult(op, t0, seconds, "", f"exit {code}: {errors.getvalue().strip()}")
    with open(out_path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    problems = check(op, text)
    return OpResult(op, t0, seconds, text, "; ".join(problems[:3]) if problems else None)


def repeat(first: OpResult, out_path: str) -> OpResult:
    """Run ``first``'s op again, untraced; its report must be byte-identical."""
    again = run_op(first.op, out_path)
    if again.problem is None and again.text != first.text:
        again.problem = "repeating the same inputs changed the report bytes"
    return again


def timed_loop(stream: Iterator[Op], seconds: float, out_path: str,
               tracer: Tracer | None = None) -> list[OpResult]:
    """Run ops until the next one, judged by the last, would end past ``seconds``.

    Each op's time excludes the speed probe's samples taken during it, and
    its scale is the probe's measure of machine speed over it; the tracer, if
    any, takes the samples out of its spans.
    """
    results: list[OpResult] = []
    probe = SpeedProbe(on_sample=tracer.pause if tracer is not None else None)
    start = perf_counter()
    with probe.running():
        while not results or perf_counter() - start + results[-1].seconds <= seconds:
            if len(results) > 1:
                results[-1].text = ""  # only the first report is kept, for the repeat check
            results.append(run_op(next(stream), out_path, tracer))
    for result in results:
        end = result.start + result.seconds
        result.scale = probe.scale(result.start, end)
        result.seconds -= probe.probe_seconds(result.start, end)
    return results


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, and its label."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of n={n}; fewer than 11 samples"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def setup_times(src: str) -> tuple[list[float], list[float]]:
    """Wall and scaled seconds from spawning a fresh interpreter until
    build_parser() has returned in it, for ``SETUP_REPEATS`` processes.

    The child prints its monotonic clock, which is the parent's clock too,
    when build_parser() returns, so interpreter teardown is not counted.
    The speed probe samples between spawns, never while a child runs.
    """
    argv = [sys.executable, "-I", "-c", SETUP_CODE, src]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)  # warm the file caches
    probe = SpeedProbe()
    probe.sample()
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0, spawned = perf_counter(), monotonic()
        # No timeout: with one, subprocess polls for the exit in steps of up to 50 ms.
        ready = float(subprocess.run(argv, check=True, stdout=subprocess.PIPE).stdout)
        t1 = perf_counter()
        probe.sample()
        walls.append(ready - spawned)
        scaled.append((ready - spawned) * probe.scale(t0, t1))
    return walls, scaled


@dataclass
class Outcome:
    """Metrics as name -> (value, unit, detail), and the op accounting."""

    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def account(self, results: list[OpResult]) -> None:
        self.attempted += len(results)
        for result in results:
            if result.problem is not None:
                self.failed += 1
                self.problems.append(f"{result.op.expressions[0]}: {result.problem}")

    def put(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.metrics[name] = (value, unit, detail)


def _latencies_ms(results: list[OpResult], scaled: bool = True) -> list[float]:
    """Op times of the ops that succeeded (of all ops when none did)."""
    counted = [r for r in results if r.problem is None] or results
    return [r.scaled_ms if scaled else r.seconds * 1e3 for r in counted]


def measure(workload: str, seed: int, seconds: float, out_path: str, src: str) -> Outcome:
    """The untraced run: end-to-end metrics."""
    setup_walls, setup = setup_times(src)
    results = timed_loop(ops(workload, seed), seconds, out_path)
    outcome = Outcome()
    outcome.account(results + [repeat(results[0], out_path)])

    latencies = _latencies_ms(results)
    tail_ms, tail_label = tail(latencies)
    configs = sum(r.op.configs for r in results if r.problem is None)
    # Per second of scaled op time, not of loop wall time: the loop also runs
    # the output checks and the probe, and its wall time follows the machine's load.
    busy = sum(r.scaled_ms for r in results) / 1e3
    outcome.put("setup_s", statistics.median(setup), "s", f"median of n={len(setup)} fresh processes")
    outcome.put("setup_wall_s", statistics.median(setup_walls), "s", "unscaled")
    outcome.put("op_p50_ms", statistics.median(latencies), "ms", f"n={len(latencies)}")
    outcome.put("op_tail_ms", tail_ms, "ms", tail_label)
    outcome.put("configs_per_s", configs / busy, "1/s", f"{configs} configs in {busy:.3f} s of ops")
    outcome.put("op_p50_wall_ms", statistics.median(_latencies_ms(results, scaled=False)), "ms",
                "unscaled")
    outcome.put("machine_speed", statistics.median(r.scale for r in results), "ratio",
                "nominal over measured reference time, median over ops")
    outcome.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    outcome.put("ops_failed_ratio", outcome.failed / outcome.attempted, "ratio",
                f"{outcome.failed} of {outcome.attempted} ops")
    return outcome


def trace(workload: str, seed: int, seconds: float, out_path: str, spans_prefix: str) -> Outcome:
    """The traced run: a counting pass, then untraced and traced halves of ``seconds``."""
    stream = ops(workload, seed)
    counting = Tracer(count_nodes=True)
    with counting.installed():
        counted = [run_op(next(stream), out_path, counting) for _ in range(COUNTING_OPS[workload])]
    untraced = timed_loop(stream, seconds / 2.0, out_path)
    timing = Tracer()
    with timing.installed():
        traced = timed_loop(stream, seconds / 2.0, out_path, timing)
    write_spans(f"{spans_prefix}-counting.jsonl", counting.spans)
    write_spans(f"{spans_prefix}-traced.jsonl", timing.spans)

    outcome = Outcome()
    # The repeat compares an untraced report with the traced report of the same inputs.
    outcome.account(counted + untraced + traced + [repeat(counted[0], out_path)])
    _put_counts(outcome, counting, counted)
    _put_times(outcome, timing, [r.scale for r in traced])
    untraced_p50 = statistics.median(_latencies_ms(untraced))
    traced_p50 = statistics.median(_latencies_ms(traced))
    outcome.put("trace.untraced_p50_ms", untraced_p50, "ms", f"n={len(untraced)}")
    outcome.put("trace.traced_p50_ms", traced_p50, "ms", f"n={len(traced)}")
    outcome.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms",
                f"{100.0 * (traced_p50 / untraced_p50 - 1.0):+.1f}%")
    return outcome


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _put_counts(outcome: Outcome, tracer: Tracer, results: list[OpResult]) -> None:
    k = len(results)
    detail = f"counting pass, first {k} ops of the seed"
    calls = Counter(span.name for span in tracer.spans)
    evals = sum(span.evals for span in tracer.spans)
    cert_evals = sum(span.evals for span in tracer.spans
                     if span.name == "convexity.certify_phi_convexity")
    nodes = tracer.nodes()

    def per_op(name: str, value: float, unit: str = "count/op") -> None:
        outcome.put(name, value / k, unit, detail)

    per_op("expr.evaluate.calls", evals)
    per_op("expr.evaluate.nodes", nodes)
    outcome.put("expr.nodes_per_eval", _ratio(nodes, evals), "ratio", detail)
    per_op("expr.differentiate.calls", calls["expr.differentiate"])
    per_op("quad.integrate_01.calls", calls["quad.integrate_01"])
    per_op("quad.evaluations", tracer.counts["quad.evaluations"])
    per_op("quad.budget_exhausted", tracer.counts["quad.budget_exhausted"])
    per_op("identity.identity_residual.calls", calls["identity.identity_residual"])
    outcome.put("identity.calls_per_segment",
                _ratio(calls["identity.identity_residual"], len(tracer.segments["identity"])),
                "ratio", detail)
    per_op("convexity.certify_phi_convexity.calls", calls["convexity.certify_phi_convexity"])
    outcome.put("convexity.evals_per_point", _ratio(cert_evals, len(tracer.cert_points)),
                "ratio", detail)
    per_op("bounds.estimate_m4.calls", calls["bounds.estimate_m4"])
    outcome.put("bounds.m4_calls_per_segment",
                _ratio(calls["bounds.estimate_m4"], len(tracer.segments["m4"])), "ratio", detail)
    per_op("bounds.from_function.calls", calls["bounds.from_function"])
    per_op("report.bytes", sum(len(r.text.encode("utf-8")) for r in results), "bytes/op")
    per_op("cli.cmd_verify.calls", calls["cli.cmd_verify"])


def _put_times(outcome: Outcome, tracer: Tracer, scales: list[float]) -> None:
    """Per-op span times, each scaled like the op it belongs to."""
    n = len(scales)
    detail = f"traced pass, n={n} ops"
    inclusive: Counter = Counter()
    integrate_self = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        inclusive[span.name] += (span.end - span.start - span.paused) * scales[span.op]
        if span.name == "quad.integrate_01":
            integrate_self += own * scales[span.op]

    def ms_per_op(name: str, value_s: float) -> None:
        outcome.put(name, value_s * 1e3 / n, "ms/op", detail)

    ms_per_op("expr.evaluate.ms", sum(span.eval_s * scales[span.op] for span in tracer.spans))
    for name in ("expr.parse", "expr.differentiate", "quad.integrate_01",
                 "identity.identity_residual", "convexity.certify_phi_convexity",
                 "bounds.estimate_m4", "report.emit_report"):
        ms_per_op(f"{name}.ms", inclusive[name])
    ms_per_op("quad.integrate_01.self_ms", integrate_self)
    layers = layer_self_seconds(tracer.spans, scales)
    for layer in ("cli", "expr", "quad", "identity", "convexity", "bounds", "report"):
        ms_per_op(f"{layer}.self_ms", layers[layer])
