"""Benchmark of the simpbound CLI, end to end and per layer.

Run from a checkout of the repository:

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 10 --trace 0

``--workload`` is one of sweep-grid, verify-deep, near-pole, or ``all``.
With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it reports the per-layer metrics and the
tracing overhead, and writes its spans under ``.bench_out/``.  Every metric
is printed by name with its unit and sample count; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
The reported metrics are those BENCHMARK.json declares.  Times are scaled to
nominal machine speed (``reference.py``); the unscaled wall times are printed
beside them.  ``METRICS.md`` says what each metric means and which end-to-end
metric and workload each per-layer metric should move.  ``all`` runs each
workload in a process of its own, so that peak RSS is the workload's own.

The tool is imported from ``src/`` of the checkout; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DECLARED = ROOT / "BENCHMARK.json"


def _import_tool() -> bool:
    """Put the checkout's sources first on the path; False when they are absent."""
    package = SRC / "simpbound"
    if not (package / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import simpbound
    return Path(simpbound.__file__).resolve().parent == package.resolve()


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from harness import measure, trace

    OUT_DIR.mkdir(exist_ok=True)
    fd, out_path = tempfile.mkstemp(dir=OUT_DIR, suffix=".report")
    os.close(fd)
    try:
        if traced:
            outcome = trace(workload, seed, seconds, out_path,
                            str(OUT_DIR / f"spans-{workload}-seed{seed}"))
        else:
            outcome = measure(workload, seed, seconds, out_path, str(SRC))
    finally:
        os.unlink(out_path)

    print(f"# workload {workload}, seed {seed}, {seconds:g} s, trace {int(traced)}: "
          f"{outcome.attempted} ops, {outcome.failed} failed")
    for name, (value, unit, detail) in outcome.metrics.items():
        print(f"{name:40s} {value:16.6f} {unit:9s} {detail}")
    for problem in outcome.problems[:10]:
        print(f"FAILED {problem}")
    declared = json.loads(DECLARED.read_text())["per_layer" if traced else "end_to_end"]
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
                    for name in (m["name"] for m in declared)},
    }


def run_alone(workload: str, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh process; echo its report and return its result."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    lines = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-grid", "verify-deep", "near-pole", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_tool():
        print(f"bench: no simpbound sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        results = [run_alone(name, args) for name in WORKLOADS]
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}/{metric}": value for name, r in zip(WORKLOADS, results)
                        for metric, value in r["metrics"].items()},
        }
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
