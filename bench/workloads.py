"""Seeded op generators for the three benchmark workloads.

One op is one ``simpbound`` CLI invocation.  Every op draws fresh inputs from
the run's random stream, and no two ops of one stream share expression text:
a real invocation is a fresh process, so an in-process cache keyed on the
text must not be able to show a gain that users never see.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator

# The CLI's exact phi tokens, restated here so checks do not trust the program.
PHI_TOKENS = {
    "0": 0.0,
    "pi/6": math.pi / 6.0,
    "pi/4": math.pi / 4.0,
    "pi/3": math.pi / 3.0,
    "pi/2": math.pi / 2.0,
}
DEFAULT_QS = (1.0, 1.5, 2.0, 3.0, 5.0)

# Input ranges, one entry per drawn parameter.  They are the contract the
# generator is tested against.
RANGES = {
    "sweep-grid": {"c": (0.8, 1.2), "a1": (0.5, 0.7), "a2": (0.9, 1.1), "b": (2.5, 3.5)},
    "verify-deep": {"c": (0.5, 1.5), "a": (0.0, 0.5), "b": (1.5, 2.5)},
    "near-pole": {"c": (0.8, 1.25), "a": (1e-3, 3e-3), "b": (1.5, 2.5)},
}
WORKLOADS = tuple(RANGES)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checks need to know about it."""

    workload: str
    command: str  # verify | sweep
    c: float
    expressions: tuple[str, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    phi_tokens: tuple[str, ...]
    qs: tuple[float, ...]
    q_arg: str | None  # None leaves --q at the CLI default
    fmt: str  # json | csv

    @property
    def phis(self) -> tuple[float, ...]:
        return tuple(PHI_TOKENS[tok] for tok in self.phi_tokens)

    @property
    def configs(self) -> int:
        """Configurations (f, a, b, phi, q) this op verifies."""
        return (len(self.expressions) * len(self.a_values) * len(self.b_values)
                * len(self.phi_tokens) * len(self.qs))

    def cells(self) -> Iterator[tuple[str, float, float, float, float]]:
        """(f, a, b, phi, q) in the order the CLI reports them."""
        return product(self.expressions, self.a_values, self.b_values, self.phis, self.qs)

    def argv(self, output: str) -> list[str]:
        def joined(values: tuple[float, ...]) -> str:
            return ",".join(repr(v) for v in values)

        argv = [self.command]
        for expression in self.expressions:
            argv += ["--f", expression]
        argv += ["--a", joined(self.a_values), "--b", joined(self.b_values),
                 "--phi", ",".join(self.phi_tokens)]
        if self.q_arg is not None:
            argv += ["--q", self.q_arg]
        return argv + ["--format", self.fmt, "--output", output]


def _sweep_grid(rng: random.Random) -> Op:
    r = RANGES["sweep-grid"]
    c = rng.uniform(*r["c"])
    return Op(
        workload="sweep-grid", command="sweep", c=c,
        expressions=(f"exp(sin({c!r}*x))/(1+x^2)", f"x^5 - 2*{c!r}*x^3 + x"),
        a_values=(rng.uniform(*r["a1"]), rng.uniform(*r["a2"])),
        b_values=(rng.uniform(*r["b"]),),
        phi_tokens=("0", "pi/6", "pi/4", "pi/3", "pi/2"),
        qs=DEFAULT_QS, q_arg="1,1.5,2,3,5", fmt="csv",
    )


def _verify_deep(rng: random.Random) -> Op:
    r = RANGES["verify-deep"]
    c = rng.uniform(*r["c"])
    return Op(
        workload="verify-deep", command="verify", c=c,
        expressions=(f"exp(sin({c!r}*x))/(1+x^2)",),
        a_values=(rng.uniform(*r["a"]),), b_values=(rng.uniform(*r["b"]),),
        phi_tokens=("0",), qs=DEFAULT_QS, q_arg=None, fmt="json",
    )


def _near_pole(rng: random.Random) -> Op:
    r = RANGES["near-pole"]
    c = rng.uniform(*r["c"])
    return Op(
        workload="near-pole", command="verify", c=c,
        expressions=(f"1/({c!r}+x^2)",),
        a_values=(rng.uniform(*r["a"]),), b_values=(rng.uniform(*r["b"]),),
        phi_tokens=("pi/2",), qs=(2.0,), q_arg="2", fmt="json",
    )


_GENERATORS = {"sweep-grid": _sweep_grid, "verify-deep": _verify_deep, "near-pole": _near_pole}


def ops(workload: str, seed: int) -> Iterator[Op]:
    """Endless stream of ops for ``workload``; the same seed gives the same stream."""
    draw = _GENERATORS[workload]
    rng = random.Random(f"{workload}/{seed}")
    seen: set[str] = set()
    while True:
        op = draw(rng)
        if seen.isdisjoint(op.expressions):
            seen.update(op.expressions)
            yield op
