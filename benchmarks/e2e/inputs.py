"""Workload sizes, and the inputs generated from ``--seed``.

The seed drives only the generated inputs of ``serve-mix``: which new cell
each write simulates and the order of requests within each cycle. The
sweep grids and the sampled run are fixed inputs, the same for every seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: The paper's predictors the grids are made of.
PAPER_PREDICTORS = ("store-sets", "nosq", "mdp-tage", "mdp-tage-s", "phast")

#: Cell seeds of serve-mix writes start here, so none collides with a
#: workload's default seed or with another run's writes.
WRITE_SEED_BASE = 1_000_000


@dataclass(frozen=True)
class Scale:
    """How big each workload's inputs are."""

    name: str
    sweep_workloads: Tuple[str, ...]
    sweep_predictors: Tuple[str, ...]
    sweep_ops: int
    grid_workloads: Tuple[str, ...]  # serve-mix: the grid reads resubmit
    grid_ops: int
    suite: Optional[Tuple[str, ...]]  # writes and predicts; None = full suite
    write_ops: int
    writes_committed: int  # seed-1 writes with a digest in expected.json
    sampled: Tuple[str, str, int]  # workload, predictor, ops

    def suite_workloads(self) -> Tuple[str, ...]:
        if self.suite is not None:
            return self.suite
        from repro.workloads.spec2017 import spec_suite

        return tuple(spec_suite())


FULL = Scale(
    name="full",
    sweep_workloads=(
        "511.povray", "502.gcc_1", "505.mcf", "520.omnetpp", "541.leela", "519.lbm",
    ),
    sweep_predictors=PAPER_PREDICTORS,
    sweep_ops=30_000,
    grid_workloads=("511.povray", "505.mcf"),
    grid_ops=20_000,
    suite=None,
    write_ops=2_000,
    writes_committed=200,
    sampled=("505.mcf", "phast", 300_000),
)

#: Same shapes, small enough that all four workloads run in seconds.
SMOKE = Scale(
    name="smoke",
    sweep_workloads=("511.povray", "505.mcf"),
    sweep_predictors=("store-sets", "phast"),
    sweep_ops=3_000,
    grid_workloads=("511.povray",),
    grid_ops=3_000,
    suite=("511.povray", "505.mcf", "541.leela"),
    write_ops=1_000,
    writes_committed=20,
    sampled=("505.mcf", "phast", 30_000),
)

SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


def write_stream(seed: int, scale: Scale) -> Iterator[Tuple[str, str, int]]:
    """Endless (workload, predictor, cell seed) writes; cell seeds never repeat.

    Every run of as many writes as there are workloads covers each workload
    once, in a seeded order (predictors likewise), so seeds change the order
    of the work but not how much of it there is.
    """
    rng = random.Random(f"e2e-writes-{seed}")
    workloads = list(scale.suite_workloads())
    predictors = list(scale.sweep_predictors)
    for index in itertools.count():
        if index % len(workloads) == 0:
            rng.shuffle(workloads)
        if index % len(predictors) == 0:
            rng.shuffle(predictors)
        yield (
            workloads[index % len(workloads)],
            predictors[index % len(predictors)],
            WRITE_SEED_BASE + seed * 100_000 + index,
        )


def request_cycles(seed: int) -> Iterator[List[str]]:
    """Endless cycles of three reads, one write and one predict, shuffled."""
    rng = random.Random(f"e2e-order-{seed}")
    while True:
        cycle = ["R", "R", "R", "W", "P"]
        rng.shuffle(cycle)
        yield cycle
