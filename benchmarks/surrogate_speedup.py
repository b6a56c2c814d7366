#!/usr/bin/env python
"""Surrogate-vs-simulator throughput gate, with a committed trajectory.

The surrogate tier only pays for itself if scoring a cell is orders of
magnitude cheaper than simulating it. This benchmark measures both sides on
the *same machine* and gates their ratio:

* detailed side — best-of-N wall time of one real ``Pipeline`` run of the
  hot cell (``511.povray/phast``), converted to cells per second;
* surrogate side — :func:`repro.surrogate.model.predictions_per_second`
  over a prebuilt full-suite × predictor-roster feature matrix, using a
  model trained in-process on a fabricated store so the measurement needs
  no pre-existing artifacts.

``speedup = predictions_per_second x seconds_per_detailed_cell`` is a
same-machine ratio: a faster box accelerates both sides, so only a real
change to either path moves it. It times the matrix product alone;
``served_cells_per_second`` times the path ``/v1/predict`` takes —
:meth:`~repro.surrogate.triage.SurrogateTier.predict_all` over the same
grid as decoded ``RunSpec`` cells, store keys and features included — and
``served_speedup`` is that rate times the detailed cell's seconds. The
committed trajectory lives in
``benchmarks/BENCH_surrogate.json``; ``--check`` enforces the absolute
floor (``--min-speedup``, default 200x) and flags a collapse below 25% of
the latest committed entry (numpy BLAS differences across machines make a
tighter relative bound dishonest).

Usage::

    python benchmarks/surrogate_speedup.py                # measure + print
    python benchmarks/surrogate_speedup.py --check        # enforce the floor
    python benchmarks/surrogate_speedup.py --record LABEL # append trajectory
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

TRAJECTORY_PATH = Path(__file__).parent / "BENCH_surrogate.json"

WORKLOAD = "511.povray"
PREDICTOR = "phast"
NUM_OPS = 8000
ROUNDS = 3

#: The serving grid the surrogate side is timed on (suite x roster).
GRID_PREDICTORS = ("store-sets", "nosq", "mdp-tage", "mdp-tage-s", "phast")

#: Relative collapse bound vs the latest committed entry (see module doc).
RELATIVE_FLOOR = 0.25


def _detailed_cell_seconds() -> float:
    """Best-of-N seconds for one real simulation of the hot cell."""
    from repro.core.config import CoreConfig
    from repro.core.pipeline import Pipeline
    from repro.sim.simulator import get_trace, make_predictor

    trace = get_trace(WORKLOAD, NUM_OPS)  # pre-build outside the timing
    best = float("inf")
    for _ in range(ROUNDS):
        pipeline = Pipeline(
            CoreConfig(), make_predictor(PREDICTOR), check_invariants=False
        )
        start = time.perf_counter()
        pipeline.run(trace)
        best = min(best, time.perf_counter() - start)
    return best


def _fabricated_model():
    """A model trained on a throwaway fabricated store. Fabrication is fine
    here: prediction throughput depends on matrix shapes and ensemble size,
    not on what values the ridge members happened to fit."""
    from repro.core.config import CoreConfig
    from repro.core.pipeline import PipelineStats
    from repro.harness.store import ResultStore, cell_key
    from repro.mdp.base import MDPStats
    from repro.sim.metrics import SimResult
    from repro.surrogate.dataset import build_store_dataset
    from repro.surrogate.model import train_model
    from repro.workloads.spec2017 import spec_suite

    with tempfile.TemporaryDirectory(prefix="surrogate-bench-") as root:
        store = ResultStore(Path(root) / "store")
        for wi, workload in enumerate(spec_suite()[:8]):
            for pi, predictor in enumerate(GRID_PREDICTORS):
                store.put(
                    cell_key(workload, predictor, CoreConfig(), NUM_OPS, None),
                    SimResult(
                        workload=workload,
                        predictor=predictor,
                        core="alderlake",
                        pipeline=PipelineStats(
                            committed_uops=10_000,
                            cycles=4000 + 317 * wi + 523 * pi,
                            loads=2500,
                            stores=1200,
                            branches=900,
                            violations=2 * wi + 3 * pi,
                        ),
                        mdp=MDPStats(
                            load_predictions=2500, trainings=2 * wi + 3 * pi
                        ),
                    ),
                )
        dataset = build_store_dataset(store.root)
    return train_model(dataset)


def _grid_matrix(model) -> list:
    """The feature matrix ``/v1/predict`` would score for the full grid."""
    from repro.surrogate.features import cell_features
    from repro.workloads.spec2017 import spec_suite

    return [
        cell_features(
            workload,
            predictor,
            None,
            NUM_OPS,
            None,
            model._context.get(workload),
            model._context["__global__"],
        )
        for workload in spec_suite()
        for predictor in GRID_PREDICTORS
    ]


def _served_cells_per_second(model, repeats: int = 5) -> float:
    """Best-of-N cells per second through the tier, as ``/v1/predict``
    scores a decoded wire grid (no config: the default core)."""
    from repro.api.wire import WireGrid
    from repro.surrogate.triage import SurrogateTier
    from repro.workloads.spec2017 import spec_suite

    tier = SurrogateTier(model, mode="off")
    cells = WireGrid(
        tuple(spec_suite()), GRID_PREDICTORS, num_ops=NUM_OPS
    ).specs()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        tier.predict_all(cells)
        best = min(best, time.perf_counter() - start)
    return len(cells) / best


def measure() -> dict:
    from repro.surrogate.model import predictions_per_second

    sim_seconds = _detailed_cell_seconds()
    model = _fabricated_model()
    matrix = _grid_matrix(model)
    pps = predictions_per_second(model, matrix)
    served = _served_cells_per_second(model)
    return {
        "python": platform.python_version(),
        "num_ops": NUM_OPS,
        "grid_cells": len(matrix),
        "sim_seconds_per_cell": round(sim_seconds, 4),
        "predictions_per_second": round(pps, 1),
        "speedup": round(pps * sim_seconds, 1),
        "served_cells_per_second": round(served, 1),
        "served_speedup": round(served * sim_seconds, 1),
    }


def _load_trajectory() -> dict:
    if TRAJECTORY_PATH.exists():
        return json.loads(TRAJECTORY_PATH.read_text())
    return {
        "benchmark": "surrogate-speedup",
        "unit": "predicted cells per detailed-cell-second (speedup)",
        "hot_cell": f"{WORKLOAD}/{PREDICTOR}",
        "entries": [],
    }


def record(label: str) -> dict:
    entry = dict(measure(), label=label)
    trajectory = _load_trajectory()
    trajectory["entries"].append(entry)
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    return entry


def check(entry: dict, min_speedup: float) -> int:
    status = 0
    if entry["speedup"] < min_speedup:
        print(
            f"FAIL: surrogate speedup {entry['speedup']:.1f}x is below the "
            f"floor {min_speedup:.0f}x",
            file=sys.stderr,
        )
        status = 1
    committed = _load_trajectory().get("entries", [])
    if committed:
        latest = committed[-1]
        floor = RELATIVE_FLOOR * latest["speedup"]
        if entry["speedup"] < floor:
            print(
                f"FAIL: speedup {entry['speedup']:.1f}x collapsed below "
                f"{RELATIVE_FLOOR:.0%} of the committed "
                f"'{latest['label']}' entry ({latest['speedup']:.1f}x)",
                file=sys.stderr,
            )
            status = 1
    if status == 0:
        print("OK: surrogate speedup within budget")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="enforce the floor")
    parser.add_argument(
        "--record",
        metavar="LABEL",
        help="measure and append a BENCH_surrogate.json entry",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=200.0,
        help="required surrogate-vs-detailed throughput ratio (default 200x)",
    )
    args = parser.parse_args()

    if args.record:
        entry = record(args.record)
        print(f"recorded trajectory entry '{args.record}' to {TRAJECTORY_PATH}")
    else:
        entry = measure()
    print(json.dumps(entry, indent=2))
    if args.check:
        return check(entry, args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
