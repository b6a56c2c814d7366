"""Shared fixtures for the reproduction benchmark harness.

Each ``benchmarks/test_*.py`` regenerates one table or figure of the paper:
it runs the required cells through one session-wide
:class:`~repro.harness.sweep.SweepRunner` (so a cell shared by several
figures is simulated once), prints the rows/series the paper reports, writes
them under ``benchmarks/results/``, and asserts the *shape* of the result —
who wins, in which direction, by roughly what kind of factor — not the
absolute numbers (see DESIGN.md §1).

Parameter sweeps and ablations are predictor variants: canonical labels
such as ``phast(target_bits=0)``, or the ablation predictors that
:mod:`benchmarks.ablations.variants` registers by name. Figure grids run
on the batch backend (:func:`repro.analysis.figures.run_grid`), so every
cell of a trace, variants and ablations included, shares one plan in one
worker. Cells run in worker processes that must inherit the ablation
registry, so the benchmarks need fork-started workers (the default where
the platform has fork).

Trace length defaults to 25k micro-ops per simulation; raise it with
``REPRO_BENCH_OPS=100000`` for higher-fidelity runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import benchmarks.ablations.variants  # noqa: F401  (registers the ablations)
from repro.common.env import env_int
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner
from repro.workloads.spec2017 import spec_suite

#: Simulated micro-ops per (workload, predictor) cell. Validated like every
#: other knob: ``REPRO_BENCH_OPS=100k`` fails fast naming the variable.
BENCH_OPS = env_int("REPRO_BENCH_OPS", 25000, min_value=1)

#: Optional durable result store: point REPRO_RESULT_STORE at a directory
#: and a killed/crashed benchmark session resumes from its completed cells
#: (the per-cell entries are written atomically, so partial files cannot
#: occur; see docs/harness.md). Unset, the session stores its cells in a
#: temporary directory.
STORE_PATH = os.environ.get("REPRO_RESULT_STORE")

#: The full suite, used by the per-application figures (7-9, 14-16).
SUITE = spec_suite()

#: A representative subset for the many-configuration sweeps (Figs. 1, 2, 6,
#: 11-13): covers path-dependent, data-dependent, store-set-hostile,
#: call-heavy, FP-light and conflict-free behaviour.
SUBSET = [
    "500.perlbench_1",
    "500.perlbench_3",
    "502.gcc_1",
    "510.parest",
    "511.povray",
    "531.deepsjeng",
    "541.leela",
    "520.omnetpp",
]

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def runner(tmp_path_factory) -> SweepRunner:
    root = STORE_PATH or tmp_path_factory.mktemp("results")
    return SweepRunner(ResultStore(root))


@pytest.fixture(scope="session")
def emit():
    """Print a figure's table and persist it under benchmarks/results/."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


def run_once(benchmark, fn):
    """Benchmark a figure computation exactly once (cells are stored)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
