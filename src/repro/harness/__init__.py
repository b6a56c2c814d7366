"""Fault-tolerant experiment harness.

Layered under the figure computations (:func:`repro.analysis.figures.run_grid`),
the CLI's ``sweep`` command, the server and the benchmark suite:

* :mod:`repro.harness.store` — durable, content-hash-keyed, crash-safe
  result store (atomic temp-file + rename writes; corruption reads as a
  cache miss).
* :mod:`repro.harness.executor` — per-cell worker subprocesses with
  timeouts, failure classification and capped-exponential-backoff retries.
  A cell is a :class:`~repro.sim.spec.RunSpec` naming its workload and
  predictor; :func:`~repro.harness.sweep.build_cells` expands a grid.
* :mod:`repro.harness.sweep` — campaign orchestration: resume, status,
  graceful degradation with a machine-readable failure manifest.
* :mod:`repro.harness.failures` — the failure taxonomy shared by all three.
* :mod:`repro.harness.chaos` — seeded deterministic fault injection
  (worker hangs/crashes/OOM kills, ENOSPC/slow/bit-flip writes) and the
  journal that proves each injected fault was classified correctly.
"""

from repro.harness.chaos import ChaosEngine, FaultPlan
from repro.harness.executor import CellOutcome, ProcessCellExecutor
from repro.harness.failures import (
    CellFailure,
    EPHEMERAL_KINDS,
    FailureKind,
    TRANSIENT_KINDS,
    backoff_delay,
    classify_exitcode,
    jitter_fraction,
)
from repro.harness.store import (
    CellKey,
    ResultStore,
    StoreStatus,
    cell_key,
    config_fingerprint,
)
from repro.harness.sweep import SweepReport, SweepRunner, build_cells

__all__ = [
    "CellFailure",
    "CellKey",
    "CellOutcome",
    "ChaosEngine",
    "EPHEMERAL_KINDS",
    "FailureKind",
    "FaultPlan",
    "ProcessCellExecutor",
    "ResultStore",
    "StoreStatus",
    "SweepReport",
    "SweepRunner",
    "TRANSIENT_KINDS",
    "backoff_delay",
    "build_cells",
    "cell_key",
    "classify_exitcode",
    "config_fingerprint",
    "jitter_fraction",
]
