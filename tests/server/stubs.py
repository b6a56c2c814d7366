"""Test doubles for the job manager and sweep runner.

``FabricatingExecutor`` is an in-process stand-in for
:class:`~repro.harness.executor.ProcessCellExecutor`: it fabricates results
without spawning workers, persists them through the real store (so dedupe,
lease, and peer-wait paths behave exactly as in production), and exposes
synchronisation hooks that make dispatch interleavings deterministic —
concurrency tests block and release jobs instead of racing wall clocks.
"""

import threading
import time
from typing import List, Optional

from repro.core.pipeline import PipelineStats
from repro.harness.executor import BatchGroup, CellOutcome
from repro.harness.failures import CellFailure, FailureKind
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult


def fabricate_result(cell) -> SimResult:
    """A plausible result for one cell, without simulating anything."""
    return SimResult(
        workload=cell.workload,
        predictor=cell.predictor,
        core=cell.resolved_config().name,
        pipeline=PipelineStats(committed_uops=100, cycles=50),
        mdp=MDPStats(),
    )


class FabricatingExecutor:
    """run_many-compatible executor with test-controlled synchronisation.

    * ``started`` is set the moment ``run_many`` is entered (by which point
      the runner has already claimed its leases).
    * ``gate``, when given, blocks execution until the test releases it —
      a held-open job, or a wedged dispatcher if never released.
    * ``barrier``, when given, is waited on at entry, so a test can prove
      two jobs really were in flight at once.
    * ``executed`` collects the digest of every cell actually simulated
      (stop-settled cells don't count; cache hits never reach an
      executor) — the zero-duplicate assertions read it.
    """

    check_invariants = False

    def __init__(
        self,
        gate: Optional[threading.Event] = None,
        barrier: Optional[threading.Barrier] = None,
        executed: Optional[List[str]] = None,
        heartbeats: bool = True,
        delay: float = 0.0,
    ) -> None:
        self.gate = gate
        self.barrier = barrier
        self.executed = executed if executed is not None else []
        self.heartbeats = heartbeats
        self.delay = delay
        self.started = threading.Event()

    def run_many(
        self,
        jobs,
        store=None,
        successes=None,
        progress=None,
        chaos=None,
        deadline=None,
        heartbeat=None,
        stop=None,
    ):
        self.started.set()
        if self.barrier is not None:
            self.barrier.wait(timeout=10)
        if self.gate is not None and not self.gate.wait(timeout=30):
            raise RuntimeError("test gate never opened")
        outcomes = []
        for job in jobs:
            members = list(job.cells) if isinstance(job, BatchGroup) else [job]
            for index, cell in enumerate(members):
                outcome = self._run_cell(job, index, cell, store, heartbeat, stop)
                outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
        return outcomes

    def _run_cell(self, job, index, cell, store, heartbeat, stop):
        if stop is not None and stop.is_set():
            return CellOutcome(
                spec=cell,
                failure=CellFailure(
                    kind=FailureKind.DEADLINE,
                    message="cancelled by a stop request",
                    cell=cell.describe(),
                    detail={"cancelled": True},
                ),
            )
        if self.heartbeats and heartbeat is not None:
            window = {"end_op": 100, "ipc": 2.0}
            if isinstance(job, BatchGroup):
                window["cell"] = index
            heartbeat(job, window)
        if self.delay:
            time.sleep(self.delay)
        result = fabricate_result(cell)
        key = cell.key()
        self.executed.append(key.digest)
        if store is not None:
            store.put(key, result)
        return CellOutcome(spec=cell, result=result, attempts=1)
