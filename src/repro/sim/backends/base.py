"""The execution-backend contract.

A *backend* is a strategy for turning :class:`~repro.sim.spec.RunSpec`s
into :class:`~repro.sim.metrics.SimResult`s. The contract is semantic
bit-identity: for every spec, a backend's result — every
``PipelineStats`` counter, every ``MDPStats`` counter, every interval
window — must equal the ``reference`` backend's to the bit (the golden
fixtures in ``tests/core`` enforce this for every registered predictor).
Backends differ only in *how fast* they get there. Both run the same
timing loop (:meth:`repro.core.pipeline.PipelineRun.advance`) and differ
in where its plan comes from:

* ``reference`` — one cell at a time, with its own front end and the
  registry's predictors.
* ``batch`` — one shared :class:`~repro.core.pipeline.TracePrep` per trace
  (:mod:`repro.sim.backends.batch`).

``docs/backends.md`` documents the contract.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec

if TYPE_CHECKING:
    from repro.sim.intervals import IntervalWindow


#: Callback signatures for batch execution: ``on_result(index, result)``
#: fires the moment a cell completes (the harness streams these over the
#: worker pipe), ``on_heartbeat(index, window_dict)`` forwards progress
#: windows for in-flight cells.
OnResult = Callable[[int, SimResult], None]
OnHeartbeat = Callable[[int, dict], None]
#: Receives each interval window of one run as it completes.
OnWindow = Optional[Callable[["IntervalWindow"], None]]


class Backend(abc.ABC):
    """One execution strategy for simulation runs."""

    #: Backend name (``repro backends ls``, ``RunSpec.backend``).
    name: str = "abstract"

    def run(self, spec: RunSpec) -> SimResult:
        """Execute one spec and return its result."""
        return self.run_streaming(spec)

    @abc.abstractmethod
    def run_streaming(
        self,
        spec: RunSpec,
        on_window: OnWindow = None,
        heartbeat_ops: Optional[int] = None,
    ) -> SimResult:
        """Run one spec, passing each interval window to ``on_window``.

        Windows are cut at ``spec.interval_ops``, else at ``heartbeat_ops``,
        from the loop's interval accumulator.
        """

    def run_many(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[OnResult] = None,
        on_heartbeat: Optional[OnHeartbeat] = None,
        heartbeat_ops: Optional[int] = None,
    ) -> List[SimResult]:
        """Execute many specs; returns results in spec order.

        ``on_result(index, result)`` fires after each cell, so a crash
        mid-group loses only the unfinished cells (the harness's per-cell
        salvage contract); ``on_heartbeat(index, window_dict)`` receives the
        cell's interval windows as they complete (see :meth:`run_streaming`).
        Heartbeat-only windows are never attached to the result.
        """
        results: List[SimResult] = []
        for index, spec in enumerate(specs):
            on_window = None
            if on_heartbeat is not None:
                on_window = lambda window, _i=index: on_heartbeat(_i, window.to_dict())
            result = self.run_streaming(spec, on_window, heartbeat_ops)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results

    def describe(self) -> dict:
        """Human-oriented row for ``repro backends ls``."""
        return {"name": self.name, "class": type(self).__name__}
