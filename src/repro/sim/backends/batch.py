"""The ``batch`` backend: one shared plan per trace.

Every cell on the default front end sees the same committed branch stream,
so a :class:`~repro.core.pipeline.TracePrep` — the plan builder run once
over the trace with a fresh TAGE — serves all of them. The backend caches
a prep per trace and runs every cell through the same loop and the same
predictors as the reference backend
(:func:`~repro.sim.backends.reference.simulate_cell`); the prep's history
also carries the history tables its cells' predictors read, so a group
builds each table once. Probes, invariant checking and wrong-path replay
all run on the shared plan. A cell that overrides the branch predictor
plans with its own front end instead. Bit-identity with the reference
backend is the contract (``tests/core/test_hot_path_identity.py``,
``tests/core/test_timing_envelope.py`` and ``tests/sim/test_variants.py``),
at a ≥3x group speedup on the 15-predictor hot cell
(``benchmarks/perf_smoke.py --check``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.pipeline import TracePrep
from repro.sim.backends.base import Backend, OnWindow
from repro.sim.backends.reference import simulate_cell
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec

#: Traces whose prep survives between calls. Preps are a similar size to
#: the decoded trace (one tuple per op), and the trace layer itself caches
#: aggressively, so keep only the most recent few.
_PREP_CACHE_LIMIT = 4


class BatchBackend(Backend):
    """Shared-plan execution: one cached plan per trace."""

    name = "batch"

    def __init__(self) -> None:
        # (trace digest, trace_dir) -> prep; insertion-ordered for LRU-ish
        # eviction.
        self._preps: dict = {}

    def _prep_for(self, spec: RunSpec) -> TracePrep:
        from repro.isa.artifacts import TraceStore
        from repro.sim.simulator import get_trace

        # The trace artifact digest identifies the concrete byte sequence;
        # two specs with the same digest simulate the identical trace.
        key = (spec.trace_key().digest, spec.trace_dir)
        prep = self._preps.get(key)
        if prep is None:
            store = TraceStore(spec.trace_dir) if spec.trace_dir else None
            trace = get_trace(spec.resolved_profile(), spec.resolved_num_ops(), store=store)
            prep = TracePrep(trace)
            while len(self._preps) >= _PREP_CACHE_LIMIT:
                self._preps.pop(next(iter(self._preps)))
            self._preps[key] = prep
        return prep

    def run_streaming(
        self,
        spec: RunSpec,
        on_window: OnWindow = None,
        heartbeat_ops: Optional[int] = None,
    ) -> SimResult:
        from repro.sim.simulator import make_predictor

        prep = self._prep_for(spec)
        predictor = spec.predictor
        if isinstance(predictor, str):
            predictor = make_predictor(predictor)
        # The shared plan holds the default TAGE's decisions.
        plan = prep if spec.branch_predictor is None else None
        return simulate_cell(spec, prep.trace, predictor, plan, on_window, heartbeat_ops)

    def describe(self) -> dict:
        row = super().describe()
        row["available"] = True
        row["coverage"] = "all specs (one shared plan per trace)"
        return row
