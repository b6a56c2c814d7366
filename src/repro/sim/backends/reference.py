"""The ``reference`` backend: one cell, its own front end, plain predictors.

Each spec builds its own :class:`~repro.core.pipeline.Pipeline` — the
spec's branch predictor (a fresh TAGE by default), its own history and the
registry's predictor — whose run plans the trace chunk by chunk as it
advances and observes each branch in program order. It needs nothing but
the simulator, and it is the oracle the batch backend is tested against.
:func:`simulate_cell` is the one place a spec becomes a pipeline run; the
batch backend calls it with a shared plan.
"""

from __future__ import annotations

from typing import Optional

from repro.core.pipeline import Pipeline, TracePrep
from repro.isa.trace import Trace
from repro.mdp.base import MDPredictor
from repro.sim.backends.base import Backend, OnWindow
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


def simulate_cell(
    spec: RunSpec,
    trace: Trace,
    predictor: MDPredictor,
    prep: Optional[TracePrep] = None,
    on_window: OnWindow = None,
    heartbeat_ops: Optional[int] = None,
) -> SimResult:
    """Run ``spec`` on ``trace`` with ``predictor``; ``prep`` shares a plan.

    The result is labelled with the spec's predictor label when it is a
    name, so a variant's result names the variant and not its base.

    Interval windows are cut at ``spec.interval_ops``, else at
    ``heartbeat_ops``; ``on_window`` receives each one. Only the spec's own
    windows are attached to the result.
    """
    config = spec.resolved_config()
    pipeline = Pipeline(
        config=config,
        predictor=predictor,
        branch_predictor=spec.branch_predictor,
        check_invariants=spec.check_invariants,
        probes=spec.probes,
    )
    run = pipeline.begin(
        trace,
        warmup_ops=spec.resolved_warmup_ops(),
        interval_ops=spec.interval_ops or heartbeat_ops or 0,
        on_window=on_window,
        prep=prep,
    )
    run.advance()
    stats = run.finish()
    label = spec.predictor if isinstance(spec.predictor, str) else predictor.name
    return SimResult(
        workload=trace.name,
        predictor=label,
        core=config.name,
        pipeline=stats,
        mdp=predictor.stats,
        paths_tracked=getattr(predictor, "paths_tracked", None),
        intervals=tuple(run.intervals) if spec.interval_ops is not None else None,
    )


def execute_reference(
    spec: RunSpec, on_window: OnWindow = None, heartbeat_ops: Optional[int] = None
) -> SimResult:
    """Run one spec with its own front end."""
    # Imported late: repro.sim.simulator imports the backend registry for
    # dispatch, so a top-level import here would cycle.
    from repro.isa.artifacts import TraceStore
    from repro.sim.simulator import get_trace, make_predictor

    store = TraceStore(spec.trace_dir) if spec.trace_dir else None
    trace = get_trace(spec.resolved_profile(), spec.resolved_num_ops(), store=store)
    predictor = spec.predictor
    if isinstance(predictor, str):
        predictor = make_predictor(predictor)
    return simulate_cell(
        spec, trace, predictor, on_window=on_window, heartbeat_ops=heartbeat_ops
    )


class ReferenceBackend(Backend):
    """One cell at a time, each with its own front end."""

    name = "reference"

    def run_streaming(
        self,
        spec: RunSpec,
        on_window: OnWindow = None,
        heartbeat_ops: Optional[int] = None,
    ) -> SimResult:
        return execute_reference(spec, on_window, heartbeat_ops)

    def describe(self) -> dict:
        row = super().describe()
        row["available"] = True
        row["coverage"] = "all specs (own front end per cell)"
        return row
