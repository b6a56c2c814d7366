"""The ``reference`` backend: the per-op interpreted pipeline.

This is the pre-existing execution path — a
:class:`~repro.core.pipeline.Pipeline` built from the spec, then
``Pipeline.run`` — behind the :class:`Backend` protocol. It covers every
spec, needs no optional dependencies, and defines the semantics every other
backend must reproduce bit-for-bit.
"""

from __future__ import annotations

from repro.core.pipeline import Pipeline
from repro.frontend.tage import TAGEPredictor
from repro.sim.backends.base import Backend
from repro.sim.intervals import IntervalMetricsProbe
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


def execute_reference(spec: RunSpec) -> SimResult:
    """Run one spec on the interpreted pipeline (shared with fallbacks)."""
    # Imported late: repro.sim.simulator imports the backend registry for
    # dispatch, so a top-level import here would cycle.
    from repro.isa.artifacts import TraceStore
    from repro.sim.simulator import get_trace, make_predictor

    store = TraceStore(spec.trace_dir) if spec.trace_dir else None
    trace = get_trace(spec.resolved_profile(), spec.resolved_num_ops(), store=store)
    predictor = spec.predictor
    if isinstance(predictor, str):
        predictor = make_predictor(predictor)
    probes = list(spec.probes)
    interval_probe = None
    if spec.interval_ops is not None:
        interval_probe = IntervalMetricsProbe(spec.interval_ops)
        probes.append(interval_probe)
    pipeline = Pipeline(
        config=spec.resolved_config(),
        predictor=predictor,
        branch_predictor=spec.branch_predictor or TAGEPredictor(),
        check_invariants=spec.check_invariants,
        probes=probes,
    )
    stats = pipeline.run(trace, warmup_ops=spec.resolved_warmup_ops())
    paths = getattr(predictor, "paths_tracked", None)
    return SimResult(
        workload=trace.name,
        predictor=predictor.name,
        core=pipeline.config.name,
        pipeline=stats,
        mdp=predictor.stats,
        paths_tracked=paths,
        intervals=tuple(interval_probe.windows) if interval_probe else None,
    )


class ReferenceBackend(Backend):
    """Per-op interpreter; always available, covers everything."""

    name = "reference"

    def run(self, spec: RunSpec) -> SimResult:
        return execute_reference(spec)

    def describe(self) -> dict:
        row = super().describe()
        row["available"] = True
        row["coverage"] = "all specs (semantic reference)"
        return row
