"""Out-of-order core timing model.

The engine is a trace-driven *dependency-timeline* model (see DESIGN.md §3):
micro-ops are processed in program order and assigned dispatch / issue /
execute / complete / commit cycles under register dependences, structural
limits (ROB/IQ/LQ/SQ+SB occupancy, dispatch and commit width, execution
ports), memory latencies, MDP-imposed wait edges, branch redirect stalls, and
lazy memory-order-violation squashes with replay.

Structurally the model is one program-order loop,
:meth:`~repro.core.pipeline.PipelineRun.advance`, over a per-op plan
(:func:`~repro.core.pipeline.build_plan`, or a shared
:class:`~repro.core.pipeline.TracePrep` that also carries the default front
end's decisions). Statistics, interval windows and
predictor training are part of the loop; optional observers — invariant
checking, tracers — subscribe to a typed event bus (:mod:`repro.core.probes`)
that costs nothing when nobody listens.
"""

from repro.core.config import CoreConfig, GENERATIONS
from repro.core.lsq import ForwardKind, LoadResolution, StoreRecord, resolve_load
from repro.core.pipeline import Pipeline, PipelineStats
from repro.core.probes import Probe, ProbeBus, ProbeEvent

__all__ = [
    "CoreConfig",
    "GENERATIONS",
    "ForwardKind",
    "LoadResolution",
    "StoreRecord",
    "resolve_load",
    "Pipeline",
    "PipelineStats",
    "Probe",
    "ProbeBus",
    "ProbeEvent",
]
