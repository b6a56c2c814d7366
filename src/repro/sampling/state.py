"""Capture and restore of full machine state, with a bit-identity contract.

``capture_state`` collects everything a paused :class:`~repro.core.pipeline.
PipelineRun` would need to continue — the component objects (predictor,
branch predictor, memory hierarchy, branch history), the accumulated
statistics, the invariant checker's cursor and the run's own state (the
fields named in :attr:`~repro.core.pipeline.PipelineRun.STATE_FIELDS`:
cursors, rings, port bookings, the in-flight store window, interval
windows) — into one :class:`MachineState` tree.

The tree is *referenced*, not copied: isolation comes from the codec
(:mod:`repro.sampling.checkpoint`), which pickles the whole tree in one
pass. A single pickle is load-bearing twice over: it snapshots the state
without mutating the donor run, and it preserves intra-tree shared
references — PHAST and the pipeline must keep sharing one ``GlobalHistory``
after restore, or history snapshots diverge silently.

``restore_run`` rebuilds a :class:`~repro.core.pipeline.Pipeline` around the
restored components, writes statistics and checker state into the objects
the pipeline built, and returns a :class:`~repro.core.pipeline.PipelineRun`
holding the captured state fields, positioned at the captured op index. A
run reads its state fields on every ``advance``, so nothing else needs
rebinding.

The contract, enforced by ``tests/sampling`` and
``tests/core/test_timing_envelope.py``: a detailed run snapshotted at any op
and resumed through the codec produces bit-identical
``PipelineStats``/``MDPStats``/interval windows vs the uninterrupted run,
for every registered predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, Optional, Sequence

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline, PipelineRun, PipelineStats
from repro.core.probes import Probe
from repro.frontend.branch_predictors import BranchPredictor
from repro.frontend.history import GlobalHistory
from repro.isa.trace import Trace
from repro.mdp.base import MDPredictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.sampling.checkpoint import CheckpointFormatError


@dataclass
class MachineState:
    """One checkpoint's payload: components + counters + scheduling state.

    ``mode`` records how the state was produced: ``"detailed"`` states came
    from a paused detailed run and resume bit-identically; ``"functional"``
    states came from :class:`~repro.sampling.warming.FunctionalWarmer` and
    carry warmed architectural state over a fresh (cycle-0) timing state.
    """

    mode: str
    trace_name: str
    trace_len: int
    op_index: int
    total: int
    warmup_ops: int
    config: CoreConfig
    predictor: MDPredictor
    branch_predictor: BranchPredictor
    hierarchy: MemoryHierarchy
    history: GlobalHistory
    stats: PipelineStats
    checker_state: Optional[Dict[str, Any]]
    #: Values for PipelineRun.STATE_FIELDS. Detailed checkpoints carry all
    #: of them; functional ones only the architectural subset (a fresh
    #: run's zeros are the *correct* timing state when the clock rebases).
    run_state: Dict[str, Any]
    digests: Dict[str, int]


def component_digests(
    history: GlobalHistory, hierarchy: MemoryHierarchy, predictor: MDPredictor
) -> Dict[str, int]:
    """The per-structure self-check digests embedded in every checkpoint."""
    return {
        "history": history.checkpoint_digest(),
        "hierarchy": hierarchy.checkpoint_digest(),
        "predictor": predictor.checkpoint_digest(),
    }


def capture_state(run: PipelineRun) -> MachineState:
    """Snapshot a paused detailed run (no mutation; see module docstring).

    The returned tree aliases live objects — pass it straight to
    :func:`~repro.sampling.checkpoint.encode_checkpoint`; do not keep it
    across further ``advance`` calls.
    """
    if run.prep is not None:
        raise ValueError("a run on a shared TracePrep has no front end to capture")
    pipeline = run.pipeline
    checker_state = (
        dict(pipeline.invariants.__dict__) if pipeline.invariants is not None else None
    )
    return MachineState(
        mode="detailed",
        trace_name=run.trace.name,
        trace_len=len(run.trace),
        op_index=run.next_index,
        total=run.total,
        warmup_ops=run.warmup_ops,
        config=pipeline.config,
        predictor=pipeline.predictor,
        branch_predictor=pipeline.branch_predictor,
        hierarchy=pipeline.hierarchy,
        history=run.history,
        stats=run.stats,
        checker_state=checker_state,
        run_state={name: getattr(run, name) for name in PipelineRun.STATE_FIELDS},
        digests=component_digests(run.history, pipeline.hierarchy, pipeline.predictor),
    )


def restore_run(
    state: MachineState,
    trace: Trace,
    probes: Sequence[Probe] = (),
    check_invariants: Optional[bool] = None,
    total: Optional[int] = None,
    warmup_ops: Optional[int] = None,
    verify_digests: bool = True,
) -> PipelineRun:
    """Rebuild a runnable pipeline from a decoded checkpoint.

    ``trace`` must be the same trace the checkpoint was taken on (validated
    by name and length). ``total``/``warmup_ops`` default to the captured
    run geometry — the detailed-resume case; the sampled scheduler overrides
    both to point a functional checkpoint at one measured interval.
    ``probes`` are attached to the new pipeline's bus.

    ``check_invariants=None`` mirrors the donor: the checker is enabled iff
    the donor ran with one (its cursor state is restored), keeping resumed
    self-checks meaningful rather than starting a checker mid-stream that
    never saw the prefix.
    """
    if trace.name != state.trace_name or len(trace) != state.trace_len:
        raise CheckpointFormatError(
            f"checkpoint was taken on trace {state.trace_name!r} "
            f"({state.trace_len} ops), got {trace.name!r} ({len(trace)} ops)"
        )
    if verify_digests:
        found = component_digests(state.history, state.hierarchy, state.predictor)
        if found != state.digests:
            drifted = sorted(
                name for name in found if found[name] != state.digests.get(name)
            )
            raise CheckpointFormatError(
                f"restored component state fails its self-check: {', '.join(drifted)}"
            )
    if check_invariants is None:
        check_invariants = state.checker_state is not None

    pipeline = Pipeline(
        config=state.config,
        predictor=state.predictor,
        branch_predictor=state.branch_predictor,
        hierarchy=state.hierarchy,
        check_invariants=check_invariants,
        probes=probes,
    )
    # The pipeline made itself a fresh history; the restored one replaces it
    # before ``begin`` hands it to the run.
    pipeline.history = state.history
    # Stats and checker state restore *in place*: the run and the
    # InvariantProbe hold the objects the pipeline built.
    for field in dataclass_fields(PipelineStats):
        setattr(pipeline.stats, field.name, getattr(state.stats, field.name))
    if pipeline.invariants is not None and state.checker_state is not None:
        pipeline.invariants.__dict__.update(state.checker_state)

    run = pipeline.begin(
        trace,
        max_ops=state.total if total is None else total,
        warmup_ops=state.warmup_ops if warmup_ops is None else warmup_ops,
    )
    for name, value in state.run_state.items():
        setattr(run, name, value)
    run.next_index = state.op_index
    return run
