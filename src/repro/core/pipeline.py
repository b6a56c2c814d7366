"""Trace-driven out-of-order pipeline timing model (orchestrator).

Micro-ops are processed in program order; each receives dispatch / issue /
execute / complete / commit cycles under:

* register true dependences (a producer scoreboard per architectural register);
* structural limits — dispatch and commit width, ROB / IQ / LQ / SQ+SB
  occupancy (ring buffers of the freeing cycle of the op N slots back),
  per-class execution ports;
* branch redirects — eager squash: dispatch stalls until the mispredicted
  branch resolves plus the front-end refill penalty;
* memory: loads disambiguate against the in-flight store window
  (:mod:`repro.core.lsq`), forwarding or reading the cache hierarchy;
* memory dependence prediction — predicted dependences become wait edges on
  the load's issue; mispredicted speculation becomes a lazy squash at the
  load's commit followed by replay from the load (Sec. IV-A1).

Replay is livelock-free: in-order commit guarantees every older store has
executed before the squashed load's commit, so the replayed load (dispatched
after commit + penalty) can no longer execute before any older store's
address resolves.

Wrong-path work is not simulated; its cost appears as the redirect/squash
penalties plus a re-executed-micro-op counter (DESIGN.md §1 records this
fidelity trade).

The scheduling itself lives in the stage components
(:mod:`repro.core.stages`) operating on a shared per-run
:class:`~repro.core.context.SimContext`; everything *observational* —
statistics, invariant checking, MDP training, interval metrics — subscribes
to the typed probe bus (:mod:`repro.core.probes`). ``Pipeline`` here only
wires stages to the bus and drives the program-order loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Type

from repro.core.config import CoreConfig

# Re-exported for backwards compatibility: these structural helpers lived
# here before the stage split and tests/extensions import them from this
# module.
from repro.core.context import (  # noqa: F401
    SimContext,
    StoreWindow,
    _PortPool,
    _WidthCursor,
)
from repro.core.lsq import ForwardKind
from repro.core.probes import (
    BranchResolved,
    DependencePredicted,
    LoadCommitted,
    LoadResolved,
    MultiStoreLoad,
    OpCommitted,
    OpDispatched,
    Probe,
    ProbeBus,
    ProbeEvent,
    RunFinished,
    Squash,
    Violation,
    WrongPathLoad,
)
from repro.core.stages import (
    BranchStage,
    CommitStage,
    DispatchStage,
    ExecuteStage,
    IssueStage,
    MemoryStage,
    SquashUnit,
    StoreStage,
)
from repro.frontend.branch_predictors import BranchPredictor
from repro.frontend.history import GlobalHistory
from repro.frontend.tage import TAGEPredictor
from repro.isa.microop import OpKind
from repro.isa.trace import Trace
from repro.mdp.base import MDPredictor, MDPTrainingProbe
from repro.memory.hierarchy import MemoryHierarchy

if TYPE_CHECKING:  # import cycle guard: repro.sim.__init__ imports this module
    from repro.sim.invariants import InvariantChecker


@dataclass
class PipelineStats:
    """Everything the paper's figures consume, per simulation."""

    committed_uops: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    # Memory dependence outcomes:
    violations: int = 0  # false negatives -> squashes
    false_positives: int = 0  # dependence predicted, wrong/unnecessary, delayed
    correct_waits: int = 0  # dependence predicted and it was the true store
    dependences_predicted: int = 0
    forwarded_loads: int = 0
    partial_loads: int = 0
    cache_loads: int = 0
    multi_store_loads: int = 0
    multi_store_inorder: int = 0  # multi-store loads whose writers had executed in order
    reexecuted_uops: int = 0
    wrong_path_loads: int = 0  # phantom loads replayed (wrong-path modelling)
    wrong_path_trainings: int = 0  # predictor trainings caused by phantoms

    @property
    def ipc(self) -> float:
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def violation_mpki(self) -> float:
        if not self.committed_uops:
            return 0.0
        return self.violations * 1000.0 / self.committed_uops

    @property
    def false_positive_mpki(self) -> float:
        if not self.committed_uops:
            return 0.0
        return self.false_positives * 1000.0 / self.committed_uops

    @property
    def total_mdp_mpki(self) -> float:
        return self.violation_mpki + self.false_positive_mpki

    @property
    def branch_mpki(self) -> float:
        if not self.committed_uops:
            return 0.0
        return self.branch_mispredicts * 1000.0 / self.committed_uops


class StatsProbe(Probe):
    """Accumulates :class:`PipelineStats` from bus events.

    Every counter gates on the event's ``measuring`` flag, so warm-up ops
    (which execute, train predictors and warm caches) stay out of every
    statistic — same contract as the old inline counting.
    """

    __slots__ = ("stats", "_rob_entries", "_dispatch_width")

    def __init__(self, stats: PipelineStats, config: CoreConfig) -> None:
        self.stats = stats
        self._rob_entries = config.rob_entries
        self._dispatch_width = config.dispatch_width

    def subscriptions(self) -> Mapping[Type[ProbeEvent], Callable]:
        return {
            LoadResolved: self._on_load_resolved,
            MultiStoreLoad: self._on_multi_store,
            DependencePredicted: self._on_dependence_predicted,
            Violation: self._on_violation,
            Squash: self._on_squash,
            WrongPathLoad: self._on_wrong_path_load,
            BranchResolved: self._on_branch_resolved,
            LoadCommitted: self._on_load_committed,
            OpCommitted: self._on_op_committed,
            RunFinished: self._on_run_finished,
        }

    def _on_op_committed(self, event: OpCommitted) -> None:
        if event.measuring:
            stats = self.stats
            stats.committed_uops += 1
            kind = event.kind
            if kind is OpKind.LOAD:
                stats.loads += 1
            elif kind is OpKind.STORE:
                stats.stores += 1
            elif kind is OpKind.BRANCH:
                stats.branches += 1

    def _on_load_resolved(self, event: LoadResolved) -> None:
        # Counted per execution attempt: a squashed-and-replayed load
        # resolves (and is counted) once per attempt.
        if event.measuring:
            kind = event.resolution.kind
            if kind is ForwardKind.CACHE:
                self.stats.cache_loads += 1
            elif kind is ForwardKind.FORWARD:
                self.stats.forwarded_loads += 1
            else:
                self.stats.partial_loads += 1

    def _on_multi_store(self, event: MultiStoreLoad) -> None:
        if event.measuring:
            self.stats.multi_store_loads += 1
            if event.writers_inorder:
                self.stats.multi_store_inorder += 1

    def _on_dependence_predicted(self, event: DependencePredicted) -> None:
        if event.measuring:
            self.stats.dependences_predicted += 1

    def _on_violation(self, event: Violation) -> None:
        if event.measuring:
            if event.phantom:
                self.stats.wrong_path_trainings += 1
            else:
                self.stats.violations += 1

    def _on_squash(self, event: Squash) -> None:
        if event.measuring:
            # The re-execution cost model: everything dispatched between the
            # load's first attempt and the squash is thrown away, bounded by
            # the ROB.
            self.stats.reexecuted_uops += min(
                self._rob_entries,
                self._dispatch_width
                * max(0, event.squash_cycle - event.attempt_dispatch_cycle),
            )

    def _on_wrong_path_load(self, event: WrongPathLoad) -> None:
        if event.measuring:
            self.stats.wrong_path_loads += 1

    def _on_branch_resolved(self, event: BranchResolved) -> None:
        if event.measuring and event.mispredicted:
            self.stats.branch_mispredicts += 1

    def _on_load_committed(self, event: LoadCommitted) -> None:
        if event.measuring:
            info = event.info
            if info.waited_correct:
                self.stats.correct_waits += 1
            if info.false_positive:
                self.stats.false_positives += 1

    def _on_run_finished(self, event: RunFinished) -> None:
        self.stats.cycles = max(
            1, event.last_commit_cycle - event.warmup_end_cycle
        )


class PipelineRun:
    """One in-progress trace execution: ``begin()`` -> ``advance()`` -> ``finish()``.

    ``Pipeline.run`` is simply ``begin`` + one full ``advance`` + ``finish``;
    the segmented form exists so callers can pause the program-order loop at
    an arbitrary op index — the checkpointed-sampling subsystem
    (:mod:`repro.sampling`) snapshots machine state between ``advance`` calls
    and resumes a restored run bit-identically.

    Stage objects are built *lazily* on the first ``advance`` call, not at
    ``begin``: stages snapshot context structures (rings, the store window,
    predictor hooks) into their own slots at construction, so a restore that
    swaps those structures wholesale must happen after ``begin`` but before
    the first advance. The restored run then binds its stages to the restored
    state exactly as a fresh run binds to fresh state.
    """

    __slots__ = ("pipeline", "trace", "ctx", "next_index", "_stages")

    def __init__(
        self, pipeline: "Pipeline", trace: Trace, total: int, warmup_ops: int
    ) -> None:
        self.pipeline = pipeline
        self.trace = trace
        self.next_index = 0
        self._stages = None
        ctx = SimContext(
            config=pipeline.config,
            hierarchy=pipeline.hierarchy,
            history=pipeline.history,
            predictor=pipeline.predictor,
            branch_predictor=pipeline.branch_predictor,
            checker=pipeline.invariants,
            trace=trace,
            total=total,
            warmup_ops=warmup_ops,
        )
        ctx.bind(pipeline.bus)
        self.ctx = ctx

    def _build_stages(self) -> None:
        ctx = self.ctx
        dispatch_stage = DispatchStage(ctx)
        issue_stage = IssueStage(ctx)
        squash_unit = SquashUnit(ctx)
        memory_stage = MemoryStage(ctx, issue_stage, squash_unit)
        store_stage = StoreStage(ctx, issue_stage)
        branch_stage = BranchStage(ctx, issue_stage, memory_stage)
        execute_stage = ExecuteStage(ctx, issue_stage)
        commit_stage = CommitStage(ctx)
        self._stages = (
            dispatch_stage.process,
            memory_stage.process,
            store_stage.process,
            branch_stage.process,
            execute_stage.process,
            commit_stage.retire,
        )

    def advance(self, until: Optional[int] = None) -> int:
        """Process ops up to (but excluding) index ``until``; returns the cursor.

        ``None`` runs to the end of the (possibly ``max_ops``-capped) trace.
        Calling with ``until <= next_index`` is a no-op, so drivers can clamp
        freely.
        """
        ctx = self.ctx
        total = ctx.total
        stop = total if until is None else min(until, total)
        start = self.next_index
        if stop <= start:
            return start
        if self._stages is None:
            self._build_stages()

        # Bound methods hoisted out of the loop; the loop body below is the
        # per-op hot path.
        (
            process_dispatch,
            process_load,
            process_store,
            process_branch,
            process_execute,
            retire,
        ) = self._stages
        trace = self.trace
        warmup_ops = ctx.warmup_ops
        load_kind = OpKind.LOAD
        store_kind = OpKind.STORE
        branch_kind = OpKind.BRANCH

        for index in range(start, stop):
            op = trace[index]
            kind = op.kind
            measuring = index >= warmup_ops
            dispatch_cycle, ready_to_issue, snapshot = process_dispatch(
                op, index, kind, measuring
            )
            if kind is load_kind:
                issue, complete, commit_cycle = process_load(
                    op, index, dispatch_cycle, ready_to_issue, snapshot, measuring
                )
            elif kind is store_kind:
                issue, complete, commit_cycle = process_store(
                    op, index, dispatch_cycle, ready_to_issue, snapshot, measuring
                )
            elif kind is branch_kind:
                issue, complete, commit_cycle = process_branch(
                    op, index, dispatch_cycle, ready_to_issue, measuring
                )
            else:  # ALU / MUL / DIV / FP / NOP
                issue, complete, commit_cycle = process_execute(
                    op, kind, dispatch_cycle, ready_to_issue
                )
            retire(index, kind, dispatch_cycle, issue, complete, commit_cycle,
                   measuring)
        self.next_index = stop
        return stop

    @property
    def done(self) -> bool:
        return self.next_index >= self.ctx.total

    def finish(self) -> PipelineStats:
        """Emit ``RunFinished`` and return the pipeline's statistics."""
        ctx = self.ctx
        emit_finished = self.pipeline.bus.resolve(RunFinished)
        if emit_finished is not None:
            emit_finished(
                RunFinished(
                    ctx.total,
                    ctx.total - ctx.warmup_ops,
                    ctx.warmup_ops,
                    ctx.last_commit,
                    ctx.warmup_end_cycle,
                )
            )
        return self.pipeline.stats


class Pipeline:
    """One core running one trace with one memory dependence predictor.

    Built-in probes — :class:`StatsProbe`, the predictor's
    :class:`~repro.mdp.base.MDPTrainingProbe` and (when enabled) the
    :class:`~repro.sim.invariants.InvariantProbe` — are attached at
    construction; MDP training in particular is simulation *semantics*, not
    optional observation. Additional observers attach via ``probes=[...]``
    or :meth:`attach`, and "zero optional probes" costs nothing on the hot
    path: event types without subscribers are pre-resolved to ``None`` at
    ``run()`` entry and never constructed.
    """

    def __init__(
        self,
        config: CoreConfig,
        predictor: MDPredictor,
        branch_predictor: Optional[BranchPredictor] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        check_invariants: Optional[bool] = None,
        probes: Optional[Iterable[Probe]] = None,
        train_predictor: bool = True,
    ) -> None:
        self.config = config
        self.predictor = predictor
        self.branch_predictor = branch_predictor or TAGEPredictor()
        self.hierarchy = hierarchy or MemoryHierarchy(config.hierarchy)
        self.history = GlobalHistory()
        self.stats = PipelineStats()
        self.bus = ProbeBus()
        self.bus.attach(StatsProbe(self.stats, config))
        if train_predictor:
            self.bus.attach(MDPTrainingProbe(predictor))
        # Imported lazily: repro.sim.__init__ (transitively) imports this
        # module, so a top-level import of repro.sim.invariants would cycle.
        from repro.sim.invariants import (
            InvariantChecker,
            InvariantProbe,
            invariants_enabled,
        )

        # None defers to the REPRO_CHECK_INVARIANTS environment knob; an
        # explicit bool wins (CLI --check-invariants, harness workers).
        enabled = invariants_enabled() if check_invariants is None else check_invariants
        self.invariants: Optional["InvariantChecker"] = None
        if enabled:
            self.invariants = InvariantChecker(
                rob_entries=config.rob_entries,
                iq_entries=config.iq_entries,
                lq_entries=config.lq_entries,
                sq_entries=config.sq_entries,
            )
            self.bus.attach(InvariantProbe(self.invariants, self.stats))
        for probe in probes or ():
            self.bus.attach(probe)

    def attach(self, probe: Probe) -> Probe:
        """Attach an additional probe to this pipeline's bus."""
        return self.bus.attach(probe)

    # ------------------------------------------------------------------ run --

    def begin(
        self,
        trace: Trace,
        max_ops: Optional[int] = None,
        warmup_ops: int = 0,
    ) -> PipelineRun:
        """Start (but do not advance) a run; returns its :class:`PipelineRun`.

        The handle's context is built and bound to the bus here; stages are
        constructed on the first ``advance``, so checkpoint restore can swap
        context structures in between (see :class:`PipelineRun`).
        """
        total = len(trace) if max_ops is None else min(max_ops, len(trace))
        if warmup_ops < 0 or warmup_ops >= total:
            raise ValueError(f"warmup_ops must be in [0, {total}), got {warmup_ops}")
        return PipelineRun(self, trace, total, warmup_ops)

    def run(
        self,
        trace: Trace,
        max_ops: Optional[int] = None,
        warmup_ops: int = 0,
    ) -> PipelineStats:
        """Run the trace; statistics cover only ops at index >= ``warmup_ops``.

        Warm-up ops execute normally — they train predictors and warm caches
        — but are excluded from every counter and from the cycle count, the
        paper's SimPoint-style steady-state methodology (Sec. V).
        """
        handle = self.begin(trace, max_ops=max_ops, warmup_ops=warmup_ops)
        handle.advance()
        return handle.finish()
