"""Trace-driven out-of-order pipeline timing model.

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

Wrong-path work is modelled only when ``CoreConfig.wrong_path_depth`` is
set: phantom loads from a mispredicted branch's other outcome touch the
caches and query (and, at detection, may mis-train) the predictor. Otherwise
its cost appears as the redirect/squash penalties plus a re-executed-micro-op
counter (DESIGN.md §1 records this fidelity trade).

The timing model is one program-order loop, :meth:`PipelineRun.advance`. It
reads a *plan*: one small tuple per op with the op's fields plus what the
trace fixes for it — the history snapshot at decode, whether its fetch line
changed, and for branches the wrong-path replay start. :func:`build_plan`
makes it a chunk at a time and never past the op index being advanced to,
recording the chunk's branches in the history as it goes: a snapshot only
ever reads records older than itself, so the history may run ahead of the
loop, and the history tables (:class:`~repro.frontend.history.HistoryView`)
then grow a chunk at a time. A plain :class:`TAGEPredictor` front end (the
default) shares no state with the memory dependence predictor, so
:func:`build_plan` predicts each chunk's branches at once
(:meth:`~repro.frontend.tage.TAGEPredictor.observe_stretch`) and the plan
carries each one's mispredict flag. Any other front end observes each
branch inside the loop, in program order with the MDP hooks (an
Omnipredictor's branch view shares state with its MDP side). A chunk never
runs past the op being advanced to, so a paused run's front end and
history are exactly at its pause point. :class:`TracePrep` is the builder
run once over a whole trace with a fresh default TAGE; the batch backend
shares one across every cell of a trace.

Statistics and interval windows are local integers of the loop. Predictor
hooks are called directly — MDP training is simulation semantics. Optional
observers subscribe to the typed probe bus (:mod:`repro.core.probes`); the
loop resolves each event type once per ``advance`` and builds an event only
when something subscribes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from repro.core.config import CoreConfig
from repro.core.lsq import (
    ForwardKind,
    StoreRecord,
    StoreWindow,
    multi_store_suppliers,
    resolve_load,
)
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
    RunFinished,
    Squash,
    StoreRecorded,
    Violation,
    WrongPathLoad,
)
from repro.frontend.branch_predictors import BranchPredictor
from repro.frontend.history import GlobalHistory
from repro.frontend.tage import TAGEPredictor
from repro.isa.microop import OpKind
from repro.isa.trace import Trace
from repro.mdp.base import (
    LoadCommitInfo,
    LoadDispatchInfo,
    MDPredictor,
    StoreDispatchInfo,
    ViolationInfo,
)
from repro.memory.hierarchy import MemoryHierarchy

if TYPE_CHECKING:  # import cycle guard: repro.sim.__init__ imports this module
    from repro.sim.intervals import IntervalWindow
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


#: The counters ``advance`` accumulates (``cycles`` is set by ``finish``).
_COUNTERS = tuple(field.name for field in fields(PipelineStats) if field.name != "cycles")


class _PortPool:
    """Slot table for one execution-port class.

    Books up to ``ports`` issues per cycle. Unlike a next-free-cycle greedy
    tracker, a later-processed op can claim an *earlier* unused slot — which
    is what an out-of-order scheduler does: an op that becomes ready early
    must not queue behind an older op that books a far-future slot (e.g. a
    store whose address register resolves after a cache miss).
    """

    __slots__ = ("ports", "_booked")

    def __init__(self, ports: int) -> None:
        self.ports = ports
        self._booked: Dict[int, int] = {}

    def allocate(self, ready: int, busy_cycles: int = 1) -> int:
        """Book the earliest slot at or after ``ready``; returns issue cycle."""
        booked = self._booked
        cycle = ready
        if busy_cycles == 1:
            while booked.get(cycle, 0) >= self.ports:
                cycle += 1
            booked[cycle] = booked.get(cycle, 0) + 1
            return cycle
        while True:
            if all(
                booked.get(cycle + offset, 0) < self.ports
                for offset in range(busy_cycles)
            ):
                for offset in range(busy_cycles):
                    slot = cycle + offset
                    booked[slot] = booked.get(slot, 0) + 1
                return cycle
            cycle += 1


# ------------------------------------------------------------------ plan --

#: Plan record codes (first element of every per-op plan tuple).
LOAD, STORE, BRANCH, OTHER = 0, 1, 2, 3

#: Ops per plan chunk: bounds the plan a run holds at once.
PLAN_CHUNK_OPS = 4096


def build_plan(
    trace: Trace,
    start: int,
    stop: int,
    history: GlobalHistory,
    wrong_path_after: Optional[Dict] = None,
    tage: Optional[TAGEPredictor] = None,
) -> List[tuple]:
    """Plan tuples for ops ``[start, stop)``, shaped per kind.

    Every value is a plain Python scalar or tuple::

        (LOAD,   pc, fetch, snapshot, address, size, dst, srcs)
        (STORE,  pc, fetch, snapshot, address, size, srcs, data_srcs)
        (BRANCH, pc, fetch, snapshot, mispredicted, srcs, wrong_index)
        (OTHER,  pc, fetch, snapshot, kind, dst, srcs)

    ``fetch`` is whether the op's 64-byte fetch line differs from the
    previous op's; snapshots count on from ``history.snapshot()``, and
    every branch is recorded in ``history``. ``wrong_path_after`` maps
    (branch pc, outcome) to the op after that outcome's first occurrence;
    when given, ``wrong_index`` is where the branch's other outcome's path
    starts (None if it was never seen). With ``tage``, the stretch's
    branches go through :meth:`TAGEPredictor.observe_stretch` here and
    ``mispredicted`` is each one's verdict; without it, ``mispredicted`` is
    None and the loop observes.
    """
    plan: List[tuple] = []
    append = plan.append
    record = history.record
    snapshot = history.snapshot()
    ops = trace.ops
    line = ops[start - 1].pc >> 6 if start else -1
    load_kind = OpKind.LOAD
    store_kind = OpKind.STORE
    branch_kind = OpKind.BRANCH
    verdicts = None
    if tage is not None:
        verdicts = iter(tage.observe_stretch(branches_of(ops, start, stop)))
    for index in range(start, stop):
        op = ops[index]
        pc = op.pc
        kind = op.kind
        fetch = pc >> 6 != line
        line = pc >> 6
        if kind is load_kind:
            mem = op.mem
            append((LOAD, pc, fetch, snapshot, mem.address, mem.size, op.dst_reg,
                    op.src_regs))
        elif kind is store_kind:
            mem = op.mem
            append((STORE, pc, fetch, snapshot, mem.address, mem.size, op.src_regs,
                    op.store_data_regs))
        elif kind is branch_kind:
            branch = op.branch
            taken = branch.taken
            mispredicted = None if verdicts is None else next(verdicts)
            record(pc, branch)
            wrong_index = None
            if wrong_path_after is not None:
                wrong_index = wrong_path_after.get((pc, not taken))
                wrong_path_after.setdefault((pc, taken), index + 1)
            append((BRANCH, pc, fetch, snapshot, mispredicted, op.src_regs,
                    wrong_index))
            snapshot += 1
        else:
            append((OTHER, pc, fetch, snapshot, kind, op.dst_reg, op.src_regs))
    return plan


def branches_of(ops, start: int, stop: int):
    """``(pc, kind, taken, target)`` of each branch of ``ops[start:stop]``,
    as :meth:`TAGEPredictor.observe_stretch` takes them."""
    for index in range(start, stop):
        branch = ops[index].branch
        if branch is not None:
            yield ops[index].pc, branch.kind, branch.taken, branch.target


class TracePrep:
    """A whole trace's plan, built once with a fresh default TAGE.

    Every cell on the default front end sees the same committed branch
    stream, so one plan and one history log serve all of them: the batch
    backend caches a prep per trace and shares it, read-only, across the
    cells of a group; the history tables its predictors read are memoised
    on its history, so a group builds each one once.
    """

    __slots__ = ("trace", "history", "plan")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.history = GlobalHistory()
        self.plan = build_plan(
            trace, 0, len(trace), self.history, {}, TAGEPredictor()
        )

    def __len__(self) -> int:
        return len(self.plan)


# ------------------------------------------------------------------- run --

#: ``MDPredictor`` base hooks, for the "predictor doesn't override it" fast
#: paths: constructing a ``LoadCommitInfo`` for a no-op hook is pure waste.
_BASE_ON_LOAD_COMMIT = MDPredictor.on_load_commit
_BASE_ON_STORE_DISPATCH = MDPredictor.on_store_dispatch

#: Plan code -> OpKind for event payloads (OTHER records carry their kind).
_CODE_KINDS = (OpKind.LOAD, OpKind.STORE, OpKind.BRANCH)


class PipelineRun:
    """One in-progress trace execution: ``begin()`` -> ``advance()`` -> ``finish()``.

    ``Pipeline.run`` is simply ``begin`` + one full ``advance`` + ``finish``;
    the segmented form exists so callers can pause the program-order loop at
    an arbitrary op index — the checkpointed-sampling subsystem
    (:mod:`repro.sampling`) snapshots the fields named in
    :attr:`STATE_FIELDS` between ``advance`` calls and resumes a restored run
    bit-identically. ``advance`` reads those fields into locals on entry and
    writes them back on exit, so a restore may replace them at any pause.
    """

    #: Machine state a detailed checkpoint carries (see repro.sampling.state).
    STATE_FIELDS = (
        # width cursors: the cycle being filled and the slots used in it
        "dispatch_cycle",
        "dispatch_count",
        "commit_cycle",
        "commit_count",
        "drain_cycle",
        "drain_count",
        # structural state
        "ports",
        "commit_ring",
        "issue_ring",
        "load_ring",
        "store_ring",
        "reg_ready",
        "window",
        # progress
        "load_count",
        "store_count",
        "frontend_ready",
        "last_commit",
        "warmup_end_cycle",
        "wrong_path_after",
        # interval windows
        "interval_ops",
        "intervals",
        "interval_start_cycle",
        "interval_committed",
        "interval_violations",
        "interval_mispredicts",
        "interval_residency",
    )

    __slots__ = STATE_FIELDS + (
        "pipeline",
        "trace",
        "prep",
        "history",
        "stats",
        "total",
        "warmup_ops",
        "next_index",
        "on_window",
    )

    def __init__(
        self,
        pipeline: "Pipeline",
        trace: Trace,
        total: int,
        warmup_ops: int,
        interval_ops: int = 0,
        on_window: Optional[Callable[["IntervalWindow"], None]] = None,
        prep: Optional[TracePrep] = None,
    ) -> None:
        config = pipeline.config
        self.pipeline = pipeline
        self.trace = trace
        self.prep = prep
        self.history = prep.history if prep is not None else pipeline.history
        self.stats = pipeline.stats
        self.total = total
        self.warmup_ops = warmup_ops
        self.next_index = 0
        self.on_window = on_window

        self.dispatch_cycle = self.dispatch_count = 0
        self.commit_cycle = self.commit_count = 0
        self.drain_cycle = self.drain_count = 0
        self.ports = {kind: _PortPool(count) for kind, count in config.ports.items()}
        self.commit_ring = [0] * config.rob_entries  # commit cycle `rob` ops back
        self.issue_ring = [0] * config.iq_entries  # issue cycle `iq` ops back
        self.load_ring = [0] * config.lq_entries  # commit cycle `lq` loads back
        self.store_ring = [0] * config.sq_entries  # drain cycle `sq` stores back
        self.reg_ready = [0] * config.num_arch_regs
        self.window = StoreWindow(capacity=config.sq_entries + 32)

        self.load_count = 0
        self.store_count = 0
        self.frontend_ready = 0
        self.last_commit = 0
        self.warmup_end_cycle = 0
        self.wrong_path_after: Dict = {}

        self.interval_ops = interval_ops
        self.intervals: List["IntervalWindow"] = []
        self.interval_start_cycle = 0
        self.interval_committed = 0
        self.interval_violations = 0
        self.interval_mispredicts = 0
        self.interval_residency = 0

    def _plan(self, start: int, stop: int) -> List[tuple]:
        if self.prep is not None:
            return self.prep.plan[start:stop]
        wrong_path = (
            self.wrong_path_after if self.pipeline.config.wrong_path_depth else None
        )
        # A plain TAGE shares no state with the MDP, so it may predict the
        # chunk's branches here; any other front end observes in the loop.
        front_end = self.pipeline.branch_predictor
        tage = front_end if type(front_end) is TAGEPredictor else None
        return build_plan(self.trace, start, stop, self.history, wrong_path, tage)

    def _cut_interval(self, end_op: int, end_cycle: int, cycles: int, partial: bool):
        """Close the current interval window (cycles clamped to >= 1)."""
        from repro.sim.intervals import IntervalWindow

        intervals = self.intervals
        window = IntervalWindow(
            index=len(intervals),
            start_op=intervals[-1].end_op + 1 if intervals else self.warmup_ops,
            end_op=end_op,
            cycles=cycles if cycles > 1 else 1,
            committed_uops=self.interval_committed,
            violations=self.interval_violations,
            branch_mispredicts=self.interval_mispredicts,
            rob_residency=self.interval_residency,
            partial=partial,
        )
        intervals.append(window)
        self.interval_start_cycle = end_cycle
        self.interval_committed = self.interval_violations = 0
        self.interval_mispredicts = self.interval_residency = 0
        if self.on_window is not None:
            self.on_window(window)

    def advance(self, until: Optional[int] = None) -> int:
        """Process ops up to (but excluding) index ``until``; returns the cursor.

        ``None`` runs to the end of the (possibly ``max_ops``-capped) trace.
        Calling with ``until <= next_index`` is a no-op, so drivers can clamp
        freely.
        """
        total = self.total
        stop = total if until is None else min(until, total)
        start = self.next_index
        if stop <= start:
            return start

        pipeline = self.pipeline
        config = pipeline.config
        predictor = pipeline.predictor
        checker = pipeline.invariants
        bus = pipeline.bus
        trace = self.trace
        history = self.history
        warmup_ops = self.warmup_ops

        # ---- per-run constants -------------------------------------------
        rob = config.rob_entries
        iq = config.iq_entries
        lq = config.lq_entries
        sq = config.sq_entries
        d2i = config.dispatch_to_issue_latency
        l1d_latency = config.hierarchy.l1d.hit_latency
        fwd_filter = config.forwarding_filter
        dispatch_width = config.dispatch_width
        commit_width = config.commit_width
        drain_width = config.store_drain_per_cycle
        eager_squash = config.violation_squash == "eager"
        violation_penalty = config.violation_penalty
        redirect_penalty = config.branch_redirect_penalty
        branch_latency = config.latencies[OpKind.BRANCH]
        wrong_path_depth = config.wrong_path_depth
        observe = pipeline.branch_predictor.observe
        fetch_access = pipeline.hierarchy.fetch_access
        load_access = pipeline.hierarchy.load_access

        ports = self.ports
        allocate_load_port = ports[OpKind.LOAD].allocate
        allocate_store_port = ports[OpKind.STORE].allocate
        allocate_branch_port = ports[OpKind.BRANCH].allocate
        exec_by_kind = {}
        for kind, latency in config.latencies.items():
            pool = ports.get(kind)
            if pool is not None:
                busy = latency if kind is OpKind.DIV else 1  # DIV unpipelined
                exec_by_kind[kind] = (pool.allocate, latency, busy)

        commit_ring = self.commit_ring
        issue_ring = self.issue_ring
        load_ring = self.load_ring
        store_ring = self.store_ring
        reg_ready = self.reg_ready
        window = self.window
        window_append = window.append
        window_by_number = window.by_number
        window_by_seq = window.by_seq
        window_candidates = window.candidates
        window_all = window.all_records

        predict_load = predictor.on_load_dispatch
        trains_at_commit = predictor.trains_at_commit
        on_violation = predictor.on_violation
        skip_commit_info = type(predictor).on_load_commit is _BASE_ON_LOAD_COMMIT
        on_load_commit = predictor.on_load_commit
        skip_store_predict = type(predictor).on_store_dispatch is _BASE_ON_STORE_DISPATCH
        predict_store = predictor.on_store_dispatch
        load_info = LoadDispatchInfo(
            pc=0, seq=0, hist_snapshot=0, store_count=0, history=history
        )
        store_info = StoreDispatchInfo(
            pc=0, seq=0, hist_snapshot=0, store_number=0, history=history
        )

        # Pre-resolved probe emitters: None == no subscribers, so the event
        # is never built.
        emit_dispatched = bus.resolve(OpDispatched)
        emit_load_resolved = bus.resolve(LoadResolved)
        emit_multi_store = bus.resolve(MultiStoreLoad)
        emit_dep_predicted = bus.resolve(DependencePredicted)
        emit_violation = bus.resolve(Violation)
        emit_squash = bus.resolve(Squash)
        emit_wrong_path_load = bus.resolve(WrongPathLoad)
        emit_store_recorded = bus.resolve(StoreRecorded)
        emit_branch_resolved = bus.resolve(BranchResolved)
        emit_load_committed = bus.resolve(LoadCommitted)
        emit_op_committed = bus.resolve(OpCommitted)
        # A load with no overlapping store resolves to a plain cache read;
        # the resolution object is only built when someone inspects it.
        resolve_always = checker is not None or emit_load_resolved is not None

        # ---- mutable state -------------------------------------------------
        disp_cycle = self.dispatch_cycle
        disp_count = self.dispatch_count
        com_cycle = self.commit_cycle
        com_count = self.commit_count
        drain_cycle_cur = self.drain_cycle
        drain_count = self.drain_count
        load_count = self.load_count
        store_count = self.store_count
        frontend_ready = self.frontend_ready
        last_commit = self.last_commit
        cadence = self.interval_ops
        interval_committed = self.interval_committed
        interval_violations = self.interval_violations
        interval_mispredicts = self.interval_mispredicts
        interval_residency = self.interval_residency

        # Statistics deltas of this call (added to self.stats on exit).
        committed_uops = loads = stores = branches = branch_mispredicts = 0
        violations = false_positives = correct_waits = dependences_predicted = 0
        forwarded_loads = partial_loads = cache_loads = 0
        multi_store_loads = multi_store_inorder = reexecuted_uops = 0
        wrong_path_loads = wrong_path_trainings = 0

        for chunk_start in range(start, stop, PLAN_CHUNK_OPS):
            plan = self._plan(chunk_start, min(chunk_start + PLAN_CHUNK_OPS, stop))
            for index, rec in enumerate(plan, chunk_start):
                code = rec[0]
                pc = rec[1]
                measuring = index >= warmup_ops

                # ---- dispatch ------------------------------------------------
                earliest = frontend_ready
                rob_free = commit_ring[index % rob]
                if rob_free > earliest:
                    earliest = rob_free
                iq_free = issue_ring[index % iq]
                if iq_free > earliest:
                    earliest = iq_free
                if rec[2]:  # fetch line changed
                    fetched = fetch_access(pc, earliest)
                    if fetched > earliest:
                        earliest = fetched
                slot_free = 0
                if code == LOAD:
                    slot_free = load_ring[load_count % lq]
                    if slot_free > earliest:
                        earliest = slot_free
                elif code == STORE:
                    slot_free = store_ring[store_count % sq]
                    if slot_free > earliest:
                        earliest = slot_free
                if earliest > disp_cycle:
                    disp_cycle = earliest
                    disp_count = 1
                    dispatch_cycle = earliest
                elif disp_count < dispatch_width:
                    disp_count += 1
                    dispatch_cycle = disp_cycle
                else:
                    disp_cycle += 1
                    disp_count = 1
                    dispatch_cycle = disp_cycle
                if emit_dispatched is not None:
                    emit_dispatched(
                        OpDispatched(
                            index, rec[4] if code == OTHER else _CODE_KINDS[code],
                            dispatch_cycle, rob_free, iq_free, slot_free, measuring,
                        )
                    )
                snapshot = rec[3]

                if code == LOAD:
                    operands = 0
                    for reg in rec[7]:
                        ready = reg_ready[reg]
                        if ready > operands:
                            operands = ready
                    ready_to_issue = dispatch_cycle + d2i
                    if operands > ready_to_issue:
                        ready_to_issue = operands

                    # ---- load ------------------------------------------------
                    address = rec[4]
                    size = rec[5]
                    candidates = window_candidates(address, size)

                    # Oracle ground truth for the ideal predictor and for
                    # commit feedback: youngest older store still in flight
                    # at the load's unconstrained execute estimate.
                    oracle_store = None
                    oracle_multi = False
                    if candidates:
                        naive_exec = ready_to_issue + 1
                        visible = [s for s in candidates if s.drain_cycle > naive_exec]
                        if visible:
                            oracle_store = visible[-1]
                            if len(visible) > 1:
                                suppliers = multi_store_suppliers(visible, address, size)
                                oracle_multi = len(suppliers) >= 2
                                if oracle_multi:
                                    # Fig. 4's second metric: do the load's
                                    # writers execute in (program) order?
                                    execs = [s.exec_cycle for s in suppliers]
                                    inorder = execs == sorted(execs)
                                    if measuring:
                                        multi_store_loads += 1
                                        if inorder:
                                            multi_store_inorder += 1
                                    if emit_multi_store is not None:
                                        emit_multi_store(
                                            MultiStoreLoad(index, pc, inorder, measuring)
                                        )

                    info = load_info
                    info.pc = pc
                    info.seq = index
                    info.hist_snapshot = snapshot
                    info.store_count = store_count
                    info.oracle_store_number = (
                        oracle_store.store_number if oracle_store is not None else None
                    )
                    info.oracle_multi_store = oracle_multi

                    was_violated = False
                    attempt_dispatch = dispatch_cycle
                    attempt_ready = ready_to_issue
                    while True:
                        prediction = predict_load(info)
                        # A predicted-dependent load issues just after the
                        # store's *address* resolves (Sec. I); forwarding then
                        # supplies the data, and the LSQ timing accounts for
                        # late store data itself.
                        wait_targets = []
                        issue_ready = attempt_ready
                        if prediction.is_dependence:
                            if prediction.wait_all_older:
                                for record in window_all():
                                    ready = record.addr_ready - 1
                                    if ready > issue_ready:
                                        issue_ready = ready
                                    wait_targets.append(record)
                            for distance in prediction.distances:
                                target = window_by_number(store_count - 1 - distance)
                                if target is not None:
                                    ready = target.addr_ready - 1
                                    if ready > issue_ready:
                                        issue_ready = ready
                                    wait_targets.append(target)
                            for seq in prediction.store_seqs:
                                record = window_by_seq(seq)
                                if record is not None:
                                    ready = record.addr_ready - 1
                                    if ready > issue_ready:
                                        issue_ready = ready
                                    wait_targets.append(record)
                            if measuring:
                                dependences_predicted += 1
                            if emit_dep_predicted is not None:
                                emit_dep_predicted(
                                    DependencePredicted(
                                        index, pc, prediction, tuple(wait_targets),
                                        measuring,
                                    )
                                )

                        issue = allocate_load_port(issue_ready)
                        exec_cycle = issue + 1  # AGU
                        if candidates or resolve_always:
                            resolution = resolve_load(
                                candidates, address, size, exec_cycle, l1d_latency,
                                fwd_filter, checker=checker,
                            )
                            res_kind = resolution.kind
                            if res_kind is ForwardKind.CACHE:
                                complete = load_access(pc, address, exec_cycle)
                                if measuring:
                                    cache_loads += 1
                            else:
                                complete = resolution.data_ready
                                if measuring:
                                    if res_kind is ForwardKind.FORWARD:
                                        forwarded_loads += 1
                                    else:
                                        partial_loads += 1
                            if emit_load_resolved is not None:
                                emit_load_resolved(
                                    LoadResolved(index, pc, resolution, exec_cycle,
                                                 complete, measuring)
                                )
                        else:
                            resolution = None
                            complete = load_access(pc, address, exec_cycle)
                            if measuring:
                                cache_loads += 1

                        # Commit slot: unlike other ops, a load is not floored
                        # at last_commit.
                        earliest_commit = complete + 1
                        if earliest_commit > com_cycle:
                            com_cycle = earliest_commit
                            com_count = 1
                            commit_cycle = earliest_commit
                        elif com_count < commit_width:
                            com_count += 1
                            commit_cycle = com_cycle
                        else:
                            com_cycle += 1
                            com_count = 1
                            commit_cycle = com_cycle

                        if resolution is None or not resolution.violated:
                            break

                        # ---- violation: lazy squash at commit, then replay --
                        was_violated = True
                        training_store = (
                            resolution.violation_store_commit
                            if trains_at_commit
                            else resolution.violation_store_detect
                        )
                        violation = ViolationInfo(
                            load_pc=pc,
                            load_seq=index,
                            load_snapshot=snapshot,
                            load_store_count=store_count,
                            store_pc=training_store.pc,
                            store_seq=training_store.seq,
                            store_snapshot=training_store.hist_snapshot,
                            store_number=training_store.store_number,
                            history=history,
                        )
                        on_violation(violation)
                        if measuring:
                            violations += 1
                            interval_violations += 1
                        if emit_violation is not None:
                            emit_violation(Violation(index, pc, violation, False,
                                                     measuring))

                        if eager_squash:
                            # Squash as soon as the conflicting store resolves
                            # and finds the mis-speculated load in the LQ.
                            detection = exec_cycle
                            if training_store.addr_ready > detection:
                                detection = training_store.addr_ready
                            squash_cycle = detection + violation_penalty
                        else:
                            squash_cycle = commit_cycle + violation_penalty
                        if squash_cycle > disp_cycle:
                            disp_cycle = squash_cycle
                            disp_count = 1
                            replay_dispatch = squash_cycle
                        elif disp_count < dispatch_width:
                            disp_count += 1
                            replay_dispatch = disp_cycle
                        else:
                            disp_cycle += 1
                            disp_count = 1
                            replay_dispatch = disp_cycle
                        if emit_squash is not None:
                            emit_squash(
                                Squash(index, pc, squash_cycle, attempt_dispatch,
                                       replay_dispatch, measuring)
                            )
                        if measuring:
                            # Re-execution cost: everything dispatched between
                            # the attempt and the squash, bounded by the ROB.
                            wasted = squash_cycle - attempt_dispatch
                            if wasted > 0:
                                cost = dispatch_width * wasted
                                reexecuted_uops += cost if cost < rob else rob
                        attempt_dispatch = replay_dispatch
                        attempt_ready = replay_dispatch + d2i
                        if ready_to_issue > attempt_ready:
                            attempt_ready = ready_to_issue

                    # ---- commit-time feedback ----------------------------
                    # Ground truth is the oracle dependence, not the post-wait
                    # window: a correctly-waited load whose forwarder drained
                    # during the wait still waited for the right store.
                    true_store = resolution.true_store if resolution is not None else None
                    actual = true_store if true_store is not None else oracle_store
                    is_dependence = prediction.is_dependence
                    delayed = issue_ready > attempt_ready if is_dependence else False
                    waited_correct = (
                        is_dependence
                        and actual is not None
                        and any(target.seq == actual.seq for target in wait_targets)
                    )
                    false_positive = is_dependence and delayed and not waited_correct
                    if measuring:
                        if waited_correct:
                            correct_waits += 1
                        if false_positive:
                            false_positives += 1
                    if not skip_commit_info or emit_load_committed is not None:
                        commit_info = LoadCommitInfo(
                            pc=pc,
                            seq=index,
                            hist_snapshot=snapshot,
                            store_count=store_count,
                            prediction=prediction,
                            predicted_store_number=(
                                wait_targets[0].store_number if wait_targets else None
                            ),
                            actual_store_number=actual.store_number if actual else None,
                            waited_correct=waited_correct,
                            false_positive=false_positive,
                            violated=was_violated,
                            history=history,
                        )
                        if not skip_commit_info:
                            on_load_commit(commit_info)
                        if emit_load_committed is not None:
                            emit_load_committed(
                                LoadCommitted(index, commit_info, measuring)
                            )

                    load_ring[load_count % lq] = commit_cycle
                    load_count += 1
                    dst = rec[6]
                    if dst is not None:
                        reg_ready[dst] = complete
                    if measuring:
                        loads += 1

                elif code == STORE:
                    operands = 0
                    for reg in rec[6]:
                        ready = reg_ready[reg]
                        if ready > operands:
                            operands = ready
                    ready_to_issue = dispatch_cycle + d2i
                    if operands > ready_to_issue:
                        ready_to_issue = operands

                    # ---- store -----------------------------------------------
                    data_operands = 0
                    for reg in rec[7]:
                        ready = reg_ready[reg]
                        if ready > data_operands:
                            data_operands = ready
                    agu_ready = ready_to_issue
                    if not skip_store_predict:
                        store_info.pc = pc
                        store_info.seq = index
                        store_info.hist_snapshot = snapshot
                        store_info.store_number = store_count
                        store_pred = predict_store(store_info)
                        if store_pred.is_dependence:
                            # Store Sets serialises stores of a set: this store
                            # may not execute before the previous one of its set.
                            for dep_seq in store_pred.store_seqs:
                                record = window_by_seq(dep_seq)
                                if record is not None:
                                    ready = record.exec_cycle + 1
                                    if ready > agu_ready:
                                        agu_ready = ready
                    exec_floor = dispatch_cycle + d2i
                    if data_operands > exec_floor:
                        exec_floor = data_operands
                    issue = allocate_store_port(agu_ready)
                    addr_ready = issue + 1
                    complete = addr_ready if addr_ready > exec_floor else exec_floor

                    earliest_commit = complete + 1
                    if last_commit > earliest_commit:
                        earliest_commit = last_commit
                    if earliest_commit > com_cycle:
                        com_cycle = earliest_commit
                        com_count = 1
                        commit_cycle = earliest_commit
                    elif com_count < commit_width:
                        com_count += 1
                        commit_cycle = com_cycle
                    else:
                        com_cycle += 1
                        com_count = 1
                        commit_cycle = com_cycle

                    earliest_drain = commit_cycle + 1
                    if earliest_drain > drain_cycle_cur:
                        drain_cycle_cur = earliest_drain
                        drain_count = 1
                        drain_cycle = earliest_drain
                    elif drain_count < drain_width:
                        drain_count += 1
                        drain_cycle = drain_cycle_cur
                    else:
                        drain_cycle_cur += 1
                        drain_count = 1
                        drain_cycle = drain_cycle_cur

                    store_record = StoreRecord(
                        seq=index,
                        pc=pc,
                        address=rec[4],
                        size=rec[5],
                        store_number=store_count,
                        addr_ready=addr_ready,
                        exec_cycle=complete,
                        drain_cycle=drain_cycle,
                        hist_snapshot=snapshot,
                    )
                    if emit_store_recorded is not None:
                        emit_store_recorded(StoreRecorded(index, store_record, measuring))
                    window_append(store_record)
                    store_ring[store_count % sq] = drain_cycle
                    store_count += 1
                    if measuring:
                        stores += 1

                elif code == BRANCH:
                    operands = 0
                    for reg in rec[5]:
                        ready = reg_ready[reg]
                        if ready > operands:
                            operands = ready
                    ready_to_issue = dispatch_cycle + d2i
                    if operands > ready_to_issue:
                        ready_to_issue = operands

                    # ---- branch ----------------------------------------------
                    issue = allocate_branch_port(ready_to_issue)
                    complete = issue + branch_latency
                    mispredicted = rec[4]
                    if mispredicted is None:  # own front end: predict here
                        branch = trace[index].branch
                        mispredicted = observe(pc, branch.kind, branch.taken,
                                               branch.target)
                    if emit_branch_resolved is not None:
                        emit_branch_resolved(
                            BranchResolved(index, pc, trace[index].branch.taken,
                                           mispredicted, measuring)
                        )
                    if mispredicted:
                        if measuring:
                            branch_mispredicts += 1
                            interval_mispredicts += 1
                        redirect = complete + redirect_penalty
                        if redirect > frontend_ready:
                            frontend_ready = redirect
                        wrong_index = rec[6]
                        if wrong_path_depth and wrong_index is not None:
                            # Replay the other outcome's ops as phantoms: they
                            # touch the caches and query the predictor; one
                            # that conflicts with an in-flight store trains an
                            # at-detection predictor on a dependence no
                            # committed load has — the pollution PHAST's
                            # at-commit training avoids (Sec. IV-A1). Phantoms
                            # never commit, write, or enter the history.
                            end = min(len(trace), wrong_index + wrong_path_depth)
                            for phantom_index in range(wrong_index, end):
                                op = trace[phantom_index]
                                if not op.is_load:
                                    continue
                                mem = op.mem
                                load_access(op.pc, mem.address, dispatch_cycle)
                                load_info.pc = op.pc
                                load_info.seq = -phantom_index - 1  # never collide
                                load_info.hist_snapshot = snapshot
                                load_info.store_count = store_count
                                load_info.oracle_store_number = None
                                load_info.oracle_multi_store = False
                                predict_load(load_info)
                                if measuring:
                                    wrong_path_loads += 1
                                if emit_wrong_path_load is not None:
                                    emit_wrong_path_load(
                                        WrongPathLoad(phantom_index, op.pc, measuring)
                                    )
                                if trains_at_commit:
                                    continue  # squashed before commit: never trained
                                resolution = resolve_load(
                                    window_candidates(mem.address, mem.size),
                                    mem.address, mem.size, dispatch_cycle,
                                    l1d_latency, fwd_filter, checker=checker,
                                )
                                if not resolution.violated:
                                    continue
                                training_store = resolution.violation_store_detect
                                violation = ViolationInfo(
                                    load_pc=op.pc,
                                    load_seq=-phantom_index - 1,
                                    load_snapshot=snapshot,
                                    load_store_count=store_count,
                                    store_pc=training_store.pc,
                                    store_seq=training_store.seq,
                                    store_snapshot=training_store.hist_snapshot,
                                    store_number=training_store.store_number,
                                    history=history,
                                )
                                on_violation(violation)
                                if measuring:
                                    wrong_path_trainings += 1
                                if emit_violation is not None:
                                    emit_violation(
                                        Violation(phantom_index, op.pc, violation,
                                                  True, measuring)
                                    )

                    earliest_commit = complete + 1
                    if last_commit > earliest_commit:
                        earliest_commit = last_commit
                    if earliest_commit > com_cycle:
                        com_cycle = earliest_commit
                        com_count = 1
                        commit_cycle = earliest_commit
                    elif com_count < commit_width:
                        com_count += 1
                        commit_cycle = com_cycle
                    else:
                        com_cycle += 1
                        com_count = 1
                        commit_cycle = com_cycle
                    if measuring:
                        branches += 1

                else:
                    operands = 0
                    for reg in rec[6]:
                        ready = reg_ready[reg]
                        if ready > operands:
                            operands = ready
                    ready_to_issue = dispatch_cycle + d2i
                    if operands > ready_to_issue:
                        ready_to_issue = operands

                    # ---- ALU / MUL / DIV / FP / NOP ------------------------
                    allocate_port, latency, busy = exec_by_kind[rec[4]]
                    issue = allocate_port(ready_to_issue, busy)
                    complete = issue + latency
                    dst = rec[5]
                    if dst is not None:
                        reg_ready[dst] = complete

                    earliest_commit = complete + 1
                    if last_commit > earliest_commit:
                        earliest_commit = last_commit
                    if earliest_commit > com_cycle:
                        com_cycle = earliest_commit
                        com_count = 1
                        commit_cycle = earliest_commit
                    elif com_count < commit_width:
                        com_count += 1
                        commit_cycle = com_cycle
                    else:
                        com_cycle += 1
                        com_count = 1
                        commit_cycle = com_cycle

                # ---- retire ------------------------------------------------
                commit_ring[index % rob] = commit_cycle
                issue_ring[index % iq] = issue
                if commit_cycle > last_commit:
                    last_commit = commit_cycle
                if emit_op_committed is not None:
                    emit_op_committed(
                        OpCommitted(
                            index, rec[4] if code == OTHER else _CODE_KINDS[code],
                            dispatch_cycle, complete, commit_cycle, measuring,
                        )
                    )
                if measuring:
                    committed_uops += 1
                    if cadence:
                        interval_committed += 1
                        interval_residency += commit_cycle - dispatch_cycle
                        if interval_committed >= cadence:
                            self.interval_committed = interval_committed
                            self.interval_violations = interval_violations
                            self.interval_mispredicts = interval_mispredicts
                            self.interval_residency = interval_residency
                            self._cut_interval(
                                index, last_commit,
                                last_commit - self.interval_start_cycle, False,
                            )
                            interval_committed = interval_violations = 0
                            interval_mispredicts = interval_residency = 0
                elif index == warmup_ops - 1:
                    self.warmup_end_cycle = last_commit
                    self.interval_start_cycle = last_commit

        # ---- write the state back ----------------------------------------
        self.dispatch_cycle = disp_cycle
        self.dispatch_count = disp_count
        self.commit_cycle = com_cycle
        self.commit_count = com_count
        self.drain_cycle = drain_cycle_cur
        self.drain_count = drain_count
        self.load_count = load_count
        self.store_count = store_count
        self.frontend_ready = frontend_ready
        self.last_commit = last_commit
        self.interval_committed = interval_committed
        self.interval_violations = interval_violations
        self.interval_mispredicts = interval_mispredicts
        self.interval_residency = interval_residency
        stats = self.stats
        for name, delta in zip(
            _COUNTERS,
            (
                committed_uops, loads, stores, branches, branch_mispredicts,
                violations, false_positives, correct_waits, dependences_predicted,
                forwarded_loads, partial_loads, cache_loads, multi_store_loads,
                multi_store_inorder, reexecuted_uops, wrong_path_loads,
                wrong_path_trainings,
            ),
        ):
            setattr(stats, name, getattr(stats, name) + delta)
        self.next_index = stop
        return stop

    @property
    def done(self) -> bool:
        return self.next_index >= self.total

    def finish(self) -> PipelineStats:
        """Close the run: cycle count, trailing window, ``RunFinished``."""
        stats = self.stats
        stats.cycles = max(1, self.last_commit - self.warmup_end_cycle)
        if self.interval_ops and self.interval_committed:
            # The trailing partial window starts where the completed
            # windows' (clamped) cycles end.
            start_cycle = self.warmup_end_cycle + sum(w.cycles for w in self.intervals)
            self._cut_interval(
                self.next_index - 1, self.last_commit,
                self.last_commit - start_cycle, True,
            )
        emit_finished = self.pipeline.bus.resolve(RunFinished)
        if emit_finished is not None:
            emit_finished(
                RunFinished(
                    self.total,
                    self.total - self.warmup_ops,
                    self.warmup_ops,
                    self.last_commit,
                    self.warmup_end_cycle,
                )
            )
        return stats


class Pipeline:
    """One core running one trace with one memory dependence predictor.

    The predictor is driven through its hooks directly — training is
    simulation semantics. Observers attach via ``probes=[...]`` or
    :meth:`attach`; with invariant checking enabled the
    :class:`~repro.sim.invariants.InvariantProbe` is attached first. "Zero
    probes" costs nothing on the hot path: event types without subscribers
    resolve to ``None`` and are never constructed.
    """

    def __init__(
        self,
        config: CoreConfig,
        predictor: MDPredictor,
        branch_predictor: Optional[BranchPredictor] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        check_invariants: Optional[bool] = None,
        probes: Optional[Iterable[Probe]] = None,
    ) -> None:
        self.config = config
        self.predictor = predictor
        self.branch_predictor = branch_predictor or TAGEPredictor()
        self.hierarchy = hierarchy or MemoryHierarchy(config.hierarchy)
        self.history = GlobalHistory()
        self.stats = PipelineStats()
        self.bus = ProbeBus()
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
        interval_ops: int = 0,
        on_window: Optional[Callable[["IntervalWindow"], None]] = None,
        prep: Optional[TracePrep] = None,
    ) -> PipelineRun:
        """Start (but do not advance) a run; returns its :class:`PipelineRun`.

        ``interval_ops`` > 0 cuts the measured region into windows of that
        many committed ops (``run.intervals``; ``on_window`` fires per
        window). ``prep`` runs the cell on a shared :class:`TracePrep` of
        ``trace`` instead of this pipeline's own front end; its plan assumes
        a fresh default TAGE.
        """
        total = len(trace) if max_ops is None else min(max_ops, len(trace))
        if warmup_ops < 0 or warmup_ops >= total:
            raise ValueError(f"warmup_ops must be in [0, {total}), got {warmup_ops}")
        if interval_ops < 0:
            raise ValueError(f"interval_ops must be >= 0, got {interval_ops}")
        return PipelineRun(
            self, trace, total, warmup_ops, interval_ops, on_window, prep
        )

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
