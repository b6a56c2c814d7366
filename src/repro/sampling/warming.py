"""Functional warming: architectural fast-forward without the timing model.

The sampled-simulation methodology (SMARTS/SimPoint lineage) needs machine
state at an interval's start that *remembers the whole prefix* — cold caches
and cold predictor tables at op 10M would bias every measurement — but it
cannot afford to pay detailed-simulation cost for the prefix. Functional
warming is the standard answer: walk every op of the prefix updating only
the long-lived architectural structures, skipping all cycle accounting.

What is warmed, mirroring exactly what the detailed model touches:

* the cache hierarchy — one ``fetch_access`` per fetch-line change (the
  detailed loop's filter) and one ``load_access`` per load (which also
  trains the stride prefetcher); stores never touch the hierarchy, same as
  the detailed model (store data drains through the SB off the timing path);
* the branch predictor (``observe`` per branch) and the global history log;
* the memory dependence predictor — dispatch hooks for every load and
  store, plus *approximate* training: the truth store is the youngest
  overlapping store still in the window, a missed truth trains
  ``on_violation``, and every load delivers ``on_load_commit`` feedback —
  the same hooks the detailed loop calls, minus cycle-accurate issue
  timing;
* the in-flight store window and the SQ allocation cursors
  (``load_count``/``store_count``) — the distance-to-store-number
  conversion in the detailed model depends on cursor continuity;
* the wrong-path replay map, and phantom-load cache/predictor pollution
  after mispredicted branches (a one-line approximation of the detailed
  wrong-path replay).

What is *not* warmed — anything cycle-stamped: cursors, rings, port books,
MSHRs, the register scoreboard. A checkpoint taken here rebases the clock
to zero; ``snapshot`` therefore writes store-window records with zeroed
cycles (invisible to forwarding/violation — the warmed store's data is
semantically "already in the cache" — and imposing no wait-edge delay) and
clears the hierarchy's in-flight MSHRs.

The warmer advances several times faster than detailed simulation (the
``benchmarks/sampling_speedup.py`` harness measures the ratio end to end),
which is the entire budget the sampled pipeline spends on coverage.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import CoreConfig
from repro.core.lsq import StoreRecord, StoreWindow
from repro.core.pipeline import PipelineStats
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
from repro.sampling.state import MachineState, component_digests


class FunctionalWarmer:
    """Fast-forwards a trace, warming architectural state only.

    One warmer makes one ascending pass over one trace; ``advance(until)``
    moves the cursor forward and ``snapshot()`` captures a functional
    :class:`~repro.sampling.state.MachineState` at the current op index.
    The sampled scheduler snapshots once per representative interval on a
    single pass — snapshots pickle the live tree, so warming continues
    unaffected afterwards.
    """

    def __init__(
        self,
        trace: Trace,
        predictor: MDPredictor,
        config: Optional[CoreConfig] = None,
        branch_predictor: Optional[BranchPredictor] = None,
    ) -> None:
        self.trace = trace
        self.config = config or CoreConfig()
        self.predictor = predictor
        self.branch_predictor = branch_predictor or TAGEPredictor()
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        self.history = GlobalHistory()
        self.window = StoreWindow(capacity=self.config.sq_entries + 32)
        self.next_index = 0
        self.load_count = 0
        self.store_count = 0
        self.last_fetch_line = -1
        self.wrong_path_after = {}
        self._wrong_path_depth = self.config.wrong_path_depth
        # Transient hand-off records, same reuse discipline as the loop.
        self._load_info = LoadDispatchInfo(
            pc=0, seq=0, hist_snapshot=0, store_count=0, history=self.history
        )
        self._store_info = StoreDispatchInfo(
            pc=0, seq=0, hist_snapshot=0, store_number=0, history=self.history
        )

    # ------------------------------------------------------------- per-op --

    def _warm_load(self, op, index: int, snapshot: int) -> None:
        predictor = self.predictor
        window = self.window
        mem = op.mem
        store_count = self.store_count
        self.hierarchy.load_access(op.pc, mem.address, index)

        candidates = window.candidates(mem.address, mem.size)
        truth = candidates[-1] if candidates else None

        info = self._load_info
        info.pc = op.pc
        info.seq = index
        info.hist_snapshot = snapshot
        info.store_count = store_count
        info.oracle_store_number = truth.store_number if truth is not None else None
        info.oracle_multi_store = False
        prediction = predictor.on_load_dispatch(info)

        # Resolve the prediction against the window the same way the timing
        # loop does, to decide whether it covers the truth store.
        predicted_number = None
        covered = False
        if prediction.is_dependence:
            if prediction.wait_all_older:
                covered = truth is not None
                if truth is not None:
                    predicted_number = truth.store_number
            for distance in prediction.distances:
                target = window.by_number(store_count - 1 - distance)
                if target is not None:
                    if predicted_number is None:
                        predicted_number = target.store_number
                    if truth is not None and target.store_number == truth.store_number:
                        covered = True
            for seq in prediction.store_seqs:
                target = window.by_seq(seq)
                if target is not None:
                    if predicted_number is None:
                        predicted_number = target.store_number
                    if truth is not None and target.store_number == truth.store_number:
                        covered = True

        violated = truth is not None and not covered
        if violated:
            predictor.on_violation(
                ViolationInfo(
                    load_pc=op.pc,
                    load_seq=index,
                    load_snapshot=snapshot,
                    load_store_count=store_count,
                    store_pc=truth.pc,
                    store_seq=truth.seq,
                    store_snapshot=truth.hist_snapshot,
                    store_number=truth.store_number,
                    history=self.history,
                )
            )
        predictor.on_load_commit(
            LoadCommitInfo(
                pc=op.pc,
                seq=index,
                hist_snapshot=snapshot,
                store_count=store_count,
                prediction=prediction,
                predicted_store_number=predicted_number,
                actual_store_number=truth.store_number if truth is not None else None,
                waited_correct=prediction.is_dependence and covered,
                false_positive=prediction.is_dependence and not covered,
                violated=violated,
                history=self.history,
            )
        )
        self.load_count += 1

    def _warm_store(self, op, index: int, snapshot: int) -> None:
        info = self._store_info
        info.pc = op.pc
        info.seq = index
        info.hist_snapshot = snapshot
        info.store_number = self.store_count
        self.predictor.on_store_dispatch(info)
        mem = op.mem
        # Zeroed cycles: under a rebased (cycle-0) clock this store's data is
        # semantically already in memory — invisible to forwarding/violation
        # checks (drain <= exec) and a no-op wait-edge (addr_ready - 1 < 0) —
        # while keeping window population and number/seq lookups warm.
        self.window.append(
            StoreRecord(
                seq=index,
                pc=op.pc,
                address=mem.address,
                size=mem.size,
                store_number=self.store_count,
                addr_ready=0,
                exec_cycle=0,
                drain_cycle=0,
                hist_snapshot=snapshot,
            )
        )
        self.store_count += 1

    def _warm_wrong_path(self, start_index: int, depth: int, index: int) -> None:
        """Phantom loads after a misprediction: cache + predictor pollution."""
        trace = self.trace
        info = self._load_info
        end = min(len(trace), start_index + depth)
        for phantom_index in range(start_index, end):
            op = trace[phantom_index]
            if not op.is_load:
                continue
            self.hierarchy.load_access(op.pc, op.mem.address, index)
            info.pc = op.pc
            info.seq = -phantom_index - 1
            info.hist_snapshot = self.history.snapshot()
            info.store_count = self.store_count
            info.oracle_store_number = None
            info.oracle_multi_store = False
            self.predictor.on_load_dispatch(info)

    # ------------------------------------------------------------ driving --

    def advance(self, until: Optional[int] = None) -> int:
        """Warm ops up to (but excluding) index ``until``; returns the cursor."""
        trace = self.trace
        total = len(trace)
        stop = total if until is None else min(until, total)
        start = self.next_index
        if stop <= start:
            return start

        hierarchy = self.hierarchy
        history = self.history
        observe = self.branch_predictor.observe
        snapshot_of = history.snapshot
        wrong_path_depth = self._wrong_path_depth
        wrong_path_after = self.wrong_path_after
        load_kind = OpKind.LOAD
        store_kind = OpKind.STORE
        branch_kind = OpKind.BRANCH

        for index in range(start, stop):
            op = trace[index]
            fetch_line = op.pc >> 6
            if fetch_line != self.last_fetch_line:
                self.last_fetch_line = fetch_line
                hierarchy.fetch_access(op.pc, index)
            kind = op.kind
            if kind is load_kind:
                self._warm_load(op, index, snapshot_of())
            elif kind is store_kind:
                self._warm_store(op, index, snapshot_of())
            elif kind is branch_kind:
                branch = op.branch
                mispredicted = observe(op.pc, branch.kind, branch.taken, branch.target)
                if wrong_path_depth:
                    if mispredicted:
                        wrong_index = wrong_path_after.get((op.pc, not branch.taken))
                        if wrong_index is not None:
                            self._warm_wrong_path(wrong_index, wrong_path_depth, index)
                    wrong_path_after.setdefault((op.pc, branch.taken), index + 1)
                history.record(op.pc, branch)
        self.next_index = stop
        return stop

    def snapshot(self) -> MachineState:
        """Capture a functional checkpoint at the current op index.

        The returned tree aliases the warmer's live objects — encode it
        (which pickles a copy) before calling ``advance`` again.
        """
        self.hierarchy.reset_transients()  # MSHRs are cycle-stamped: drop them
        return MachineState(
            mode="functional",
            trace_name=self.trace.name,
            trace_len=len(self.trace),
            op_index=self.next_index,
            total=len(self.trace),
            warmup_ops=0,
            config=self.config,
            predictor=self.predictor,
            branch_predictor=self.branch_predictor,
            hierarchy=self.hierarchy,
            history=self.history,
            stats=PipelineStats(),
            checker_state=None,
            run_state={
                "window": self.window,
                "load_count": self.load_count,
                "store_count": self.store_count,
                "wrong_path_after": self.wrong_path_after,
            },
            digests=component_digests(self.history, self.hierarchy, self.predictor),
        )
