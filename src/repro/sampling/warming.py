"""Functional warming: architectural fast-forward without the timing model.

The sampled-simulation methodology (SMARTS/SimPoint lineage) needs machine
state at an interval's start that *remembers the whole prefix* — cold caches
and cold predictor tables at op 10M would bias every measurement — but it
cannot afford to pay detailed-simulation cost for the prefix. Functional
warming is the standard answer: walk every op of the prefix updating only
the long-lived architectural structures, skipping all cycle accounting.

What is warmed mirrors exactly what the detailed model touches, split into
two passes over the trace, each with its own cursor. The split follows what
each structure depends on.

* The **machine pass** (:class:`MachinePass`) warms state that depends on
  the trace alone: the cache hierarchy — one ``fetch_access`` per
  fetch-line change (the detailed loop's filter) and one ``load_access``
  per load, which also trains the stride prefetcher — and
  ``reset_transients()`` at each pause. Stores never touch the hierarchy,
  same as the detailed model (store data drains through the SB off the
  timing path). It also warms the front end when that is the default TAGE
  and wrong-path replay is off.
* The **predictor pass** (:class:`PredictorPass`) warms what PHAST's
  context-sensitive prediction reads in program order: the global history
  log, the in-flight store window, the SQ allocation cursors
  (``load_count``/``store_count`` — the distance-to-store-number conversion
  in the detailed model depends on cursor continuity) and the memory
  dependence predictor. The MDP gets the dispatch hooks for every load and
  store, plus *approximate* training: the truth store is the youngest
  overlapping store still in the window, a missed truth trains
  ``on_violation``, and every load delivers ``on_load_commit`` feedback —
  the same hooks the detailed loop calls, minus cycle-accurate issue
  timing. A front-end override stays here too, since it may share state
  with the MDP (``OmniPredictor.branch_view`` does).
* With ``wrong_path_depth > 0`` phantom loads after a mispredicted branch
  pollute both the caches and the MDP (a one-line approximation of the
  detailed wrong-path replay), so they need branch outcomes. The front end
  and the wrong-path replay map then stay in the predictor pass, which
  hands the machine pass the phantom-load starts of each stretch it warms.
  The machine pass runs the same code in every case.

:class:`FunctionalWarmer` drives both passes in-process: the predictor
pass up to a stop, then the machine pass. When the machine pass needs
nothing from the predictor pass (``wrong_path_depth == 0``), the sampled
scheduler may instead run it in a forked :class:`MachineHelper` on another
core; the helper streams the machine state of each pause back to the
parent, which assembles the same checkpoint from it.

What is *not* warmed — anything cycle-stamped: cursors, rings, port books,
MSHRs, the register scoreboard. A checkpoint taken here rebases the clock
to zero; ``snapshot`` therefore writes store-window records with zeroed
cycles (invisible to forwarding/violation — the warmed store's data is
semantically "already in the cache" — and imposing no wait-edge delay) and
clears the hierarchy's in-flight MSHRs.
"""

from __future__ import annotations

import traceback
from typing import List, Optional, Sequence, Tuple

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

#: ``(branch index, first wrong-path op index)`` of one mispredicted branch.
Phantom = Tuple[int, int]

#: The machine pass's state at a pause: ``(config, hierarchy, front end)``,
#: the front end ``None`` when the predictor pass warms it. One tuple, so
#: that pickled together each level's ``CacheConfig`` stays shared with
#: ``config.hierarchy``.
MachineParts = Tuple[CoreConfig, MemoryHierarchy, Optional[BranchPredictor]]


def machine_warms_front_end(
    config: CoreConfig, branch_predictor: Optional[BranchPredictor]
) -> bool:
    """Whether the machine pass warms the front end: the default TAGE with
    wrong-path replay off. Otherwise the predictor pass warms it."""
    return branch_predictor is None and not config.wrong_path_depth


class MachinePass:
    """Warms the memory hierarchy, and the front end when it owns one."""

    def __init__(
        self,
        trace: Trace,
        config: CoreConfig,
        front_end: Optional[BranchPredictor] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.front_end = front_end
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.next_index = 0
        self.last_fetch_line = -1

    def advance(self, until: int, phantoms: Sequence[Phantom] = ()) -> None:
        """Warm ops up to (but excluding) ``until``.

        ``phantoms`` are the stretch's mispredicted branches in program
        order; each one's wrong-path loads access the caches right after
        the branch, as in the single loop.
        """
        depth = self.config.wrong_path_depth
        ops = self.trace.ops
        load_access = self.hierarchy.load_access
        for branch_index, start in phantoms:
            self._walk(branch_index + 1)
            for phantom_index in range(start, min(len(ops), start + depth)):
                op = ops[phantom_index]
                if op.kind is OpKind.LOAD:
                    load_access(op.pc, op.mem.address, branch_index)
        self._walk(until)

    def _walk(self, stop: int) -> None:
        start = self.next_index
        if stop <= start:
            return
        ops = self.trace.ops
        fetch_access = self.hierarchy.fetch_access
        load_access = self.hierarchy.load_access
        observe = self.front_end.observe if self.front_end is not None else None
        last_line = self.last_fetch_line
        load_kind = OpKind.LOAD
        branch_kind = OpKind.BRANCH
        for index in range(start, stop):
            op = ops[index]
            pc = op.pc
            line = pc >> 6
            if line != last_line:
                last_line = line
                fetch_access(pc, index)
            kind = op.kind
            if kind is load_kind:
                load_access(pc, op.mem.address, index)
            elif kind is branch_kind and observe is not None:
                branch = op.branch
                observe(pc, branch.kind, branch.taken, branch.target)
        self.last_fetch_line = last_line
        self.next_index = stop

    def pause(self, op_index: int) -> MachineParts:
        """The machine state at ``op_index``, with cycle-stamped MSHRs dropped.

        The parts alias the live objects: encode them before advancing.
        """
        if op_index != self.next_index:
            raise ValueError(
                f"machine pass is at op {self.next_index}, not {op_index}"
            )
        self.hierarchy.reset_transients()
        return self.config, self.hierarchy, self.front_end


class PredictorPass:
    """Warms the history, store window, SQ cursors, MDP and any override."""

    def __init__(
        self,
        trace: Trace,
        predictor: MDPredictor,
        config: CoreConfig,
        front_end: Optional[BranchPredictor] = None,
    ) -> None:
        self.trace = trace
        self.predictor = predictor
        self.front_end = front_end
        self.history = GlobalHistory()
        self.window = StoreWindow(capacity=config.sq_entries + 32)
        self.next_index = 0
        self.load_count = 0
        self.store_count = 0
        self.wrong_path_after = {}
        self._wrong_path_depth = config.wrong_path_depth
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

    def _warm_wrong_path(self, start_index: int) -> None:
        """Phantom loads after a misprediction: predictor pollution."""
        ops = self.trace.ops
        info = self._load_info
        end = min(len(ops), start_index + self._wrong_path_depth)
        for phantom_index in range(start_index, end):
            op = ops[phantom_index]
            if op.kind is not OpKind.LOAD:
                continue
            info.pc = op.pc
            info.seq = -phantom_index - 1
            info.hist_snapshot = self.history.snapshot()
            info.store_count = self.store_count
            info.oracle_store_number = None
            info.oracle_multi_store = False
            self.predictor.on_load_dispatch(info)

    # ------------------------------------------------------------ driving --

    def advance(self, until: int) -> List[Phantom]:
        """Warm ops up to (but excluding) ``until``.

        Returns the stretch's mispredicted branches that start a wrong path,
        for the machine pass; always empty with wrong-path replay off.
        """
        start = self.next_index
        if until <= start:
            return []
        ops = self.trace.ops
        history = self.history
        snapshot_of = history.snapshot
        record = history.record
        warm_load = self._warm_load
        warm_store = self._warm_store
        observe = self.front_end.observe if self.front_end is not None else None
        wrong_path = self._wrong_path_depth > 0
        wrong_path_after = self.wrong_path_after
        phantoms: List[Phantom] = []
        load_kind = OpKind.LOAD
        store_kind = OpKind.STORE
        branch_kind = OpKind.BRANCH

        for index in range(start, until):
            op = ops[index]
            kind = op.kind
            if kind is load_kind:
                warm_load(op, index, snapshot_of())
            elif kind is store_kind:
                warm_store(op, index, snapshot_of())
            elif kind is branch_kind:
                branch = op.branch
                if observe is not None:
                    mispredicted = observe(
                        op.pc, branch.kind, branch.taken, branch.target
                    )
                    if wrong_path:
                        if mispredicted:
                            wrong_index = wrong_path_after.get((op.pc, not branch.taken))
                            if wrong_index is not None:
                                self._warm_wrong_path(wrong_index)
                                phantoms.append((index, wrong_index))
                        wrong_path_after.setdefault((op.pc, branch.taken), index + 1)
                record(op.pc, branch)
        self.next_index = until
        return phantoms


class FunctionalWarmer:
    """Fast-forwards a trace, warming architectural state only.

    One warmer makes one ascending pass over one trace; ``advance(until)``
    moves the cursor forward and ``snapshot()`` captures a functional
    :class:`~repro.sampling.state.MachineState` at the current op index.
    The sampled scheduler snapshots once per representative interval on a
    single pass — snapshots pickle the live tree, so warming continues
    unaffected afterwards.

    ``machine`` replaces the in-process :class:`MachinePass`, e.g. with a
    :class:`MachineHelper` built for the same trace, config and override.
    """

    def __init__(
        self,
        trace: Trace,
        predictor: MDPredictor,
        config: Optional[CoreConfig] = None,
        branch_predictor: Optional[BranchPredictor] = None,
        machine=None,
    ) -> None:
        self.trace = trace
        config = config or CoreConfig()
        on_machine = machine_warms_front_end(config, branch_predictor)
        self.predictor_pass = PredictorPass(
            trace,
            predictor,
            config,
            None if on_machine else branch_predictor or TAGEPredictor(),
        )
        if machine is None:
            machine = MachinePass(trace, config, TAGEPredictor() if on_machine else None)
        self.machine = machine

    @property
    def next_index(self) -> int:
        return self.predictor_pass.next_index

    def advance(self, until: Optional[int] = None) -> int:
        """Warm ops up to (but excluding) index ``until``; returns the cursor."""
        total = len(self.trace)
        stop = total if until is None else min(until, total)
        if stop > self.next_index:
            self.machine.advance(stop, self.predictor_pass.advance(stop))
        return self.next_index

    def snapshot(self) -> MachineState:
        """Capture a functional checkpoint at the current op index.

        The returned tree aliases the warmer's live objects — encode it
        (which pickles a copy) before calling ``advance`` again.
        """
        config, hierarchy, front_end = self.machine.pause(self.next_index)
        warmed = self.predictor_pass
        return MachineState(
            mode="functional",
            trace_name=self.trace.name,
            trace_len=len(self.trace),
            op_index=self.next_index,
            total=len(self.trace),
            warmup_ops=0,
            config=config,
            predictor=warmed.predictor,
            branch_predictor=front_end if front_end is not None else warmed.front_end,
            hierarchy=hierarchy,
            history=warmed.history,
            stats=PipelineStats(),
            checker_state=None,
            run_state={
                "window": warmed.window,
                "load_count": warmed.load_count,
                "store_count": warmed.store_count,
                "wrong_path_after": warmed.wrong_path_after,
            },
            digests=component_digests(warmed.history, hierarchy, warmed.predictor),
        )


class MachineHelper:
    """The machine pass in a forked helper process, as a warmer's machine.

    The helper warms the hierarchy (and front end) over ``pauses``, which
    must be ascending, and streams one :data:`MachineParts` pickle per
    pause. It runs ahead of the parent on its own, so it takes only configs
    with wrong-path replay off, whose machine pass needs nothing from the
    predictor pass. ``context`` must be a fork context: the helper inherits
    the trace. Always ``close()`` it; that kills and joins a helper still
    running.
    """

    def __init__(
        self,
        trace: Trace,
        config: CoreConfig,
        branch_predictor: Optional[BranchPredictor],
        pauses: Sequence[int],
        context,
    ) -> None:
        if config.wrong_path_depth:
            raise ValueError(
                "the warming helper needs wrong_path_depth == 0, "
                f"got {config.wrong_path_depth}"
            )
        self._conn, child_conn = context.Pipe(duplex=False)
        self._process = context.Process(
            target=_machine_helper_main,
            args=(
                child_conn,
                self._conn,
                trace,
                config,
                machine_warms_front_end(config, branch_predictor),
                list(pauses),
            ),
            name="functional-warming helper",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _describe(self) -> str:
        return f"functional-warming helper (pid {self._process.pid})"

    def _lost(self, error: BaseException) -> RuntimeError:
        self._process.join(timeout=5)
        return RuntimeError(
            f"{self._describe()} exited with code {self._process.exitcode} "
            f"({type(error).__name__})"
        )

    def advance(self, until: int, phantoms: Sequence[Phantom] = ()) -> None:
        """Nothing to do: the helper warms ahead on its own."""

    def pause(self, op_index: int) -> MachineParts:
        try:
            tag, index, payload = self._conn.recv()
        except (EOFError, OSError) as error:
            raise self._lost(error) from None
        if tag == "error":
            raise RuntimeError(f"{self._describe()} failed:\n{payload}")
        if index != op_index:
            raise RuntimeError(
                f"{self._describe()} paused at op {index}, expected {op_index}"
            )
        return payload

    def close(self) -> None:
        if self._process.is_alive():
            self._process.kill()
        self._process.join()
        self._conn.close()


def _machine_helper_main(
    conn, parent_conn, trace: Trace, config: CoreConfig, front_end: bool, pauses
) -> None:
    """Helper process body: warm, and send the machine state at each pause."""
    parent_conn.close()
    try:
        machine = MachinePass(trace, config, TAGEPredictor() if front_end else None)
        for pause in pauses:
            machine.advance(pause)
            conn.send(("state", pause, machine.pause(pause)))
    except Exception:  # noqa: BLE001 — report; the parent raises
        conn.send(("error", None, traceback.format_exc()))
    finally:
        conn.close()
