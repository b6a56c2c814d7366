"""The batch backend's shared trace preparation and fused per-cell engine.

The batch backend exploits one structural fact about the timing model: with
the default front end (a fresh TAGE per run, ``wrong_path_depth == 0``), the
branch predictor and the global branch history observe *only the committed
branch stream in program order* — a pure function of the trace, independent
of every per-cell scheduling decision. So for a group of cells sharing one
trace, :class:`TracePrep` runs that front end **once**: it decodes the trace
into NumPy structured arrays, derives the per-op fields the scheduling loop
needs (history snapshots, fetch-line changes, store numbers) with vectorized
passes, and replays the branch stream through one shared TAGE + history log,
capturing the per-branch mispredict flags every cell will see.

:func:`run_fused_cell` then simulates one cell against the shared decode
with a fused program-order loop: the same scheduling math as
:mod:`repro.core.stages` — width cursors, occupancy rings, port pools, the
store window, load disambiguation, violation squash + replay — inlined into
one function, with statistics accumulated in local integers instead of probe
events and the predictor driven through its standard hook surface
(``on_load_dispatch`` / ``on_store_dispatch`` / ``on_violation`` /
``on_load_commit``). Bit-identity with the reference interpreter is the
contract (enforced per predictor by ``tests/core/test_hot_path_identity.py``);
every scheduling expression below is a transcription of the corresponding
stage code, and comments call out the few deliberate event-object shortcuts
(all observationally equivalent because the reference bus has no default
subscribers for those events).

Per-cell state stays per-cell: cycle cursors, caches (MSHR cycle stamps),
the register scoreboard, the store window, predictor tables and statistics
are all rebuilt per cell. Only the trace decode, the history log and the
front-end outcome flags are shared — and those are read-only after prep.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.config import CoreConfig
from repro.core.context import StoreWindow, _PortPool
from repro.core.lsq import ForwardKind, StoreRecord, multi_store_suppliers, resolve_load
from repro.core.pipeline import PipelineStats
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
from repro.sim.backends._numpy import require_numpy
from repro.sim.intervals import IntervalWindow

#: Plan record codes (first tuple element of every per-op plan entry).
LOAD, STORE, BRANCH, OTHER = 0, 1, 2, 3

#: Structured-array kind codes, in OpKind declaration order.
KIND_CODES = {kind: code for code, kind in enumerate(OpKind)}


class TracePrep:
    """Shared, read-only per-trace preparation for a batch of cells.

    ``ops`` is the canonical decode: one NumPy structured array holding the
    scalar fields of every micro-op plus the derived per-op values
    (``snapshot``, ``fetch_changed``, ``store_number``, ``mispredicted``).
    Variable-length register tuples cannot live in a structured array and
    stay in parallel Python lists. ``plan`` is the hot-loop form: one small
    tuple per op, shaped per kind, with every value a plain Python scalar
    (NumPy scalars are poison in a scalar scheduling loop).
    """

    __slots__ = (
        "trace",
        "ops",
        "history",
        "plan",
        "branch_count",
        "_kernel_cache",
    )

    def __init__(self, trace: Trace) -> None:
        np = require_numpy()
        self.trace = trace
        self._kernel_cache: dict = {}
        n = len(trace)

        kinds = [0] * n
        pcs = [0] * n
        addrs = [-1] * n
        sizes = [0] * n
        dsts = [-1] * n
        srcs: List[tuple] = [()] * n
        sdata: List[tuple] = [()] * n
        branches = []  # (index, BranchInfo)
        kind_codes = KIND_CODES
        for index, op in enumerate(trace):
            kinds[index] = kind_codes[op.kind]
            pcs[index] = op.pc
            if op.mem is not None:
                addrs[index] = op.mem.address
                sizes[index] = op.mem.size
            if op.dst_reg is not None:
                dsts[index] = op.dst_reg
            srcs[index] = op.src_regs
            if op.branch is not None:
                branches.append((index, op.branch))
            elif op.store_data_regs:
                sdata[index] = op.store_data_regs

        kind_arr = np.asarray(kinds, dtype=np.int8)
        pc_arr = np.asarray(pcs, dtype=np.int64)
        is_branch = kind_arr == kind_codes[OpKind.BRANCH]
        is_store = kind_arr == kind_codes[OpKind.STORE]
        # History snapshot before op i == branches committed before i (the
        # master log appends exactly one record per branch, any kind).
        snapshot_arr = np.cumsum(is_branch) - is_branch
        # Store number of op i (stores only) == stores committed before i.
        store_number_arr = np.cumsum(is_store) - is_store
        # Dispatch fetches a new line whenever the 64-byte line changes
        # between consecutive ops (``last_fetch_line`` always holds the
        # previous op's line); the first op always fetches (line init -1).
        lines = pc_arr >> 6
        fetch_arr = np.empty(n, dtype=bool)
        fetch_arr[0] = True
        np.not_equal(lines[1:], lines[:-1], out=fetch_arr[1:])

        # ---- the shared front-end pass: one TAGE + history per trace -----
        # Every cell of a covered group uses the default front end, which
        # sees the same committed branch stream; flags are cell-invariant.
        mispredict_arr = np.zeros(n, dtype=bool)
        history = GlobalHistory()
        observe = TAGEPredictor().observe
        record = history.record
        for index, info in branches:
            mispredict_arr[index] = observe(pcs[index], info.kind, info.taken,
                                            info.target)
            record(pcs[index], info)
        self.history = history
        self.branch_count = len(branches)

        self.ops = np.zeros(
            n,
            dtype=[
                ("pc", np.int64),
                ("kind", np.int8),
                ("addr", np.int64),
                ("size", np.int16),
                ("dst", np.int32),
                ("snapshot", np.int64),
                ("store_number", np.int64),
                ("fetch_changed", np.bool_),
                ("mispredicted", np.bool_),
            ],
        )
        self.ops["pc"] = pc_arr
        self.ops["kind"] = kind_arr
        self.ops["addr"] = np.asarray(addrs, dtype=np.int64)
        self.ops["size"] = np.asarray(sizes, dtype=np.int16)
        self.ops["dst"] = np.asarray(dsts, dtype=np.int32)
        self.ops["snapshot"] = snapshot_arr
        self.ops["store_number"] = store_number_arr
        self.ops["fetch_changed"] = fetch_arr
        self.ops["mispredicted"] = mispredict_arr

        # ---- hot-loop plan: plain-scalar tuples, shaped per kind ---------
        snapshots = snapshot_arr.tolist()
        fetches = fetch_arr.tolist()
        mispredicts = mispredict_arr.tolist()
        load_code = kind_codes[OpKind.LOAD]
        store_code = kind_codes[OpKind.STORE]
        branch_code = kind_codes[OpKind.BRANCH]
        plan: List[tuple] = [()] * n
        for index in range(n):
            code = kinds[index]
            pc = pcs[index]
            fetch = fetches[index]
            snapshot = snapshots[index]
            if code == load_code:
                dst = dsts[index]
                plan[index] = (
                    LOAD, pc, fetch, snapshot, addrs[index], sizes[index],
                    dst if dst >= 0 else None, srcs[index],
                )
            elif code == store_code:
                plan[index] = (
                    STORE, pc, fetch, snapshot, addrs[index], sizes[index],
                    srcs[index], sdata[index],
                )
            elif code == branch_code:
                plan[index] = (
                    BRANCH, pc, fetch, snapshot, mispredicts[index], srcs[index],
                )
            else:
                dst = dsts[index]
                plan[index] = (
                    OTHER, pc, fetch, snapshot, trace[index].kind,
                    dst if dst >= 0 else None, srcs[index],
                )
        self.plan = plan

    def __len__(self) -> int:
        return len(self.plan)

    def kernel_plan(self, key: str, build: Callable[["TracePrep"], object]):
        """Memoized per-trace kernel precomputation (see :mod:`repro.mdp.kernels`)."""
        value = self._kernel_cache.get(key)
        if value is None:
            value = build(self)
            self._kernel_cache[key] = value
        return value


#: ``MDPredictor`` base hooks, for the "predictor doesn't override it" fast
#: paths: constructing a ``LoadCommitInfo`` for a no-op hook is pure waste.
_BASE_ON_LOAD_COMMIT = MDPredictor.on_load_commit
_BASE_ON_STORE_DISPATCH = MDPredictor.on_store_dispatch


def run_fused_cell(
    prep: TracePrep,
    config: CoreConfig,
    predictor: MDPredictor,
    warmup_ops: int,
    interval_cadence: int = 0,
    on_window: Optional[Callable[[IntervalWindow], None]] = None,
) -> Tuple[PipelineStats, List[IntervalWindow]]:
    """Simulate one cell against the shared decode; returns (stats, windows).

    ``interval_cadence`` > 0 activates the interval accumulator (the fused
    equivalent of :class:`~repro.sim.intervals.IntervalMetricsProbe` driven
    by the commit stage's boundary logic); ``on_window`` fires per completed
    window, for heartbeat streaming. Windows are returned either way.
    """
    plan = prep.plan
    total = len(plan)
    if warmup_ops < 0 or warmup_ops >= total:
        raise ValueError(f"warmup_ops must be in [0, {total}), got {warmup_ops}")

    # ---- per-cell structural state (mirrors SimContext.__init__) ---------
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

    hierarchy = MemoryHierarchy(config.hierarchy)
    fetch_access = hierarchy.fetch_access
    load_access = hierarchy.load_access

    commit_ring = [0] * rob
    issue_ring = [0] * iq
    load_ring = [0] * lq
    store_ring = [0] * sq
    reg_ready = [0] * config.num_arch_regs
    window = StoreWindow(capacity=sq + 32)
    window_append = window.append
    window_by_number = window.by_number
    window_by_seq = window.by_seq
    window_candidates = window.candidates
    window_all = window.all_records

    ports = {kind: _PortPool(count) for kind, count in config.ports.items()}
    allocate_load_port = ports[OpKind.LOAD].allocate
    allocate_store_port = ports[OpKind.STORE].allocate
    allocate_branch_port = ports[OpKind.BRANCH].allocate
    exec_by_kind = {}
    for kind, latency in config.latencies.items():
        pool = ports.get(kind)
        if pool is None:
            continue
        busy = latency if kind is OpKind.DIV else 1  # DIV unpipelined
        exec_by_kind[kind] = (pool.allocate, latency, busy)

    # Width cursors, inlined as scalars (the _WidthCursor allocate dance).
    disp_cycle = 0
    disp_count = 0
    com_cycle = 0
    com_count = 0
    drain_cycle_cur = 0
    drain_count = 0

    load_count = 0
    store_count = 0
    frontend_ready = 0
    last_commit = 0
    warmup_end_cycle = 0

    history = prep.history
    predict_load = predictor.on_load_dispatch
    trains_at_commit = predictor.trains_at_commit
    on_violation = predictor.on_violation
    skip_commit_info = type(predictor).on_load_commit is _BASE_ON_LOAD_COMMIT
    on_load_commit = predictor.on_load_commit
    skip_store_predict = (
        type(predictor).on_store_dispatch is _BASE_ON_STORE_DISPATCH
    )
    predict_store = predictor.on_store_dispatch
    load_info = LoadDispatchInfo(
        pc=0, seq=0, hist_snapshot=0, store_count=0, history=history
    )
    store_info = StoreDispatchInfo(
        pc=0, seq=0, hist_snapshot=0, store_number=0, history=history
    )

    # ---- inline statistics accumulators (StatsProbe equivalents) ---------
    committed_uops = 0
    loads = stores = branches = 0
    branch_mispredicts = 0
    violations = false_positives = correct_waits = 0
    dependences_predicted = 0
    forwarded_loads = partial_loads = cache_loads = 0
    multi_store_loads = multi_store_inorder = 0
    reexecuted_uops = 0

    # ---- interval accumulator (IntervalMetricsProbe equivalents) ---------
    windows: List[IntervalWindow] = []
    iv_committed = 0
    iv_violations = 0
    iv_mispredicts = 0
    iv_residency = 0
    iv_last_op = -1
    interval_index = 0
    interval_op_count = 0
    interval_start_cycle = 0
    interval_start_op = warmup_ops

    for index in range(total):
        rec = plan[index]
        code = rec[0]
        pc = rec[1]
        measuring = index >= warmup_ops

        # ---- dispatch (DispatchStage.process) ----------------------------
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

            # ---- load (MemoryStage.process) ------------------------------
            address = rec[4]
            size = rec[5]
            candidates = window_candidates(address, size)

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
                        if oracle_multi and measuring:
                            multi_store_loads += 1
                            execs = [s.exec_cycle for s in suppliers]
                            if execs == sorted(execs):
                                multi_store_inorder += 1

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

                issue = allocate_load_port(issue_ready)
                exec_cycle = issue + 1  # AGU
                if candidates:
                    resolution = resolve_load(
                        candidates, address, size, exec_cycle, l1d_latency,
                        fwd_filter,
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
                else:
                    # No overlapping store in the window: resolve_load is
                    # guaranteed to return CACHE with no violation, so skip
                    # the resolution object entirely.
                    resolution = None
                    complete = load_access(pc, address, exec_cycle)
                    if measuring:
                        cache_loads += 1

                # allocate_commit(max(complete + 1, 0)); cycles are >= 0.
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

                was_violated = True
                training_store = (
                    resolution.violation_store_commit
                    if trains_at_commit
                    else resolution.violation_store_detect
                )
                on_violation(
                    ViolationInfo(
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
                )
                if measuring:
                    violations += 1
                    iv_violations += 1

                # ---- squash + replay (SquashUnit.squash) -----------------
                if eager_squash:
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
                if measuring:
                    wasted = squash_cycle - attempt_dispatch
                    if wasted > 0:
                        cost = dispatch_width * wasted
                        reexecuted_uops += cost if cost < rob else rob
                attempt_dispatch = replay_dispatch
                attempt_ready = replay_dispatch + d2i
                if ready_to_issue > attempt_ready:
                    attempt_ready = ready_to_issue

            # ---- commit-time feedback --------------------------------
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
            if not skip_commit_info:
                on_load_commit(
                    LoadCommitInfo(
                        pc=pc,
                        seq=index,
                        hist_snapshot=snapshot,
                        store_count=store_count,
                        prediction=prediction,
                        predicted_store_number=(
                            wait_targets[0].store_number if wait_targets else None
                        ),
                        actual_store_number=(
                            actual.store_number if actual else None
                        ),
                        waited_correct=waited_correct,
                        false_positive=false_positive,
                        violated=was_violated,
                        history=history,
                    )
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

            # ---- store (StoreStage.process) ------------------------------
            data_operands = 0
            for reg in rec[7]:
                ready = reg_ready[reg]
                if ready > data_operands:
                    data_operands = ready
            agu_ready = ready_to_issue
            if skip_store_predict:
                # Base-class on_store_dispatch returns NO_DEPENDENCE without
                # reading the info record: skip both record fill and call.
                pass
            else:
                sinfo = store_info
                sinfo.pc = pc
                sinfo.seq = index
                sinfo.hist_snapshot = snapshot
                sinfo.store_number = store_count
                store_pred = predict_store(sinfo)
                if store_pred.is_dependence:
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

            window_append(
                StoreRecord(
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
            )
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

            # ---- branch (BranchStage.process) ----------------------------
            # The prediction outcome comes from the shared front-end pass;
            # history recording happened there too.
            issue = allocate_branch_port(ready_to_issue)
            complete = issue + branch_latency
            if rec[4]:  # mispredicted
                if measuring:
                    branch_mispredicts += 1
                    iv_mispredicts += 1
                redirect = complete + redirect_penalty
                if redirect > frontend_ready:
                    frontend_ready = redirect

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

            # ---- ALU / MUL / DIV / FP / NOP (ExecuteStage.process) -------
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

        # ---- retire (CommitStage.retire) ---------------------------------
        commit_ring[index % rob] = commit_cycle
        issue_ring[index % iq] = issue
        if commit_cycle > last_commit:
            last_commit = commit_cycle
        if measuring:
            committed_uops += 1
            if interval_cadence:
                iv_committed += 1
                iv_residency += commit_cycle - dispatch_cycle
                iv_last_op = index
                interval_op_count += 1
                if interval_op_count >= interval_cadence:
                    end_cycle = last_commit
                    cycles = end_cycle - interval_start_cycle
                    win = IntervalWindow(
                        index=interval_index,
                        start_op=interval_start_op,
                        end_op=index,
                        cycles=cycles if cycles > 1 else 1,
                        committed_uops=iv_committed,
                        violations=iv_violations,
                        branch_mispredicts=iv_mispredicts,
                        rob_residency=iv_residency,
                        partial=False,
                    )
                    windows.append(win)
                    if on_window is not None:
                        on_window(win)
                    iv_committed = iv_violations = iv_mispredicts = 0
                    iv_residency = 0
                    interval_index += 1
                    interval_op_count = 0
                    interval_start_cycle = end_cycle
                    interval_start_op = index + 1
        elif index == warmup_ops - 1:
            warmup_end_cycle = last_commit
            interval_start_cycle = last_commit

    # ---- finish (RunFinished handlers) -----------------------------------
    if interval_cadence and iv_committed:
        # The trailing partial window, exactly as IntervalMetricsProbe cuts
        # it: the start cycle is recomputed from the (clamped) window sum.
        start_op = windows[-1].end_op + 1 if windows else warmup_ops
        start_cycle = warmup_end_cycle + sum(w.cycles for w in windows)
        cycles = last_commit - start_cycle
        win = IntervalWindow(
            index=len(windows),
            start_op=start_op,
            end_op=iv_last_op,
            cycles=cycles if cycles > 1 else 1,
            committed_uops=iv_committed,
            violations=iv_violations,
            branch_mispredicts=iv_mispredicts,
            rob_residency=iv_residency,
            partial=True,
        )
        windows.append(win)
        if on_window is not None:
            on_window(win)

    stats = PipelineStats(
        committed_uops=committed_uops,
        cycles=max(1, last_commit - warmup_end_cycle),
        loads=loads,
        stores=stores,
        branches=branches,
        branch_mispredicts=branch_mispredicts,
        violations=violations,
        false_positives=false_positives,
        correct_waits=correct_waits,
        dependences_predicted=dependences_predicted,
        forwarded_loads=forwarded_loads,
        partial_loads=partial_loads,
        cache_loads=cache_loads,
        multi_store_loads=multi_store_loads,
        multi_store_inorder=multi_store_inorder,
        reexecuted_uops=reexecuted_uops,
        wrong_path_loads=0,
        wrong_path_trainings=0,
    )
    return stats, windows
