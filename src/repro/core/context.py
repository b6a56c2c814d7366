"""Shared per-run simulation state: cycle cursors, scoreboard, queues.

:class:`SimContext` is the blackboard the stage objects in
:mod:`repro.core.stages` collaborate through. It owns the structural model
of the core — dispatch/commit width cursors, execution-port slot tables,
the ROB/IQ/LQ/SQ occupancy rings, the register scoreboard and the in-flight
store window — plus the pre-resolved probe-bus emitters for the current
run (see :mod:`repro.core.probes`).

The context is rebuilt by ``Pipeline.run`` for every trace, so stages stay
stateless-between-runs and a ``Pipeline`` can be reused.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import CoreConfig
from repro.core.lsq import StoreRecord

_by_seq_key = attrgetter("seq")


class _WidthCursor:
    """Allocates slots of at most ``width`` events per cycle, in order."""

    __slots__ = ("width", "cycle", "count")

    def __init__(self, width: int) -> None:
        self.width = width
        self.cycle = 0
        self.count = 0

    def allocate(self, earliest: int) -> int:
        """Return the cycle of the next slot at or after ``earliest``."""
        if earliest > self.cycle:
            self.cycle = earliest
            self.count = 1
            return earliest
        if self.count < self.width:
            self.count += 1
            return self.cycle
        self.cycle += 1
        self.count = 1
        return self.cycle


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


class StoreWindow:
    """The in-flight store window (SQ + SB) with an address-granule index.

    The granule buckets are maintained *incrementally sorted by ``seq``*:
    the pipeline appends stores in program order, so insertion costs one
    comparison (out-of-order appends, used by unit tests, fall back to a
    bisect insert). The per-load ``candidates`` scan therefore never sorts
    in the common single-granule case — it copies a ready bucket.
    """

    __slots__ = ("_capacity", "_records", "_by_number", "_by_seq", "_by_granule")

    GRANULE_SHIFT = 3  # 8-byte granules; the generator emits aligned accesses

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._records: Deque[StoreRecord] = deque()
        self._by_number: Dict[int, StoreRecord] = {}
        self._by_seq: Dict[int, StoreRecord] = {}
        self._by_granule: Dict[int, List[StoreRecord]] = {}

    def append(self, record: StoreRecord) -> None:
        records = self._records
        records.append(record)
        self._by_number[record.store_number] = record
        self._by_seq[record.seq] = record
        by_granule = self._by_granule
        first = record.address >> self.GRANULE_SHIFT
        last = (record.end - 1) >> self.GRANULE_SHIFT
        seq = record.seq
        for granule in range(first, last + 1):
            bucket = by_granule.get(granule)
            if bucket is None:
                by_granule[granule] = [record]
            elif bucket[-1].seq <= seq:
                bucket.append(record)
            else:
                insort(bucket, record, key=_by_seq_key)
        while len(records) > self._capacity:
            self._evict(records.popleft())

    def _evict(self, record: StoreRecord) -> None:
        del self._by_number[record.store_number]
        self._by_seq.pop(record.seq, None)
        first = record.address >> self.GRANULE_SHIFT
        last = (record.end - 1) >> self.GRANULE_SHIFT
        for granule in range(first, last + 1):
            bucket = self._by_granule.get(granule)
            if bucket:
                # FIFO eviction: the evictee is always the bucket's oldest.
                if bucket[0] is record:
                    del bucket[0]
                else:
                    bucket.remove(record)
                if not bucket:
                    del self._by_granule[granule]

    def by_number(self, store_number: int) -> Optional[StoreRecord]:
        return self._by_number.get(store_number)

    def by_seq(self, seq: int) -> Optional[StoreRecord]:
        return self._by_seq.get(seq)

    def candidates(self, address: int, size: int) -> List[StoreRecord]:
        """Stores possibly overlapping [address, address+size), oldest first."""
        first = address >> self.GRANULE_SHIFT
        last = (address + size - 1) >> self.GRANULE_SHIFT
        if first == last:
            bucket = self._by_granule.get(first)
            # Buckets are seq-ordered by construction: no sort needed.
            return list(bucket) if bucket else []
        seen: Dict[int, StoreRecord] = {}
        for granule in range(first, last + 1):
            for record in self._by_granule.get(granule, ()):
                seen[record.seq] = record
        found = list(seen.values())
        found.sort(key=_by_seq_key)
        return found

    def all_records(self) -> List[StoreRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


class SimContext:
    """Everything one run's stages share: cursors, rings, scoreboard, window.

    Emitter attributes (``emit_*``) hold the pre-resolved probe-bus dispatch
    functions for the run, or ``None`` when the event type has no
    subscribers — the zero-subscriber fast path.
    """

    __slots__ = (
        # static references
        "config",
        "hierarchy",
        "history",
        "predictor",
        "branch_predictor",
        "checker",
        "trace",
        # config-derived scalars (cached off the config for the hot loop)
        "rob",
        "iq",
        "lq",
        "sq",
        "d2i",
        "l1d_latency",
        "fwd_filter",
        "wrong_path_depth",
        # structural state
        "dispatch",
        "commit",
        "drain",
        "ports",
        "commit_ring",
        "issue_ring",
        "load_ring",
        "store_ring",
        "reg_ready",
        "window",
        # progress counters
        "load_count",
        "store_count",
        "frontend_ready",
        "last_commit",
        "last_fetch_line",
        "wrong_path_after",
        "total",
        "warmup_ops",
        "warmup_end_cycle",
        # interval-boundary tracking (active only with an interval probe)
        "interval_ops",
        "interval_index",
        "interval_op_count",
        "interval_start_cycle",
        "interval_start_op",
        # pre-resolved probe emitters (None == no subscribers, skip emission)
        "emit_dispatched",
        "emit_load_resolved",
        "emit_multi_store",
        "emit_dep_predicted",
        "emit_violation",
        "emit_squash",
        "emit_wrong_path_load",
        "emit_store_recorded",
        "emit_branch_resolved",
        "emit_load_committed",
        "emit_op_committed",
        "emit_interval",
    )

    def __init__(
        self,
        config: CoreConfig,
        hierarchy,
        history,
        predictor,
        branch_predictor,
        checker,
        trace,
        total: int,
        warmup_ops: int,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.history = history
        self.predictor = predictor
        self.branch_predictor = branch_predictor
        self.checker = checker
        self.trace = trace

        self.rob = config.rob_entries
        self.iq = config.iq_entries
        self.lq = config.lq_entries
        self.sq = config.sq_entries
        self.d2i = config.dispatch_to_issue_latency
        self.l1d_latency = config.hierarchy.l1d.hit_latency
        self.fwd_filter = config.forwarding_filter
        self.wrong_path_depth = config.wrong_path_depth

        self.dispatch = _WidthCursor(config.dispatch_width)
        self.commit = _WidthCursor(config.commit_width)
        self.drain = _WidthCursor(config.store_drain_per_cycle)
        self.ports = {kind: _PortPool(count) for kind, count in config.ports.items()}

        self.commit_ring = [0] * self.rob  # commit cycle of the op `rob` back
        self.issue_ring = [0] * self.iq  # issue cycle of the op `iq` back
        self.load_ring = [0] * self.lq  # commit cycle of the load `lq` back
        self.store_ring = [0] * self.sq  # drain cycle of the store `sq` back
        self.reg_ready = [0] * config.num_arch_regs
        self.window = StoreWindow(capacity=self.sq + 32)

        self.load_count = 0
        self.store_count = 0
        self.frontend_ready = 0
        self.last_commit = 0
        self.last_fetch_line = -1
        # Wrong-path replay memory: (branch pc, outcome) -> trace index of
        # the first op that followed that outcome. On a misprediction, the
        # ops after the *other* outcome are replayed as phantoms.
        self.wrong_path_after: Dict[Tuple[int, bool], int] = {}
        self.total = total
        self.warmup_ops = warmup_ops
        self.warmup_end_cycle = 0

        self.interval_ops = 0
        self.interval_index = 0
        self.interval_op_count = 0
        self.interval_start_cycle = 0
        self.interval_start_op = warmup_ops

        self.emit_dispatched = None
        self.emit_load_resolved = None
        self.emit_multi_store = None
        self.emit_dep_predicted = None
        self.emit_violation = None
        self.emit_squash = None
        self.emit_wrong_path_load = None
        self.emit_store_recorded = None
        self.emit_branch_resolved = None
        self.emit_load_committed = None
        self.emit_op_committed = None
        self.emit_interval = None

    def bind(self, bus) -> None:
        """Pre-resolve every event type against ``bus`` (run-entry fast path)."""
        from repro.core import probes as p

        self.emit_dispatched = bus.resolve(p.OpDispatched)
        self.emit_load_resolved = bus.resolve(p.LoadResolved)
        self.emit_multi_store = bus.resolve(p.MultiStoreLoad)
        self.emit_dep_predicted = bus.resolve(p.DependencePredicted)
        self.emit_violation = bus.resolve(p.Violation)
        self.emit_squash = bus.resolve(p.Squash)
        self.emit_wrong_path_load = bus.resolve(p.WrongPathLoad)
        self.emit_store_recorded = bus.resolve(p.StoreRecorded)
        self.emit_branch_resolved = bus.resolve(p.BranchResolved)
        self.emit_load_committed = bus.resolve(p.LoadCommitted)
        self.emit_op_committed = bus.resolve(p.OpCommitted)
        hint = bus.interval_hint()
        if hint is not None and bus.has_subscribers(p.IntervalBoundary):
            self.interval_ops = hint
            self.emit_interval = bus.resolve(p.IntervalBoundary)
        else:
            self.interval_ops = 0
            self.emit_interval = None
