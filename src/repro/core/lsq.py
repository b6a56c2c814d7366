"""Load/store queue semantics: forwarding, violations, and the FWD filter.

This module contains the *ordering logic* of the LQ/SQ/SB as pure functions
over store records, so it can be unit tested against the paper's Figure 3
scenarios directly:

* Fig. 3(a): load executes after both stores — forwarding from the youngest.
* Fig. 3(b): load executes between the stores — forward from the older one,
  squash when the younger resolves.
* Fig. 3(c): load forwards from the younger store, the *older* store resolves
  late — must NOT squash, but naive simulators do; the Sec. IV-A1 forwarding
  filter (compare the conflicting store's sequence number against the
  forwarder's) suppresses it.
* Fig. 3(d): load overtakes both stores — squash; at-commit training must
  learn the *youngest* store, at-detection training sees whichever store's
  address resolves first.

:class:`StoreWindow` holds the in-flight stores (SQ + SB) the loads
disambiguate against, indexed by address granule, store number and
sequence number.

Multi-store coverage (Sec. III-A, Fig. 4): when the youngest matching store
does not cover all the load's bytes, the load stalls until the overlapping
stores drain to the cache, and the analysis records whether the load's bytes
come from two or more distinct stores.
"""

from __future__ import annotations

import enum
from bisect import insort
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Sequence


class StoreRecord:
    """An in-flight store as the LSQ logic sees it.

    ``addr_ready`` is the cycle its address resolves (AGU done); ``exec_cycle``
    is when both address and data are available (the store has executed and
    can forward); ``drain_cycle`` is when it leaves the SB into the L1D, after
    which loads read its value from the cache.
    """

    __slots__ = (
        "seq",
        "pc",
        "address",
        "size",
        "store_number",
        "addr_ready",
        "exec_cycle",
        "drain_cycle",
        "hist_snapshot",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        address: int,
        size: int,
        store_number: int,
        addr_ready: int,
        exec_cycle: int,
        drain_cycle: int,
        hist_snapshot: int,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.address = address
        self.size = size
        self.store_number = store_number
        self.addr_ready = addr_ready
        self.exec_cycle = exec_cycle
        self.drain_cycle = drain_cycle
        self.hist_snapshot = hist_snapshot

    @property
    def end(self) -> int:
        return self.address + self.size

    def overlaps(self, address: int, size: int) -> bool:
        return self.address < address + size and address < self.end

    def covers(self, address: int, size: int) -> bool:
        return self.address <= address and address + size <= self.end

    def __repr__(self) -> str:
        return (
            f"StoreRecord(seq={self.seq}, pc={self.pc:#x}, "
            f"addr={self.address:#x}+{self.size}, addr_ready={self.addr_ready})"
        )


_by_seq_key = attrgetter("seq")


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


class ForwardKind(enum.Enum):
    """Where a load's data comes from."""

    CACHE = "cache"  # no matching resolved store: read the hierarchy
    FORWARD = "forward"  # full coverage by the youngest matching resolved store
    PARTIAL = "partial"  # partial coverage: stall until writers drain, then cache


@dataclass
class LoadResolution:
    """Outcome of disambiguating one executed load against the store window."""

    kind: ForwardKind
    forwarder: Optional[StoreRecord]
    data_ready: Optional[int]  # None for CACHE (the pipeline asks the hierarchy)
    violated: bool
    violation_store_commit: Optional[StoreRecord]  # youngest conflicting (program order)
    violation_store_detect: Optional[StoreRecord]  # first conflicting to resolve
    true_store: Optional[StoreRecord]  # youngest overlapping visible store overall
    multi_store: bool  # load bytes supplied by >= 2 distinct stores
    overlapping_visible: int  # count of overlapping stores in the window


def _visible_overlapping(
    stores: Sequence[StoreRecord], address: int, size: int, exec_cycle: int
) -> List[StoreRecord]:
    """Stores still in SQ/SB at ``exec_cycle`` that overlap the load's bytes."""
    return [
        store
        for store in stores
        if store.drain_cycle > exec_cycle and store.overlaps(address, size)
    ]


def multi_store_suppliers(
    overlapping: Sequence[StoreRecord], address: int, size: int
) -> List[StoreRecord]:
    """Distinct youngest-writers of the load's bytes, in program order.

    ``overlapping`` must be in program order (oldest first). These are the
    stores the load actually depends on — the population whose execution
    order the paper measures in Fig. 4.
    """
    suppliers: dict = {}
    for byte in range(address, address + size):
        # Scan youngest-first: the first store containing the byte supplies it.
        for store in reversed(overlapping):
            if store.address <= byte < store.end:
                suppliers[store.seq] = store
                break
    return [store for _, store in sorted(suppliers.items())]


def is_multi_store(
    overlapping: Sequence[StoreRecord], address: int, size: int
) -> bool:
    """True when >= 2 distinct stores are the youngest writer of some load byte."""
    if len(overlapping) < 2:
        return False
    return len(multi_store_suppliers(overlapping, address, size)) >= 2


def resolve_load(
    stores: Sequence[StoreRecord],
    address: int,
    size: int,
    exec_cycle: int,
    l1d_latency: int,
    forwarding_filter: bool,
    checker: Optional[object] = None,
) -> LoadResolution:
    """Disambiguate a load executing at ``exec_cycle`` against older stores.

    ``stores`` must contain only stores *older* than the load, in program
    order (oldest first). Returns timing and violation information; the
    caller handles cache access for :attr:`ForwardKind.CACHE`.

    ``checker`` optionally receives the resolution for validation (an
    :class:`repro.sim.invariants.InvariantChecker`, injected so this module
    stays import-cycle free); an inconsistent outcome raises
    ``SimInvariantError`` instead of silently skewing timing.
    """
    overlapping = _visible_overlapping(stores, address, size, exec_cycle)
    if not overlapping:
        resolution = LoadResolution(
            kind=ForwardKind.CACHE,
            forwarder=None,
            data_ready=None,
            violated=False,
            violation_store_commit=None,
            violation_store_detect=None,
            true_store=None,
            multi_store=False,
            overlapping_visible=0,
        )
        if checker is not None:
            checker.check_load_resolution(
                resolution, stores, address, size, exec_cycle, forwarding_filter
            )
        return resolution

    true_store = overlapping[-1]  # youngest in program order
    multi_store = is_multi_store(overlapping, address, size)
    resolved = [store for store in overlapping if store.addr_ready <= exec_cycle]
    unresolved = [store for store in overlapping if store.addr_ready > exec_cycle]

    forwarder: Optional[StoreRecord] = None
    kind = ForwardKind.CACHE
    data_ready: Optional[int] = None
    if resolved:
        candidate = resolved[-1]  # youngest resolved match forwards
        if candidate.covers(address, size):
            forwarder = candidate
            kind = ForwardKind.FORWARD
            # Forwarding shares the L1D pipeline latency (Sec. V); if the
            # store's data is not ready yet the load stalls for it.
            data_ready = max(exec_cycle, candidate.exec_cycle) + l1d_latency
        else:
            # Partial coverage: wait for every overlapping writer to drain,
            # then read the merged bytes from the cache.
            kind = ForwardKind.PARTIAL
            drain = max(store.drain_cycle for store in overlapping)
            data_ready = max(exec_cycle, drain) + l1d_latency

    violated = False
    violation_commit: Optional[StoreRecord] = None
    violation_detect: Optional[StoreRecord] = None
    if unresolved and kind is not ForwardKind.PARTIAL:
        # A store whose address resolves after the load executed conflicts.
        youngest_unresolved = unresolved[-1]
        if forwarding_filter and forwarder is not None:
            # Sec. IV-A1: ignore conflicts with stores older than the
            # forwarder — the load already holds the latest value (Fig. 3c).
            threatening = [s for s in unresolved if s.seq > forwarder.seq]
        else:
            threatening = list(unresolved)
        if threatening:
            violated = True
            violation_commit = threatening[-1]  # youngest in program order
            violation_detect = min(threatening, key=lambda s: (s.addr_ready, s.seq))

    resolution = LoadResolution(
        kind=kind,
        forwarder=forwarder,
        data_ready=data_ready,
        violated=violated,
        violation_store_commit=violation_commit,
        violation_store_detect=violation_detect,
        true_store=true_store,
        multi_store=multi_store,
        overlapping_visible=len(overlapping),
    )
    if checker is not None:
        checker.check_load_resolution(
            resolution, stores, address, size, exec_cycle, forwarding_filter
        )
    return resolution
