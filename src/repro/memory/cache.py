"""Set-associative cache with LRU replacement and MSHR-limited misses.

This is a *timing filter*: ``access`` maps (address, start_cycle) to the cycle
at which the data is available, updating tag state. Misses are forwarded to
the next level by the :class:`~repro.memory.hierarchy.MemoryHierarchy`; this
class only models its own array and miss-status-holding registers (MSHRs):

* a miss to a line that is already outstanding merges into the existing MSHR
  and completes when that fill returns;
* when all MSHRs are busy the request waits for the earliest MSHR to free,
  modelling the Table I 64-MSHR limit.

Each set is a plain list of its resident lines, most recently used first: a
hit or fill moves the line to the front and eviction pops the tail. That is
true LRU, and a set that has not filled all its ways yet simply has a
shorter list (an invalid way is always the LRU victim, so the first ``ways``
distinct lines of a set never evict anything).
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.bitops import ceil_log2, is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 4
    mshrs: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if not is_power_of_two(self.line_bytes):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.hit_latency <= 0 or self.mshrs <= 0 or self.ways <= 0:
            raise ValueError(f"{self.name}: latency/mshrs/ways must be positive")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def offset_bits(self) -> int:
        return ceil_log2(self.line_bytes)


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    mshr_stalls: int = 0
    prefetch_fills: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level. See module docstring for the timing contract."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Address-decomposition constants hoisted out of the config
        # properties: lookup() runs hundreds of thousands of times per
        # simulation and re-deriving log2/set-count per access is measurable.
        self._offset_bits = config.offset_bits
        self._num_sets = config.num_sets
        self._hit_latency = config.hit_latency
        self._ways = config.ways
        # set index -> resident lines, most recently used first. Sets
        # materialise on first fill: a short simulation visits a small
        # fraction of e.g. an L2's 16K sets, and eager allocation dominated
        # process start-up (it was the single largest cost of spawning a
        # sweep worker). An absent set behaves exactly like an empty one.
        self._sets: Dict[int, List[int]] = {}
        # line address -> cycle at which the outstanding fill completes
        self._mshrs: Dict[int, int] = {}
        # (ready, line) min-heap over the same fills. Entries are deleted
        # lazily: one whose line has since been re-registered with another
        # ready cycle (or already retired) is skipped when it surfaces.
        self._mshr_heap: List[Tuple[int, int]] = []

    # -- address decomposition ------------------------------------------------

    def line_address(self, address: int) -> int:
        return address >> self._offset_bits

    # -- tag array -------------------------------------------------------------

    def probe(self, address: int) -> bool:
        """Tag check without any state change."""
        line = address >> self._offset_bits
        lines = self._sets.get(line % self._num_sets)
        return lines is not None and line in lines

    def fill(self, address: int) -> None:
        """Install the line holding ``address``, evicting the LRU line."""
        line = address >> self._offset_bits
        index = line % self._num_sets
        lines = self._sets.get(index)
        if lines is None:
            self._sets[index] = [line]
            return
        if line in lines:
            lines.remove(line)
        elif len(lines) == self._ways:
            lines.pop()
        lines.insert(0, line)

    # -- MSHR handling ----------------------------------------------------------

    def _prune_mshrs(self, cycle: int) -> None:
        """Retire every fill whose ready cycle is at or before ``cycle``."""
        heap = self._mshr_heap
        mshrs = self._mshrs
        while heap and heap[0][0] <= cycle:
            ready, line = heapq.heappop(heap)
            if mshrs.get(line) == ready:
                del mshrs[line]

    def miss_start_cycle(self, line: int, cycle: int) -> Tuple[int, Optional[int]]:
        """Resolve MSHR constraints for a miss beginning at ``cycle``.

        Returns ``(start_cycle, merged_ready)``: if the line already has an
        outstanding fill, ``merged_ready`` is its completion cycle and no new
        request is needed. Otherwise ``start_cycle`` is when a free MSHR can
        accept the request.
        """
        self._prune_mshrs(cycle)
        mshrs = self._mshrs
        merged = mshrs.get(line)
        if merged is not None:
            self.stats.mshr_merges += 1
            return cycle, merged
        if len(mshrs) >= self.config.mshrs:
            self.stats.mshr_stalls += 1
            # Drop stale heap entries until the top is a live fill; every
            # live fill has an entry, so that top is the earliest one.
            heap = self._mshr_heap
            while mshrs.get(heap[0][1]) != heap[0][0]:
                heapq.heappop(heap)
            return max(cycle, heap[0][0]), None
        return cycle, None

    def register_fill(self, line: int, ready_cycle: int) -> None:
        """Record an in-flight fill for MSHR merging."""
        self._mshrs[line] = ready_cycle
        heapq.heappush(self._mshr_heap, (ready_cycle, line))

    def reset_transients(self) -> None:
        """Drop cycle-stamped transient state (outstanding MSHR fills).

        Checkpoint restore rebases the clock to 0; an MSHR entry carrying a
        fill-completion cycle from the donor run's timeline would otherwise
        block its line far into the restored run. Tag/LRU state — the part
        worth warming — is untouched.
        """
        self._mshrs.clear()
        self._mshr_heap.clear()

    def checkpoint_digest(self) -> int:
        """Cheap semantic digest of the array state (restore self-check).

        Covers the populated set count, the live tag population and the
        access counters — enough to catch a checkpoint codec that silently
        drops or miswires a level, without hashing every tag.
        """
        tags = sum(map(len, self._sets.values()))
        blob = (
            f"{self.config.name}:{len(self._sets)}:{tags}:"
            f"{self.stats.accesses}:{self.stats.hits}:{self.stats.misses}"
        )
        return zlib.crc32(blob.encode("ascii"))

    # -- the main timing entry point ---------------------------------------------

    def lookup(self, address: int, cycle: int) -> Tuple[bool, int]:
        """Tag-check ``address`` at ``cycle``.

        Returns ``(hit, data_ready_cycle_if_hit)``. Misses are orchestrated by
        the hierarchy, which calls :meth:`miss_start_cycle`,
        :meth:`register_fill` and :meth:`fill`.
        """
        self.stats.accesses += 1
        line = address >> self._offset_bits
        lines = self._sets.get(line % self._num_sets)
        if lines is not None and line in lines:
            if lines[0] != line:
                lines.remove(line)
                lines.insert(0, line)
            self.stats.hits += 1
            return True, cycle + self._hit_latency
        self.stats.misses += 1
        return False, cycle
