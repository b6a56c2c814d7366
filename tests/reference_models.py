"""Former object-per-entry layouts, kept as oracles for the flat ones.

The TAGE front end, the tagged MDP tables and the caches once held one
Python object per entry (and an :class:`LRUState` per set). Their flat
replacements change the layout only, so every observable answer —
predictions, mispredicts, victims, recency and table contents — must equal
these models' on the same input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.bitops import mask
from repro.common.counters import SignedSaturatingCounter
from repro.common.rng import DeterministicRNG
from repro.frontend.branch_predictors import BranchPredictor
from repro.frontend.tage import geometric_history_lengths


class LRUState:
    """Recency among ``ways`` slots of one set, most recently used first.

    Way 0 starts as LRU so that cold allocation fills ways in order.
    """

    __slots__ = ("_order",)

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self._order: List[int] = list(range(ways - 1, -1, -1))

    def touch(self, way: int) -> None:
        order = self._order
        if order[0] == way:
            return
        order.remove(way)
        order.insert(0, way)

    def victim(self) -> int:
        return self._order[-1]

    def most_recent(self) -> int:
        return self._order[0]

    def recency_order(self) -> List[int]:
        return list(self._order)


# -- tagged MDP tables ---------------------------------------------------------


@dataclass
class PredictionEntry:
    tag: int = 0
    distance: int = 0
    confidence: int = 0
    useful: int = 0
    valid: bool = False


class ReferenceSetAssocTable:
    """N-way set-associative table of :class:`PredictionEntry` objects."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self._entries = [
            [PredictionEntry() for _ in range(ways)] for _ in range(num_sets)
        ]
        self._lru = [LRUState(ways) for _ in range(num_sets)]

    def lookup(
        self, index: int, tag: int, touch: bool = True
    ) -> Optional[PredictionEntry]:
        set_index = index % self.num_sets
        for way, entry in enumerate(self._entries[set_index]):
            if entry.valid and entry.tag == tag:
                if touch:
                    self._lru[set_index].touch(way)
                return entry
        return None

    def allocate(self, index: int, tag: int) -> PredictionEntry:
        """The entry to (re)write: same tag, invalid, zero confidence, LRU."""
        set_index = index % self.num_sets
        ways = self._entries[set_index]
        lru = self._lru[set_index]
        for way, entry in enumerate(ways):
            if entry.valid and entry.tag == tag:
                lru.touch(way)
                return entry
        for way, entry in enumerate(ways):
            if not entry.valid:
                lru.touch(way)
                return entry
        for way in lru.recency_order()[::-1]:  # least recent first
            if ways[way].confidence == 0:
                lru.touch(way)
                return ways[way]
        victim = lru.victim()
        lru.touch(victim)
        return ways[victim]

    def entries(self) -> List[PredictionEntry]:
        return [entry for ways in self._entries for entry in ways]

    def clear(self) -> None:
        for entry in self.entries():
            entry.valid = False
            entry.confidence = 0
            entry.useful = 0


# -- TAGE ----------------------------------------------------------------------


class FoldedHistory:
    """Incrementally folded global history, one object per register."""

    __slots__ = ("length", "width", "value", "_out_pos", "_mask")

    def __init__(self, length: int, width: int) -> None:
        if length <= 0 or width <= 0:
            raise ValueError("length and width must be positive")
        self.length = length
        self.width = width
        self.value = 0
        self._out_pos = length % width
        self._mask = mask(width)

    def update(self, new_bit: int, outgoing_bit: int) -> None:
        self.value = (((self.value << 1) | (new_bit & 1)) & self._mask) ^ (
            (outgoing_bit & 1) << self._out_pos
        )


@dataclass
class TageEntry:
    tag: int = 0
    counter: SignedSaturatingCounter = field(
        default_factory=lambda: SignedSaturatingCounter(bits=3)
    )
    useful: int = 0
    valid: bool = False


class ReferenceTAGEPredictor(BranchPredictor):
    """Plain TAGE over :class:`TageEntry` objects and counter objects."""

    name = "tage-reference"

    def __init__(
        self,
        num_tables: int = 8,
        min_history: int = 4,
        max_history: int = 640,
        table_index_bits: int = 10,
        tag_bits: int = 11,
        useful_bits: int = 2,
        reset_period: int = 256 * 1024,
        seed: int = 0x7A6E,
    ) -> None:
        super().__init__()
        self._lengths = geometric_history_lengths(min_history, max_history, num_tables)
        self._index_bits = table_index_bits
        self._index_mask = mask(table_index_bits)
        self._tag_mask = mask(tag_bits)
        self._useful_max = (1 << useful_bits) - 1
        self._reset_period = reset_period
        self._rng = DeterministicRNG(seed)
        self._bimodal = [SignedSaturatingCounter(bits=2) for _ in range(1 << 12)]
        self._tables = [
            [TageEntry() for _ in range(1 << table_index_bits)] for _ in self._lengths
        ]
        self._hist_size = max(self._lengths) + 1
        self._history = [0] * self._hist_size
        self._hist_head = 0
        self._folded_index = [
            FoldedHistory(length, table_index_bits) for length in self._lengths
        ]
        self._folded_tag0 = [FoldedHistory(length, tag_bits) for length in self._lengths]
        self._folded_tag1 = [
            FoldedHistory(length, tag_bits - 1) for length in self._lengths
        ]
        self._branch_count = 0
        self._use_alt = SignedSaturatingCounter(bits=4)

    def _table_index(self, pc: int, table: int) -> int:
        return (
            pc ^ (pc >> (self._index_bits - table)) ^ self._folded_index[table].value
        ) & self._index_mask

    def _table_tag(self, pc: int, table: int) -> int:
        return (
            pc ^ self._folded_tag0[table].value ^ (self._folded_tag1[table].value << 1)
        ) & self._tag_mask

    def _lookup(self, pc: int) -> Tuple[Optional[int], Optional[int]]:
        provider = alternate = None
        for table in range(len(self._lengths) - 1, -1, -1):
            entry = self._tables[table][self._table_index(pc, table)]
            if entry.valid and entry.tag == self._table_tag(pc, table):
                if provider is None:
                    provider = table
                else:
                    alternate = table
                    break
        return provider, alternate

    def _table_prediction(self, pc: int, table: int) -> bool:
        return self._tables[table][self._table_index(pc, table)].counter.is_positive

    def _bimodal_prediction(self, pc: int) -> bool:
        return self._bimodal[pc & mask(12)].is_positive

    def _final_prediction(self, pc, provider, alternate) -> bool:
        if provider is None:
            return self._bimodal_prediction(pc)
        entry = self._tables[provider][self._table_index(pc, provider)]
        newly_allocated = abs(entry.counter.value * 2 + 1) == 1 and entry.useful == 0
        if newly_allocated and self._use_alt.is_positive:
            if alternate is not None:
                return self._table_prediction(pc, alternate)
            return self._bimodal_prediction(pc)
        return entry.counter.is_positive

    def predict(self, pc: int) -> bool:
        provider, alternate = self._lookup(pc)
        return self._final_prediction(pc, provider, alternate)

    def update(self, pc: int, taken: bool) -> None:
        provider, alternate = self._lookup(pc)
        final_prediction = self._final_prediction(pc, provider, alternate)
        if provider is not None:
            entry = self._tables[provider][self._table_index(pc, provider)]
            provider_prediction = entry.counter.is_positive
            if alternate is not None:
                alt_prediction = self._table_prediction(pc, alternate)
            else:
                alt_prediction = self._bimodal_prediction(pc)
            newly_allocated = abs(entry.counter.value * 2 + 1) == 1 and entry.useful == 0
            if newly_allocated and provider_prediction != alt_prediction:
                self._use_alt.update_towards(alt_prediction == taken)
            if provider_prediction != alt_prediction:
                if provider_prediction == taken:
                    entry.useful = min(self._useful_max, entry.useful + 1)
                else:
                    entry.useful = max(0, entry.useful - 1)
            entry.counter.update_towards(taken)
        else:
            self._bimodal[pc & mask(12)].update_towards(taken)
        if final_prediction != taken:
            start = (provider + 1) if provider is not None else 0
            self._allocate(pc, taken, start)
        self._shift_history(pc, taken)
        self._branch_count += 1
        if self._branch_count % self._reset_period == 0:
            for table_entries in self._tables:
                for entry in table_entries:
                    entry.useful = 0

    def _allocate(self, pc: int, taken: bool, start_table: int) -> None:
        candidates = [
            table
            for table in range(start_table, len(self._lengths))
            if self._tables[table][self._table_index(pc, table)].useful == 0
        ]
        if not candidates:
            for table in range(start_table, len(self._lengths)):
                entry = self._tables[table][self._table_index(pc, table)]
                entry.useful = max(0, entry.useful - 1)
            return
        chosen = candidates[0]
        if len(candidates) > 1 and self._rng.one_in(2):
            chosen = candidates[1]
        entry = self._tables[chosen][self._table_index(pc, chosen)]
        entry.valid = True
        entry.tag = self._table_tag(pc, chosen)
        entry.counter = SignedSaturatingCounter(bits=3, value=0 if taken else -1)
        entry.useful = 0

    def _shift_history(self, pc: int, taken: bool) -> None:
        new_bit = int(taken) ^ (pc & 1)
        head = self._hist_head
        for table, length in enumerate(self._lengths):
            outgoing = self._history[(head + length - 1) % self._hist_size]
            self._folded_index[table].update(new_bit, outgoing)
            self._folded_tag0[table].update(new_bit, outgoing)
            self._folded_tag1[table].update(new_bit, outgoing)
        head = (head - 1) % self._hist_size
        self._history[head] = new_bit
        self._hist_head = head

    def storage_bits(self) -> int:
        return 0
