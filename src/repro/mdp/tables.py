"""Shared structures for tagged prediction tables.

* :class:`SetAssocTable` — an n-way set-associative table with LRU
  replacement and zero-confidence-first victim selection, the organisation
  shared by PHAST, the NoSQ predictor, and MDP-TAGE-S (Table II). Entries
  are slots in flat int lists, not objects.
* :class:`ChunkedFoldedHistory` — incrementally maintained circular fold of
  the last L fixed-width history entries into a w-bit word, the hardware
  history-folding of TAGE-style predictors generalised to multi-bit history
  symbols (PHAST entries carry type + outcome + 5 target bits = 7 bits).
  The fold is content-determined: two occurrences of the same window value
  fold to the same word, which is what makes incremental maintenance
  equivalent to refolding from scratch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.bitops import mask


class SetAssocTable:
    """N-way set-associative prediction table over flat int lists.

    Entry ``slot = set * ways + way`` lives in four parallel lists: ``tags``
    (``-1`` marks an invalid entry), ``distance``, ``confidence`` and
    ``useful``. Each set keeps a most-recent-first list of its slots (true
    LRU; the 2-bit LRU field of Table II is the hardware encoding of the same
    order for 4 ways, and way 0 starts as LRU so a cold set fills in way
    order). A ``(set, tag) -> slot`` map, written only by :meth:`allocate`,
    makes :meth:`lookup` a single probe; it is derived from ``tags`` and
    rebuilt on unpickling rather than carried in checkpoints.
    """

    __slots__ = (
        "num_sets",
        "ways",
        "tags",
        "distance",
        "confidence",
        "useful",
        "_recency",
        "_slot_of",
    )

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        slots = num_sets * ways
        self.tags: List[int] = [-1] * slots
        self.distance: List[int] = [0] * slots
        self.confidence: List[int] = [0] * slots
        self.useful: List[int] = [0] * slots
        self._recency: List[List[int]] = [
            list(range(base + ways - 1, base - 1, -1))
            for base in range(0, slots, ways)
        ]
        # tag * num_sets + set -> slot, for every valid slot.
        self._slot_of: Dict[int, int] = {}

    def __getstate__(self):
        return {
            name: getattr(self, name) for name in self.__slots__ if name != "_slot_of"
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        num_sets = self.num_sets
        self._slot_of = {
            tag * num_sets + slot // self.ways: slot
            for slot, tag in enumerate(self.tags)
            if tag >= 0
        }

    @property
    def total_entries(self) -> int:
        return self.num_sets * self.ways

    def recency(self, index: int) -> List[int]:
        """Slots of set ``index``, most recently used first (a copy)."""
        return list(self._recency[index % self.num_sets])

    def lookup(self, index: int, tag: int, touch: bool = True) -> Optional[int]:
        """The slot holding ``tag`` in set ``index`` (promoted on a hit), or None."""
        set_index = index % self.num_sets
        slot = self._slot_of.get(tag * self.num_sets + set_index)
        if slot is not None and touch:
            order = self._recency[set_index]
            if order[0] != slot:
                order.remove(slot)
                order.insert(0, slot)
        return slot

    def allocate(self, index: int, tag: int) -> int:
        """Claim a slot for ``tag`` in set ``index`` and mark it valid.

        Order of preference: the slot already holding ``tag``, the first
        invalid way, the least recent zero-confidence way (aliased dead
        entries first, per PHAST's confidence-gated replacement), else the
        LRU victim. The slot is promoted to most recent; its distance,
        confidence and useful fields keep their old values for the caller
        to overwrite.
        """
        num_sets = self.num_sets
        set_index = index % num_sets
        key = tag * num_sets + set_index
        slot_of = self._slot_of
        slot = slot_of.get(key)
        order = self._recency[set_index]
        if slot is None:
            tags = self.tags
            base = set_index * self.ways
            for candidate in range(base, base + self.ways):
                if tags[candidate] < 0:
                    slot = candidate
                    break
            else:
                confidence = self.confidence
                for candidate in reversed(order):
                    if confidence[candidate] == 0:
                        slot = candidate
                        break
                else:
                    slot = order[-1]
                del slot_of[tags[slot] * num_sets + set_index]
            tags[slot] = tag
            slot_of[key] = slot
        if order[0] != slot:
            order.remove(slot)
            order.insert(0, slot)
        return slot

    def clear(self) -> None:
        """Invalidate every entry, zeroing confidence and useful."""
        slots = self.total_entries
        self.tags[:] = [-1] * slots
        self.confidence[:] = [0] * slots
        self.useful[:] = [0] * slots
        self._slot_of.clear()


def _rotate(value: int, amount: int, width: int) -> int:
    """Circular left rotation of a ``width``-bit word."""
    amount %= width
    if amount == 0:
        return value & mask(width)
    value &= mask(width)
    return ((value << amount) | (value >> (width - amount))) & mask(width)


def fold_window(chunks: Sequence[int], chunk_bits: int, width: int) -> int:
    """Reference (non-incremental) circular fold, oldest chunk first.

    ``fold = XOR_i rotate(chunk_i, chunk_bits * (L - 1 - i))`` — each chunk is
    rotated by its distance from the youngest end, so position matters and
    any window content change changes the fold.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    folded = 0
    length = len(chunks)
    for position, chunk in enumerate(chunks):
        folded ^= _rotate(chunk & mask(chunk_bits), chunk_bits * (length - 1 - position), width)
    return folded


class ChunkedFoldedHistory:
    """Incrementally maintained :func:`fold_window` over a sliding window.

    ``push`` is on the per-branch hot path of every folded-history predictor,
    so the two circular rotations are inlined with their amounts (and the
    complementary shifts and masks) precomputed at construction.
    """

    __slots__ = (
        "length",
        "chunk_bits",
        "width",
        "value",
        "_window",
        "_chunk_mask",
        "_width_mask",
        "_rot_in",
        "_rot_in_c",
        "_rot_out",
        "_rot_out_c",
    )

    def __init__(self, length: int, chunk_bits: int, width: int) -> None:
        if length <= 0 or chunk_bits <= 0 or width <= 0:
            raise ValueError("length, chunk_bits and width must be positive")
        self.length = length
        self.chunk_bits = chunk_bits
        self.width = width
        self.value = 0
        self._window: Deque[int] = deque([0] * length, maxlen=length)
        self._chunk_mask = mask(chunk_bits)
        self._width_mask = mask(width)
        self._rot_in = chunk_bits % width  # rotation of the running fold
        self._rot_in_c = width - self._rot_in
        self._rot_out = (chunk_bits * length) % width  # rotation of the evictee
        self._rot_out_c = width - self._rot_out

    def push(self, chunk: int) -> None:
        """Slide the window by one entry."""
        chunk &= self._chunk_mask
        window = self._window
        outgoing = window[0]
        window.append(chunk)
        width_mask = self._width_mask
        value = self.value
        rot_in = self._rot_in
        if rot_in:
            value = ((value << rot_in) | (value >> self._rot_in_c)) & width_mask
        value ^= chunk
        rot_out = self._rot_out
        outgoing &= width_mask
        if rot_out:
            outgoing = ((outgoing << rot_out) | (outgoing >> self._rot_out_c)) & width_mask
        self.value = (value ^ outgoing) & width_mask

    def window(self) -> Tuple[int, ...]:
        return tuple(self._window)
