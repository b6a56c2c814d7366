"""PHAST: PatH-Aware STore-distance memory dependence predictor (Sec. IV).

The two observations that define PHAST:

1. Each executed load depends on at most one store — the *youngest* older
   conflicting store (Sec. III-A) — so a single store distance suffices.
2. The minimum context that disambiguates a dependence is the execution path
   from the conflicting store to the load: the N divergent branches between
   them plus one — the divergent branch preceding the store, whose *target*
   separates paths that converge before the store (Sec. III-B, Fig. 5).

On a true dependence (delivered at commit, Sec. IV-A1), PHAST computes the
required length N+1 from per-micro-op divergent-branch counters, truncates it
onto its table-length ladder (0, 2, 4, 6, 8, 12, 16, 32 — keeping the
branches *closest to the load*), and trains exactly one entry in exactly one
table. Predictions search all tables in parallel with their folded histories
and take the longest confident match.

The cost-effective organisation (Sec. IV-B, Table II): eight 4-way tables of
128 sets; entries hold a 16-bit tag, 7-bit store distance, 4-bit confidence
and 2-bit LRU — 14.5 KB total. History entries carry a type bit, a taken bit
and the 5 low bits of the destination actually taken; the PC hashes are
``PC ^ PC>>2 ^ PC>>5`` (index) and the 3/7-offset variant (tag).

Folding reads the history's tables: the branch history owns one fold
table per non-zero ladder length (:meth:`~repro.frontend.history.
HistoryView.fold_table`), the value a hardware circular history register
holds after each divergent branch, so a lookup at any snapshot, including
a stale one at commit-time training, reads eight ready fold values.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.bitops import ceil_log2, mask, pc_hash_index, pc_hash_tag
from repro.frontend.history import GlobalHistory, HistoryView
from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadCommitInfo,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    ViolationInfo,
)
from repro.mdp.tables import SetAssocTable

#: The paper's geometric-like ladder of history lengths (Sec. IV-B).
DEFAULT_HISTORY_LENGTHS: Tuple[int, ...] = (0, 2, 4, 6, 8, 12, 16, 32)

#: Destination bits of a history entry (beside its type and taken bits).
TARGET_BITS = 5


class PHASTPredictor(MDPredictor):
    """The paper's contribution, in its Table II configuration by default."""

    name = "phast"
    trains_at_commit = True  # Sec. IV-A1: update at commit avoids false paths

    def __init__(
        self,
        history_lengths: Sequence[int] = DEFAULT_HISTORY_LENGTHS,
        sets_per_table: int = 128,
        ways: int = 4,
        tag_bits: int = 16,
        confidence_bits: int = 4,
        distance_bits: int = 7,
        target_bits: int = TARGET_BITS,
    ) -> None:
        super().__init__()
        if not history_lengths or list(history_lengths) != sorted(set(history_lengths)):
            raise ValueError("history_lengths must be strictly increasing and non-empty")
        self._lengths: Tuple[int, ...] = tuple(history_lengths)
        self._tag_bits = tag_bits
        self._confidence_max = (1 << confidence_bits) - 1
        self._confidence_bits = confidence_bits
        self._distance_bits = distance_bits
        self._max_distance = (1 << distance_bits) - 1
        self._target_bits = target_bits
        self._index_bits = ceil_log2(sets_per_table)
        self._index_mask = mask(self._index_bits)
        self._tag_mask = mask(tag_bits)
        self._fold_width = self._index_bits + tag_bits
        self._tables: List[SetAssocTable] = [
            SetAssocTable(sets_per_table, ways) for _ in self._lengths
        ]
        # load seq -> (table, slot) that provided the prediction
        self._pending: Dict[int, Tuple[SetAssocTable, int]] = {}
        # Fold values of a zero-length ladder entry (PC-only table), if any.
        self._zero_folds: List[int] = [0] * self._lengths.count(0)
        # PC hash memo: load PCs repeat heavily, the hashes are pure.
        self._pc_keys: Dict[int, Tuple[int, int]] = {}

    # -- hashing (Sec. IV-B) -----------------------------------------------------

    def _hash_pc(self, pc: int) -> Tuple[int, int]:
        keys = self._pc_keys.get(pc)
        if keys is None:
            keys = (
                pc_hash_index(pc, self._index_bits),
                pc_hash_tag(pc, self._tag_bits),
            )
            self._pc_keys[pc] = keys
        return keys

    def _fold_tables(self, view: HistoryView, count: int) -> List[Sequence[int]]:
        """The view's fold table of every non-zero ladder length, valid at
        ``count`` (cached in ``_lookup`` until the view grows past it)."""
        lookup = self._lookup
        if lookup is None or lookup[0] is not view or count >= lookup[1]:
            width = self._fold_width
            tables = [
                view.fold_table(length, width, self._target_bits)
                for length in self._lengths
                if length > 0
            ]
            lookup = self._lookup = (view, len(view) + 1, tables)
        return lookup[2]

    def _folds_at(self, history: GlobalHistory, snapshot: int) -> List[int]:
        """Fold of the last ``length`` divergent records before ``snapshot``,
        for every ladder position (0 for length 0)."""
        view = history.divergent
        count = view.count_before(snapshot)
        return self._zero_folds + [
            table[count] for table in self._fold_tables(view, count)
        ]

    def _keys(
        self, pc: int, history: GlobalHistory, snapshot: int, length: int
    ) -> Tuple[int, int]:
        """Index and tag for a lookup of history length ``length``."""
        index, tag = self._hash_pc(pc)
        if length > 0:
            folded = self._folds_at(history, snapshot)[self._lengths.index(length)]
            # The fold is index_bits + tag_bits wide, so both XOR terms are
            # already in range: no re-masking needed.
            index ^= folded & self._index_mask
            tag ^= folded >> self._index_bits
        return index, tag

    def training_length(self, required: int) -> int:
        """Truncate the required N+1 onto the ladder (largest length <= it)."""
        chosen = self._lengths[0]
        for length in self._lengths:
            if length <= required:
                chosen = length
            else:
                break
        return chosen

    # -- predictor interface -------------------------------------------------------

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        """Search every table; take the longest confident match (Sec. IV-A3)."""
        self.stats.load_predictions += 1
        tables = self._tables
        self.stats.table_reads += len(tables)
        index0, tag0 = self._hash_pc(load.pc)
        folds = self._folds_at(load.history, load.hist_snapshot)
        index_mask = self._index_mask
        index_bits = self._index_bits
        for position in range(len(tables) - 1, -1, -1):
            # The fold is index_bits + tag_bits wide, so both XOR terms are
            # already in range: no re-masking needed.
            folded = folds[position]
            table = tables[position]
            slot = table.lookup(
                index0 ^ (folded & index_mask), tag0 ^ (folded >> index_bits)
            )
            if slot is not None and table.confidence[slot] > 0:
                self._pending[load.seq] = (table, slot)
                self.stats.dependences_predicted += 1
                return Prediction(distances=(table.distance[slot],))
        self._pending.pop(load.seq, None)
        return NO_DEPENDENCE

    def on_violation(self, violation: ViolationInfo) -> None:
        """Train one entry at the exact (truncated) store-to-load path length."""
        self.stats.trainings += 1
        self.stats.table_writes += 1
        length = self.training_length(violation.required_history_length)
        table = self._tables[self._lengths.index(length)]
        index, tag = self._keys(
            violation.load_pc, violation.history, violation.load_snapshot, length
        )
        slot = table.allocate(index, tag)
        table.distance[slot] = min(violation.store_distance, self._max_distance)
        table.confidence[slot] = self._confidence_max

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        """Confidence policy (Sec. IV-A2): reset-to-max on correct, else decay."""
        pending = self._pending.pop(commit.seq, None)
        if pending is None or not commit.prediction.is_dependence:
            return
        table, slot = pending
        self.stats.table_writes += 1
        if commit.waited_correct:
            table.confidence[slot] = self._confidence_max
        elif table.confidence[slot] > 0:
            table.confidence[slot] -= 1

    def storage_bits(self) -> int:
        entry_bits = self._tag_bits + self._distance_bits + self._confidence_bits + 2
        total_entries = sum(table.total_entries for table in self._tables)
        return total_entries * entry_bits
