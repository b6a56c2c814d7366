"""The NoSQ store-distance predictor (Sha, Martin & Roth, MICRO 2006).

Two load-indexed set-associative tables (Sec. II-B):

* a **path-insensitive** table indexed by the load PC alone;
* a **path-sensitive** table indexed by the load PC hashed with a fixed
  8-bit history formed from conditional-branch outcomes (1 bit each) and
  call-site PCs (2 bits each).

A violation allocates in both tables; a predicting load checks both and
prefers the path-sensitive match. Entries carry a partial tag, a 7-bit store
distance and a 7-bit confidence counter (Table II). The fixed history length
is the limitation PHAST attacks: dependences needing more context than 8 bits
mispredict, and dependences needing less scatter across more entries than
necessary (Sec. II-B).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.bitops import ceil_log2, fold_bits, mask, pc_hash_index, pc_hash_tag
from repro.frontend.history import GlobalHistory
from repro.isa.microop import BranchKind
from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadCommitInfo,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    ViolationInfo,
)
from repro.mdp.tables import SetAssocTable


def nosq_history_bits(
    history: GlobalHistory, snapshot: int, num_bits: int
) -> int:
    """Build the NoSQ history word: newest-first bits until ``num_bits`` full.

    Conditional branches contribute their taken bit; calls contribute two PC
    bits (the word-address low bits). The predictor reads the same word from
    the history's table (:meth:`~repro.frontend.history.HistoryView.
    nosq_words`); this is its one-snapshot reference.
    """
    value = 0
    width = 0
    # Walk records youngest-first until the word is full.
    records = history.nosq.window(snapshot, num_bits)  # at most num_bits records
    for record in reversed(records):
        if record.kind is BranchKind.CONDITIONAL:
            value |= int(record.taken) << width
            width += 1
        else:  # CALL
            value |= ((record.pc >> 2) & 0b11) << width
            width += 2
        if width >= num_bits:
            break
    return value & mask(num_bits)


class NoSQPredictor(MDPredictor):
    """NoSQ's two-table predictor with the Table II configuration."""

    name = "nosq"
    trains_at_commit = False

    def __init__(
        self,
        entries_per_table: int = 2048,
        ways: int = 4,
        tag_bits: int = 22,
        history_bits: int = 8,
        confidence_bits: int = 7,
        threshold: int = 8,
        false_positive_penalty: int = 16,
        distance_bits: int = 7,
    ) -> None:
        super().__init__()
        self._ways = ways
        self._tag_bits = tag_bits
        self._history_bits = history_bits
        self._confidence_max = (1 << confidence_bits) - 1
        self._confidence_bits = confidence_bits
        self._threshold = threshold
        self._fp_penalty = false_positive_penalty
        self._distance_bits = distance_bits
        self._max_distance = (1 << distance_bits) - 1
        num_sets = entries_per_table // ways
        self._index_bits = ceil_log2(num_sets)
        self._insensitive = SetAssocTable(num_sets, ways)
        self._sensitive = SetAssocTable(num_sets, ways)
        # load seq -> (table, slot) that provided the prediction
        self._pending: Dict[int, Tuple[SetAssocTable, int]] = {}

    # -- hashing ------------------------------------------------------------

    def _history_word(self, history: GlobalHistory, snapshot: int) -> int:
        view = history.nosq
        return view.nosq_words(self._history_bits)[view.count_before(snapshot)]

    def _insensitive_keys(self, pc: int) -> Tuple[int, int]:
        return (
            pc_hash_index(pc, self._index_bits),
            pc_hash_tag(pc, self._tag_bits),
        )

    def _sensitive_keys(self, pc: int, history_word: int) -> Tuple[int, int]:
        folded = fold_bits(history_word, self._index_bits + self._tag_bits)
        index = pc_hash_index(pc, self._index_bits) ^ (folded & mask(self._index_bits))
        tag = pc_hash_tag(pc, self._tag_bits) ^ (folded >> self._index_bits)
        return index, tag & mask(self._tag_bits)

    # -- predictor interface ---------------------------------------------------

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.table_reads += 2
        history_word = self._history_word(load.history, load.hist_snapshot)
        sens_index, sens_tag = self._sensitive_keys(load.pc, history_word)
        insens_index, insens_tag = self._insensitive_keys(load.pc)
        sensitive = self._sensitive
        insensitive = self._insensitive
        sens_slot = sensitive.lookup(sens_index, sens_tag)
        insens_slot = insensitive.lookup(insens_index, insens_tag)

        threshold = self._threshold
        # Prefer a confident path-sensitive match.
        if sens_slot is not None and sensitive.confidence[sens_slot] >= threshold:
            chosen = (sensitive, sens_slot)
        elif (
            insens_slot is not None
            and insensitive.confidence[insens_slot] >= threshold
        ):
            chosen = (insensitive, insens_slot)
        else:
            self._pending.pop(load.seq, None)
            return NO_DEPENDENCE
        self._pending[load.seq] = chosen
        self.stats.dependences_predicted += 1
        table, slot = chosen
        return Prediction(distances=(table.distance[slot],))

    def on_violation(self, violation: ViolationInfo) -> None:
        self.stats.trainings += 1
        self.stats.table_writes += 2
        distance = min(violation.store_distance, self._max_distance)
        history_word = self._history_word(violation.history, violation.load_snapshot)
        for table, (index, tag) in (
            (self._sensitive, self._sensitive_keys(violation.load_pc, history_word)),
            (self._insensitive, self._insensitive_keys(violation.load_pc)),
        ):
            slot = table.allocate(index, tag)
            table.distance[slot] = distance
            table.confidence[slot] = self._confidence_max

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        pending = self._pending.pop(commit.seq, None)
        if pending is None or not commit.prediction.is_dependence:
            return
        table, slot = pending
        self.stats.table_writes += 1
        if commit.waited_correct:
            table.confidence[slot] = min(
                self._confidence_max, table.confidence[slot] + 1
            )
        elif commit.false_positive:
            table.confidence[slot] = max(0, table.confidence[slot] - self._fp_penalty)

    def storage_bits(self) -> int:
        entry_bits = self._tag_bits + self._confidence_bits + self._distance_bits + 2
        total_entries = self._insensitive.total_entries + self._sensitive.total_entries
        return total_entries * entry_bits
