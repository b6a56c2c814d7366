"""The Omnipredictor: one TAGE storage for branches AND memory dependences.

Perais & Seznec's original proposal (PACT 2018) predicts branch directions
and store distances out of the same TAGE tables: entries carry a type, the
3-bit counter field holds either a direction counter or a store distance,
and both consumers compete for capacity.

The paper argues this sharing cannot be tuned for both uses: "the optimal
history lengths for MDP differ from the ones for branch prediction, which
implies that an Omnipredictor cannot be tuned for both types of prediction"
(Sec. IV-B). This implementation exists to make that claim testable: the
ablation bench compares the Omnipredictor against a standalone TAGE plus a
standalone MDP-TAGE of the same total budget, and against PHAST.

Usage::

    omni = OmniPredictor()
    result = simulate(RunSpec(workload=workload, predictor=omni,
                              branch_predictor=omni.branch_view))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.bitops import ceil_log2, mask, pc_hash_index, pc_hash_tag
from repro.common.counters import SignedSaturatingCounter
from repro.common.rng import DeterministicRNG
from repro.frontend.branch_predictors import BranchPredictor
from repro.frontend.history import HISTORY_CHUNK_BITS
from repro.frontend.tage import geometric_history_lengths
from repro.isa.microop import BranchKind
from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadCommitInfo,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    ViolationInfo,
)
from repro.mdp.mdp_tage import ALL_OLDER, TARGET_BITS
from repro.mdp.tables import ChunkedFoldedHistory


@dataclass
class _OmniEntry:
    """A shared TAGE entry: either a branch or a memory-dependence record."""

    tag: int = 0
    kind: str = ""  # "branch" | "mdp"
    counter: int = 0  # branch: signed direction counter; mdp: store distance
    useful: int = 0
    valid: bool = False


class _OmniBranchView(BranchPredictor):
    """BranchPredictor adapter over the shared storage."""

    name = "omni-branch"
    year = 2018

    def __init__(self, owner: "OmniPredictor") -> None:
        super().__init__()
        self._owner = owner

    def predict(self, pc: int) -> bool:
        return self._owner.predict_branch(pc)

    def update(self, pc: int, taken: bool) -> None:
        self._owner.update_branch(pc, taken)

    def observe(self, pc: int, kind: BranchKind, taken: bool, target: int) -> bool:
        mispredicted = super().observe(pc, kind, taken, target)
        # Every divergent branch enters the shared folded history, mirroring
        # the pipeline's GlobalHistory recording order.
        if kind.is_divergent:
            self._owner.push_history(kind, taken, target)
        return mispredicted

    def storage_bits(self) -> int:
        return 0  # accounted on the owner


class OmniPredictor(MDPredictor):
    """Shared-table TAGE serving branch direction and store distance."""

    name = "omnipredictor"
    trains_at_commit = False  # MDP side follows MDP-TAGE's policy

    def __init__(
        self,
        history_lengths: Optional[Sequence[int]] = None,
        total_entries: int = 16384,
        tag_bits: int = 12,
        reset_period: int = 524_288,
        false_dep_reset_one_in: int = 256,
        seed: int = 0x0311,
    ) -> None:
        super().__init__()
        self._lengths = (
            list(history_lengths)
            if history_lengths is not None
            else geometric_history_lengths(6, 2000, 12)
        )
        entries_per_table = max(1, total_entries // len(self._lengths))
        self._entries_per_table = entries_per_table
        self._index_bits = ceil_log2(entries_per_table)
        self._tag_bits = tag_bits
        self._tables: List[List[_OmniEntry]] = [
            [_OmniEntry() for _ in range(entries_per_table)] for _ in self._lengths
        ]
        self._bimodal: List[SignedSaturatingCounter] = [
            SignedSaturatingCounter(bits=2) for _ in range(1 << 12)
        ]
        self._folds: List[Tuple[ChunkedFoldedHistory, ChunkedFoldedHistory]] = [
            (
                ChunkedFoldedHistory(length, HISTORY_CHUNK_BITS, self._index_bits),
                ChunkedFoldedHistory(length, HISTORY_CHUNK_BITS, tag_bits),
            )
            for length in self._lengths
        ]
        self._rng = DeterministicRNG(seed)
        self._reset_period = reset_period
        self._fp_one_in = false_dep_reset_one_in
        self._accesses = 0
        self._pending: Dict[int, Optional[int]] = {}
        self.branch_view = _OmniBranchView(self)
        #: Capacity-interference telemetry: cross-type entry replacements.
        self.branch_evicted_by_mdp = 0
        self.mdp_evicted_by_branch = 0

    # -- shared plumbing -------------------------------------------------------

    def push_history(self, kind: BranchKind, taken: bool, target: int) -> None:
        chunk = target & mask(TARGET_BITS)
        chunk |= int(taken) << TARGET_BITS
        chunk |= int(kind is BranchKind.INDIRECT) << (TARGET_BITS + 1)
        for index_fold, tag_fold in self._folds:
            index_fold.push(chunk)
            tag_fold.push(chunk)

    def _keys(self, pc: int, position: int) -> Tuple[int, int]:
        index_fold, tag_fold = self._folds[position]
        index = (pc_hash_index(pc, self._index_bits) ^ index_fold.value) & mask(
            self._index_bits
        )
        # Table sizes need not be powers of two (16K entries / 12 tables).
        index %= self._entries_per_table
        tag = (pc_hash_tag(pc, self._tag_bits) ^ tag_fold.value) & mask(self._tag_bits)
        return index, tag

    def _lookup(self, pc: int, kind: str) -> Tuple[Optional[int], Optional[_OmniEntry]]:
        for position in range(len(self._lengths) - 1, -1, -1):
            index, tag = self._keys(pc, position)
            entry = self._tables[position][index]
            if entry.valid and entry.tag == tag and entry.kind == kind:
                if kind == "branch" or entry.useful:
                    return position, entry
        return None, None

    def _allocate(self, pc: int, position: int, kind: str) -> _OmniEntry:
        index, tag = self._keys(pc, position)
        entry = self._tables[position][index]
        if entry.valid and entry.kind != kind:
            if kind == "mdp":
                self.branch_evicted_by_mdp += 1
            else:
                self.mdp_evicted_by_branch += 1
        entry.valid = True
        entry.kind = kind
        entry.tag = tag
        entry.useful = 1
        entry.counter = 0
        return entry

    def _tick(self) -> None:
        self._accesses += 1
        if self._accesses % self._reset_period == 0:
            for table in self._tables:
                for entry in table:
                    entry.useful = 0

    # -- branch side -------------------------------------------------------------

    def predict_branch(self, pc: int) -> bool:
        position, entry = self._lookup(pc, "branch")
        if entry is None:
            return self._bimodal[pc & mask(12)].is_positive
        return entry.counter >= 0

    def update_branch(self, pc: int, taken: bool) -> None:
        self._tick()
        position, entry = self._lookup(pc, "branch")
        predicted = self.predict_branch(pc)
        if entry is not None:
            entry.counter = max(-4, min(3, entry.counter + (1 if taken else -1)))
        else:
            self._bimodal[pc & mask(12)].update_towards(taken)
        if predicted != taken:
            start = (position + 1) if position is not None else 0
            if start < len(self._lengths):
                target = min(
                    start + (1 if self._rng.one_in(2) else 0),
                    len(self._lengths) - 1,
                )
                new_entry = self._allocate(pc, target, "branch")
                new_entry.counter = 0 if taken else -1

    # -- MDP side ------------------------------------------------------------------

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.table_reads += len(self._lengths)
        self._tick()
        position, entry = self._lookup(load.pc, "mdp")
        self._pending[load.seq] = position
        if entry is None:
            return NO_DEPENDENCE
        self.stats.dependences_predicted += 1
        if entry.counter >= ALL_OLDER:
            return Prediction(wait_all_older=True)
        return Prediction(distances=(entry.counter,))

    def on_violation(self, violation: ViolationInfo) -> None:
        self.stats.trainings += 1
        self.stats.table_writes += 1
        provider = self._pending.get(violation.load_seq)
        target = 0 if provider is None else min(provider + 1, len(self._lengths) - 1)
        entry = self._allocate(violation.load_pc, target, "mdp")
        entry.counter = min(violation.store_distance, ALL_OLDER)

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        provider = self._pending.pop(commit.seq, None)
        if provider is None or not commit.false_positive:
            return
        if self._rng.one_in(self._fp_one_in):
            index, tag = self._keys(commit.pc, provider)
            entry = self._tables[provider][index]
            if entry.valid and entry.tag == tag and entry.kind == "mdp":
                entry.useful = 0
                self.stats.table_writes += 1

    def storage_bits(self) -> int:
        # tag + type bit + 7-bit counter/distance + u bit, plus the bimodal.
        per_entry = self._tag_bits + 1 + 7 + 1
        return (
            len(self._lengths) * self._entries_per_table * per_entry
            + len(self._bimodal) * 2
        )
