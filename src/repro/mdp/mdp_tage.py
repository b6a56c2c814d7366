"""MDP-TAGE: TAGE repurposed for store-distance prediction (Perais & Seznec).

Standalone configuration per the paper's evaluation (Sec. II-C, Table II):
12 tagged components over the (6, 2000) geometric history-length series,
16K entries total, 7-15 bit partial tags, a 7-bit store distance (value 127
encodes "depend on all older stores") and a useful bit gating predictions.

Training is the brute-force exploration PHAST criticises: a violating load
with no prediction allocates at the *shortest* history length; a violating
load whose prediction was wrong allocates at a *longer* length than its
provider — so one dependence can scatter entries across many tables, and a
shorter-than-needed entry keeps firing false dependences until its useful
bit is cleared (probabilistically on false dependences, 1/256, or by the
periodic useful-bit reset).

``MDPTagePredictor.tage_s()`` builds MDP-TAGE-S: the same training policy on
PHAST's table organisation and history lengths (0, 2, 4, 6, 8, 12, 16, 32),
isolating the contribution of PHAST's exact-length training (Sec. V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.bitops import ceil_log2, pc_hash_index, pc_hash_tag
from repro.common.rng import DeterministicRNG
from repro.frontend.history import GlobalHistory
from repro.frontend.tage import geometric_history_lengths
from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadCommitInfo,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    ViolationInfo,
)
from repro.mdp.tables import SetAssocTable

#: History entries carry type bit + taken bit + 5 target bits (Sec. IV-A2).
TARGET_BITS = 5

#: Distance value reserved for "depend on all older stores" (Sec. II-C).
ALL_OLDER = 127


@dataclass
class _TableConfig:
    history_length: int
    tag_bits: int
    table: SetAssocTable


class MDPTagePredictor(MDPredictor):
    """MDP-TAGE (and, via :meth:`tage_s`, MDP-TAGE-S)."""

    name = "mdp-tage"
    trains_at_commit = False

    def __init__(
        self,
        history_lengths: Optional[Sequence[int]] = None,
        total_entries: int = 16384,
        ways: int = 1,
        tag_bits_range: Tuple[int, int] = (7, 15),
        distance_bits: int = 7,
        reset_period: int = 524_288,
        false_dep_reset_one_in: int = 256,
        seed: int = 0x7D9E,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        if name:
            self.name = name
        lengths = (
            list(history_lengths)
            if history_lengths is not None
            else geometric_history_lengths(6, 2000, 12)
        )
        self._lengths = lengths
        self._distance_bits = distance_bits
        self._max_distance = (1 << distance_bits) - 1
        self._reset_period = reset_period
        self._fp_one_in = false_dep_reset_one_in
        self._rng = DeterministicRNG(seed)

        entries_per_table = max(ways, total_entries // len(lengths))
        num_sets = max(1, entries_per_table // ways)
        self._index_bits = ceil_log2(num_sets)
        low_tag, high_tag = tag_bits_range
        self._tables: List[_TableConfig] = []
        for position, length in enumerate(lengths):
            if len(lengths) > 1:
                tag_bits = low_tag + (high_tag - low_tag) * position // (len(lengths) - 1)
            else:
                tag_bits = high_tag
            self._tables.append(
                _TableConfig(
                    history_length=length,
                    tag_bits=tag_bits,
                    table=SetAssocTable(num_sets, ways),
                )
            )

        # Master position and divergent-record count of the last sync: the
        # commit-time lookup reuses them.
        self._synced = 0
        self._count = 0
        # load PC -> (index hash, tag hash per table)
        self._pc_keys: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self._accesses = 0
        # load seq -> provider table position (or None when no prediction)
        self._pending: Dict[int, Optional[int]] = {}

    @classmethod
    def tage_s(cls, total_entries: int = 4096) -> "MDPTagePredictor":
        """MDP-TAGE-S: PHAST's organisation, MDP-TAGE's training (Table II)."""
        return cls(
            history_lengths=(0, 2, 4, 6, 8, 12, 16, 32),
            total_entries=total_entries,
            ways=4,
            tag_bits_range=(16, 16),
            name="mdp-tage-s",
        )

    # -- history sync ------------------------------------------------------------

    def _sync(self, history: GlobalHistory, snapshot: int) -> None:
        if snapshot < self._synced:
            raise ValueError(
                f"history queries must be monotone (got {snapshot} < {self._synced})"
            )
        view = history.divergent
        self._synced = snapshot
        self._count = count = view.count_before(snapshot)
        lookup = self._lookup
        if lookup is None or lookup[0] is not view or count >= lookup[1]:
            # Each tagged table's index and tag fold tables, cached in
            # ``_lookup`` until the view grows past the synced count.
            folds = [
                None
                if config.history_length == 0
                else tuple(
                    view.fold_table(config.history_length, width, TARGET_BITS)
                    for width in (self._index_bits, config.tag_bits)
                )
                for config in self._tables
            ]
            self._lookup = (view, len(view) + 1, folds)

    def _keys(self, pc: int, position: int) -> Tuple[int, int]:
        """Index and tag at the last synced snapshot.

        Folds are as wide as the index and the tag, so neither XOR needs
        re-masking.
        """
        keys = self._pc_keys.get(pc)
        if keys is None:
            # Load PCs repeat heavily and the hashes are pure: memoise them.
            keys = self._pc_keys[pc] = (
                pc_hash_index(pc, self._index_bits),
                tuple(pc_hash_tag(pc, config.tag_bits) for config in self._tables),
            )
        folds = self._lookup[2][position]
        if folds is None:
            return keys[0], keys[1][position]
        count = self._count
        return keys[0] ^ folds[0][count], keys[1][position] ^ folds[1][count]

    # -- predictor interface --------------------------------------------------------

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.table_reads += len(self._tables)
        self._sync(load.history, load.hist_snapshot)
        self._tick_reset()

        for position in range(len(self._tables) - 1, -1, -1):
            index, tag = self._keys(load.pc, position)
            table = self._tables[position].table
            slot = table.lookup(index, tag)
            if slot is not None and table.useful[slot]:
                self._pending[load.seq] = position
                self.stats.dependences_predicted += 1
                distance = table.distance[slot]
                if distance >= ALL_OLDER:
                    return Prediction(wait_all_older=True)
                return Prediction(distances=(distance,))
        self._pending[load.seq] = None
        return NO_DEPENDENCE

    def on_violation(self, violation: ViolationInfo) -> None:
        self.stats.trainings += 1
        self._sync(violation.history, violation.load_snapshot)
        provider = self._pending.get(violation.load_seq)
        if provider is None:
            target = 0  # no prediction: start at the shortest history
        else:
            target = min(provider + 1, len(self._tables) - 1)
        index, tag = self._keys(violation.load_pc, target)
        table = self._tables[target].table
        slot = table.allocate(index, tag)
        table.distance[slot] = min(violation.store_distance, self._max_distance)
        table.useful[slot] = 1
        self.stats.table_writes += 1

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        provider = self._pending.pop(commit.seq, None)
        if provider is None or not commit.false_positive:
            return
        # Forget a false dependence with probability 1/256 (Sec. II-C).
        if self._rng.one_in(self._fp_one_in):
            self._sync(commit.history, self._synced)  # the last-synced snapshot
            index, tag = self._keys(commit.pc, provider)
            table = self._tables[provider].table
            slot = table.lookup(index, tag, touch=False)
            if slot is not None:
                table.useful[slot] = 0
                self.stats.table_writes += 1

    def _tick_reset(self) -> None:
        self._accesses += 1
        if self._accesses % self._reset_period == 0:
            for config in self._tables:
                useful = config.table.useful
                useful[:] = [0] * len(useful)

    def storage_bits(self) -> int:
        total = 0
        lru_bits = 2 if self._tables[0].table.ways > 1 else 0
        for config in self._tables:
            entry_bits = config.tag_bits + self._distance_bits + 1 + lru_bits
            total += config.table.total_entries * entry_bits
        return total
