"""Global branch history with per-micro-op snapshots.

The paper's predictor needs, for a load decoded at some point in the stream,
"the last L divergent branches before the load" where L is discovered per
conflict (N+1 with N the divergent-branch distance store->load, Sec. IV-A2).
Because the simulator is trace driven and squash replay revisits micro-ops,
the cleanest faithful model is an *append-only log* of branch records plus an
integer snapshot per micro-op; any window of any length can then be
reconstructed exactly. The hardware equivalent is the global history register
pair (decode/commit) described in Sec. IV-A2; the log is simply its
unbounded-precision software form.

Each divergent-branch record carries what the hardware tracks per entry: a
type bit (conditional/indirect), a taken bit, and a few low bits of the
destination actually taken (5 in the paper's configuration).
"""

from __future__ import annotations

import bisect
import zlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.bitops import mask
from repro.isa.microop import BranchInfo, BranchKind


@dataclass(frozen=True)
class BranchRecord:
    """One retired branch in the global history log."""

    pc: int
    kind: BranchKind
    taken: bool
    target: int  # destination actually followed (fall-through if not taken)

    @property
    def is_divergent(self) -> bool:
        return self.kind.is_divergent

    def encode(self, target_bits: int) -> int:
        """Pack the record the way PHAST's history register stores it.

        Layout (low to high): ``target_bits`` bits of the destination, the
        taken bit, the type bit (1 = indirect). Conditional entries contribute
        their outcome *and* destination bits, which is what lets PHAST include
        "the address where the divergent branch previous to the store jumps"
        even for conditionals (Sec. III-B).
        """
        encoded = self.target & mask(target_bits)
        encoded |= int(self.taken) << target_bits
        encoded |= int(self.kind is BranchKind.INDIRECT) << (target_bits + 1)
        return encoded


class HistoryView:
    """A filtered, index-searchable view over the master history log.

    Predictors differ in *which* branches they observe: PHAST sees divergent
    branches (conditional + indirect); the NoSQ predictor sees conditional
    branches and calls. A view keeps the master-log positions of its records
    so that a snapshot taken on the master log can be translated into "the
    last L records of this view".
    """

    __slots__ = ("_records", "_positions")

    def __init__(self) -> None:
        self._records: List[BranchRecord] = []
        self._positions: List[int] = []  # master-log index of each record

    def __getstate__(self):
        # The log grows with the trace (tens of thousands of records per
        # view at checkpoint scale) but holds few distinct records, which
        # GlobalHistory.record interns. Code the view as a first-occurrence
        # table of its distinct records plus one table index per record.
        # The table holds the live records, so a single pickle of the
        # machine shares them with the history's intern table and the other
        # view, and decoding yields one shared object per distinct record.
        records = self._records
        ids = list(map(id, records))
        # Hash each distinct object once (by identity, in first-occurrence
        # order); equal records that are distinct objects share a slot.
        slot_by_record: Dict[BranchRecord, int] = {}
        slot_by_id = {
            key: slot_by_record.setdefault(record, len(slot_by_record))
            for key, record in dict(zip(ids, records)).items()
        }
        return {
            "table": tuple(slot_by_record),
            "index": array("I", map(slot_by_id.__getitem__, ids)),
            "positions": array("Q", self._positions),
        }

    def __setstate__(self, state) -> None:
        self._records = list(map(state["table"].__getitem__, state["index"]))
        self._positions = list(state["positions"])

    def append(self, record: BranchRecord, master_position: int) -> None:
        self._records.append(record)
        self._positions.append(master_position)

    def count_before(self, snapshot: int) -> int:
        """Number of view records whose master position precedes ``snapshot``."""
        return bisect.bisect_left(self._positions, snapshot)

    def positions(self) -> Tuple[int, ...]:
        """Master-log position of every view record, in record order.

        Batch-backend kernels use this to vectorize ``count_before`` over
        all snapshots of a trace in one ``searchsorted`` pass.
        """
        return tuple(self._positions)

    def window(self, snapshot: int, length: int) -> Tuple[BranchRecord, ...]:
        """The last ``length`` view records before ``snapshot``, oldest first.

        Returns fewer records when the program hasn't executed that many
        branches yet (cold start).
        """
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        end = self.count_before(snapshot)
        start = max(0, end - length)
        return tuple(self._records[start:end])

    def records_in_master_range(
        self, older_snapshot: int, younger_snapshot: int
    ) -> Tuple[BranchRecord, ...]:
        """View records at master positions in ``[older, younger)``, oldest first.

        Used by predictors that maintain rolling folded histories to catch up
        with the log between queries.
        """
        start = self.count_before(older_snapshot)
        end = self.count_before(younger_snapshot)
        return tuple(self._records[start:end])

    def count_between(self, older_snapshot: int, younger_snapshot: int) -> int:
        """View records at master positions in ``[older_snapshot, younger_snapshot)``.

        This is exactly the paper's N: the number of divergent branches
        between a store (decoded at ``older_snapshot``) and a younger load
        (decoded at ``younger_snapshot``).
        """
        if younger_snapshot < older_snapshot:
            raise ValueError("younger snapshot precedes older snapshot")
        return self.count_before(younger_snapshot) - self.count_before(older_snapshot)

    def __len__(self) -> int:
        return len(self._records)


class GlobalHistory:
    """Master append-only branch log with PHAST and NoSQ filtered views."""

    def __init__(self) -> None:
        self._master_count = 0
        # (pc, kind, taken, target) -> the one shared record for it. A trace
        # repeats a small set of distinct branch outcomes, so the log holds
        # references to a few objects instead of one object per branch.
        self._interned: Dict[Tuple[int, BranchKind, bool, int], BranchRecord] = {}
        self.divergent = HistoryView()  # conditional + indirect (PHAST)
        self.nosq = HistoryView()  # conditional + call (NoSQ predictor)

    def snapshot(self) -> int:
        """Current log position; store one per decoded micro-op."""
        return self._master_count

    def record(self, pc: int, info: BranchInfo) -> BranchRecord:
        """Append a retired branch to the log and all matching views."""
        key = (pc, info.kind, info.taken, info.target)
        record = self._interned.get(key)
        if record is None:
            record = self._interned[key] = BranchRecord(*key)
        position = self._master_count
        self._master_count += 1
        if record.is_divergent:
            self.divergent.append(record, position)
        if record.kind in (BranchKind.CONDITIONAL, BranchKind.CALL):
            self.nosq.append(record, position)
        return record

    def divergent_count_at(self, snapshot: int) -> int:
        """Divergent branches decoded before ``snapshot`` (the paper's global
        decode-time counter used to derive history lengths on conflicts)."""
        return self.divergent.count_before(snapshot)

    def checkpoint_digest(self) -> int:
        """Cheap semantic digest of the log (checkpoint restore self-check).

        Covers the master position, both view populations and the most
        recent divergent record — catching a restore that dropped records or
        desynchronised a filtered view without hashing the whole log.
        """
        last = 0
        records = self.divergent._records
        if records:
            tail = records[-1]
            last = tail.encode(target_bits=16) ^ (tail.pc & 0xFFFF)
        blob = f"{self._master_count}:{len(self.divergent)}:{len(self.nosq)}:{last}"
        return zlib.crc32(blob.encode("ascii"))


def encode_window(
    records: Sequence[BranchRecord], target_bits: int
) -> Tuple[int, ...]:
    """Encode a window of records into fixed-width integers, oldest first."""
    return tuple(record.encode(target_bits) for record in records)
