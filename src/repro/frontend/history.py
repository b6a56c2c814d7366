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

A view also owns the tables its predictors index: the folded history of
each (length, width, target bits) and NoSQ's history word, one entry per
record count. They are derived from the log alone, so they are memoised on
the view, grown in bulk when the view has grown, and never pickled.
"""

from __future__ import annotations

import bisect
import zlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.bitops import mask
from repro.isa.microop import BranchInfo, BranchKind

#: Bits of one folded-history chunk: a type bit, a taken bit and up to
#: five destination bits (PHAST and MDP-TAGE, Sec. IV-A2).
HISTORY_CHUNK_BITS = 7

#: Records from which a fold table grows in bulk with numpy: one more than
#: the ops of a plan chunk (``PLAN_CHUNK_OPS``), so a run that plans as it
#: goes (a solo reference cell) grows its tables without importing numpy,
#: an import that costs a fresh worker about 14 MB of resident memory.
BULK_RECORDS = 4097


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

    __slots__ = ("_records", "_positions", "_tables", "_base")

    def __init__(self) -> None:
        self._records: List[BranchRecord] = []
        self._positions: List[int] = []  # master-log index of each record
        # Memoised derived tables (fold_table, nosq_words): rebuilt on
        # demand, so never pickled.
        self._tables: Dict[tuple, Sequence[int]] = {}
        # The first record count the tables hold: 0, or the record count
        # at decode for a view decoded from a checkpoint (see __setstate__).
        self._base = 0

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
        self._tables = {}
        # A decoded view resumes a paused run, whose predictors read its
        # tables only at snapshots from the pause on: its tables start at
        # the pause's record count, and reading below it raises.
        self._base = len(self._records)

    def append(self, record: BranchRecord, master_position: int) -> None:
        self._records.append(record)
        self._positions.append(master_position)

    def count_before(self, snapshot: int) -> int:
        """Number of view records whose master position precedes ``snapshot``."""
        return bisect.bisect_left(self._positions, snapshot)

    def positions(self) -> Tuple[int, ...]:
        """Master-log position of every view record, in record order."""
        return tuple(self._positions)

    def fold_table(
        self, length: int, width: int, target_bits: int
    ) -> Sequence[int]:
        """``table[k]``: the fold of the last ``length`` of the first ``k`` records.

        Entry ``k`` is :func:`~repro.mdp.tables.fold_window` of those
        records' ``encode(target_bits)`` chunks, oldest first, at
        :data:`HISTORY_CHUNK_BITS` bits a chunk, to ``width`` bits: the
        value a rolling :class:`~repro.mdp.tables.ChunkedFoldedHistory`
        holds after ``k`` pushes. Index it with ``count_before(snapshot)``.
        The table is memoised and has an entry for every record count from
        the view's first (0, or its count at decode); a later call extends
        the same object after the view has grown.
        """
        if length <= 0 or width <= 0:
            raise ValueError(
                f"length and width must be positive, got {length}, {width}"
            )
        # Records before ``floor`` never reach a table entry's window.
        floor = max(0, self._base - length)
        key = (length, width, target_bits)
        values = self._values(key)
        if values is None:
            values = _new_table(width)
            offset, chunks = self._chunks(target_bits, floor)
            _extend_fold(values, floor, chunks, offset, floor, length, width)
            return self._keep(key, values, floor)
        done = self._base + len(values) - 1  # the count of the last entry
        if done < len(self._records):
            offset, chunks = self._chunks(target_bits, floor)
            _extend_fold(values, done, chunks, offset, floor, length, width)
        return self._tables[key]

    def nosq_words(self, num_bits: int) -> Sequence[int]:
        """``table[k]``: NoSQ's ``num_bits``-bit history word after ``k`` records.

        Youngest record lowest: a conditional branch adds its taken bit, any
        other record (a call) two PC bits, as
        :func:`~repro.mdp.nosq.nosq_history_bits` builds it for one
        snapshot. Memoised and extended like :meth:`fold_table`.
        """
        key = ("nosq", num_bits)
        values = self._values(key)
        records = self._records
        if values is None:
            # Every record shifts in at least one bit, so the word after
            # the ``num_bits`` records before the first count is its value.
            floor = max(0, self._base - num_bits)
            values = _new_table(num_bits)
            _extend_nosq(values, records[floor:], num_bits)
            return self._keep(key, values, floor)
        done = self._base + len(values) - 1
        if done < len(records):
            _extend_nosq(values, records[done:], num_bits)
        return self._tables[key]

    def _values(self, key: tuple):
        """The memoised entries of table ``key``, or None if it is new."""
        table = self._tables.get(key)
        if table is None or not self._base:
            return table
        return table.values

    def _keep(self, key: tuple, values, floor: int) -> Sequence[int]:
        """Memoise a new table whose ``values`` start at record count
        ``floor``, cut to start at the view's first count."""
        base = self._base
        if not base:
            self._tables[key] = values
            return values
        del values[: base - floor]
        table = self._tables[key] = _RebasedTable(base, values)
        return table

    def _chunks(self, target_bits: int, first: int) -> Tuple[int, array]:
        """``(offset, chunks)``: ``chunks[t - offset]`` is record ``t``'s
        ``encode(target_bits)`` cut to a history chunk, for every record
        from ``offset <= first`` on."""
        key = ("chunks", target_bits)
        records = self._records
        entry = self._tables.get(key)
        if entry is None or entry[0] > first:
            end = len(records) if entry is None else entry[0]
            chunks = _encode_chunks(records[first:end], target_bits)
            if entry is not None:
                chunks.extend(entry[1])
            entry = self._tables[key] = (first, chunks)
        offset, chunks = entry
        if offset + len(chunks) < len(records):
            chunks.extend(
                _encode_chunks(records[offset + len(chunks) :], target_bits)
            )
        return entry

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


class _RebasedTable:
    """A table of a view decoded from a checkpoint: entries from record
    count ``base`` on, indexed by record count like a whole one. Below
    ``base`` it holds nothing, and a read there raises."""

    __slots__ = ("base", "values")

    #: Not iterable: the sequence protocol would stop silently at ``base``.
    __iter__ = None

    def __init__(self, base: int, values) -> None:
        self.base = base
        self.values = values

    def __getitem__(self, count: int) -> int:
        if count < self.base:
            raise IndexError(
                f"record count {count} precedes this view's restore point "
                f"({self.base}); its history tables start there"
            )
        return self.values[count - self.base]

    def __len__(self) -> int:
        return self.base + len(self.values)


def _new_table(width: int) -> Sequence[int]:
    """A one-entry (value 0) table of ``width``-bit values: a typed array
    up to 64 bits, so a long trace's tables stay a few bytes an entry."""
    if width > 64:
        return [0]
    return array("I" if width <= 32 else "Q", [0])


def _encode_chunks(records: Sequence[BranchRecord], target_bits: int) -> array:
    """Each record's ``encode(target_bits)``, cut to a history chunk."""
    # Records are interned: encode each distinct object once.
    codes: Dict[int, int] = {}
    chunk_mask = mask(HISTORY_CHUNK_BITS)
    chunks = array("B")
    append = chunks.append
    for record in records:
        code = codes.get(id(record))
        if code is None:
            code = codes[id(record)] = record.encode(target_bits) & chunk_mask
        append(code)
    return chunks


def _extend_nosq(values, records: Sequence[BranchRecord], num_bits: int) -> None:
    """Append NoSQ's history word after each of ``records`` to ``values``."""
    word = values[-1]
    word_mask = mask(num_bits)
    conditional = BranchKind.CONDITIONAL
    words = []
    for record in records:
        if record.kind is conditional:
            word = ((word << 1) | record.taken) & word_mask
        else:
            word = ((word << 2) | ((record.pc >> 2) & 0b11)) & word_mask
        words.append(word)
    values.extend(words)


def _extend_fold(
    values, done: int, chunks: array, offset: int, floor: int, length: int, width: int
) -> None:
    """Extend ``values``, whose last entry is the fold at record count
    ``done``, by one entry per count up to ``offset + len(chunks)``.

    ``chunks[t - offset]`` is record ``t``'s chunk; it enters the fold at
    count ``t + 1`` and leaves it at ``t + length + 1``, counting from
    record ``floor`` (the records before it never entered). A rolling fold
    evolves as ``v_t = rotl(v_{t-1}, r) ^ c_t ^ rotl(c_{t-L}, s)`` with
    ``r = 7 mod W``, ``s = 7L mod W`` and chunks cut to ``W`` bits. A short
    stretch (a plan chunk's branches) takes that recurrence. A long one (a
    whole trace's, a warming span's) takes its closed form in numpy,
    imported here at the first long stretch: the recurrence is linear over
    GF(2), so from the last entry ``v_k`` on, ``v_{k+i} = rotl(v_k ^ e_1 ^
    ... ^ e_i, r*i)`` with ``e_j = rotl(d_{k+j}, -r*j)`` and ``d_t = c_t ^
    rotl(c_{t-L}, s)``, one prefix XOR. Words wider than numpy's take the
    recurrence too.
    """
    count = offset + len(chunks)
    wmask = mask(width)
    rot_in = HISTORY_CHUNK_BITS % width
    rot_out = HISTORY_CHUNK_BITS * length % width
    leaves_from = floor + length  # the first count whose step drops a chunk
    if count - done < BULK_RECORDS or width > 63:
        value = values[-1]
        new = []
        for t in range(done, count):
            value = ((value << rot_in) | (value >> (width - rot_in))) & wmask
            value ^= chunks[t - offset] & wmask
            if t >= leaves_from:
                outgoing = chunks[t - length - offset] & wmask
                outgoing = (outgoing << rot_out) | (outgoing >> (width - rot_out))
                value ^= outgoing & wmask
            new.append(value)
        values.extend(new)
        return
    import numpy as np

    def rotl(words, amount):
        return ((words << amount) | (words >> (width - amount))) & wmask

    low = max(floor, done - length)  # the oldest record this stretch reads
    c = np.frombuffer(chunks, np.uint8)[low - offset : count - offset]
    c = c.astype(np.uint64) & np.uint64(wmask)
    outgoing = np.zeros(count - done, np.uint64)
    first = max(done, leaves_from)  # the first new record with an outgoing chunk
    if first < count:
        outgoing[first - done :] = c[first - length - low : count - length - low]
    steps = np.arange(1, count - done + 1, dtype=np.int64)
    d = c[done - low :] ^ rotl(outgoing, rot_out)
    e = rotl(d, (-rot_in * steps % width).astype(np.uint64))
    e[0] ^= np.uint64(values[-1])
    prefix = np.bitwise_xor.accumulate(e)
    result = rotl(prefix, (rot_in * steps % width).astype(np.uint64))
    values.frombytes(result.astype(f"u{values.itemsize}").tobytes())


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
