"""Tests for the global branch history log and its filtered views."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import history as history_module
from repro.frontend.history import (
    HISTORY_CHUNK_BITS,
    BranchRecord,
    GlobalHistory,
    HistoryView,
    encode_window,
)
from repro.isa.microop import BranchInfo, BranchKind
from repro.mdp.nosq import nosq_history_bits
from repro.mdp.tables import fold_window


def _record(history, kind, taken=True, pc=0x400, target=0x500):
    return history.record(pc, BranchInfo(kind=kind, taken=taken, target=target))


class TestViewFiltering:
    def test_divergent_view_contents(self):
        history = GlobalHistory()
        _record(history, BranchKind.CONDITIONAL)
        _record(history, BranchKind.CALL)
        _record(history, BranchKind.INDIRECT)
        _record(history, BranchKind.RETURN)
        _record(history, BranchKind.UNCONDITIONAL)
        assert len(history.divergent) == 2  # conditional + indirect
        assert len(history.nosq) == 2  # conditional + call

    def test_snapshot_counts_all_branches(self):
        history = GlobalHistory()
        assert history.snapshot() == 0
        _record(history, BranchKind.RETURN)
        assert history.snapshot() == 1


class TestWindows:
    def test_window_is_suffix_oldest_first(self):
        history = GlobalHistory()
        records = [
            _record(history, BranchKind.CONDITIONAL, taken=bool(i % 2), pc=0x400 + 4 * i)
            for i in range(6)
        ]
        snap = history.snapshot()
        window = history.divergent.window(snap, 3)
        assert list(window) == records[3:]

    def test_window_cold_start_short(self):
        history = GlobalHistory()
        _record(history, BranchKind.CONDITIONAL)
        assert len(history.divergent.window(history.snapshot(), 8)) == 1

    def test_window_excludes_records_after_snapshot(self):
        history = GlobalHistory()
        first = _record(history, BranchKind.CONDITIONAL)
        snap = history.snapshot()
        _record(history, BranchKind.CONDITIONAL, pc=0x900)
        window = history.divergent.window(snap, 8)
        assert list(window) == [first]

    def test_window_zero_length(self):
        history = GlobalHistory()
        _record(history, BranchKind.CONDITIONAL)
        assert history.divergent.window(history.snapshot(), 0) == ()


class TestCountBetween:
    def test_paper_n_semantics(self):
        """N = divergent branches between store and load (Sec. IV-A2)."""
        history = GlobalHistory()
        _record(history, BranchKind.CONDITIONAL)  # before the store
        store_snap = history.snapshot()
        _record(history, BranchKind.CONDITIONAL)  # between
        _record(history, BranchKind.CALL)  # between but NOT divergent
        _record(history, BranchKind.INDIRECT)  # between
        load_snap = history.snapshot()
        assert history.divergent.count_between(store_snap, load_snap) == 2

    def test_window_of_length_n_plus_one_includes_pre_store_branch(self):
        """The N+1 window reaches exactly one branch past the store (Fig. 5)."""
        history = GlobalHistory()
        selector = _record(history, BranchKind.INDIRECT, target=0x700)
        store_snap = history.snapshot()
        inter = _record(history, BranchKind.CONDITIONAL)
        load_snap = history.snapshot()
        n = history.divergent.count_between(store_snap, load_snap)
        window = history.divergent.window(load_snap, n + 1)
        assert list(window) == [selector, inter]


class TestEncoding:
    def test_encode_layout(self):
        record = BranchRecord(
            pc=0x400, kind=BranchKind.INDIRECT, taken=True, target=0b10110
        )
        encoded = record.encode(5)
        assert encoded & 0b11111 == 0b10110  # 5 target bits
        assert (encoded >> 5) & 1 == 1  # taken bit
        assert (encoded >> 6) & 1 == 1  # type bit (indirect)

    def test_encode_conditional_not_taken(self):
        record = BranchRecord(
            pc=0x400, kind=BranchKind.CONDITIONAL, taken=False, target=0x404
        )
        encoded = record.encode(5)
        assert (encoded >> 5) & 1 == 0
        assert (encoded >> 6) & 1 == 0

    def test_different_targets_distinguishable(self):
        a = BranchRecord(0x400, BranchKind.INDIRECT, True, 0x500)
        b = BranchRecord(0x400, BranchKind.INDIRECT, True, 0x504)
        assert a.encode(5) != b.encode(5)

    def test_encode_window(self):
        records = (
            BranchRecord(0x400, BranchKind.CONDITIONAL, True, 0x500),
            BranchRecord(0x404, BranchKind.INDIRECT, True, 0x600),
        )
        encoded = encode_window(records, 5)
        assert len(encoded) == 2
        assert encoded[0] == records[0].encode(5)

    @given(st.integers(1, 8))
    def test_encode_fits_width(self, target_bits):
        record = BranchRecord(0x7FC, BranchKind.INDIRECT, True, 0xFFFFFFFF)
        assert record.encode(target_bits) < (1 << (target_bits + 2))


class TestPropertyWindow:
    @given(
        st.lists(
            st.sampled_from(list(BranchKind)), min_size=0, max_size=40
        ),
        st.integers(0, 12),
    )
    def test_window_matches_reference(self, kinds, length):
        """window(snapshot, L) == last L divergent records, by brute force."""
        history = GlobalHistory()
        divergent_reference = []
        for index, kind in enumerate(kinds):
            record = _record(history, kind, taken=bool(index % 2), pc=0x400 + index * 4)
            if kind.is_divergent:
                divergent_reference.append(record)
        snap = history.snapshot()
        expected = tuple(divergent_reference[-length:]) if length else ()
        assert history.divergent.window(snap, length) == expected


class TestPickleCodec:
    """Views pickle as a table of distinct records plus an index array."""

    @staticmethod
    def _history(seed, branches=600):
        rng = random.Random(seed)
        history = GlobalHistory()
        static = [
            (0x400 + 4 * i, rng.choice(list(BranchKind)), rng.randint(1, 4))
            for i in range(12)
        ]
        for _ in range(branches):
            pc, kind, targets = rng.choice(static)
            taken = rng.random() < 0.6
            target = 0x800 + 64 * rng.randrange(targets) if taken else pc + 4
            history.record(pc, BranchInfo(kind=kind, taken=taken, target=target))
        return history

    def test_round_trip_keeps_answers(self):
        history = self._history(seed=5)
        restored = pickle.loads(pickle.dumps(history))
        assert restored.checkpoint_digest() == history.checkpoint_digest()
        assert restored.snapshot() == history.snapshot()
        for name in ("divergent", "nosq"):
            view, copy = getattr(history, name), getattr(restored, name)
            assert copy._records == view._records
            assert copy.positions() == view.positions()
            for snapshot in range(0, history.snapshot() + 1, 7):
                assert copy.count_before(snapshot) == view.count_before(snapshot)
                for length in (0, 1, 5, 40):
                    assert copy.window(snapshot, length) == view.window(
                        snapshot, length
                    )

    def test_decoded_equal_records_are_one_object(self):
        history = self._history(seed=9)
        restored = pickle.loads(pickle.dumps(history))
        shared = {}
        for view in (restored.divergent, restored.nosq):
            for record in view._records:
                assert shared.setdefault(record, record) is record
        # Recording after a restore reuses the decoded objects.
        last = restored.divergent._records[-1]
        again = restored.record(
            last.pc, BranchInfo(kind=last.kind, taken=last.taken, target=last.target)
        )
        assert again is last

    def test_equal_but_distinct_records_share_one_table_slot(self):
        view = HistoryView()
        for position in range(4):
            record = BranchRecord(0x400, BranchKind.CONDITIONAL, True, 0x500)
            view.append(record, position)
        state = view.__getstate__()
        assert len(state["table"]) == 1
        assert list(state["index"]) == [0, 0, 0, 0]
        restored = pickle.loads(pickle.dumps(view))
        assert len({id(record) for record in restored._records}) == 1
        assert restored.positions() == (0, 1, 2, 3)


#: A stretch of branches (pc slot, kind, taken, target) and whether the
#: tables are read after it, so each table grows by random increments.
_stretches = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, 15),
                st.sampled_from(list(BranchKind)),
                st.booleans(),
                st.integers(0, 2**16 - 1),
            ),
            max_size=120,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


class TestHistoryTables:
    """The views' memoised tables against their one-window references."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        stretches=_stretches,
        length=st.integers(1, 2000),
        # Widths below the 7-bit chunk, up to 32, and past numpy's words.
        width=st.one_of(
            st.sampled_from([1, 2, 3, 5, 6, 7, 8, 23, 33, 64, 70]),
            st.integers(1, 32),
        ),
        target_bits=st.sampled_from([0, 1, 5, 8]),
        num_bits=st.integers(0, 16),
        cut=st.integers(0, 5),
    )
    def test_every_entry_matches_its_window(
        self, stretches, length, width, target_bits, num_bits, cut
    ):
        default = history_module.BULK_RECORDS
        # Grow every stretch in bulk (numpy), then only long ones.
        for bulk_records in (1, default):
            history_module.BULK_RECORDS = bulk_records
            try:
                self._check_tables(
                    stretches, cut, length, width, target_bits, num_bits
                )
            finally:
                history_module.BULK_RECORDS = default

    @staticmethod
    def _check_tables(stretches, cut, length, width, target_bits, num_bits):
        history = GlobalHistory()
        twin = GlobalHistory()  # same log, tables never read
        restored = None  # decoded from ``history`` before stretch ``cut``
        for step, (stretch, read) in enumerate(stretches):
            if step == cut:
                restored = pickle.loads(pickle.dumps(history))
                bases = len(history.divergent), len(history.nosq)
            logs = [history, twin] + ([restored] if restored else [])
            for slot, kind, taken, target in stretch:
                info = BranchInfo(kind=kind, taken=taken, target=target)
                for log in logs:
                    log.record(0x400 + 4 * slot, info)
            if read:
                for log in (history, restored) if restored else (history,):
                    log.divergent.fold_table(length, width, target_bits)
                    log.nosq.nosq_words(num_bits)
        divergent, nosq = history.divergent, history.nosq
        folds = divergent.fold_table(length, width, target_bits)
        words = nosq.nosq_words(num_bits)
        assert len(folds) == len(divergent) + 1
        assert len(words) == len(nosq) + 1
        for snapshot in range(history.snapshot() + 1):
            window = divergent.window(snapshot, length)
            assert folds[divergent.count_before(snapshot)] == fold_window(
                encode_window(window, target_bits), HISTORY_CHUNK_BITS, width
            )
            assert words[nosq.count_before(snapshot)] == nosq_history_bits(
                history, snapshot, num_bits
            )

        # The tables are not pickled.
        assert pickle.dumps(history) == pickle.dumps(twin)
        # A decoded view's tables hold the counts from its count at decode
        # on, equal to the whole ones; a read below it raises.
        if restored is None:
            restored = pickle.loads(pickle.dumps(history))
            bases = len(divergent), len(nosq)
        for table, whole, base in (
            (restored.divergent.fold_table(length, width, target_bits), folds, bases[0]),
            (restored.nosq.nosq_words(num_bits), words, bases[1]),
        ):
            assert len(table) == len(whole)
            assert [table[k] for k in range(base, len(whole))] == list(whole[base:])
            if base:
                with pytest.raises(IndexError, match="restore point"):
                    table[base - 1]

    def test_a_table_is_one_object_extended_in_place(self):
        history = GlobalHistory()
        _record(history, BranchKind.CONDITIONAL)
        table = history.divergent.fold_table(4, 6, 5)
        _record(history, BranchKind.INDIRECT)
        assert history.divergent.fold_table(4, 6, 5) is table
        assert len(table) == 3

    def test_non_positive_length_or_width_is_refused(self):
        view = GlobalHistory().divergent
        for length, width in ((0, 8), (4, 0)):
            with pytest.raises(ValueError):
                view.fold_table(length, width, 5)

