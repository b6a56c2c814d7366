"""Tests for shared prediction-table structures and history folding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mdp.tables import ChunkedFoldedHistory, SetAssocTable, fold_window
from tests.reference_models import ReferenceSetAssocTable


def valid_slots(table):
    return [slot for slot, tag in enumerate(table.tags) if tag >= 0]


class TestSetAssocTable:
    def test_lookup_miss(self):
        table = SetAssocTable(num_sets=4, ways=2)
        assert table.lookup(0, tag=5) is None

    def test_allocate_then_lookup(self):
        table = SetAssocTable(num_sets=4, ways=2)
        slot = table.allocate(1, tag=7)
        table.distance[slot] = 3
        found = table.lookup(1, tag=7)
        assert found == slot
        assert table.tags[found] == 7
        assert table.distance[found] == 3

    def test_same_tag_reuses_entry(self):
        table = SetAssocTable(num_sets=2, ways=2)
        first = table.allocate(0, tag=9)
        assert table.allocate(0, tag=9) == first
        assert valid_slots(table) == [first]

    def test_prefers_invalid_ways(self):
        table = SetAssocTable(num_sets=1, ways=2)
        a = table.allocate(0, tag=1)
        b = table.allocate(0, tag=2)
        assert b != a
        assert table.lookup(0, tag=1) == a  # the first entry survived

    def test_prefers_zero_confidence_victim(self):
        table = SetAssocTable(num_sets=1, ways=2)
        a = table.allocate(0, tag=1)
        table.confidence[a] = 5
        b = table.allocate(0, tag=2)
        table.confidence[b] = 0
        victim = table.allocate(0, tag=3)
        assert victim == b  # the dead (zero-confidence) entry goes first
        assert table.lookup(0, tag=2) is None
        assert table.lookup(0, tag=3) == b

    def test_lru_victim_when_all_confident(self):
        table = SetAssocTable(num_sets=1, ways=2)
        a = table.allocate(0, tag=1)
        table.confidence[a] = 5
        b = table.allocate(0, tag=2)
        table.confidence[b] = 5
        table.lookup(0, tag=1)  # A becomes MRU
        victim = table.allocate(0, tag=3)
        assert victim == b

    def test_index_wraps_modulo_sets(self):
        table = SetAssocTable(num_sets=4, ways=1)
        slot = table.allocate(9, tag=1)  # set 1
        assert slot == 1
        assert table.lookup(5, tag=1) == slot

    def test_clear(self):
        table = SetAssocTable(num_sets=2, ways=2)
        slot = table.allocate(0, tag=1)
        table.confidence[slot] = 3
        table.useful[slot] = 1
        table.clear()
        assert valid_slots(table) == []
        assert table.lookup(0, tag=1) is None
        assert not any(table.confidence) and not any(table.useful)

    def test_total_entries(self):
        assert SetAssocTable(num_sets=128, ways=4).total_entries == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssocTable(num_sets=0, ways=4)

    def test_slot_map_rebuilt_by_pickle(self):
        import pickle

        table = SetAssocTable(num_sets=4, ways=2)
        for index, tag in ((0, 3), (1, 3), (4, 8), (2, 5)):
            table.distance[table.allocate(index, tag)] = tag
        table.lookup(0, tag=3)
        copy = pickle.loads(pickle.dumps(table))
        for index, tag in ((0, 3), (1, 3), (4, 8), (2, 5), (3, 1)):
            assert copy.lookup(index, tag) == table.lookup(index, tag)
        assert copy._recency == table._recency
        assert copy.distance == table.distance


class TestRecency:
    """True-LRU order per set, read as most-recent-first slot lists."""

    def test_initial_victim_is_way_zero(self):
        table = SetAssocTable(num_sets=2, ways=4)
        assert table._recency[1][-1] == 4  # set 1's way 0
        # ...so a cold set fills way 0 first.
        assert table.allocate(1, tag=1) == 4

    def test_touch_promotes(self):
        table = SetAssocTable(num_sets=1, ways=4)
        for tag in range(4):
            table.allocate(0, tag)
        table.lookup(0, tag=2)
        assert table._recency[0][0] == 2
        assert table._recency[0][-1] != 2

    def test_lookup_without_touch_keeps_order(self):
        table = SetAssocTable(num_sets=1, ways=3)
        for tag in range(3):
            table.allocate(0, tag)
        before = list(table._recency[0])
        assert table.lookup(0, tag=0, touch=False) == 0
        assert table._recency[0] == before

    def test_cold_fill_order(self):
        # Filling ways 0,1,2,3 in order leaves way 0 as the LRU victim.
        table = SetAssocTable(num_sets=1, ways=4)
        for tag in range(4):
            slot = table.allocate(0, tag)
            assert slot == tag
            table.confidence[slot] = 1
        assert table._recency[0][-1] == 0
        assert table.allocate(0, tag=9) == 0

    def test_sequence(self):
        table = SetAssocTable(num_sets=1, ways=3)
        for tag in range(3):
            table.confidence[table.allocate(0, tag)] = 1
        table.lookup(0, tag=0)
        assert table._recency[0] == [0, 2, 1]
        assert table.allocate(0, tag=7) == 1  # the LRU victim

    def test_single_way(self):
        table = SetAssocTable(num_sets=1, ways=1)
        assert table._recency[0] == [0]
        assert table.allocate(0, tag=1) == 0
        table.confidence[0] = 3
        assert table.allocate(0, tag=2) == 0
        assert table.lookup(0, tag=1) is None

    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5)), max_size=60),
    )
    def test_invariants(self, num_sets, ways, accesses):
        table = SetAssocTable(num_sets, ways)
        for index, tag in accesses:
            slot = table.allocate(index, tag)
            table.confidence[slot] = 1
            set_index = index % num_sets
            order = table._recency[set_index]
            base = set_index * ways
            # Recency is always a permutation of the set's slots...
            assert sorted(order) == list(range(base, base + ways))
            # ...with the just-allocated slot most recent.
            assert order[0] == slot
            if ways > 1:
                assert order[-1] != slot


class TestFoldWindow:
    def test_single_chunk_identity(self):
        assert fold_window([0b1010101], 7, 16) == 0b1010101

    def test_position_matters(self):
        assert fold_window([1, 2], 7, 16) != fold_window([2, 1], 7, 16)

    def test_empty_window(self):
        assert fold_window([], 7, 16) == 0

    def test_leading_zero_chunks_neutral(self):
        """Cold-start short windows equal zero-padded full windows."""
        assert fold_window([5, 9], 7, 16) == fold_window([0, 0, 5, 9], 7, 16)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            fold_window([1], 7, 0)

    @given(
        st.lists(st.integers(0, 127), max_size=40),
        st.integers(2, 20),
    )
    def test_fits_width(self, chunks, width):
        assert 0 <= fold_window(chunks, 7, width) < (1 << width)


class TestChunkedFoldedHistory:
    @given(
        st.lists(st.integers(0, 127), min_size=1, max_size=60),
        st.integers(1, 12),
        st.integers(2, 18),
    )
    def test_incremental_equals_reference(self, chunks, length, width):
        """The rolling fold always equals refolding its window from scratch."""
        rolling = ChunkedFoldedHistory(length, 7, width)
        for chunk in chunks:
            rolling.push(chunk)
            assert rolling.value == fold_window(rolling.window(), 7, width)

    def test_window_contents(self):
        rolling = ChunkedFoldedHistory(3, 7, 8)
        for chunk in (1, 2, 3, 4):
            rolling.push(chunk)
        assert rolling.window() == (2, 3, 4)

    def test_same_content_same_fold(self):
        """Content-determinism: what makes predict/train lookups agree."""
        a = ChunkedFoldedHistory(4, 7, 10)
        b = ChunkedFoldedHistory(4, 7, 10)
        for chunk in (9, 9, 9, 5, 6, 7, 8):
            a.push(chunk)
        for chunk in (1, 2, 3, 5, 6, 7, 8):  # different prefix, same window
            b.push(chunk)
        assert a.window() == b.window()
        assert a.value == b.value

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkedFoldedHistory(0, 7, 8)


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("lookup"), st.integers(0, 11), st.integers(0, 5), st.booleans()
        ),
        st.tuples(
            st.just("allocate"),
            st.integers(0, 11),
            st.integers(0, 5),
            # distance, confidence, useful: None leaves the field as it was,
            # as PHAST leaves useful and MDP-TAGE leaves confidence.
            st.one_of(st.none(), st.integers(0, 127)),
            st.one_of(st.none(), st.integers(0, 3)),
            st.one_of(st.none(), st.integers(0, 1)),
        ),
        st.tuples(st.just("feedback"), st.integers(0, 63), st.integers(0, 3)),
        st.tuples(st.just("clear")),
    ),
    max_size=80,
)


def _apply(table, reference, slot_of, op):
    """Run one generated op on both tables and check the answers agree."""
    kind = op[0]
    if kind == "lookup":
        _, index, tag, touch = op
        found = reference.lookup(index, tag, touch)
        expected = None if found is None else slot_of[id(found)]
        assert table.lookup(index, tag, touch) == expected
    elif kind == "allocate":
        _, index, tag, distance, confidence, useful = op
        entry = reference.allocate(index, tag)
        slot = table.allocate(index, tag)
        assert slot == slot_of[id(entry)]
        entry.valid = True
        entry.tag = tag
        for name, value in (
            ("distance", distance),
            ("confidence", confidence),
            ("useful", useful),
        ):
            if value is not None:
                setattr(entry, name, value)
                getattr(table, name)[slot] = value
    elif kind == "feedback":
        # Commit-time confidence writes through a held slot.
        _, pick, value = op
        slot = pick % len(table.tags)
        reference.entries()[slot].confidence = value
        table.confidence[slot] = value
    else:
        reference.clear()
        table.clear()


def _assert_same(table, reference):
    """Equal contents and recency; returns the reference's entry -> slot map."""
    ways = reference.ways
    for slot, entry in enumerate(reference.entries()):
        assert table.tags[slot] == (entry.tag if entry.valid else -1)
        assert table.distance[slot] == entry.distance
        assert table.confidence[slot] == entry.confidence
        assert table.useful[slot] == entry.useful
    for set_index, lru in enumerate(reference._lru):
        base = set_index * ways
        assert table._recency[set_index] == [base + way for way in lru.recency_order()]
    return {id(entry): slot for slot, entry in enumerate(reference.entries())}


_GEOMETRIES = [(1, 1), (1, 4), (4, 1), (3, 2), (2, 5)]


class TestMatchesReferenceModel:
    """The flat table changes the layout only: lookups, victims, recency
    and contents must equal the object-per-entry model's."""

    @pytest.mark.parametrize("num_sets, ways", _GEOMETRIES)
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_op_sequences_agree(self, num_sets, ways, ops):
        table = SetAssocTable(num_sets, ways)
        reference = ReferenceSetAssocTable(num_sets, ways)
        slot_of = _assert_same(table, reference)
        for op in ops:
            _apply(table, reference, slot_of, op)
            _assert_same(table, reference)

    @pytest.mark.parametrize("num_sets, ways", _GEOMETRIES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_streams_agree(self, num_sets, ways, seed):
        # Long streams over a few tags per set, so sets fill, zero- and
        # non-zero-confidence victims mix, and entries are re-allocated.
        rng = random.Random(seed)
        tags = 2 * ways + 1
        table = SetAssocTable(num_sets, ways)
        reference = ReferenceSetAssocTable(num_sets, ways)
        slot_of = _assert_same(table, reference)
        for _ in range(2000):
            index, tag = rng.randrange(4 * num_sets), rng.randrange(tags)
            roll = rng.random()
            if roll < 0.4:
                op = ("lookup", index, tag, rng.random() < 0.8)
            elif roll < 0.75:
                op = (
                    "allocate",
                    index,
                    tag,
                    rng.randrange(128),
                    rng.choice([None, 0, 0, 1, 3]),
                    rng.choice([None, 0, 1]),
                )
            elif roll < 0.998:
                op = ("feedback", rng.randrange(1 << 10), rng.choice([0, 0, 2]))
            else:
                op = ("clear",)
            _apply(table, reference, slot_of, op)
            _assert_same(table, reference)
