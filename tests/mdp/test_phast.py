"""Tests for PHAST — the paper's contribution (Sec. IV)."""

import pytest

from repro.analysis.figures import scaled_variant
from repro.isa.microop import BranchKind
from repro.mdp.phast import DEFAULT_HISTORY_LENGTHS, PHASTPredictor
from repro.sim.simulator import make_predictor
from tests.mdp.helpers import PredictorHarness


def harness(**kwargs):
    return PredictorHarness(PHASTPredictor(**kwargs))


class TestConfiguration:
    def test_paper_ladder(self):
        assert DEFAULT_HISTORY_LENGTHS == (0, 2, 4, 6, 8, 12, 16, 32)

    def test_table2_size(self):
        """Table II: PHAST = 14.5 KB (4K entries x 29 bits)."""
        assert PHASTPredictor().storage_kb() == pytest.approx(14.5, abs=0.1)

    def test_trains_at_commit(self):
        assert PHASTPredictor.trains_at_commit is True

    def test_scaled_half_budget(self):
        """The 7.25 KB point of Fig. 13."""
        half = make_predictor(scaled_variant("phast", 0.5))
        assert half.storage_kb() == pytest.approx(7.25, abs=0.1)

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            PHASTPredictor(history_lengths=())
        with pytest.raises(ValueError):
            PHASTPredictor(history_lengths=(4, 2))
        with pytest.raises(ValueError):
            PHASTPredictor(history_lengths=(2, 2, 4))


class TestTruncation:
    """Sec. IV-B: 'histories not covered by this sequence are truncated',
    e.g. lengths 9, 10, 11 use the 8 branches closest to the load."""

    def test_exact_lengths_kept(self):
        predictor = PHASTPredictor()
        for length in DEFAULT_HISTORY_LENGTHS:
            assert predictor.training_length(length) == length

    def test_nine_ten_eleven_truncate_to_eight(self):
        predictor = PHASTPredictor()
        for required in (9, 10, 11):
            assert predictor.training_length(required) == 8

    def test_one_truncates_to_zero(self):
        assert PHASTPredictor().training_length(1) == 0

    def test_beyond_max_truncates_to_max(self):
        assert PHASTPredictor().training_length(100) == 32


class TestTraining:
    def test_single_entry_per_dependence(self):
        """The key claim: one conflict trains exactly one entry in one table."""
        h = harness()
        h.teach_conflict(distance=1, inter_branches=1)  # required length 2
        valid = [
            (position, slot)
            for position, table in enumerate(h.predictor._tables)
            for slot, tag in enumerate(table.tags)
            if tag >= 0
        ]
        assert len(valid) == 1
        position, slot = valid[0]
        assert DEFAULT_HISTORY_LENGTHS[position] == 2
        assert h.predictor._tables[position].distance[slot] == 1
        assert h.predictor._tables[position].confidence[slot] == 15

    def test_trains_at_required_length_table(self):
        h = harness()
        h.teach_conflict(distance=0, inter_branches=5)  # required 6
        trained = [
            position
            for position, table in enumerate(h.predictor._tables)
            if any(tag >= 0 for tag in table.tags)
        ]
        assert trained == [DEFAULT_HISTORY_LENGTHS.index(6)]

    def test_repeat_conflict_updates_same_entry(self):
        # The first activation's window is cold-start short, so it may train
        # a separate entry; from the second activation on, the context is
        # periodic and every further conflict updates the SAME entry.
        h = harness()
        h.teach_conflict(distance=1, inter_branches=1)
        h.teach_conflict(distance=1, inter_branches=1)
        count_after_two = sum(
            tag >= 0 for table in h.predictor._tables for tag in table.tags
        )
        for _ in range(4):
            h.teach_conflict(distance=1, inter_branches=1)
        count_after_six = sum(
            tag >= 0 for table in h.predictor._tables for tag in table.tags
        )
        assert count_after_six == count_after_two <= 2


class TestPrediction:
    @staticmethod
    def _context(h, distance, inter):
        """Replay teach_conflict's exact event pattern without training."""
        store = h.store(pc=0x500)
        for _ in range(distance):
            h.store(pc=0x700)
        for index in range(inter):
            h.branch(pc=0x800 + 4 * index)
        return h.load(pc=0x600), store

    def test_predicts_learned_dependence(self):
        h = harness()
        h.teach_conflict(distance=2, inter_branches=1)
        h.teach_conflict(distance=2, inter_branches=1)  # past cold start
        load, _ = self._context(h, distance=2, inter=1)
        assert load.prediction.distances == (2,)

    def test_distinguishes_paths_via_pre_store_branch_target(self):
        """Fig. 5: identical store->load code, different path before the store."""
        h = harness()

        def conflict(path, distance, train):
            # Divergent branch BEFORE the store, distinct destination per path.
            h.branch(kind=BranchKind.INDIRECT, pc=0x450, target=0x900 + 4 * path)
            store = h.store(pc=0x500 + 4 * path)
            for _ in range(distance):
                h.store(pc=0x700)
            h.branch(pc=0x800)  # the single inter branch, same on both paths
            load = h.load()
            if train:
                h.violate(load, store)
            return load

        for _ in range(2):
            conflict(0, 0, train=True)
            conflict(1, 1, train=True)
        assert conflict(0, 0, train=False).prediction.distances == (0,)
        assert conflict(1, 1, train=False).prediction.distances == (1,)

    def test_longest_match_wins(self):
        h = harness()
        # Train the same PC at length 0 (PC-only) with distance 0...
        store = h.store(pc=0x500)
        load = h.load(pc=0x600)
        h.violate(load, store)  # required 1 -> table len 0, distance 0
        # ...and at length 4 with distance 3 (warm twice for stable windows).
        h.teach_conflict(distance=3, inter_branches=3)
        h.teach_conflict(distance=3, inter_branches=3)
        load, _ = self._context(h, distance=3, inter=3)
        # Both the PC-only and the length-4 entries match; longest wins.
        assert load.prediction.distances == (3,)

    def test_no_confident_match_no_dependence(self):
        h = harness()
        assert not h.load().prediction.is_dependence


class TestConfidence:
    """Sec. IV-A2: reset to max on correct wait, decrement otherwise."""

    @staticmethod
    def _predicting_load(h):
        h.store(pc=0x500)
        h.branch(pc=0x800)
        load = h.load(pc=0x600)
        assert load.prediction.is_dependence
        return load

    def test_correct_wait_resets_to_max(self):
        h = harness()
        h.teach_conflict(inter_branches=1)
        h.teach_conflict(inter_branches=1)
        load = self._predicting_load(h)
        table, slot = h.predictor._pending[load.seq]
        table.confidence[slot] = 3
        h.commit(load, waited_correct=True)
        assert table.confidence[slot] == 15

    def test_wrong_wait_decrements(self):
        h = harness()
        h.teach_conflict(inter_branches=1)
        h.teach_conflict(inter_branches=1)
        load = self._predicting_load(h)
        table, slot = h.predictor._pending[load.seq]
        h.commit(load, waited_correct=False, false_positive=True)
        assert table.confidence[slot] == 14

    def test_zero_confidence_disables_prediction(self):
        h = harness()
        h.teach_conflict(inter_branches=1)
        h.teach_conflict(inter_branches=1)
        for _ in range(20):
            h.store(pc=0x500)
            h.branch(pc=0x800)
            load = h.load(pc=0x600)
            if not load.prediction.is_dependence:
                break
            h.commit(load, waited_correct=False, false_positive=True)
        h.store(pc=0x500)
        h.branch(pc=0x800)
        assert not h.load(pc=0x600).prediction.is_dependence
