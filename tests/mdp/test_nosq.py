"""Tests for the NoSQ store-distance predictor."""

import pytest

from repro.analysis.figures import scaled_variant
from repro.isa.microop import BranchKind
from repro.mdp.nosq import NoSQPredictor, nosq_history_bits
from repro.sim.simulator import make_predictor
from tests.mdp.helpers import PredictorHarness


def harness(**kwargs):
    return PredictorHarness(NoSQPredictor(**kwargs))


class TestHistoryBits:
    def test_conditional_contributes_one_bit(self):
        h = harness()
        h.branch(taken=True)
        word = nosq_history_bits(h.history, h.history.snapshot(), 8)
        assert word & 1 == 1
        h.branch(taken=False)
        word = nosq_history_bits(h.history, h.history.snapshot(), 8)
        assert word & 1 == 0  # newest bit is the not-taken branch

    def test_call_contributes_two_pc_bits(self):
        h = harness()
        h.branch(kind=BranchKind.CALL, pc=0b1100)  # pc>>2 & 3 == 0b11
        word = nosq_history_bits(h.history, h.history.snapshot(), 8)
        assert word & 0b11 == 0b11

    def test_indirect_branches_invisible(self):
        h = harness()
        h.branch(kind=BranchKind.INDIRECT, target=0x900)
        assert nosq_history_bits(h.history, h.history.snapshot(), 8) == 0

    def test_word_width_capped(self):
        h = harness()
        for i in range(20):
            h.branch(taken=True, pc=0x400 + 4 * i)
        word = nosq_history_bits(h.history, h.history.snapshot(), 8)
        assert word < (1 << 8)


class TestTwoTables:
    def test_path_insensitive_fallback(self):
        """After training on one path, a different path still predicts via
        the PC-indexed table."""
        h = harness()
        h.branch(taken=True)
        h.teach_conflict(distance=0, inter_branches=0)
        # Different history now:
        h.branch(taken=False)
        h.branch(taken=False)
        h.store()
        load = h.load()
        assert load.prediction.distances == (0,)

    def test_path_sensitive_distinguishes_paths(self):
        """With both paths trained, each history retrieves its own distance."""
        h = harness()

        def run_path(taken, distance, train):
            h.branch(taken=taken, pc=0x450)
            store = h.store()
            for _ in range(distance):
                h.store(pc=0x700)
            load = h.load()
            if train:
                h.violate(load, store)
            return load

        # Warm until the 8-bit window is saturated and periodic (early rounds
        # have shorter, cold-start windows that hash differently).
        for _ in range(8):
            run_path(True, 0, train=True)
            run_path(False, 2, train=True)
        taken_load = run_path(True, 0, train=False)
        not_taken_load = run_path(False, 2, train=False)
        assert taken_load.prediction.distances == (0,)
        assert not_taken_load.prediction.distances == (2,)

    def test_untrained_no_dependence(self):
        h = harness()
        assert not h.load().prediction.is_dependence


class TestConfidence:
    def test_false_positives_disable_entry(self):
        h = harness(threshold=8, false_positive_penalty=64)
        h.teach_conflict(inter_branches=0)
        # Both tables hold an entry; each needs two false positives to fall
        # below the threshold, and they decay one at a time (the providing
        # entry is the one punished).
        for _ in range(6):
            load = h.load()
            if not load.prediction.is_dependence:
                break
            h.commit(load, false_positive=True)
        assert not h.load().prediction.is_dependence

    def test_violation_restores_confidence(self):
        h = harness(threshold=8, false_positive_penalty=64)
        h.teach_conflict(inter_branches=0)
        load = h.load()
        h.commit(load, false_positive=True)
        h.commit(h.load(), false_positive=True)
        h.teach_conflict(inter_branches=0)
        h.store()
        assert h.load().prediction.is_dependence


class TestStorage:
    def test_table2_size(self):
        """Table II: NoSQ = 19 KB (4K entries x 38 bits)."""
        assert NoSQPredictor().storage_kb() == pytest.approx(19.0, abs=0.1)

    def test_scaled(self):
        double = make_predictor(scaled_variant("nosq", 2.0))
        assert double.storage_kb() == pytest.approx(38.0, abs=0.2)
