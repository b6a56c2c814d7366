"""Tests for MDP-TAGE and MDP-TAGE-S."""

import pytest

from repro.analysis.figures import scaled_variant
from repro.frontend.tage import geometric_history_lengths
from repro.mdp.mdp_tage import ALL_OLDER, MDPTagePredictor
from repro.sim.simulator import make_predictor
from tests.mdp.helpers import PredictorHarness


def harness(**kwargs):
    return PredictorHarness(MDPTagePredictor(**kwargs))


def s_harness(**kwargs):
    return PredictorHarness(MDPTagePredictor.tage_s(**kwargs))


class TestConfiguration:
    def test_default_lengths_geometric_6_2000(self):
        predictor = MDPTagePredictor()
        assert predictor._lengths == geometric_history_lengths(6, 2000, 12)

    def test_tage_s_uses_phast_lengths(self):
        predictor = MDPTagePredictor.tage_s()
        assert predictor._lengths == [0, 2, 4, 6, 8, 12, 16, 32]
        assert predictor.name == "mdp-tage-s"

    def test_table2_sizes(self):
        """Table II: MDP-TAGE ~38.6 KB; MDP-TAGE-S ~13 KB."""
        assert MDPTagePredictor().storage_kb() == pytest.approx(38.6, abs=2.0)
        assert MDPTagePredictor.tage_s().storage_kb() == pytest.approx(13.0, abs=0.5)

    def test_scaled(self):
        half = make_predictor(scaled_variant("mdp-tage", 0.5))
        assert half.storage_kb() == pytest.approx(
            38.6 / 2, abs=1.5
        )


class TestTraining:
    def test_learns_stable_conflict(self):
        h = s_harness()
        for _ in range(2):
            h.teach_conflict(distance=1, inter_branches=0)
            h.store(pc=0x700)
        h.store(pc=0x500)
        h.store(pc=0x700)
        load = h.load()
        assert load.prediction.distances == (1,)

    def test_first_allocation_at_shortest_length(self):
        h = s_harness()
        h.teach_conflict(distance=0, inter_branches=0)
        # Table position 0 for TAGE-S is history length 0 (PC-only).
        entries = [tag for tag in h.predictor._tables[0].table.tags if tag >= 0]
        assert len(entries) == 1

    def test_escalation_on_wrong_prediction(self):
        """A misprediction allocates at a longer history than the provider."""
        h = s_harness()
        h.teach_conflict(distance=0, inter_branches=0)  # PC-only entry
        # Same PC, different distance: the PC entry now mispredicts.
        store = h.store(pc=0x500)
        h.store(pc=0x700)
        h.branch()
        load = h.load()
        assert load.prediction.is_dependence  # provider = table 0
        h.violate(load, store)
        longer_entries = [
            tag
            for table in h.predictor._tables[1:]
            for tag in table.table.tags
            if tag >= 0
        ]
        assert len(longer_entries) == 1

    def test_all_older_encoding(self):
        h = s_harness()
        store = h.store()
        for _ in range(ALL_OLDER + 5):
            h.store(pc=0x700)
        load = h.load()
        h.violate(load, store)
        load2_pred = None
        # Rebuild same context: the distance saturated to ALL_OLDER.
        h.store()
        for _ in range(ALL_OLDER + 5):
            h.store(pc=0x700)
        load2 = h.load()
        assert load2.prediction.wait_all_older


class TestUsefulBit:
    def test_false_dep_reset_is_probabilistic(self):
        h = s_harness()
        h.teach_conflict(inter_branches=0)
        # With 1/256 probability per event, a handful of FPs rarely clears it.
        survived = 0
        for _ in range(10):
            load = h.load()
            if load.prediction.is_dependence:
                survived += 1
            h.commit(load, false_positive=True)
        assert survived >= 8

    def test_periodic_reset_forgets(self):
        predictor = MDPTagePredictor.tage_s()
        predictor._reset_period = 8
        h = PredictorHarness(predictor)
        h.teach_conflict(inter_branches=0)
        for _ in range(10):
            h.load(pc=0x900)
        h.store()
        assert not h.load().prediction.is_dependence


class TestHistorySync:
    def test_rejects_backwards_snapshots(self):
        h = harness()
        h.branch()
        h.load()
        with pytest.raises(ValueError):
            h.predictor._sync(h.history, 0)

    def test_long_histories_cheap_to_maintain(self):
        """Rolling folds keep per-branch cost constant even at length 2000."""
        h = harness()
        for i in range(300):
            h.branch(pc=0x400 + (i % 50) * 4, taken=bool(i % 3))
            if i % 20 == 0:
                h.load(pc=0x600)
        assert h.predictor.stats.load_predictions == 15
