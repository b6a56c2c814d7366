"""Tests for the Store Sets predictor."""

import pytest

from repro.analysis.figures import scaled_variant
from repro.mdp.store_sets import StoreSetsPredictor
from repro.sim.simulator import make_predictor
from tests.mdp.helpers import PredictorHarness


def harness(**kwargs):
    return PredictorHarness(StoreSetsPredictor(**kwargs))


class TestSetFormation:
    def test_violation_creates_set(self):
        h = harness()
        store = h.store(pc=0x500)
        load = h.load(pc=0x600)
        h.violate(load, store)
        # A new instance of the store populates the LFST...
        new_store = h.store(pc=0x500)
        # ...and the load now depends on that instance.
        load2 = h.load(pc=0x600)
        assert load2.prediction.store_seqs == (new_store.seq,)

    def test_untrained_predicts_nothing(self):
        h = harness()
        h.store(pc=0x500)
        load = h.load(pc=0x600)
        assert not load.prediction.is_dependence

    def test_no_store_instance_no_dependence(self):
        """Implicit path sensitivity: no in-flight instance -> no wait."""
        h = harness()
        store = h.store(pc=0x500)
        load = h.load(pc=0x600)
        h.violate(load, store)
        h.predictor.on_store_commit(store.seq, store.pc)
        # The LFST slot was invalidated and no new instance was fetched.
        load2 = h.load(pc=0x600)
        assert not load2.prediction.is_dependence


class TestSerialisation:
    def test_stores_of_a_set_serialise(self):
        h = harness()
        store_a = h.store(pc=0x500)
        load = h.load(pc=0x600)
        h.violate(load, store_a)
        first = h.store(pc=0x500)
        second = h.store(pc=0x500)  # same set: must wait for `first`
        # The second dispatch returned a dependence on the first instance.
        # (The harness does not capture store predictions, so probe directly.)
        prediction = h.predictor.on_store_dispatch(
            __import__("repro.mdp.base", fromlist=["StoreDispatchInfo"]).StoreDispatchInfo(
                pc=0x500, seq=999, hist_snapshot=h.history.snapshot(),
                store_number=99, history=h.history,
            )
        )
        assert prediction.store_seqs  # depends on the previous instance

    def test_load_waits_on_youngest_instance(self):
        """The documented Store Sets weakness with multiple in-flight instances."""
        h = harness()
        store = h.store(pc=0x500)
        load = h.load(pc=0x600)
        h.violate(load, store)
        h.store(pc=0x500)
        youngest = h.store(pc=0x500)
        load2 = h.load(pc=0x600)
        assert load2.prediction.store_seqs == (youngest.seq,)


class TestMerging:
    def test_two_sets_merge_on_shared_load(self):
        h = harness()
        # Load conflicts with store A, then with store B: both end in one set.
        store_a = h.store(pc=0x500)
        load = h.load(pc=0x600)
        h.violate(load, store_a)
        store_b = h.store(pc=0x504)
        load2 = h.load(pc=0x600)
        h.violate(load2, store_b)
        # Now a new instance of A must serialise against a new instance of B.
        h.store(pc=0x504)
        from repro.mdp.base import StoreDispatchInfo

        prediction = h.predictor.on_store_dispatch(
            StoreDispatchInfo(pc=0x500, seq=500, hist_snapshot=0,
                              store_number=50, history=h.history)
        )
        assert prediction.is_dependence


class TestReset:
    def test_periodic_reset_clears_tables(self):
        h = harness(reset_interval=4)
        store = h.store(pc=0x500)
        load = h.load(pc=0x600)
        h.violate(load, store)
        # Enough accesses to cross the reset boundary.
        for _ in range(6):
            h.load(pc=0x900)
        h.store(pc=0x500)
        load2 = h.load(pc=0x600)
        assert not load2.prediction.is_dependence


class TestStorage:
    def test_table2_size(self):
        """Table II: Store Sets = 18.5 KB (8K x 13b SSIT + 4K x 11b LFST)."""
        predictor = StoreSetsPredictor()
        assert predictor.storage_kb() == pytest.approx(18.5, abs=0.1)

    def test_scaled(self):
        half = make_predictor(scaled_variant("store-sets", 0.5))
        assert half.storage_kb() == pytest.approx(18.5 / 2, abs=0.1)
