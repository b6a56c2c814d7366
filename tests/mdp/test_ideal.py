"""Tests for the oracle predictors."""

import dataclasses

import pytest

from repro.mdp.ideal import AlwaysSpeculatePredictor, AlwaysWaitPredictor, IdealPredictor
from tests.mdp.helpers import PredictorHarness


class TestIdeal:
    def test_predicts_oracle_distance(self):
        harness = PredictorHarness(IdealPredictor())
        store = harness.store()
        harness.store(pc=0x700)
        load = harness.load(oracle=store)
        assert load.prediction.distances == (1,)

    def test_no_oracle_no_dependence(self):
        harness = PredictorHarness(IdealPredictor())
        load = harness.load()
        assert not load.prediction.is_dependence

    def test_strict_raises_on_violation(self):
        harness = PredictorHarness(IdealPredictor())
        store = harness.store()
        load = harness.load()
        with pytest.raises(AssertionError):
            harness.violate(load, store)

    def test_relaxed_counts_violations(self):
        harness = PredictorHarness(IdealPredictor(strict=False))
        store = harness.store()
        load = harness.load()
        harness.violate(load, store)
        assert harness.predictor.stats.trainings == 1

    def test_rejects_impossible_oracle(self):
        harness = PredictorHarness(IdealPredictor())
        store = harness.store()
        bad = type(store)(pc=store.pc, seq=store.seq, snapshot=store.snapshot,
                          store_number=99)
        with pytest.raises(ValueError):
            harness.load(oracle=bad)


class TestBlindOracles:
    def test_always_speculate_never_predicts(self):
        harness = PredictorHarness(AlwaysSpeculatePredictor())
        harness.store()
        load = harness.load()
        assert not load.prediction.is_dependence

    def test_always_wait_predicts_all_older(self):
        harness = PredictorHarness(AlwaysWaitPredictor())
        load = harness.load()
        assert load.prediction.wait_all_older

    def test_always_wait_rejects_violation(self):
        harness = PredictorHarness(AlwaysWaitPredictor())
        store = harness.store()
        load = harness.load()
        with pytest.raises(AssertionError):
            harness.violate(load, store)


class TestPhantomConflicts:
    """Wrong-path replay trains on phantom conflicts (``load_seq < 0``); a
    phantom never commits, so the oracles must not assert on one."""

    @pytest.mark.parametrize("predictor", ["ideal", "always-wait"])
    def test_oracles_run_with_wrong_path_replay(self, predictor):
        from repro.core.config import CoreConfig
        from repro.sim.simulator import simulate
        from repro.sim.spec import RunSpec

        spec = RunSpec(
            "502.gcc_1",
            predictor,
            config=CoreConfig().with_wrong_path(16),
            num_ops=6000,
        )
        result = simulate(spec)
        assert result.pipeline.violations == 0
        assert result.pipeline.wrong_path_trainings > 0
        assert result.mdp.trainings == result.pipeline.wrong_path_trainings

    def test_phantom_conflict_is_counted_not_asserted(self):
        for predictor in (IdealPredictor(), AlwaysWaitPredictor()):
            harness = PredictorHarness(predictor)
            store = harness.store()
            phantom = dataclasses.replace(harness.load(), seq=-1)
            harness.violate(phantom, store)
            assert predictor.stats.trainings == 1
