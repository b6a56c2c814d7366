"""Tests for the one-call simulation API."""

import pytest

from repro.core.config import GENERATIONS
from repro.isa.artifacts import TraceStore, trace_key
from repro.mdp.ideal import IdealPredictor
from repro.mdp.phast import PHASTPredictor
from repro.sim import simulator
from repro.sim.simulator import (
    PREDICTOR_FACTORIES,
    available_predictors,
    clear_trace_cache,
    get_trace,
    make_predictor,
    register_predictor,
    simulate,
    trace_cache_info,
    unregister_predictor,
)
from repro.sim.spec import RunSpec
from repro.workloads.spec2017 import workload


class TestRegistry:
    def test_all_predictors_constructible(self):
        for name in PREDICTOR_FACTORIES:
            predictor = make_predictor(name)
            assert predictor.storage_bits() >= 0

    def test_registry_contains_paper_roster(self):
        for name in ("ideal", "store-sets", "nosq", "mdp-tage", "mdp-tage-s",
                     "phast", "unlimited-phast", "unlimited-nosq",
                     "unlimited-mdp-tage", "cht", "store-vector"):
            assert name in PREDICTOR_FACTORIES

    def test_unknown_predictor(self):
        with pytest.raises(KeyError):
            make_predictor("bogus")

    def test_fresh_instance_each_call(self):
        assert make_predictor("phast") is not make_predictor("phast")


class TestRegistryAPI:
    def test_register_and_unregister(self):
        register_predictor("test-ideal", IdealPredictor)
        try:
            assert "test-ideal" in available_predictors()
            assert isinstance(make_predictor("test-ideal"), IdealPredictor)
        finally:
            unregister_predictor("test-ideal")
        assert "test-ideal" not in available_predictors()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_predictor("phast", IdealPredictor)

    def test_replace_flag_allows_override(self):
        original = PREDICTOR_FACTORIES["ideal"]
        register_predictor("ideal", IdealPredictor, replace=True)
        try:
            assert isinstance(make_predictor("ideal"), IdealPredictor)
        finally:
            register_predictor("ideal", original, replace=True)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            register_predictor("", IdealPredictor)
        with pytest.raises(TypeError):
            register_predictor("not-callable", 42)
        with pytest.raises(KeyError):
            unregister_predictor("never-registered")

    def test_available_predictors_sorted_tuple(self):
        names = available_predictors()
        assert isinstance(names, tuple)
        assert list(names) == sorted(names)
        assert set(names) == set(PREDICTOR_FACTORIES)

    # The registry is a read-only view: raw writes, which once warned, now
    # raise, and only register_predictor/unregister_predictor change it.
    def test_direct_dict_write_warns(self):
        with pytest.raises(TypeError):
            PREDICTOR_FACTORIES["test-direct"] = IdealPredictor
        with pytest.raises(TypeError):
            del PREDICTOR_FACTORIES["phast"]
        assert "test-direct" not in PREDICTOR_FACTORIES
        assert "phast" in PREDICTOR_FACTORIES

    def test_direct_dict_update_and_pop_warn(self):
        with pytest.raises(AttributeError):
            PREDICTOR_FACTORIES.update({"test-upd": IdealPredictor})
        with pytest.raises(AttributeError):
            PREDICTOR_FACTORIES.pop("phast")
        register_predictor("test-view", IdealPredictor)
        try:
            assert PREDICTOR_FACTORIES["test-view"] is IdealPredictor
        finally:
            unregister_predictor("test-view")
        assert "test-view" not in PREDICTOR_FACTORIES
        assert "phast" in PREDICTOR_FACTORIES

    def test_reads_do_not_warn(self, recwarn):
        assert "phast" in PREDICTOR_FACTORIES
        list(PREDICTOR_FACTORIES.items())
        PREDICTOR_FACTORIES.get("phast")
        assert not any(
            isinstance(w.message, DeprecationWarning) for w in recwarn.list
        )


class TestTraceCache:
    def test_same_object_returned(self):
        a = get_trace("511.povray", 1000)
        b = get_trace("511.povray", 1000)
        assert a is b

    def test_distinct_lengths_distinct(self):
        assert get_trace("511.povray", 1000) is not get_trace("511.povray", 1001)

    def test_clear(self):
        a = get_trace("511.povray", 1000)
        clear_trace_cache()
        assert get_trace("511.povray", 1000) is not a

    def test_accepts_profile_object(self):
        trace = get_trace(workload("541.leela"), 800)
        assert trace.name == "541.leela"

    def test_cache_info_counts_hits_and_misses(self):
        clear_trace_cache()
        before = trace_cache_info()
        get_trace("511.povray", 900)   # miss
        get_trace("511.povray", 900)   # hit
        after = trace_cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses + 1
        assert after.maxsize >= 1
        assert after.currsize >= 1

    def test_cache_is_bounded(self, monkeypatch):
        from repro.common.lru import LRUCache

        monkeypatch.setenv("REPRO_TRACE_CACHE_SIZE", "2")
        monkeypatch.setattr(simulator, "_TRACE_CACHE", LRUCache(maxsize=2))
        for ops in (700, 701, 702, 703):
            get_trace("511.povray", ops)
        assert trace_cache_info().currsize == 2
        assert len(simulator._TRACE_CACHE) == 2

    def test_cache_size_honoured_mid_process(self, monkeypatch):
        # REPRO_TRACE_CACHE_SIZE is re-read on every get_trace, so changing
        # it after import (or after other lookups) takes effect immediately;
        # shrinking evicts the least recently used traces eagerly.
        from repro.common.lru import LRUCache

        monkeypatch.setattr(simulator, "_TRACE_CACHE", LRUCache(maxsize=4))
        monkeypatch.setenv("REPRO_TRACE_CACHE_SIZE", "4")
        for ops in (710, 711, 712, 713):
            get_trace("511.povray", ops)
        assert trace_cache_info().currsize == 4

        monkeypatch.setenv("REPRO_TRACE_CACHE_SIZE", "2")
        kept = get_trace("511.povray", 713)  # resizes, then hits
        assert trace_cache_info().maxsize == 2
        assert trace_cache_info().currsize == 2
        assert get_trace("511.povray", 713) is kept  # MRU survived the shrink

        monkeypatch.setenv("REPRO_TRACE_CACHE_SIZE", "8")
        get_trace("511.povray", 714)
        assert trace_cache_info().maxsize == 8


class TestTraceStoreTier:
    def test_miss_builds_and_persists(self, tmp_path):
        clear_trace_cache()
        store = TraceStore(tmp_path / "traces")
        trace = get_trace("511.povray", 900, store=store)
        key = trace_key(workload("511.povray"), 900)
        assert store.trace_path(key).exists()
        assert store.rebuild_count() == 1  # lazy build drops a marker
        stored = store.load(key)
        assert list(stored.ops) == list(trace.ops)

    def test_artifact_hit_skips_build_and_marker(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        store.compile(workload("511.povray"), 900)
        clear_trace_cache()
        trace = get_trace("511.povray", 900, store=store)
        assert trace.name == "511.povray"
        assert store.rebuild_count() == 0

    def test_env_store_used_when_no_explicit_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "env-traces"))
        clear_trace_cache()
        get_trace("511.povray", 850)
        assert len(TraceStore(tmp_path / "env-traces")) == 1

    def test_simulation_from_artifact_is_bit_identical(self, tmp_path):
        """Regression: a run whose trace came off disk must equal a fresh run."""
        clear_trace_cache()
        fresh = simulate(
            RunSpec(
                workload="502.gcc_2", predictor="phast", num_ops=2000,
                warmup_ops=0, seed=5,
            )
        )
        store = TraceStore(tmp_path / "traces")
        store.compile(workload("502.gcc_2", seed=5), 2000)
        clear_trace_cache()
        from_artifact = simulate(
            RunSpec(
                workload="502.gcc_2", predictor="phast", num_ops=2000,
                warmup_ops=0, seed=5, trace_dir=str(tmp_path / "traces"),
            )
        )
        assert store.rebuild_count() == 0  # the artifact really was loaded
        assert from_artifact.to_record() == fresh.to_record()


class TestSimulate:
    def test_result_fields(self):
        result = simulate(RunSpec(workload="511.povray", predictor="phast", num_ops=3000))
        assert result.workload == "511.povray"
        assert result.predictor == "phast"
        assert result.core == "alderlake"
        assert result.ipc > 0
        assert result.pipeline.committed_uops == 3000

    def test_predictor_instance_accepted(self):
        predictor = PHASTPredictor()
        result = simulate(RunSpec(workload="511.povray", predictor=predictor, num_ops=2000))
        assert result.mdp is predictor.stats

    def test_custom_config(self):
        result = simulate(
            RunSpec(
                workload="511.povray", predictor="phast",
                config=GENERATIONS["nehalem"], num_ops=2000,
            )
        )
        assert result.core == "nehalem"

    def test_paths_tracked_only_for_unlimited(self):
        limited = simulate(RunSpec(workload="511.povray", predictor="phast", num_ops=2000))
        unlimited = simulate(
            RunSpec(workload="511.povray", predictor="unlimited-phast", num_ops=2000)
        )
        assert limited.paths_tracked is None
        assert unlimited.paths_tracked is not None

    def test_deterministic(self):
        a = simulate(RunSpec(workload="541.leela", predictor="nosq", num_ops=3000))
        b = simulate(RunSpec(workload="541.leela", predictor="nosq", num_ops=3000))
        assert a.ipc == b.ipc
        assert a.pipeline.violations == b.pipeline.violations

    def test_summary_format(self):
        result = simulate(RunSpec(workload="511.povray", predictor="phast", num_ops=2000))
        text = result.summary()
        assert "511.povray" in text and "phast" in text and "IPC=" in text
