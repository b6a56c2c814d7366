"""Tests for the content-addressed trace artifact store."""

import json

import pytest

from repro.isa.artifacts import (
    ENV_TRACE_STORE,
    CheckpointStore,
    TraceStore,
    checkpoint_key,
    default_trace_store,
    trace_key,
)
from repro.isa.serialize import BINARY_VERSION, dumps_trace_binary
from repro.workloads.generator import GENERATOR_VERSION, build_trace
from repro.workloads.spec2017 import workload

OPS = 600


@pytest.fixture
def profile():
    return workload("511.povray", seed=7)


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


class TestTraceKey:
    def test_describe_fields(self, profile):
        key = trace_key(profile, OPS)
        assert key.describe == {
            "workload": "511.povray",
            "seed": 7,
            "num_ops": OPS,
            "generator_version": GENERATOR_VERSION,
            "format_version": BINARY_VERSION,
        }
        assert len(key.digest) == 64
        assert key.short == key.digest[:12]

    def test_deterministic(self, profile):
        assert trace_key(profile, OPS) == trace_key(profile, OPS)

    def test_every_field_changes_the_digest(self, profile):
        base = trace_key(profile, OPS).digest
        assert trace_key(profile, OPS + 1).digest != base
        assert trace_key(workload("511.povray", seed=8), OPS).digest != base
        assert trace_key(workload("502.gcc_2", seed=7), OPS).digest != base

    def test_rejects_nonpositive_num_ops(self, profile):
        with pytest.raises(ValueError):
            trace_key(profile, 0)


class TestLoadSave:
    def test_miss_on_empty_store(self, store, profile):
        key = trace_key(profile, OPS)
        assert store.load(key) is None
        assert not store.contains(key)
        assert len(store) == 0

    def test_save_then_load(self, store, profile):
        key = trace_key(profile, OPS)
        trace = build_trace(profile, OPS)
        store.save(key, trace)
        loaded = store.load(key)
        assert loaded is not None
        assert list(loaded.ops) == list(trace.ops)
        assert store.contains(key)
        assert len(store) == 1

    def test_sidecar_metadata(self, store, profile):
        key = trace_key(profile, OPS)
        store.save(key, build_trace(profile, OPS))
        meta = json.loads(store.meta_path(key).read_text())
        assert meta["key"] == key.digest
        assert meta["workload"] == "511.povray"
        assert meta["num_ops"] == OPS
        assert meta["bytes"] == store.trace_path(key).stat().st_size

    def test_corrupt_artifact_reads_as_miss(self, store, profile):
        key = trace_key(profile, OPS)
        store.save(key, build_trace(profile, OPS))
        blob = bytearray(store.trace_path(key).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        store.trace_path(key).write_bytes(bytes(blob))
        assert store.load(key) is None

    def test_truncated_artifact_reads_as_miss(self, store, profile):
        key = trace_key(profile, OPS)
        store.save(key, build_trace(profile, OPS))
        blob = store.trace_path(key).read_bytes()
        store.trace_path(key).write_bytes(blob[: len(blob) // 2])
        assert store.load(key) is None

    def test_op_count_mismatch_reads_as_miss(self, store, profile):
        key = trace_key(profile, OPS)
        wrong = build_trace(profile, OPS // 2)
        store.trace_path(key).parent.mkdir(parents=True, exist_ok=True)
        store.trace_path(key).write_bytes(dumps_trace_binary(wrong))
        assert store.load(key) is None


class TestCompile:
    def test_compile_builds_once(self, store, profile):
        first, built_first = store.compile(profile, OPS)
        second, built_second = store.compile(profile, OPS)
        assert built_first and not built_second
        assert list(first.ops) == list(second.ops)
        assert len(store) == 1

    def test_compile_does_not_record_rebuild(self, store, profile):
        store.compile(profile, OPS)
        assert store.rebuild_count() == 0


class TestRebuildMarkers:
    def test_each_record_adds_one_marker(self, store, profile):
        key = trace_key(profile, OPS)
        store.record_rebuild(key)
        store.record_rebuild(key)
        assert store.rebuild_count() == 2

    def test_clear_rebuilds(self, store, profile):
        store.record_rebuild(trace_key(profile, OPS))
        store.clear_rebuilds()
        assert store.rebuild_count() == 0

    def test_count_on_missing_dir(self, store):
        assert store.rebuild_count() == 0
        store.clear_rebuilds()  # no directory: silently a no-op


class TestSurvey:
    def test_entries_sorted_by_workload(self, store):
        for name in ("525.x264_1", "502.gcc_2"):
            store.compile(workload(name, seed=3), OPS)
        entries = store.entries()
        assert [e["workload"] for e in entries] == ["502.gcc_2", "525.x264_1"]

    def test_verify_clean_store(self, store, profile):
        store.compile(profile, OPS)
        assert store.verify() == []

    def test_verify_flags_corruption(self, store, profile):
        key = trace_key(profile, OPS)
        store.compile(profile, OPS)
        blob = bytearray(store.trace_path(key).read_bytes())
        blob[-1] ^= 0x01
        store.trace_path(key).write_bytes(bytes(blob))
        problems = store.verify()
        assert len(problems) == 1
        assert key.short in problems[0]

    def test_shared_root_with_checkpoints(self, store, profile):
        # A sampled run may point --trace-store and --checkpoint-store at
        # one directory; the trace survey must not read checkpoint sidecars
        # as traces with a missing artifact.
        key = trace_key(profile, OPS)
        store.compile(profile, OPS)
        CheckpointStore(store.root).save(
            checkpoint_key({"predictor": "phast"}, key.digest, OPS // 2, 1, 1),
            b"state",
        )
        assert [entry["key"] for entry in store.entries()] == [key.digest]
        assert len(CheckpointStore(store.root).entries()) == 1
        assert store.verify() == []

    def test_verify_flags_missing_artifact(self, store, profile):
        key = trace_key(profile, OPS)
        store.compile(profile, OPS)
        store.trace_path(key).unlink()
        problems = store.verify()
        assert len(problems) == 1
        assert "missing" in problems[0]


class TestDefaultStore:
    def test_unset_env_means_no_store(self, monkeypatch):
        monkeypatch.delenv(ENV_TRACE_STORE, raising=False)
        assert default_trace_store() is None

    def test_env_selects_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_TRACE_STORE, str(tmp_path / "t"))
        resolved = default_trace_store()
        assert resolved is not None
        assert resolved.root == tmp_path / "t"
