"""Tests for the crash-safe content-addressed result store."""

import dataclasses
import json

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import PipelineStats
from repro.harness.failures import CellFailure, FailureKind
from repro.harness.store import (
    CODE_VERSION,
    SCHEMA_VERSION,
    ResultStore,
    cell_key,
    config_fingerprint,
)
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult


def make_result(workload="511.povray", predictor="phast"):
    return SimResult(
        workload=workload,
        predictor=predictor,
        core="alderlake",
        pipeline=PipelineStats(
            committed_uops=1000,
            cycles=500,
            loads=250,
            stores=120,
            branches=90,
            violations=3,
        ),
        mdp=MDPStats(load_predictions=250, trainings=3),
    )


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


KEY = cell_key("511.povray", "phast", CoreConfig(), 5000, None)


class TestRoundTrip:
    def test_put_then_get(self, store):
        result = make_result()
        store.put(KEY, result)
        assert store.get(KEY) == result

    def test_miss_on_absent(self, store):
        assert store.get(KEY) is None
        assert not store.contains(KEY)

    def test_len_counts_entries(self, store):
        assert len(store) == 0
        store.put(KEY, make_result())
        other = cell_key("541.leela", "phast", CoreConfig(), 5000, None)
        store.put(other, make_result(workload="541.leela"))
        assert len(store) == 2

    def test_no_temp_files_left_behind(self, store):
        store.put(KEY, make_result())
        leftovers = [
            path
            for path in store.root.rglob("*")
            if path.is_file() and path.suffix != ".json"
        ]
        assert leftovers == []


class TestCorruptionIsAMiss:
    """A killed writer or a stale format must read as a miss, never crash."""

    def test_truncated_entry(self, store):
        store.put(KEY, make_result())
        path = store.result_path(KEY)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(KEY) is None

    def test_garbage_entry(self, store):
        store.results_dir.mkdir(parents=True, exist_ok=True)
        store.result_path(KEY).write_text("not json at all {{{")
        assert store.get(KEY) is None

    def test_empty_entry(self, store):
        store.results_dir.mkdir(parents=True, exist_ok=True)
        store.result_path(KEY).write_text("")
        assert store.get(KEY) is None

    def test_schema_mismatch(self, store):
        store.put(KEY, make_result())
        path = store.result_path(KEY)
        entry = json.loads(path.read_text())
        entry["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(KEY) is None

    def test_code_version_mismatch(self, store):
        store.put(KEY, make_result())
        path = store.result_path(KEY)
        entry = json.loads(path.read_text())
        entry["code_version"] = CODE_VERSION + "-stale"
        path.write_text(json.dumps(entry))
        assert store.get(KEY) is None

    def test_wrong_key_digest(self, store):
        # An entry copied under the wrong digest must not masquerade as a hit.
        store.put(KEY, make_result())
        other = cell_key("541.leela", "nosq", CoreConfig(), 5000, None)
        store.results_dir.mkdir(parents=True, exist_ok=True)
        store.result_path(other).write_text(store.result_path(KEY).read_text())
        assert store.get(other) is None

    def test_unrecognisable_result_record(self, store):
        store.put(KEY, make_result())
        path = store.result_path(KEY)
        entry = json.loads(path.read_text())
        entry["result"] = {"nothing": "useful"}
        path.write_text(json.dumps(entry))
        assert store.get(KEY) is None

    def test_rewrite_after_corruption(self, store):
        store.results_dir.mkdir(parents=True, exist_ok=True)
        store.result_path(KEY).write_text("corrupt")
        result = make_result()
        store.put(KEY, result)
        assert store.get(KEY) == result


class TestFailures:
    def failure(self):
        return CellFailure(
            kind=FailureKind.TIMEOUT,
            message="cell exceeded the 1.0s timeout",
            cell=dict(KEY.describe),
            attempts=3,
            elapsed_seconds=3.21,
        )

    def test_round_trip(self, store):
        store.put_failure(KEY, self.failure())
        read = store.get_failure(KEY)
        assert read == self.failure()
        assert read.transient

    def test_success_clears_stale_failure(self, store):
        store.put_failure(KEY, self.failure())
        store.put(KEY, make_result())
        assert store.get_failure(KEY) is None

    def test_corrupt_failure_reads_as_none(self, store):
        store.failures_dir.mkdir(parents=True, exist_ok=True)
        store.failure_path(KEY).write_text("{broken")
        assert store.get_failure(KEY) is None

    @pytest.mark.parametrize(
        "field,value",
        [
            ("key", "0" * 64),
            ("schema", SCHEMA_VERSION + 1),
            ("code_version", CODE_VERSION + "-stale"),
        ],
        ids=["key", "schema", "code_version"],
    )
    def test_mismatched_header_reads_as_none(self, store, field, value):
        # Failures are read under the same header checks as results, so a
        # failure copied under another digest or left by an older build
        # neither blocks the cell nor counts it as failed.
        store.put_failure(KEY, self.failure())
        path = store.failure_path(KEY)
        entry = json.loads(path.read_text())
        entry[field] = value
        path.write_text(json.dumps(entry))
        assert store.get_failure(KEY) is None
        assert store.status([KEY]).pending == 1

    def test_manifest_round_trip(self, store):
        store.write_manifest([self.failure()], extra={"cells": 9})
        manifest = store.read_manifest()
        assert manifest["failure_count"] == 1
        assert manifest["cells"] == 9
        assert manifest["failures"][0]["kind"] == "timeout"

    def test_missing_manifest_is_none(self, store):
        assert store.read_manifest() is None


class TestStatus:
    def test_counts(self, store):
        keys = [
            cell_key(name, "phast", CoreConfig(), 5000, None)
            for name in ("a", "b", "c", "d")
        ]
        store.put(keys[0], make_result(workload="a"))
        store.put_failure(
            keys[1],
            CellFailure(kind=FailureKind.CRASH, message="died"),
        )
        status = store.status(keys)
        assert (status.completed, status.failed, status.pending) == (1, 1, 2)
        assert status.total == 4
        assert "4 cells" in status.summary()


class TestKeying:
    """Cache keys cover the *complete* configuration, not just its name."""

    def test_fingerprint_stable(self):
        assert config_fingerprint(CoreConfig()) == config_fingerprint(CoreConfig())

    def test_fingerprint_sees_every_field(self):
        base = CoreConfig()
        smaller_rob = dataclasses.replace(base, rob_entries=64)
        assert smaller_rob.name == base.name  # same label, different machine
        assert config_fingerprint(smaller_rob) != config_fingerprint(base)

    def test_fingerprint_sees_nested_maps(self):
        base = CoreConfig()
        latencies = dict(base.latencies)
        kind = next(iter(latencies))
        latencies[kind] = latencies[kind] + 1
        tweaked = dataclasses.replace(base, latencies=latencies)
        assert config_fingerprint(tweaked) != config_fingerprint(base)

    def test_key_sensitive_to_each_component(self):
        base = cell_key("w", "p", CoreConfig(), 1000, None)
        assert cell_key("w2", "p", CoreConfig(), 1000, None) != base
        assert cell_key("w", "p2", CoreConfig(), 1000, None) != base
        assert cell_key("w", "p", CoreConfig(), 2000, None) != base
        assert cell_key("w", "p", CoreConfig(), 1000, 7) != base
        tweaked = dataclasses.replace(CoreConfig(), rob_entries=64)
        assert cell_key("w", "p", tweaked, 1000, None) != base

    def test_key_stable_across_equal_configs(self):
        a = cell_key("w", "p", CoreConfig(), 1000, 3)
        b = cell_key("w", "p", CoreConfig(), 1000, 3)
        assert a == b
        assert a.short == a.digest[:12]
