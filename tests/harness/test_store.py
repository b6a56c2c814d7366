"""Tests for the crash-safe content-addressed result store."""

import dataclasses
import hashlib
import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CoreConfig
from repro.core.pipeline import PipelineStats
from repro.harness.failures import CellFailure, FailureKind
from repro.harness import store as store_module
from repro.harness.store import (
    CODE_VERSION,
    FINGERPRINT_MEMO_SIZE,
    SCHEMA_VERSION,
    ResultStore,
    canonical_config,
    cell_key,
    config_fingerprint,
    grid_keys,
)
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


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


def _fresh_fingerprint(config):
    """The canonical SHA computed from scratch, bypassing the memo."""
    blob = json.dumps(canonical_config(config), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Fields with no validation beyond "positive", so 1, 1.0 and True all pass.
_NUMERIC_FIELDS = (
    "year",
    "rob_entries",
    "dispatch_to_issue_latency",
    "violation_penalty",
    "store_drain_per_cycle",
    "num_arch_regs",
    "forwarding_filter",
)

#: ``==``-equal spellings of one value that canonicalise differently.
_equal_spellings = st.sampled_from([1, 2]).flatmap(
    lambda n: st.sampled_from([n, float(n)] + ([True] if n == 1 else []))
)


@st.composite
def _configs(draw):
    base = CoreConfig()
    overrides = draw(
        st.dictionaries(st.sampled_from(_NUMERIC_FIELDS), _equal_spellings, max_size=3)
    )
    latencies = draw(st.permutations(list(base.latencies.items())))
    ports = draw(st.permutations(list(base.ports.items())))
    return dataclasses.replace(
        base, latencies=dict(latencies), ports=dict(ports), **overrides
    )


class TestFingerprintMemo:
    """The memoised fingerprint is exactly the fresh canonical SHA."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_configs(), min_size=1, max_size=4))
    def test_memoised_fingerprint_equals_fresh_sha(self, configs):
        # Every config is fingerprinted twice, so later ones (often ==-equal
        # to earlier ones) are looked up in a memo the earlier ones filled.
        for config in configs + configs:
            assert config_fingerprint(config) == _fresh_fingerprint(config)

    def test_equal_configs_of_different_types_never_share_an_entry(self):
        spellings = [
            dataclasses.replace(CoreConfig(), rob_entries=value)
            for value in (1, 1.0, True)
        ]
        assert spellings[0] == spellings[1] == spellings[2]
        prints = [config_fingerprint(config) for config in spellings]
        assert prints == [_fresh_fingerprint(config) for config in spellings]
        assert len(set(prints)) == 3

    def test_dict_order_does_not_change_the_fingerprint(self):
        base = CoreConfig()
        reordered = dataclasses.replace(
            base, latencies=dict(reversed(list(base.latencies.items())))
        )
        assert repr(reordered) != repr(base)
        assert config_fingerprint(reordered) == config_fingerprint(base)

    def test_a_mutated_config_is_fingerprinted_afresh(self):
        config = CoreConfig()
        before = config_fingerprint(config)
        config.latencies[next(iter(config.latencies))] += 1
        assert config_fingerprint(config) == _fresh_fingerprint(config) != before

    def test_repr_spells_out_every_field(self):
        # The memo keys on repr, so repr must show every field the
        # canonical form hashes, nested dataclasses included.
        pending = [CoreConfig()]
        while pending:
            value = pending.pop()
            for item in dataclasses.fields(value):
                assert f"{item.name}=" in repr(value), (type(value), item.name)
                nested = getattr(value, item.name)
                if dataclasses.is_dataclass(nested):
                    pending.append(nested)

    def test_memo_stays_bounded(self):
        for year in range(FINGERPRINT_MEMO_SIZE + 10):
            config = dataclasses.replace(CoreConfig(), year=year)
            assert config_fingerprint(config) == _fresh_fingerprint(config)
            assert len(store_module._fingerprints) <= FINGERPRINT_MEMO_SIZE

    def test_threads_sharing_a_small_memo_get_exact_fingerprints(
        self, monkeypatch
    ):
        # More threads than cores, a memo that overflows constantly and a
        # short switch interval: a lost or crossed update would hand some
        # config another config's SHA.
        monkeypatch.setattr(store_module, "FINGERPRINT_MEMO_SIZE", 3)
        configs = [
            dataclasses.replace(CoreConfig(), year=year) for year in range(12)
        ]
        expected = [_fresh_fingerprint(config) for config in configs]
        wrong = []

        def hammer(offset):
            for round_ in range(40):
                index = (offset + round_) % len(configs)
                if config_fingerprint(configs[index]) != expected[index]:
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(store_module._fingerprints) <= 3

    def test_a_one_config_grid_canonicalises_its_config_once(self, monkeypatch):
        calls = []
        canonical = store_module.canonical_config

        def counting(config):
            calls.append(config)
            return canonical(config)

        monkeypatch.setattr(store_module, "canonical_config", counting)
        config = dataclasses.replace(CoreConfig(), name="once", year=1900)
        specs = [
            RunSpec(workload, predictor, config=config, num_ops=1000)
            for workload in ("511.povray", "505.mcf", "541.leela")
            for predictor in ("phast", "nosq")
        ]
        first = [spec.key() for spec in specs]
        assert grid_keys(specs) == first
        assert len(calls) == 1

    def test_grid_keys_match_each_spec_key(self):
        shared = dataclasses.replace(CoreConfig(), rob_entries=64)
        specs = [
            RunSpec("511.povray", "phast"),
            RunSpec("505.mcf", "nosq", config=shared, num_ops=3000),
            RunSpec("505.mcf", "phast", config=shared, seed=4),
            RunSpec("511.povray", "phast", config=CoreConfig(), num_ops=None),
            RunSpec("505.mcf", "phast", config=dataclasses.replace(shared)),
        ]
        assert grid_keys(specs) == [
            cell_key(
                spec.workload, spec.predictor, spec.config, spec.num_ops or 0,
                spec.seed,
            )
            for spec in specs
        ]
        assert grid_keys([]) == []
