"""Tests for multi-seed replication statistics."""

import pytest

from repro.core.config import CoreConfig
from repro.harness.store import ResultStore, cell_key
from repro.sim.replication import (
    ReplicatedMetric,
    WeightedMetric,
    replicate,
    replicated_speedup,
    seed_replicas,
)
from repro.workloads.spec2017 import workload


class TestReplicatedMetric:
    def test_mean_std(self):
        metric = ReplicatedMetric("x", (1.0, 2.0, 3.0))
        assert metric.mean == pytest.approx(2.0)
        assert metric.std == pytest.approx(1.0)

    def test_single_sample(self):
        metric = ReplicatedMetric("x", (5.0,))
        assert metric.std == 0.0
        assert metric.ci95_half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedMetric("x", ())

    def test_ci_shrinks_with_samples(self):
        few = ReplicatedMetric("x", (1.0, 2.0))
        many = ReplicatedMetric("x", (1.0, 2.0) * 8)
        assert many.ci95_half_width < few.ci95_half_width

    def test_overlap(self):
        a = ReplicatedMetric("a", (1.0, 1.1, 0.9))
        b = ReplicatedMetric("b", (1.05, 1.0, 1.1))
        c = ReplicatedMetric("c", (9.0, 9.1, 8.9))
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_str(self):
        text = str(ReplicatedMetric("ipc", (1.0, 2.0)))
        assert "ipc" in text and "n=2" in text


class TestSeedReplicas:
    def test_distinct_seeds_same_structure(self):
        replicas = seed_replicas("511.povray", 4)
        assert len({replica.seed for replica in replicas}) == 4
        base = workload("511.povray")
        for replica in replicas:
            assert replica.motifs == base.motifs

    def test_names_distinct(self):
        replicas = seed_replicas("511.povray", 3)
        assert len({replica.name for replica in replicas}) == 3

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            seed_replicas("511.povray", 0)


class TestReplicate:
    def test_ipc_samples(self):
        metric = replicate("511.povray", "phast", replicas=3, num_ops=2500)
        assert len(metric.samples) == 3
        assert all(sample > 0 for sample in metric.samples)

    def test_seeds_change_result(self):
        metric = replicate("541.leela", "always-speculate", replicas=3, num_ops=2500)
        assert len(set(metric.samples)) > 1  # different seeds, different traces

    def test_custom_metric(self):
        metric = replicate(
            "511.povray",
            "always-speculate",
            replicas=2,
            num_ops=2500,
            metric=lambda result: float(result.pipeline.violations),
            metric_name="violations",
        )
        assert metric.name == "violations"
        assert all(sample >= 0 for sample in metric.samples)

    def test_variant_does_not_shadow_its_base_in_the_store(self, tmp_path):
        # Regression: replica cells were keyed by the instance's name, so a
        # variant's cached samples came back for its base predictor.
        store = ResultStore(tmp_path / "store")
        replicate(
            "511.povray", "phast(target_bits=0)", replicas=2, num_ops=2500, store=store
        )
        plain = replicate("511.povray", "phast", replicas=2, num_ops=2500, store=store)
        assert len(store) == 4
        fresh = replicate("511.povray", "phast", replicas=2, num_ops=2500)
        assert plain.samples == fresh.samples

    def test_store_digests_match_the_cell_key_oracle(self, tmp_path):
        # Each replica is filed under the cell key of its own name and seed.
        store = ResultStore(tmp_path / "store")
        replicate("502.gcc_1", "phast", replicas=3, num_ops=2500, store=store)
        oracle = {
            cell_key(replica.name, "phast", CoreConfig(), 2500, replica.seed).digest
            for replica in seed_replicas("502.gcc_1", 3)
        }
        stored = {path.stem for path in store.results_dir.glob("*.json")}
        assert stored == oracle

    def test_paired_speedup(self):
        metric = replicated_speedup(
            "511.povray", "phast", "always-speculate", replicas=2, num_ops=2500
        )
        assert metric.mean > 0  # PHAST beats blind speculation on every seed


class TestWeightedMetric:
    def test_mean_is_weight_normalised(self):
        metric = WeightedMetric("ipc", [1.0, 3.0], [1.0, 3.0])
        assert metric.mean == pytest.approx(2.5)  # (1*1 + 3*3) / 4

    def test_equal_weights_reduce_to_plain_mean(self):
        metric = WeightedMetric("ipc", [1.0, 2.0, 3.0], [0.25, 0.25, 0.25])
        assert metric.mean == pytest.approx(2.0)

    def test_single_value_has_zero_ci(self):
        metric = WeightedMetric("ipc", [1.5], [1.0])
        assert metric.mean == pytest.approx(1.5)
        assert metric.ci95_half_width == 0.0

    def test_identical_values_have_zero_ci(self):
        metric = WeightedMetric("ipc", [2.0, 2.0, 2.0], [0.5, 0.3, 0.2])
        assert metric.ci95_half_width == pytest.approx(0.0)

    def test_spread_widens_ci(self):
        tight = WeightedMetric("ipc", [1.0, 1.1, 0.9], [1, 1, 1])
        wide = WeightedMetric("ipc", [1.0, 2.0, 0.1], [1, 1, 1])
        assert wide.ci95_half_width > tight.ci95_half_width > 0

    def test_dominant_weight_pulls_the_mean(self):
        metric = WeightedMetric("ipc", [1.0, 5.0], [0.99, 0.01])
        assert metric.mean < 1.1

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedMetric("ipc", [], [])
        with pytest.raises(ValueError):
            WeightedMetric("ipc", [1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            WeightedMetric("ipc", [1.0], [-1.0])
        with pytest.raises(ValueError):
            WeightedMetric("ipc", [1.0, 2.0], [0.0, 0.0])

    def test_str_rendering(self):
        text = str(WeightedMetric("ipc", [1.0, 2.0], [1.0, 1.0]))
        assert "ipc" in text and "±" in text and "k=2" in text
