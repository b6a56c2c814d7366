"""Tests for SimPoint-style interval selection."""

import numpy as np
import pytest

from repro.analysis.simpoints import (
    choose_simpoints,
    interval_vectors,
    kmeans,
)
from repro.isa.trace import Trace
from repro.workloads.motifs import alu, fp_op


def two_phase_trace(ops_per_phase=2000):
    """Phase A: ALU ops at one PC range; phase B: FP ops at another."""
    phase_a = [alu(0x400000 + 4 * (i % 64), None, ()) for i in range(ops_per_phase)]
    phase_b = [fp_op(0x800000 + 4 * (i % 64), None, ()) for i in range(ops_per_phase)]
    return Trace(phase_a + phase_b, name="two-phase")


class TestIntervalVectors:
    def test_shape_and_normalisation(self):
        vectors = interval_vectors(two_phase_trace(), interval_ops=500)
        assert vectors.shape == (8, 256)
        assert np.allclose(vectors.sum(axis=1), 1.0)

    def test_phases_have_distinct_signatures(self):
        vectors = interval_vectors(two_phase_trace(), interval_ops=1000)
        within_a = np.linalg.norm(vectors[0] - vectors[1])
        across = np.linalg.norm(vectors[0] - vectors[2])
        assert across > within_a + 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_vectors(two_phase_trace(), interval_ops=0)
        with pytest.raises(ValueError):
            interval_vectors(two_phase_trace(100), interval_ops=10_000)


class TestKMeans:
    def test_separates_obvious_clusters(self):
        vectors = interval_vectors(two_phase_trace(), interval_ops=500)
        assignments, centroids = kmeans(vectors, k=2, seed=1)
        # Phase A intervals (0-3) and phase B intervals (4-7) split cleanly.
        assert len(set(assignments[:4])) == 1
        assert len(set(assignments[4:])) == 1
        assert assignments[0] != assignments[4]

    def test_k_capped_at_population(self):
        vectors = np.eye(3)
        assignments, centroids = kmeans(vectors, k=10)
        assert centroids.shape[0] == 3

    def test_deterministic_for_seed(self):
        vectors = interval_vectors(two_phase_trace(), interval_ops=500)
        a, _ = kmeans(vectors, 2, seed=7)
        b, _ = kmeans(vectors, 2, seed=7)
        assert np.array_equal(a, b)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.eye(2), k=0)


class TestChooseSimpoints:
    def test_weights_sum_to_one(self):
        points = choose_simpoints(two_phase_trace(), interval_ops=500, max_clusters=3)
        assert sum(point.weight for point in points) == pytest.approx(1.0)

    def test_covers_both_phases(self):
        points = choose_simpoints(two_phase_trace(), interval_ops=1000, max_clusters=2)
        indices = {point.interval_index for point in points}
        assert any(index < 2 for index in indices)
        assert any(index >= 2 for index in indices)

    def test_representatives_in_range(self):
        trace = two_phase_trace()
        points = choose_simpoints(trace, interval_ops=500, max_clusters=4)
        for point in points:
            assert 0 <= point.interval_index < len(trace) // 500
