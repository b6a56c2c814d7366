"""SimPoint-style interval selection (Perelman et al., cited in Sec. V).

The paper simulates SimPoint-selected 100M-instruction intervals instead of
whole SPEC runs. This module implements the same methodology over our
traces:

1. split a trace into fixed-size intervals;
2. summarise each interval as a normalised *basic-block vector* (here: a
   hashed program-counter execution-frequency vector — our micro-op traces
   have no explicit basic blocks, and PC frequency captures the same phase
   signal);
3. cluster the vectors with k-means (numpy);
4. pick each cluster's most central interval as its simulation point,
   weighted by the cluster's share of the trace.

:func:`repro.sampling.run_sampled` then runs only the representatives,
each from a functionally warmed checkpoint, and returns the weighted
estimate with its sampling-error bound — the standard trade of simulation
time for a small, quantified phase-sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.isa.trace import Trace

#: Dimensionality of the hashed PC-frequency vectors.
VECTOR_BUCKETS = 256


def interval_vectors(trace: Trace, interval_ops: int) -> np.ndarray:
    """One L1-normalised hashed-PC frequency vector per full interval."""
    if interval_ops <= 0:
        raise ValueError(f"interval_ops must be positive, got {interval_ops}")
    num_intervals = len(trace) // interval_ops
    if num_intervals == 0:
        raise ValueError(
            f"trace of {len(trace)} ops has no full {interval_ops}-op interval"
        )
    vectors = np.zeros((num_intervals, VECTOR_BUCKETS), dtype=np.float64)
    for interval in range(num_intervals):
        start = interval * interval_ops
        for position in range(start, start + interval_ops):
            pc = trace[position].pc
            bucket = (pc ^ (pc >> 7) ^ (pc >> 15)) % VECTOR_BUCKETS
            vectors[interval, bucket] += 1.0
    row_sums = vectors.sum(axis=1, keepdims=True)
    return vectors / row_sums


def kmeans(
    vectors: np.ndarray, k: int, iterations: int = 25, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain k-means. Returns (assignments, centroids)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    count = vectors.shape[0]
    k = min(k, count)
    rng = np.random.default_rng(seed)
    centroids = vectors[rng.choice(count, size=k, replace=False)].copy()
    assignments = np.zeros(count, dtype=np.int64)
    for _ in range(iterations):
        distances = np.linalg.norm(
            vectors[:, None, :] - centroids[None, :, :], axis=2
        )
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            members = vectors[assignments == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return assignments, centroids


@dataclass(frozen=True)
class SimPoint:
    """One representative interval with its cluster weight."""

    interval_index: int
    weight: float


def choose_simpoints(
    trace: Trace, interval_ops: int, max_clusters: int = 5, seed: int = 0
) -> List[SimPoint]:
    """Select representative intervals; weights sum to 1."""
    vectors = interval_vectors(trace, interval_ops)
    assignments, centroids = kmeans(vectors, max_clusters, seed=seed)
    points: List[SimPoint] = []
    total = len(assignments)
    for cluster in range(centroids.shape[0]):
        members = np.flatnonzero(assignments == cluster)
        if len(members) == 0:
            continue
        distances = np.linalg.norm(vectors[members] - centroids[cluster], axis=1)
        representative = int(members[distances.argmin()])
        points.append(
            SimPoint(interval_index=representative, weight=len(members) / total)
        )
    return sorted(points, key=lambda point: point.interval_index)
