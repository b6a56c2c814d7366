"""Multi-seed replication: statistical confidence for reproduction claims.

The synthetic workloads are deterministic per seed; a single trace is one
sample from the profile's distribution. For claims that ride on small
differences (e.g. "PHAST beats NoSQ by 0.5%"), this module reruns the same
profile under shifted seeds and reports mean, standard deviation and a
normal-approximation confidence interval — so EXPERIMENTS.md can state which
reproduced deltas are statistically solid at the chosen trace length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Union

from repro.core.config import CoreConfig
from repro.harness.store import ResultStore
from repro.sim.metrics import SimResult
from repro.sim.simulator import default_num_ops, simulate
from repro.sim.spec import RunSpec
from repro.workloads.generator import WorkloadProfile
from repro.workloads.spec2017 import workload

#: z-value for a two-sided 95% normal confidence interval.
Z_95 = 1.96


@dataclass(frozen=True)
class ReplicatedMetric:
    """Mean/std/CI of one metric across seed replicas."""

    name: str
    samples: Sequence[float]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a replicated metric needs at least one sample")

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mean = self.mean
        variance = sum((x - mean) ** 2 for x in self.samples) / (len(self.samples) - 1)
        return math.sqrt(variance)

    @property
    def ci95_half_width(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return Z_95 * self.std / math.sqrt(len(self.samples))

    def overlaps(self, other: "ReplicatedMetric") -> bool:
        """True when the two 95% intervals overlap (delta not significant)."""
        low_self = self.mean - self.ci95_half_width
        high_self = self.mean + self.ci95_half_width
        low_other = other.mean - other.ci95_half_width
        high_other = other.mean + other.ci95_half_width
        return low_self <= high_other and low_other <= high_self

    def __str__(self) -> str:
        return f"{self.name}: {self.mean:.4f} ± {self.ci95_half_width:.4f} (n={len(self.samples)})"


@dataclass(frozen=True)
class WeightedMetric:
    """Weighted mean + sampling CI over stratified representatives.

    This is the aggregation side of checkpointed sampled simulation
    (:mod:`repro.sampling`): each SimPoint representative contributes one
    measurement ``x_k`` with its cluster weight ``w_k`` (the fraction of
    intervals its cluster covers). The estimate is ``Σ ŵ_k·x_k`` with
    weights normalised to 1.

    The error model treats the representatives as independent draws with a
    common within-population variance, estimated by the reliability-weighted
    sample variance ``s² = Σ ŵ_k (x_k − mean)² / (1 − Σ ŵ_k²)``; the
    variance of the weighted mean is then ``Σ ŵ_k² · s²``. This is
    *conservative* for SimPoint weights — between-cluster spread inflates
    ``s²`` relative to the true within-cluster sampling error — so the
    reported 95% interval is an upper bound on the sampling uncertainty,
    which is the safe direction for an error bar on a reproduction claim.
    """

    name: str
    values: Sequence[float]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a weighted metric needs at least one value")
        if len(self.values) != len(self.weights):
            raise ValueError(
                f"{len(self.values)} values but {len(self.weights)} weights"
            )
        if any(weight < 0 for weight in self.weights):
            raise ValueError("weights must be non-negative")
        if sum(self.weights) <= 0:
            raise ValueError("weights must not sum to zero")

    @property
    def _normalized(self) -> List[float]:
        total = sum(self.weights)
        return [weight / total for weight in self.weights]

    @property
    def mean(self) -> float:
        return sum(w * x for w, x in zip(self._normalized, self.values))

    @property
    def ci95_half_width(self) -> float:
        if len(self.values) < 2:
            return 0.0
        normalized = self._normalized
        effective = 1.0 - sum(w * w for w in normalized)
        if effective <= 0.0:  # one representative carries all the weight
            return 0.0
        mean = self.mean
        variance = (
            sum(w * (x - mean) ** 2 for w, x in zip(normalized, self.values))
            / effective
        )
        return Z_95 * math.sqrt(sum(w * w for w in normalized) * variance)

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.4f} ± {self.ci95_half_width:.4f} "
            f"(k={len(self.values)})"
        )


def seed_replicas(
    profile: Union[str, WorkloadProfile], count: int
) -> List[WorkloadProfile]:
    """``count`` independent re-seedings of a profile (same structure)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if isinstance(profile, str):
        profile = workload(profile)
    return [
        replace(profile, name=f"{profile.name}#r{index}", seed=profile.seed + 7919 * index)
        for index in range(count)
    ]


def _replica_result(
    replica: WorkloadProfile,
    predictor: str,
    config: Optional[CoreConfig],
    num_ops: int,
    store: Optional[ResultStore],
) -> SimResult:
    """Simulate one replica, consulting/feeding the durable store if given.

    The store key carries the replica's seed, so re-seeded copies of the
    same profile occupy distinct cells and a replication campaign resumes
    from its completed replicas after a crash. ``predictor`` is a label
    (name or variant), so a variant never shares its base's cells.
    """
    spec = RunSpec(
        workload=replica,
        predictor=predictor,
        config=config,
        num_ops=num_ops,
        seed=replica.seed,
    )
    if store is None:
        return simulate(spec)
    key = spec.key()
    cached = store.get(key)
    if cached is not None:
        return cached
    result = simulate(spec)
    store.put(key, result)
    return result


def replicate(
    profile: Union[str, WorkloadProfile],
    predictor: str,
    replicas: int = 5,
    num_ops: Optional[int] = None,
    config: Optional[CoreConfig] = None,
    metric: Callable[[SimResult], float] = lambda result: result.ipc,
    metric_name: str = "ipc",
    store: Optional[ResultStore] = None,
) -> ReplicatedMetric:
    """Run ``replicas`` re-seeded copies of ``predictor`` (a name or variant
    label) and aggregate ``metric``."""
    samples = []
    for replica in seed_replicas(profile, replicas):
        result = _replica_result(
            replica, predictor, config, num_ops or default_num_ops(), store
        )
        samples.append(metric(result))
    return ReplicatedMetric(name=metric_name, samples=tuple(samples))


def replicated_speedup(
    profile: Union[str, WorkloadProfile],
    predictor: str,
    baseline: str,
    replicas: int = 5,
    num_ops: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> ReplicatedMetric:
    """Per-replica paired speedup (%) of ``predictor`` over ``baseline``.

    Pairing per seed removes the between-seed variance, which is what makes
    small mean speedups detectable with few replicas.
    """
    samples = []
    length = num_ops or default_num_ops()
    for replica in seed_replicas(profile, replicas):
        new = _replica_result(replica, predictor, None, length, store)
        base = _replica_result(replica, baseline, None, length, store)
        samples.append((new.ipc / base.ipc - 1.0) * 100.0)
    return ReplicatedMetric(
        name=f"speedup {predictor} vs {baseline} (%)", samples=tuple(samples)
    )
