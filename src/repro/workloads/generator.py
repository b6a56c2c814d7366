"""Workload profiles and trace construction.

A :class:`WorkloadProfile` is a declarative description — a seed plus a
weighted list of motif specifications. :func:`build_trace` instantiates each
motif's static layout once and then draws activations by weight until the
requested dynamic length is reached, yielding a deterministic
:class:`~repro.isa.trace.Trace` for a given (profile, length) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Type

from repro.common.rng import DeterministicRNG
from repro.isa.microop import MicroOp
from repro.isa.trace import Trace
from repro.workloads.layout import LayoutContext
from repro.workloads.motifs import (
    CallHeavyConflict,
    ComputeFiller,
    DataDependentConflict,
    Motif,
    MultiStoreConflict,
    OverwriteConflict,
    PathDependentConflict,
    SpillChurn,
    StableConflict,
    StoreSetStress,
    shared_ops,
)

#: Bump whenever a change to the generator (motif layout, RNG draws, op
#: emission) alters the trace produced for an existing (profile, num_ops)
#: pair. The trace artifact store keys on this, so stale on-disk artifacts
#: from an older generator are ignored rather than silently replayed.
GENERATOR_VERSION = "1"

#: Motif registry: profile specs name motifs by these keys.
MOTIF_REGISTRY: Dict[str, Type[Motif]] = {
    "filler": ComputeFiller,
    "stable": StableConflict,
    "path": PathDependentConflict,
    "data_dependent": DataDependentConflict,
    "multi_store": MultiStoreConflict,
    "store_set_stress": StoreSetStress,
    "call_heavy": CallHeavyConflict,
    "spill_churn": SpillChurn,
    "overwrite": OverwriteConflict,
}


@dataclass(frozen=True)
class MotifSpec:
    """One motif in a profile: registry key, mix weight, parameters.

    ``replicas`` instantiates that many *independent static copies* of the
    motif (distinct PCs, registers and data regions) sharing the spec's total
    weight. This models static code footprint: real applications have
    hundreds of distinct conflict sites, which is what fills prediction
    tables, creates aliasing under small budgets (Fig. 13), and drives the
    per-application path counts (Fig. 9).
    """

    kind: str
    weight: float
    params: Mapping[str, object] = field(default_factory=dict)
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MOTIF_REGISTRY:
            raise KeyError(
                f"unknown motif {self.kind!r}; known: {sorted(MOTIF_REGISTRY)}"
            )
        if self.weight <= 0:
            raise ValueError(f"motif weight must be positive, got {self.weight}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")


@dataclass(frozen=True)
class WorkloadProfile:
    """A named synthetic application.

    ``run_length_mean`` controls phase behaviour: motifs are activated in
    geometric runs of this mean length rather than interleaved i.i.d., because
    real programs execute loop bodies repeatedly — which is what lets
    fixed-history predictors see recurring context windows.
    """

    name: str
    seed: int
    motifs: Sequence[MotifSpec]
    description: str = ""
    run_length_mean: float = 12.0

    def __post_init__(self) -> None:
        if not self.motifs:
            raise ValueError(f"profile {self.name!r} has no motifs")
        if self.run_length_mean < 1.0:
            raise ValueError("run_length_mean must be >= 1")


def build_trace(profile: WorkloadProfile, num_ops: int) -> Trace:
    """Generate a deterministic trace of ``num_ops`` micro-ops for ``profile``.

    The same (profile, num_ops) pair always yields the identical trace: all
    randomness flows from the profile's seed. Equal ops share one object
    (:func:`~repro.workloads.motifs.shared_ops`), as in a decoded trace.
    """
    if num_ops <= 0:
        raise ValueError(f"num_ops must be positive, got {num_ops}")
    with shared_ops():
        return _build(profile, num_ops)


def _build(profile: WorkloadProfile, num_ops: int) -> Trace:
    layout = LayoutContext.fresh()
    rng = DeterministicRNG(profile.seed)
    instances: List[Motif] = []
    weights: List[float] = []
    for spec in profile.motifs:
        motif_class = MOTIF_REGISTRY[spec.kind]
        for _ in range(spec.replicas):
            instances.append(motif_class(layout, **dict(spec.params)))
            weights.append(spec.weight / spec.replicas)

    ops: List[MicroOp] = []
    indices = list(range(len(instances)))
    continue_prob = 1.0 - 1.0 / profile.run_length_mean
    max_run = int(4 * profile.run_length_mean)
    while len(ops) < num_ops:
        choice = rng.weighted_choice(indices, weights)
        run = 1
        while run < max_run and rng.chance(continue_prob):
            run += 1
        for _ in range(run):
            ops.extend(instances[choice].activate(rng))
            if len(ops) >= num_ops:
                break
    return Trace(ops[:num_ops], name=profile.name)
