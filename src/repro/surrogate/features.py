"""Frozen feature schema for the learned IPC/MPKI surrogate.

A feature vector must be computable for a *pending* cell — one that has
never been simulated — from exactly what the sweep planner knows: the
workload name, the predictor label, the :class:`~repro.core.config.
CoreConfig`, the raw ``num_ops`` (0 = "the default at run time", matching
the store key), and the seed. Anything derived from the cell's own result
would leak the target into the features, so per-workload aggregates of
*other* cells' results enter only through a context table computed from
the dataset's **train split** (see :mod:`repro.surrogate.dataset`) and
carried inside the model artifact for predict time.

The schema is versioned and frozen: :data:`FEATURE_SCHEMA_VERSION` is
stamped into every dataset and model artifact, and a mismatch reads as a
miss rather than silently mixing incompatible vectors. Categorical names
(predictor labels) are hashed into a fixed bucket space so the vector
length never depends on which names happen to be registered; the model
additionally records the exact label set it trained on, because a hashed
bucket carries no information about a label it never saw (see the novelty
guard in :mod:`repro.surrogate.model`).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import CoreConfig
from repro.isa.microop import OpKind

#: Bump whenever the feature vector's length, order, or meaning changes.
#: Datasets and models stamp this; mixing versions is refused, never fuzzed.
FEATURE_SCHEMA_VERSION = 1

#: Hashed one-hot space for predictor labels. Wide enough that the current
#: registry (~15 labels) rarely collides; collisions degrade accuracy, not
#: correctness.
PREDICTOR_BUCKETS = 32

#: Motif kinds in frozen (sorted) order — the per-kind weight-fraction
#: features. New motif kinds must be appended via a schema bump.
MOTIF_KINDS = (
    "call_heavy",
    "data_dependent",
    "filler",
    "multi_store",
    "overwrite",
    "path",
    "spill_churn",
    "stable",
    "store_set_stress",
)

#: Context statistics per workload, in frozen order. ``None`` entries in a
#: context table fall back to the global row.
CONTEXT_STATS = (
    "ipc_mean",
    "ipc_std",
    "violation_mpki_mean",
    "violation_mpki_std",
    "branch_mpki_mean",
    "occupancy_mean",
    "interval_ipc_cov",
    "rows_log",
)


def predictor_bucket(label: str) -> int:
    """Stable hash bucket for a predictor label (endianness-free)."""
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % PREDICTOR_BUCKETS


def feature_names() -> List[str]:
    """The frozen, ordered names of every feature in schema v1."""
    names = [
        "cfg_year",
        "cfg_dispatch_width",
        "cfg_commit_width",
        "cfg_rob_entries",
        "cfg_iq_entries",
        "cfg_lq_entries",
        "cfg_sq_entries",
        "cfg_dispatch_to_issue_latency",
        "cfg_branch_redirect_penalty",
        "cfg_violation_penalty",
        "cfg_store_drain_per_cycle",
        "cfg_forwarding_filter",
        "cfg_violation_squash_eager",
        "cfg_wrong_path_depth",
        "cfg_num_arch_regs",
        "cfg_load_ports",
        "cfg_store_ports",
        "cfg_unknown",
        "wl_seed",
        "wl_run_length_mean",
        "wl_motif_count",
        "wl_replica_total",
    ]
    names.extend(f"wl_weight_{kind}" for kind in MOTIF_KINDS)
    names.append("wl_unknown")
    names.extend(["cell_log_num_ops", "cell_default_ops"])
    names.extend(f"pred_bucket_{i:02d}" for i in range(PREDICTOR_BUCKETS))
    names.extend(f"ctx_{stat}" for stat in CONTEXT_STATS)
    names.append("ctx_missing")
    names.extend(f"px_ipc_{i:02d}" for i in range(PREDICTOR_BUCKETS))
    names.extend(f"px_viol_{i:02d}" for i in range(PREDICTOR_BUCKETS))
    return names


#: Vector length of schema v1 (the names list is the source of truth).
NUM_FEATURES = len(feature_names())

#: One cell as the model scores it: ``(workload, predictor, config,
#: num_ops, seed)``, with ``num_ops`` the raw store-key value.
CellRow = Tuple[str, str, Optional[CoreConfig], int, Optional[int]]


def _config_features(config: Optional[CoreConfig]) -> List[float]:
    unknown = config is None
    core = config or CoreConfig()
    return [
        float(core.year),
        float(core.dispatch_width),
        float(core.commit_width),
        float(core.rob_entries),
        float(core.iq_entries),
        float(core.lq_entries),
        float(core.sq_entries),
        float(core.dispatch_to_issue_latency),
        float(core.branch_redirect_penalty),
        float(core.violation_penalty),
        float(core.store_drain_per_cycle),
        1.0 if core.forwarding_filter else 0.0,
        1.0 if core.violation_squash == "eager" else 0.0,
        float(core.wrong_path_depth),
        float(core.num_arch_regs),
        float(core.ports.get(OpKind.LOAD, 0)),
        float(core.ports.get(OpKind.STORE, 0)),
        1.0 if unknown else 0.0,
    ]


def _workload_features(workload: str, seed: Optional[int]) -> List[float]:
    from repro.workloads.spec2017 import SPEC_PROFILES

    profile = SPEC_PROFILES.get(workload)
    if profile is None:
        return [0.0] * (4 + len(MOTIF_KINDS)) + [1.0]
    resolved_seed = profile.seed if seed is None else seed
    total_weight = sum(spec.weight for spec in profile.motifs)
    weight_of: Dict[str, float] = {}
    for spec in profile.motifs:
        weight_of[spec.kind] = weight_of.get(spec.kind, 0.0) + spec.weight
    features = [
        float(resolved_seed),
        float(profile.run_length_mean),
        float(len(profile.motifs)),
        float(sum(spec.replicas for spec in profile.motifs)),
    ]
    features.extend(
        weight_of.get(kind, 0.0) / total_weight for kind in MOTIF_KINDS
    )
    features.append(0.0)
    return features


def context_vector(
    context: Optional[Mapping[str, float]],
    global_context: Mapping[str, float],
) -> List[float]:
    """One workload's context stats (train-split aggregates), with fallback.

    A workload absent from the table — never seen in the train split — gets
    the global row plus a raised ``ctx_missing`` indicator, so the model can
    learn how much to distrust the fallback.
    """
    missing = context is None
    row = global_context if context is None else context
    values = [float(row.get(stat, 0.0)) for stat in CONTEXT_STATS]
    values.append(1.0 if missing else 0.0)
    return values


def cell_features(
    workload: str,
    predictor: str,
    config: Optional[CoreConfig],
    num_ops: int,
    seed: Optional[int],
    context: Optional[Mapping[str, float]],
    global_context: Mapping[str, float],
) -> List[float]:
    """The full schema-v1 feature vector for one cell.

    ``config=None`` means the cell's exact configuration could not be
    resolved (a store-derived row whose fingerprint matches no known
    preset): default-config values are used with ``cfg_unknown`` raised.
    ``num_ops`` is the *raw* store-key value (0 = default at run time).
    """
    return _assemble(
        _config_features(config),
        _workload_features(workload, seed),
        predictor,
        num_ops,
        context_vector(context, global_context),
    )


def grid_features(
    rows: Sequence[CellRow],
    context_table: Mapping[str, Mapping[str, float]],
) -> List[List[float]]:
    """:func:`cell_features` of each ``(workload, predictor, config,
    num_ops, seed)`` row, with contexts from ``context_table``.

    The config block of each distinct config object, the workload block of
    each distinct ``(workload, seed)`` and the context block of each
    distinct workload are built once per call, not once per row.
    """
    global_context = context_table["__global__"]
    configs: Dict[int, List[float]] = {}
    workloads: Dict[Tuple[str, Optional[int]], List[float]] = {}
    contexts: Dict[str, List[float]] = {}
    vectors: List[List[float]] = []
    for workload, predictor, config, num_ops, seed in rows:
        if id(config) not in configs:
            configs[id(config)] = _config_features(config)
        if (workload, seed) not in workloads:
            workloads[workload, seed] = _workload_features(workload, seed)
        if workload not in contexts:
            contexts[workload] = context_vector(
                context_table.get(workload), global_context
            )
        vectors.append(
            _assemble(
                configs[id(config)],
                workloads[workload, seed],
                predictor,
                num_ops,
                contexts[workload],
            )
        )
    return vectors


def _assemble(
    config_block: List[float],
    workload_block: List[float],
    predictor: str,
    num_ops: int,
    ctx: List[float],
) -> List[float]:
    features = config_block + workload_block
    features.append(math.log10(num_ops) if num_ops > 0 else 0.0)
    features.append(1.0 if num_ops == 0 else 0.0)
    bucket = predictor_bucket(predictor)
    one_hot = [0.0] * PREDICTOR_BUCKETS
    one_hot[bucket] = 1.0
    features.extend(one_hot)
    features.extend(ctx)
    ipc_mean = ctx[CONTEXT_STATS.index("ipc_mean")]
    viol_mean = ctx[CONTEXT_STATS.index("violation_mpki_mean")]
    features.extend(value * ipc_mean for value in one_hot)
    features.extend(value * viol_mean for value in one_hot)
    if len(features) != NUM_FEATURES:  # pragma: no cover - schema invariant
        raise AssertionError(
            f"feature vector has {len(features)} entries, schema v"
            f"{FEATURE_SCHEMA_VERSION} declares {NUM_FEATURES}"
        )
    return features


def build_context_table(
    rows: Sequence["object"],
) -> Dict[str, Dict[str, float]]:
    """Per-workload context stats from *train-split* source rows.

    ``rows`` are :class:`~repro.surrogate.dataset.SourceRecord`-shaped
    objects (``workload``/``ipc``/``violation_mpki``/``branch_mpki``/
    ``intervals`` attributes). The returned table maps workload name to its
    :data:`CONTEXT_STATS` dict and includes a ``"__global__"`` row — the
    unweighted mean over per-workload rows — used as the fallback for
    workloads the train split never saw. Computing this from train rows
    only is what keeps held-out error estimates honest: a held-out cell's
    own IPC never reaches its features.
    """
    grouped: Dict[str, List[object]] = {}
    for row in rows:
        grouped.setdefault(row.workload, []).append(row)

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def std(values: List[float]) -> float:
        if len(values) < 2:
            return 0.0
        center = mean(values)
        return math.sqrt(
            sum((value - center) ** 2 for value in values) / len(values)
        )

    table: Dict[str, Dict[str, float]] = {}
    for workload, members in sorted(grouped.items()):
        ipcs = [row.ipc for row in members]
        viols = [row.violation_mpki for row in members]
        branches = [row.branch_mpki for row in members]
        occupancies: List[float] = []
        interval_covs: List[float] = []
        for row in members:
            intervals = getattr(row, "intervals", None) or ()
            window_ipcs = [
                float(window.get("ipc", 0.0)) for window in intervals
            ]
            window_occs = [
                float(window.get("occupancy", 0.0)) for window in intervals
            ]
            if window_occs:
                occupancies.append(mean(window_occs))
            if len(window_ipcs) >= 2 and mean(window_ipcs) > 0:
                interval_covs.append(std(window_ipcs) / mean(window_ipcs))
        table[workload] = {
            "ipc_mean": mean(ipcs),
            "ipc_std": std(ipcs),
            "violation_mpki_mean": mean(viols),
            "violation_mpki_std": std(viols),
            "branch_mpki_mean": mean(branches),
            "occupancy_mean": mean(occupancies),
            "interval_ipc_cov": mean(interval_covs),
            "rows_log": math.log10(1 + len(members)),
        }
    if table:
        table["__global__"] = {
            stat: mean([row[stat] for name, row in table.items()])
            for stat in CONTEXT_STATS
        }
    else:
        table["__global__"] = {stat: 0.0 for stat in CONTEXT_STATS}
    return table
