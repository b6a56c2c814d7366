"""Deterministic, content-addressed training datasets for the surrogate.

The dataset builder turns completed sweep cells into feature/target rows
under the frozen schema in :mod:`repro.surrogate.features`. Two sources
produce *identical* rows for the same cell:

* a :class:`~repro.harness.store.ResultStore` directory — every entry is
  read through the same reader as ``ResultStore.get``
  (:func:`repro.common.entries.read_entry`: schema, code version, key,
  CRC), so a corrupted entry is skipped and counted rather than poisoning
  the dataset; and
* provenance records emitted by ``repro export --provenance`` — these
  carry the full RunSpec wire dict, so the exact CoreConfig is available
  even for cells whose fingerprint matches no known preset.

Store entries persist only the config *fingerprint*, so the builder
resolves it against the known presets (``GENERATIONS`` plus the default
core); an unknown fingerprint falls back to default-config feature values
with the ``cfg_unknown`` indicator raised.

Rows are sorted by cell digest and split deterministically by digest
bucket into ``heldout`` / ``calib`` / ``train`` *before* any aggregate is
computed; the per-workload context table is built from train rows only.
That ordering is what makes the artifact byte-identical across rebuilds
(including from a store written by a sharded multi-server run) and keeps
held-out error estimates honest.

The saved artifact is a sealed artifact of :mod:`repro.common.entries`
(versioned payload, content digest, CRC32; ``docs/harness.md`` describes
the format), loaded with every corruption mode reading as a miss
(``load_dataset`` returns ``None``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.entries import read_entry, read_sealed, seal, write_sealed
from repro.core.config import GENERATIONS, CoreConfig
from repro.harness import store as store_mod
from repro.surrogate.features import (
    FEATURE_SCHEMA_VERSION,
    build_context_table,
    cell_features,
    feature_names,
)
from repro.workloads.generator import GENERATOR_VERSION

#: Artifact schema of the dataset JSON record; a mismatch loads as a miss.
DATASET_SCHEMA = 1

#: Digest-bucket split (out of 10): kept apart from row contents so adding
#: rows never reshuffles existing cells between splits.
HELDOUT_BUCKETS = frozenset({0, 1})
CALIB_BUCKETS = frozenset({2, 3, 4})

TARGETS = ("ipc", "violation_mpki")


@dataclass(frozen=True)
class SourceRecord:
    """One validated completed cell, before featurization."""

    digest: str
    workload: str
    predictor: str
    core: str
    config_sha256: str
    num_ops: int
    seed: Optional[int]
    ipc: float
    violation_mpki: float
    branch_mpki: float
    intervals: Tuple[Mapping[str, object], ...] = ()
    config: Optional[CoreConfig] = field(default=None, compare=False)


def known_configs() -> Dict[str, CoreConfig]:
    """Fingerprint → CoreConfig for every named preset plus the default."""
    table: Dict[str, CoreConfig] = {}
    for config in (*GENERATIONS.values(), CoreConfig()):
        table.setdefault(store_mod.config_fingerprint(config), config)
    return table


def split_for_digest(digest: str) -> str:
    """Deterministic split assignment from the cell digest alone."""
    bucket = int(digest[:8], 16) % 10
    if bucket in HELDOUT_BUCKETS:
        return "heldout"
    if bucket in CALIB_BUCKETS:
        return "calib"
    return "train"


def _read_store_record(path: Path) -> Optional[SourceRecord]:
    """One store entry, checked exactly as ``ResultStore.get`` checks it."""
    entry = read_entry(path, "result", **store_mod.entry_header(path.stem))
    if entry is None:
        return None
    try:
        cell = entry["cell"]
        result = entry["result"]
        seed = cell["seed"]
        return SourceRecord(
            digest=path.stem,
            workload=str(cell["workload"]),
            predictor=str(cell["predictor"]),
            core=str(cell["core"]),
            config_sha256=str(cell["config_sha256"]),
            num_ops=int(cell["num_ops"]),
            seed=None if seed is None else int(seed),
            ipc=float(result["ipc"]),
            violation_mpki=float(result["violation_mpki"]),
            branch_mpki=float(result["branch_mpki"]),
            intervals=tuple(result.get("intervals") or ()),
        )
    except (KeyError, TypeError, ValueError):
        return None


def extract_store_records(
    store_root: Union[str, Path],
) -> Tuple[List[SourceRecord], int]:
    """All valid completed cells in a store; returns (records, skipped).

    Corrupted entries — truncated JSON, schema/CRC mismatches, records that
    no longer parse — are counted as skipped, mirroring the store's own
    corruption-as-miss contract.
    """
    results_dir = store_mod.ResultStore(store_root).results_dir
    records: List[SourceRecord] = []
    skipped = 0
    if not results_dir.is_dir():
        return records, skipped
    for path in sorted(results_dir.glob("*.json")):
        record = _read_store_record(path)
        if record is None:
            skipped += 1
        else:
            records.append(record)
    return records, skipped


def records_from_provenance(
    provenance: Iterable[Mapping[str, object]],
) -> Tuple[List[SourceRecord], int]:
    """Source records from ``repro export --provenance`` output.

    Each record's spec wire dict is re-keyed and the digest verified, so a
    tampered or stale export cannot inject a row under the wrong cell
    identity. The exact CoreConfig travels with the spec, so these rows
    never need the fingerprint-lookup fallback.
    """
    from repro.sim.spec import RunSpec

    records: List[SourceRecord] = []
    skipped = 0
    for item in provenance:
        try:
            spec = RunSpec.from_wire(dict(item["spec"]))
            key = spec.key()
            if item["digest"] != key.digest:
                skipped += 1
                continue
            result = item["result"]
            records.append(
                SourceRecord(
                    digest=key.digest,
                    workload=spec.workload_name,
                    predictor=spec.predictor_label,
                    core=str(key.describe["core"]),
                    config_sha256=str(key.describe["config_sha256"]),
                    num_ops=int(key.describe["num_ops"]),
                    seed=spec.seed,
                    ipc=float(result["ipc"]),
                    violation_mpki=float(result["violation_mpki"]),
                    branch_mpki=float(result["branch_mpki"]),
                    intervals=tuple(result.get("intervals") or ()),
                    config=spec.config,
                )
            )
        except (KeyError, TypeError, ValueError):
            skipped += 1
    return records, skipped


@dataclass(frozen=True)
class Dataset:
    """An immutable, content-addressed dataset artifact."""

    payload: Mapping[str, object]

    @property
    def content_sha256(self) -> str:
        return str(self.payload["content_sha256"])

    @property
    def rows(self) -> Sequence[Mapping[str, object]]:
        return self.payload["rows"]

    @property
    def feature_names(self) -> Sequence[str]:
        return self.payload["feature_names"]

    @property
    def context(self) -> Mapping[str, Mapping[str, float]]:
        return self.payload["context"]

    def rows_for(self, split: str) -> List[Mapping[str, object]]:
        return [row for row in self.rows if row["split"] == split]

    def summary(self) -> str:
        counts = self.payload["splits"]
        return (
            f"dataset {self.content_sha256[:12]}: {len(self.rows)} rows "
            f"(train={counts['train']} calib={counts['calib']} "
            f"heldout={counts['heldout']}), "
            f"skipped={self.payload['source']['skipped']}"
        )

    def save(self, destination: Union[str, Path]) -> Path:
        """Write the artifact atomically; directories get the canonical name."""
        return write_sealed(destination, self.payload, "dataset")


def build_dataset(
    records: Sequence[SourceRecord], skipped: int = 0
) -> Dataset:
    """Featurize validated cells into a deterministic dataset artifact.

    Duplicate digests keep the first occurrence (sorted order makes "first"
    deterministic too). The split is decided from the digest before the
    context table exists, and the context table sees train rows only.
    """
    unique: Dict[str, SourceRecord] = {}
    for record in sorted(records, key=lambda r: r.digest):
        unique.setdefault(record.digest, record)
    ordered = list(unique.values())
    splits = {record.digest: split_for_digest(record.digest) for record in ordered}
    context = build_context_table(
        [record for record in ordered if splits[record.digest] == "train"]
    )
    global_context = context["__global__"]
    configs = known_configs()
    rows: List[Dict[str, object]] = []
    counts = {"train": 0, "calib": 0, "heldout": 0}
    for record in ordered:
        config = record.config or configs.get(record.config_sha256)
        split = splits[record.digest]
        counts[split] += 1
        rows.append(
            {
                "digest": record.digest,
                "workload": record.workload,
                "predictor": record.predictor,
                "core": record.core,
                "num_ops": record.num_ops,
                "seed": record.seed,
                "split": split,
                "features": cell_features(
                    record.workload,
                    record.predictor,
                    config,
                    record.num_ops,
                    record.seed,
                    context.get(record.workload),
                    global_context,
                ),
                "targets": {
                    "ipc": record.ipc,
                    "violation_mpki": record.violation_mpki,
                },
            }
        )
    payload: Dict[str, object] = {
        "schema": DATASET_SCHEMA,
        "feature_schema": FEATURE_SCHEMA_VERSION,
        "generator_version": GENERATOR_VERSION,
        "feature_names": feature_names(),
        "targets": list(TARGETS),
        "context": context,
        "rows": rows,
        "splits": counts,
        "source": {"records": len(rows), "skipped": skipped},
    }
    return Dataset(payload=seal(payload))


def build_store_dataset(store_root: Union[str, Path]) -> Dataset:
    """Convenience: extract + featurize straight from a result store."""
    records, skipped = extract_store_records(store_root)
    return build_dataset(records, skipped=skipped)


def load_dataset(path: Union[str, Path]) -> Optional[Dataset]:
    """Load an artifact, or ``None`` on any corruption mode.

    Missing file, invalid JSON, a schema, feature-schema or feature-name
    mismatch, a CRC or content-digest mismatch all read as a miss — the
    caller rebuilds, exactly like a corrupted store entry re-simulates.
    """
    payload = read_sealed(
        path,
        schema=DATASET_SCHEMA,
        feature_schema=FEATURE_SCHEMA_VERSION,
        feature_names=feature_names(),
    )
    return None if payload is None else Dataset(payload=payload)
