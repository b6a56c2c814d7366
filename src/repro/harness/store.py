"""Durable, crash-safe result store for simulation sweeps.

Each sweep cell — one (workload, predictor, core configuration, trace
length, seed) simulation — is keyed by a SHA-256 content hash over the
*complete* cell description, including every :class:`~repro.core.config.
CoreConfig` field (latency and port maps, the cache hierarchy, squash
policy, …) plus the store schema and code version. Two configs that differ
in any field hash differently even when they share a ``name``; a config
rebuilt field-for-field hashes identically across processes and sessions.

Entries are single JSON files in the framed format of
:mod:`repro.common.entries` (``docs/harness.md``), written via temp-file +
atomic rename, so a process killed mid-write never leaves a truncated entry
and a resumed sweep starts from exactly the set of complete cells. Every
corruption mode — truncation, a version, key or CRC mismatch, even a
flipped bit inside a value that still parses — reads as a cache *miss*.

The store also degrades gracefully under disk exhaustion: a ``put`` that
hits ``OSError`` (ENOSPC, EIO, a vanished mount) falls back to an
in-process memory tier and counts a ``degraded_write`` instead of crashing
the campaign — results stay reachable through ``get`` for the rest of the
run; only their durability is lost.

Layout under the store root::

    <root>/results/<digest>.json     one completed cell each
    <root>/failures/<digest>.json    structured CellFailure records
    <root>/failure_manifest.json     machine-readable manifest of a sweep
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.atomicio import atomic_write_json
from repro.common.entries import read_entry, write_entry
from repro.core.config import CoreConfig
from repro.harness.failures import CellFailure
from repro.sim.metrics import SimResult

if TYPE_CHECKING:
    from repro.sim.spec import RunSpec

logger = logging.getLogger(__name__)

#: On-disk entry format version; bump on incompatible layout changes.
#: v2: entries carry ``crc32`` over their record payload (bit-rot guard).
SCHEMA_VERSION = 2

#: Simulator semantics version. Bump whenever a change alters simulation
#: *results* (timing model, predictor behaviour, trace generation) so stale
#: cached cells read as misses instead of contaminating new sweeps.
CODE_VERSION = "1"


def _canonical(value: object) -> object:
    """Recursively render a config value into JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, Mapping):
        return {
            str(_canonical(key)): _canonical(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=str)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_config(config: CoreConfig) -> Dict[str, object]:
    """Every field of a core config as a deterministic JSON-safe dict."""
    rendered = _canonical(config)
    assert isinstance(rendered, dict)
    return rendered


#: Most distinct configs :func:`config_fingerprint` remembers; the memo is
#: emptied when full (a sweep or a server holds a handful of configs).
FINGERPRINT_MEMO_SIZE = 256

_fingerprints: Dict[str, str] = {}
_fingerprints_lock = threading.Lock()


def config_fingerprint(config: CoreConfig) -> str:
    """SHA-256 hex digest over the complete canonical config.

    Memoised by ``repr(config)``, so a grid of cells sharing one config
    canonicalises it once. The memo is exact: a config's dataclass ``repr``
    spells out every field value, and ``1``, ``1.0`` and ``True`` print
    differently, as :func:`_canonical` renders them; anything else it
    renders by its ``repr``. Equality would not do: ``1 == 1.0 == True``.
    """
    text = repr(config)
    sha = _fingerprints.get(text)
    if sha is None:
        blob = json.dumps(canonical_config(config), sort_keys=True)
        sha = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        with _fingerprints_lock:
            if len(_fingerprints) >= FINGERPRINT_MEMO_SIZE:
                _fingerprints.clear()
            _fingerprints[text] = sha
    return sha


@dataclass(frozen=True)
class CellKey:
    """Content-addressed identity of one sweep cell."""

    digest: str
    describe: Mapping[str, object]

    @property
    def short(self) -> str:
        return self.digest[:12]


def cell_key(
    workload: str,
    predictor: str,
    config: Optional[CoreConfig] = None,
    num_ops: int = 0,
    seed: Optional[int] = None,
) -> CellKey:
    """Build the full content-hash key of a sweep cell.

    ``predictor`` is the cache *label*: a registry name, or a canonical
    variant label such as ``"phast(target_bits=0)"`` that names its
    parameters (:func:`repro.sim.simulator.parse_predictor`), so a variant
    is its own cell. ``seed`` is a workload seed override (None = profile
    default).
    """
    core = config or CoreConfig()
    return _key(
        workload, predictor, core.name, config_fingerprint(core), num_ops, seed
    )


def grid_keys(specs: Sequence["RunSpec"]) -> List[CellKey]:
    """``spec.key()`` for every spec, fingerprinting each config object once.

    Specs sharing one config object (a grid from ``build_cells``), or all
    leaving it ``None`` (a wire grid), resolve and fingerprint it once for
    the whole call instead of once per cell.
    """
    fingerprinted: Dict[int, Tuple[CoreConfig, str]] = {}
    keys: List[CellKey] = []
    for spec in specs:
        known = fingerprinted.get(id(spec.config))
        if known is None:
            core = spec.resolved_config()
            known = (core, config_fingerprint(core))
            fingerprinted[id(spec.config)] = known
        core, config_sha = known
        keys.append(
            _key(
                spec.workload_name,
                spec.predictor_label,
                core.name,
                config_sha,
                spec.num_ops or 0,
                spec.seed,
            )
        )
    return keys


def _key(
    workload: str,
    predictor: str,
    core_name: str,
    config_sha: str,
    num_ops: int,
    seed: Optional[int],
) -> CellKey:
    describe: Dict[str, object] = {
        "workload": workload,
        "predictor": predictor,
        "core": core_name,
        "config_sha256": config_sha,
        "num_ops": num_ops,
        "seed": seed,
        "schema": SCHEMA_VERSION,
        "code_version": CODE_VERSION,
    }
    blob = json.dumps(describe, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return CellKey(digest=digest, describe=describe)


@dataclass(frozen=True)
class StoreStatus:
    """Completed/failed/pending split of a cell population."""

    completed: int
    failed: int
    pending: int

    @property
    def total(self) -> int:
        return self.completed + self.failed + self.pending

    def summary(self) -> str:
        return (
            f"{self.total} cells: {self.completed} completed, "
            f"{self.failed} failed, {self.pending} pending"
        )


def entry_header(digest: str) -> Dict[str, object]:
    """The header a result or failure entry for ``digest`` must carry."""
    return {"schema": SCHEMA_VERSION, "code_version": CODE_VERSION, "key": digest}


class ResultStore:
    """Content-addressed, crash-safe store of completed sweep cells."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        # In-process fallback tier for disk-exhaustion degradation: results
        # and failures that could not be persisted stay reachable here for
        # the rest of the run (durability is lost, the campaign is not).
        self._memory_results: Dict[str, SimResult] = {}
        self._memory_failures: Dict[str, CellFailure] = {}
        self.degraded_writes = 0

    def _degrade(self, what: str, key: "CellKey", error: OSError) -> None:
        self.degraded_writes += 1
        logger.warning(
            "result store degraded: could not persist %s %s (%s); "
            "keeping it in memory for this run",
            what,
            key.short,
            error,
        )

    # ------------------------------------------------------------- paths --

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def failures_dir(self) -> Path:
        return self.root / "failures"

    @property
    def leases_dir(self) -> Path:
        """Claim markers for multi-process sharding (see harness.leases)."""
        return self.root / "leases"

    @property
    def manifest_path(self) -> Path:
        return self.root / "failure_manifest.json"

    def result_path(self, key: CellKey) -> Path:
        return self.results_dir / f"{key.digest}.json"

    def failure_path(self, key: CellKey) -> Path:
        return self.failures_dir / f"{key.digest}.json"

    # ------------------------------------------------------------ results --

    def get(self, key: CellKey) -> Optional[SimResult]:
        """Cached result, or None on miss — including every corruption mode.

        Every corruption mode of the entry format, and a record that no
        longer fits ``SimResult``, reads as a miss: the cell is re-simulated
        and the entry rewritten. Results parked in the in-memory
        degradation tier (a ``put`` that hit a full disk) are served after
        the disk miss.
        """
        header = entry_header(key.digest)
        entry = read_entry(self.result_path(key), "result", **header)
        if entry is not None:
            try:
                return SimResult.from_record(entry["result"])
            except (KeyError, TypeError, ValueError):
                pass
        return self._memory_results.get(key.digest)

    def put(self, key: CellKey, result: SimResult) -> Optional[Path]:
        """Persist one completed cell atomically; clears any stale failure.

        On ``OSError`` (disk full, I/O error) the result is parked in the
        in-memory tier instead — ``get`` keeps serving it for the rest of
        this run — and ``None`` is returned; ``degraded_writes`` counts the
        losses so the sweep manifest can report them.
        """
        header = {**entry_header(key.digest), "cell": dict(key.describe)}
        try:
            path = write_entry(
                self.result_path(key), header, "result", result.to_record()
            )
        except OSError as error:
            self._degrade("result", key, error)
            self._memory_results[key.digest] = result
            self._memory_failures.pop(key.digest, None)
            return None
        self._memory_results.pop(key.digest, None)
        self.clear_failure(key)
        return path

    def contains(self, key: CellKey) -> bool:
        return self.get(key) is not None

    # ----------------------------------------------------------- failures --

    def put_failure(self, key: CellKey, failure: CellFailure) -> Optional[Path]:
        header = {**entry_header(key.digest), "cell": dict(key.describe)}
        try:
            path = write_entry(
                self.failure_path(key), header, "failure", failure.to_dict()
            )
        except OSError as error:
            self._degrade("failure", key, error)
            self._memory_failures[key.digest] = failure
            return None
        self._memory_failures.pop(key.digest, None)
        return path

    def get_failure(self, key: CellKey) -> Optional[CellFailure]:
        """The stored failure, read under the same checks as ``get``."""
        header = entry_header(key.digest)
        entry = read_entry(self.failure_path(key), "failure", **header)
        if entry is not None:
            try:
                return CellFailure.from_dict(entry["failure"])
            except (KeyError, TypeError, ValueError):
                pass
        return self._memory_failures.get(key.digest)

    def clear_failure(self, key: CellKey) -> None:
        self._memory_failures.pop(key.digest, None)
        try:
            self.failure_path(key).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------- status --

    def status(self, keys: Iterable[CellKey]) -> StoreStatus:
        """Classify a cell population against the store's current contents."""
        completed = failed = pending = 0
        for key in keys:
            if self.contains(key):
                completed += 1
            elif self.get_failure(key) is not None:
                failed += 1
            else:
                pending += 1
        return StoreStatus(completed=completed, failed=failed, pending=pending)

    def write_manifest(
        self,
        failures: Sequence[CellFailure],
        extra: Optional[Mapping[str, object]] = None,
    ) -> Optional[Path]:
        """Write the machine-readable failure manifest for the last sweep.

        Returns ``None`` (and counts a degraded write) when the disk
        refuses it — losing the manifest must not abort a finished sweep.
        """
        payload: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "code_version": CODE_VERSION,
            "failure_count": len(failures),
            "failures": [failure.to_dict() for failure in failures],
        }
        if extra:
            payload.update(extra)
        try:
            return atomic_write_json(self.manifest_path, payload)
        except OSError as error:
            self.degraded_writes += 1
            logger.warning(
                "result store degraded: could not write the failure "
                "manifest (%s)",
                error,
            )
            return None

    def read_manifest(self) -> Optional[Dict[str, object]]:
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # -------------------------------------------------------------- misc --

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.results_dir.glob("*.json"))
        except OSError:
            return 0

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
