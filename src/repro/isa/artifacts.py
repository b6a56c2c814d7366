"""Content-addressed store of compiled trace artifacts.

Workload traces are deterministic functions of ``(profile.name,
profile.seed, num_ops, generator_version)``, so a trace built once can be
persisted and replayed by any later process — in particular by sweep worker
processes, whose in-memory caches start cold. Each artifact is a binary
trace (:func:`repro.isa.serialize.dumps_trace_binary`) named by the SHA-256
digest of its complete key, written via temp-file + atomic rename
(:mod:`repro.common.atomicio`) so a killed writer can never leave a
truncated artifact. Unreadable, corrupted, or version-mismatched artifacts
read as cache *misses*, never as errors — the trace is simply rebuilt.

Layout under the store root::

    <root>/<digest>.rtb        binary trace artifact
    <root>/<digest>.json       sidecar metadata (key fields, sizes) for `ls`
    <root>/rebuilds/<unique>   one marker per lazy (non-precompiled) build

Rebuild markers give cross-process observability without locking: every
process that falls through to ``build_trace`` (instead of loading an
artifact) drops one uniquely-named marker file. A sweep that precompiled
all its traces must finish with zero new markers — the CI zero-rebuild
guard asserts exactly that, catching silent cache-key drift.

The generator version is part of the key, so bumping
``repro.workloads.generator.GENERATOR_VERSION`` orphans stale artifacts
instead of replaying them. (They are never deleted automatically; use
``repro trace ls`` / manual cleanup.)
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

logger = logging.getLogger(__name__)

from repro.common.atomicio import atomic_write_bytes, atomic_write_json
from repro.isa.serialize import (
    BINARY_VERSION,
    TraceFormatError,
    dumps_trace_binary,
    loads_trace_binary,
)
from repro.isa.trace import Trace

#: Environment variable naming a directory to use as the process-wide
#: default trace store (consulted by :func:`default_trace_store`).
ENV_TRACE_STORE = "REPRO_TRACE_STORE"


@dataclass(frozen=True)
class TraceKey:
    """Content-addressed identity of one compiled trace."""

    digest: str
    describe: Mapping[str, object]

    @property
    def short(self) -> str:
        return self.digest[:12]


def trace_key(profile, num_ops: int) -> TraceKey:
    """Build the content-hash key of a compiled trace.

    Keyed by everything that determines the generated micro-op sequence:
    the profile's name and seed, the dynamic length, the generator version,
    and the binary format version.
    """
    from repro.workloads.generator import GENERATOR_VERSION

    if num_ops <= 0:
        raise ValueError(f"num_ops must be positive, got {num_ops}")
    describe: Dict[str, object] = {
        "workload": profile.name,
        "seed": profile.seed,
        "num_ops": num_ops,
        "generator_version": GENERATOR_VERSION,
        "format_version": BINARY_VERSION,
    }
    blob = json.dumps(describe, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return TraceKey(digest=digest, describe=describe)


class _SidecarStore:
    """Artifacts ``<digest><suffix>``, each with a JSON metadata sidecar
    ``<digest><meta_suffix>``; subclasses supply the suffixes and ``load``."""

    #: Label used in degradation warnings.
    kind: str
    suffix: str
    meta_suffix = ".json"
    #: Sidecar fields that order :meth:`entries`.
    sort_fields: Tuple[str, str]

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def artifact_path(self, key: TraceKey) -> Path:
        return self.root / f"{key.digest}{self.suffix}"

    def meta_path(self, key: TraceKey) -> Path:
        return self.root / f"{key.digest}{self.meta_suffix}"

    def save(self, key: TraceKey, data: bytes) -> Optional[Path]:
        """Persist one encoded artifact atomically, with a sidecar.

        Artifacts are rebuildable caches, so a write refused by the disk
        (ENOSPC, EIO) degrades to ``None`` with a warning instead of
        crashing the campaign that produced it.
        """
        meta = {"key": key.digest, **dict(key.describe), "bytes": len(data)}
        try:
            path = atomic_write_bytes(self.artifact_path(key), data)
            atomic_write_json(self.meta_path(key), meta)
        except OSError as error:
            logger.warning(
                "%s store degraded: could not persist %s (%s)",
                self.kind,
                key.short,
                error,
            )
            return None
        return path

    def entries(self) -> List[Dict[str, object]]:
        """Metadata sidecars of every artifact, ordered by ``sort_fields``.

        Only this store's own sidecars are listed: a trace store sharing a
        directory with a checkpoint store skips ``<digest>.ckpt.json``.
        """
        found: List[Dict[str, object]] = []
        try:
            meta_files = sorted(self.root.glob(f"*{self.meta_suffix}"))
        except OSError:
            return found
        for meta_file in meta_files:
            if "." in meta_file.name[: -len(self.meta_suffix)]:
                continue
            try:
                entry = json.loads(meta_file.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(entry, dict) and "key" in entry:
                found.append(entry)
        first, second = self.sort_fields
        found.sort(key=lambda e: (str(e.get(first)), e.get(second, 0)))
        return found

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob(f"*{self.suffix}"))
        except OSError:
            return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.root)!r})"


class TraceStore(_SidecarStore):
    """Content-addressed, crash-safe store of compiled binary traces."""

    kind = "trace"
    suffix = ".rtb"
    sort_fields = ("workload", "num_ops")

    trace_path = _SidecarStore.artifact_path

    @property
    def rebuilds_dir(self) -> Path:
        return self.root / "rebuilds"

    # ---------------------------------------------------------- load/save --

    def load(self, key: TraceKey) -> Optional[Trace]:
        """The stored trace, or None on miss — including every corruption mode.

        A missing file, a truncated or bit-flipped artifact (CRC mismatch),
        an incompatible format version, or an op count that contradicts the
        key all read as misses: the caller rebuilds and rewrites the entry.
        """
        try:
            data = self.trace_path(key).read_bytes()
        except OSError:
            return None
        try:
            trace = loads_trace_binary(data)
        except TraceFormatError:
            return None
        if len(trace) != key.describe["num_ops"]:
            return None
        return trace

    def save(self, key: TraceKey, trace: Trace) -> Optional[Path]:
        """Persist one compiled trace atomically, with a metadata sidecar."""
        return super().save(key, dumps_trace_binary(trace))

    def contains(self, key: TraceKey) -> bool:
        return self.load(key) is not None

    def compile(self, profile, num_ops: int) -> Tuple[Trace, bool]:
        """The trace for ``(profile, num_ops)``, from disk or freshly built.

        Returns ``(trace, built)`` where ``built`` is True when the store
        had no usable artifact and the trace was generated (and persisted).
        Unlike the lazy path in ``repro.sim.simulator.get_trace``, an
        explicit compile does not drop a rebuild marker — precompilation is
        the *expected* place for builds to happen.
        """
        from repro.workloads.generator import build_trace

        key = trace_key(profile, num_ops)
        trace = self.load(key)
        if trace is not None:
            return trace, False
        trace = build_trace(profile, num_ops)
        self.save(key, trace)
        return trace, True

    # ------------------------------------------------------------ rebuilds --

    def record_rebuild(self, key: TraceKey) -> None:
        """Drop one uniquely-named marker recording a lazy trace build.

        ``mkstemp`` guarantees a distinct file per call, so concurrent
        worker processes never race: the marker count is exactly the number
        of builds that bypassed the artifact store. Markers are telemetry —
        a disk that refuses one is logged, never fatal.
        """
        try:
            self.rebuilds_dir.mkdir(parents=True, exist_ok=True)
            fd, _ = tempfile.mkstemp(
                dir=str(self.rebuilds_dir), prefix=key.short + "."
            )
            os.close(fd)
        except OSError as error:
            logger.warning("could not record a rebuild marker (%s)", error)

    def rebuild_count(self) -> int:
        try:
            return sum(1 for entry in self.rebuilds_dir.iterdir() if entry.is_file())
        except OSError:
            return 0

    def clear_rebuilds(self) -> None:
        try:
            for entry in self.rebuilds_dir.iterdir():
                try:
                    entry.unlink()
                except OSError:
                    pass
        except OSError:
            pass

    # ------------------------------------------------------------- survey --

    def verify(self) -> List[str]:
        """Decode every artifact; returns a list of problems (empty = clean).

        Checks each ``.rtb`` against its CRC and its sidecar's op count, and
        flags sidecars whose artifact is missing.
        """
        problems: List[str] = []
        for entry in self.entries():
            digest = str(entry["key"])
            key = TraceKey(digest=digest, describe=entry)
            path = self.trace_path(key)
            try:
                data = path.read_bytes()
            except OSError:
                problems.append(f"{digest[:12]}: artifact missing ({path.name})")
                continue
            try:
                trace = loads_trace_binary(data)
            except TraceFormatError as error:
                problems.append(f"{digest[:12]}: {error}")
                continue
            if len(trace) != entry.get("num_ops"):
                problems.append(
                    f"{digest[:12]}: has {len(trace)} ops, "
                    f"sidecar says {entry.get('num_ops')}"
                )
        return problems


def checkpoint_key(
    run_describe: Mapping[str, object],
    trace_digest: str,
    op_index: int,
    format_version: int,
    semantics_version: int,
) -> TraceKey:
    """Content-hash key of one machine-state checkpoint.

    Keyed by everything that determines the warmed state: the run identity
    (a :meth:`repro.sim.spec.RunSpec.describe` mapping — predictor, core
    config, branch predictor, seed), the compiled trace's content digest,
    the op index the checkpoint pauses at, the checkpoint *format* version
    and the functional-warming *semantics* version. Bumping either version
    orphans stale checkpoints as misses instead of resuming them wrongly —
    same discipline as ``GENERATOR_VERSION`` for traces.

    Returns a :class:`TraceKey`; the type is a plain (digest, describe)
    pair and addresses checkpoint artifacts the same way it addresses
    traces.
    """
    if op_index < 0:
        raise ValueError(f"op_index must be >= 0, got {op_index}")
    describe: Dict[str, object] = {
        "kind": "checkpoint",
        "run": dict(run_describe),
        "trace_digest": trace_digest,
        "op_index": op_index,
        "format_version": format_version,
        "semantics_version": semantics_version,
    }
    blob = json.dumps(describe, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return TraceKey(digest=digest, describe=describe)


class CheckpointStore(_SidecarStore):
    """Content-addressed, crash-safe store of machine-state checkpoints.

    Same contract as :class:`TraceStore`, but the payload is opaque bytes:
    this module stays codec-agnostic (and pickle-free) — encoding and
    decoding, including corruption-as-miss validation of the payload
    itself, belong to :mod:`repro.sampling.checkpoint`. This layer only
    guarantees atomic writes and missing/unreadable-file-as-miss reads.
    """

    kind = "checkpoint"
    suffix = ".ckpt"
    meta_suffix = ".ckpt.json"
    sort_fields = ("trace_digest", "op_index")

    def load(self, key: TraceKey) -> Optional[bytes]:
        """The stored artifact bytes, or None when missing/unreadable."""
        try:
            return self.artifact_path(key).read_bytes()
        except OSError:
            return None

    def contains(self, key: TraceKey) -> bool:
        return self.artifact_path(key).is_file()


def default_trace_store() -> Optional[TraceStore]:
    """The store named by ``REPRO_TRACE_STORE``, or None when unset.

    Resolved at call time (not import time) so tests and harness workers
    can redirect the disk tier per process.
    """
    root = os.environ.get(ENV_TRACE_STORE)
    if not root:
        return None
    return TraceStore(root)
