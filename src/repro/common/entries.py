"""The on-disk entry format of every JSON store and artifact.

Two shapes, described in ``docs/harness.md`` ("The entry format"), both
written through :mod:`repro.common.atomicio` (so chaos write faults land on
them) and both read back with every corruption mode as a miss (``None``):

* **framed entries** — a header, one named record, then ``crc32`` over the
  record (results, failures, surrogate estimates);
* **sealed artifacts** — a payload with its ``content_sha256``, plus
  ``crc32`` over the payload (surrogate datasets and models).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.common.atomicio import atomic_write_json, atomic_write_text

PathLike = Union[str, Path]


def record_crc(record: object) -> int:
    """CRC32 over a record's canonical JSON — the entry bit-rot guard."""
    blob = json.dumps(record, sort_keys=True, default=str)
    return zlib.crc32(blob.encode("utf-8"))


def _load(path: PathLike, expected: Mapping[str, object]) -> Optional[dict]:
    """The parsed file when it is a JSON object holding every expected
    header value, else ``None``."""
    try:
        entry = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict):
        return None
    for field, value in expected.items():
        if field not in entry or entry[field] != value:
            return None
    return entry


def write_entry(
    path: PathLike, header: Mapping[str, object], name: str, record: object
) -> Path:
    """Write ``header``'s fields in order, ``record`` under ``name``, then
    ``crc32``. Raises ``OSError`` when the disk refuses the write."""
    entry = {**header, name: record, "crc32": record_crc(record)}
    return atomic_write_json(path, entry)


def read_entry(path: PathLike, name: str, **expected: object) -> Optional[dict]:
    """The entry written by :func:`write_entry`, or ``None`` when the file
    is unreadable or not JSON, a header field differs from ``expected``
    (schema, code version, key), or the record's CRC does not match."""
    entry = _load(path, expected)
    if entry is None or name not in entry:
        return None
    if entry.get("crc32") != record_crc(entry[name]):
        return None
    return entry


def _content_digest(payload: Mapping[str, object]) -> str:
    body = {k: v for k, v in payload.items() if k != "content_sha256"}
    blob = json.dumps(body, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def seal(payload: Mapping[str, object]) -> Dict[str, object]:
    """A copy of ``payload`` with its ``content_sha256`` (re)computed."""
    return {**payload, "content_sha256": _content_digest(payload)}


def write_sealed(
    destination: PathLike, payload: Mapping[str, object], stem: str
) -> Path:
    """Write a sealed payload plus its CRC, keys sorted; a destination
    without a ``.json`` suffix is a directory and gets the canonical name
    ``<stem>-<first 12 of content_sha256>.json``."""
    target = Path(destination)
    if target.suffix != ".json":
        target = target / f"{stem}-{str(payload['content_sha256'])[:12]}.json"
    entry = {**payload, "crc32": record_crc(payload)}
    return atomic_write_text(target, json.dumps(entry, sort_keys=True, indent=2) + "\n")


def read_sealed(path: PathLike, **expected: object) -> Optional[dict]:
    """The sealed payload without its CRC, or ``None`` when the file is
    unreadable or not JSON, a header field differs from ``expected``, or
    the CRC or the content digest does not match."""
    entry = _load(path, expected)
    if entry is None or "crc32" not in entry or "content_sha256" not in entry:
        return None
    if entry.pop("crc32") != record_crc(entry):
        return None
    if entry["content_sha256"] != _content_digest(entry):
        return None
    return entry
