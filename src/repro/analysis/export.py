"""Result export: SimResult / grid sweeps to plain dicts and JSON.

Lets downstream tooling (plotting scripts, CI dashboards, the paper-diffing
workflow in EXPERIMENTS.md) consume reproduction results without importing
the simulator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, IO, Iterable, List, Optional, Union

from repro.common.atomicio import atomic_write_text
from repro.sim.metrics import SimResult


def result_to_dict(result: SimResult) -> Dict[str, object]:
    """Flatten one simulation result into a JSON-safe dict."""
    return result.to_record()


def results_to_records(results: Iterable[SimResult]) -> List[Dict[str, object]]:
    """Many results -> list of flat records (one per simulation)."""
    return [result_to_dict(result) for result in results]


def dump_results(
    results: Iterable[SimResult],
    destination: Union[str, Path, IO[str]],
    indent: Optional[int] = 2,
) -> None:
    """Write results as a JSON array to a path or stream.

    Path destinations are written atomically (temp file + rename), so an
    interrupted export never leaves a truncated JSON file behind.
    """
    records = results_to_records(results)
    if isinstance(destination, (str, Path)):
        atomic_write_text(destination, json.dumps(records, indent=indent) + "\n")
        return
    json.dump(records, destination, indent=indent)
    destination.write("\n")


def load_records(source: Union[str, Path, IO[str]]) -> List[Dict[str, object]]:
    """Read back a JSON array written by :func:`dump_results`."""
    own = isinstance(source, (str, Path))
    stream: IO[str] = open(source) if own else source
    try:
        records = json.load(stream)
    finally:
        if own:
            stream.close()
    if not isinstance(records, list):
        raise ValueError("expected a JSON array of result records")
    return records


def records_to_csv(records: List[Dict[str, object]]) -> str:
    """Flat-field CSV rendering (top-level scalar fields only)."""
    if not records:
        raise ValueError("no records to render")
    scalar_fields = [
        key
        for key, value in records[0].items()
        if not isinstance(value, dict)
    ]
    lines = [",".join(scalar_fields)]
    for record in records:
        cells = []
        for field in scalar_fields:
            value = record.get(field)
            cells.append("" if value is None else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def intervals_to_records(result: SimResult) -> List[Dict[str, object]]:
    """One flat record per interval window, tagged with the run's identity.

    Requires a result produced with interval metrics enabled
    (``simulate(RunSpec(..., interval_ops=N))`` or ``repro probe``); raises
    ``ValueError`` otherwise so a missing probe doesn't silently export
    nothing.
    """
    if result.intervals is None:
        raise ValueError(
            f"{result.workload}/{result.predictor} carries no interval metrics; "
            "run with interval_ops set "
            "(e.g. simulate(RunSpec(..., interval_ops=2000)))"
        )
    records = []
    for window in result.intervals:
        record: Dict[str, object] = {
            "workload": result.workload,
            "predictor": result.predictor,
            "core": result.core,
        }
        record.update(window.to_dict())
        records.append(record)
    return records


def intervals_to_csv(results: Iterable[SimResult]) -> str:
    """Per-interval CSV across one or more results (plotting-ready)."""
    records: List[Dict[str, object]] = []
    for result in results:
        records.extend(intervals_to_records(result))
    return records_to_csv(records)


#: Schema of one provenance record (see :func:`provenance_record`).
PROVENANCE_SCHEMA = 1


def provenance_record(spec, result: SimResult) -> Dict[str, object]:
    """One result with everything the surrogate dataset builder needs.

    Carries the cell's content digest, the full RunSpec wire dict (exact
    CoreConfig included — store entries only keep its fingerprint), the
    workload generator version, and the complete result record with any
    interval windows. A dataset built from these records featurizes
    identically to one built from the originating store, which is what
    makes exported JSON a faithful substitute for store access.
    """
    from repro.api.wire import spec_to_wire
    from repro.workloads.generator import GENERATOR_VERSION

    key = spec.key()
    return {
        "schema": PROVENANCE_SCHEMA,
        "digest": key.digest,
        "cell": dict(key.describe),
        "spec": spec_to_wire(spec),
        "generator_version": GENERATOR_VERSION,
        "result": result.to_record(),
    }


def dump_provenance(
    pairs: Iterable[tuple],
    destination: Union[str, Path, IO[str]],
    indent: Optional[int] = 2,
) -> None:
    """Write (spec, result) pairs as a provenance JSON array.

    Same atomic-write guarantee as :func:`dump_results`; the output feeds
    ``repro surrogate build --provenance`` and
    :func:`repro.surrogate.dataset.records_from_provenance`.
    """
    records = [provenance_record(spec, result) for spec, result in pairs]
    if isinstance(destination, (str, Path)):
        atomic_write_text(destination, json.dumps(records, indent=indent) + "\n")
        return
    json.dump(records, destination, indent=indent)
    destination.write("\n")


def load_provenance(
    source: Union[str, Path, IO[str]],
) -> List[Dict[str, object]]:
    """Read back a provenance array written by :func:`dump_provenance`."""
    records = load_records(source)
    for record in records:
        if not isinstance(record, dict) or record.get("schema") != PROVENANCE_SCHEMA:
            raise ValueError(
                "not a provenance export (expected records with "
                f"schema={PROVENANCE_SCHEMA}); did you mean a plain "
                "results export?"
            )
    return records
