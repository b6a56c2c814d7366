"""The correctness oracle: committed digests and the in-process reference.

A result is correct when the SHA-256 of its canonical
``SimResult.to_record()`` equals the digest the in-process ``reference``
backend produces for the same cell. ``expected.json`` commits those digests
for every fixed input and for the first seed-1 writes of each scale; any
other write is simulated here, after the timed window, for the cells the
run actually sent. Surrogate predictions are checked against the same
model artifact loaded in this process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

import inputs

PATH = Path(__file__).resolve().parent / "expected.json"

#: Relative tolerance on served predictions vs the in-process model.
PREDICT_RTOL = 1e-9
_PREDICT_FLOATS = ("ipc", "ipc_ci", "violation_mpki", "violation_mpki_ci", "level")
_PREDICT_EXACT = ("workload", "predictor", "digest", "model_sha256", "novel")


def digest(record: Mapping[str, object]) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_name(workload: str, predictor: str, seed=None) -> str:
    name = f"{workload}/{predictor}"
    return name if seed is None else f"{name}/{seed}"


def load() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(PATH.read_text())


def reference_digest(cell: tuple) -> str:
    """Digest of a (workload, predictor, ops, seed) cell on ``reference``."""
    from repro.api import RunSpec, run_spec

    workload, predictor, num_ops, seed = cell
    spec = RunSpec(workload, predictor, num_ops=num_ops, seed=seed, backend="reference")
    return digest(run_spec(spec).to_record())


def reference_digests(cells: Sequence[tuple]) -> Dict[str, str]:
    """Cell name -> :func:`reference_digest`, on two forked processes.

    Fork, not spawn: a spawn-started pool also starts multiprocessing's
    resource tracker, which nothing waits for and which outlives this
    process. Leaving the ``with`` block joins both workers.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        found = pool.map(reference_digest, cells)
        return {cell_name(w, p, seed): d for (w, p, _, seed), d in zip(cells, found)}


def sampled_digests(scale: inputs.Scale, scratch: Path) -> Dict[str, str]:
    """Cold then warm ``run_sampled`` on one fresh checkpoint store, inline."""
    from repro.isa.artifacts import CheckpointStore
    from repro.sampling import run_sampled
    from repro.sim.spec import RunSpec

    workload, predictor, ops = scale.sampled
    spec = RunSpec(workload, predictor, num_ops=ops)
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        store = CheckpointStore(root)
        return {
            phase: digest(run_sampled(spec, checkpoint_store=store).to_record())
            for phase in ("cold", "warm")
        }


def refresh(scratch: Path, log=print) -> Dict[str, Dict[str, Dict[str, str]]]:
    """Recompute every committed digest with the reference backend."""
    table: Dict[str, Dict[str, Dict[str, str]]] = {}
    for scale in inputs.SCALES.values():
        log(f"expected: {scale.name} scale")
        writes = itertools.islice(inputs.write_stream(1, scale), scale.writes_committed)
        table[scale.name] = {
            "sweep": reference_digests([
                (w, p, scale.sweep_ops, None)
                for w in scale.sweep_workloads
                for p in scale.sweep_predictors
            ]),
            "grid": reference_digests([
                (w, p, scale.grid_ops, None)
                for w in scale.grid_workloads
                for p in scale.sweep_predictors
            ]),
            "writes": reference_digests(
                [(w, p, scale.write_ops, seed) for w, p, seed in writes]
            ),
            "sampled": sampled_digests(scale, scratch),
        }
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return table


def predictions(model_path: str, workloads: Iterable[str], predictors: Iterable[str],
                num_ops: int) -> List[Dict[str, object]]:
    from repro.harness.sweep import build_cells
    from repro.surrogate.triage import load_tier

    tier = load_tier(model_path, mode="off")
    cells = build_cells(workloads, predictors, num_ops=num_ops)
    return [estimate.to_dict() for estimate in tier.predict_all(cells)]


def predictions_match(got: List[Mapping], want: List[Mapping]) -> bool:
    """Same cells, tagged as surrogate, every value within ``PREDICT_RTOL``."""
    if len(got) != len(want):
        return False
    by_cell = {(row["workload"], row["predictor"]): row for row in want}
    for row in got:
        ref = by_cell.get((row.get("workload"), row.get("predictor")))
        if ref is None or row.get("surrogate") is not True:
            return False
        if any(row.get(key) != ref[key] for key in _PREDICT_EXACT):
            return False
        if not all(
            isinstance(row.get(key), (int, float))
            and math.isclose(row[key], ref[key], rel_tol=PREDICT_RTOL, abs_tol=0.0)
            for key in _PREDICT_FLOATS
        ):
            return False
    return True
