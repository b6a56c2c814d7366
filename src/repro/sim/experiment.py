"""Experiment grids: memoised sweeps, durably cached.

Every figure in the paper is a (workload x predictor x configuration) sweep;
:class:`ExperimentGrid` runs those cells once and caches the results, so a
benchmark session that regenerates several figures does not re-simulate
shared cells (e.g. the ideal baseline appears in Figs. 2, 6, 7, 11-15).

Cells are keyed by the full content hash from :mod:`repro.harness.store` —
every :class:`~repro.core.config.CoreConfig` field participates, so two
configs differing in any knob (not just ``name``/``forwarding_filter``)
never collide. With a :class:`~repro.harness.store.ResultStore` attached,
completed cells also persist across processes: a crashed or killed session
resumes from the durable cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.stats import geometric_mean
from repro.core.config import CoreConfig
from repro.harness.store import ResultStore
from repro.mdp.base import MDPredictor
from repro.sim.metrics import SimResult
from repro.sim.simulator import default_num_ops, make_predictor, run_spec
from repro.sim.spec import RunSpec


def normalize_to_ideal(
    results: Dict[str, SimResult], ideal: Dict[str, SimResult]
) -> Dict[str, float]:
    """Per-workload IPC normalised to the ideal predictor's IPC."""
    normalised = {}
    for name, result in results.items():
        baseline = ideal[name]
        normalised[name] = result.ipc / baseline.ipc
    return normalised


class ExperimentGrid:
    """Memoised (workload, predictor, core, length, seed) simulation runner.

    ``store`` optionally layers a durable on-disk cache under the in-process
    one — results survive crashes and are shared across sessions.
    """

    def __init__(
        self,
        num_ops: Optional[int] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        self.num_ops = num_ops or default_num_ops()
        self.store = store
        self._cache: Dict[str, SimResult] = {}

    def run(
        self,
        workload_name: str,
        predictor: str,
        config: Optional[CoreConfig] = None,
        predictor_factory: Optional[Callable[[], MDPredictor]] = None,
        num_ops: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> SimResult:
        """Run one cell, or return its cached result.

        ``predictor`` is the cache label; ``predictor_factory`` overrides how
        the instance is built (for parameter sweeps where the label encodes
        the variant, e.g. ``"unlimited-nosq-h12"``). ``seed`` overrides the
        workload's trace seed (cell-for-cell failure reproduction).
        """
        spec = RunSpec(
            workload=workload_name,
            predictor=predictor,
            config=config or CoreConfig(),
            num_ops=num_ops or self.num_ops,
            seed=seed,
            trace_dir=self._trace_dir(),
        )
        key = spec.key()
        hit = self._cache.get(key.digest)
        if hit is not None:
            return hit
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self._cache[key.digest] = stored
                return stored
        instance = (
            predictor_factory() if predictor_factory else make_predictor(predictor)
        )
        result = run_spec(spec.with_overrides(predictor=instance))
        self._cache[key.digest] = result
        if self.store is not None:
            self.store.put(key, result)
        return result

    def _trace_dir(self) -> Optional[str]:
        """Compiled traces live beside the durable results, when there are any."""
        if self.store is None:
            return None
        return str(self.store.root / "traces")

    def run_suite(
        self,
        workloads: Iterable[str],
        predictor: str,
        config: Optional[CoreConfig] = None,
        predictor_factory: Optional[Callable[[], MDPredictor]] = None,
    ) -> Dict[str, SimResult]:
        """Run a predictor over many workloads; returns workload -> result."""
        return {
            name: self.run(name, predictor, config, predictor_factory)
            for name in workloads
        }

    def mean_normalized_ipc(
        self,
        workloads: List[str],
        predictor: str,
        config: Optional[CoreConfig] = None,
        predictor_factory: Optional[Callable[[], MDPredictor]] = None,
    ) -> float:
        """Geometric-mean IPC normalised to the ideal predictor (paper metric)."""
        results = self.run_suite(workloads, predictor, config, predictor_factory)
        ideal = self.run_suite(workloads, "ideal", config)
        return geometric_mean(list(normalize_to_ideal(results, ideal).values()))

    def mean_mpki(
        self,
        workloads: List[str],
        predictor: str,
        config: Optional[CoreConfig] = None,
        predictor_factory: Optional[Callable[[], MDPredictor]] = None,
    ) -> Tuple[float, float]:
        """(mean violation MPKI, mean false-positive MPKI) over workloads."""
        results = self.run_suite(workloads, predictor, config, predictor_factory)
        violations = [result.violation_mpki for result in results.values()]
        false_positives = [result.false_positive_mpki for result in results.values()]
        return (
            sum(violations) / len(violations),
            sum(false_positives) / len(false_positives),
        )
