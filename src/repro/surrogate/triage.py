"""Uncertainty-gated surrogate triage for sweep planning.

The tier sits in front of the executor: every pending cell is scored by
the trained surrogate, and a cell whose confidence interval is tight
enough is *settled* — recorded as a :class:`SurrogateEstimate` outcome and
never simulated. Uncertain cells (and every cell outside the model's
training support) flow to the detailed simulator unchanged, so the
detailed results of a triaged sweep are bit-identical to a full run's.

Settled estimates live in their own store namespace, ``<root>/surrogate/``
— never in ``<root>/results/`` — so nothing downstream can mistake a
prediction for a simulation. Entries use the framed format shared with
the result store (:mod:`repro.common.entries`) and read as misses on any
corruption.

Modes (``--surrogate`` / ``REPRO_SURROGATE``):

* ``off``    — tier disabled; sweeps behave exactly as before.
* ``triage`` — settle only tight-CI, in-support cells; simulate the rest.
* ``only``   — settle everything, simulate nothing (estimates are still
  tagged; useful for instant what-if grids where error bars are accepted).

All threshold knobs are validated through :mod:`repro.common.env`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.common.entries import read_entry, write_entry
from repro.common.env import env_choice, env_float, env_int
from repro.harness.store import grid_keys
from repro.sim.spec import RunSpec

logger = logging.getLogger(__name__)

#: Mode knob (CLI --surrogate overrides).
ENV_MODE = "REPRO_SURROGATE"
#: Path to a trained model artifact (CLI --surrogate-model overrides).
ENV_MODEL = "REPRO_SURROGATE_MODEL"
#: Settle thresholds: maximum CI halfwidth for each target.
ENV_MAX_CI_IPC = "REPRO_SURROGATE_MAX_CI_IPC"
ENV_MAX_CI_MPKI = "REPRO_SURROGATE_MAX_CI_MPKI"
#: Training knobs (repro surrogate train defaults).
ENV_MEMBERS = "REPRO_SURROGATE_MEMBERS"
ENV_LEVEL = "REPRO_SURROGATE_LEVEL"
ENV_RIDGE = "REPRO_SURROGATE_RIDGE"
ENV_SEED = "REPRO_SURROGATE_SEED"

MODES = ("off", "triage", "only")

#: Schema of one surrogate-store entry; mismatches read as misses.
SURROGATE_SCHEMA = 1


def default_mode() -> str:
    return env_choice(ENV_MODE, "off", MODES)


def default_model_path() -> Optional[str]:
    import os

    return os.environ.get(ENV_MODEL) or None


def default_max_ci_ipc() -> float:
    return env_float(ENV_MAX_CI_IPC, 0.1, min_value=0.0)


def default_max_ci_mpki() -> float:
    return env_float(ENV_MAX_CI_MPKI, 1.0, min_value=0.0)


def default_members() -> int:
    return env_int(ENV_MEMBERS, 8, min_value=2)


def default_level() -> float:
    return env_float(ENV_LEVEL, 0.8, min_value=0.5)


def default_ridge() -> float:
    return env_float(ENV_RIDGE, 1.0, min_value=0.0)


def default_seed() -> int:
    return env_int(ENV_SEED, 0)


@dataclass(frozen=True)
class SurrogateEstimate:
    """A model prediction standing in for one unsimulated cell.

    ``to_dict()`` always carries ``"surrogate": True`` so reports, store
    entries, and wire payloads can never be confused with detailed results.
    """

    workload: str
    predictor: str
    digest: str
    ipc: float
    ipc_ci: float
    violation_mpki: float
    violation_mpki_ci: float
    level: float
    model_sha256: str
    novel: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "surrogate": True,
            "workload": self.workload,
            "predictor": self.predictor,
            "digest": self.digest,
            "ipc": self.ipc,
            "ipc_ci": self.ipc_ci,
            "violation_mpki": self.violation_mpki,
            "violation_mpki_ci": self.violation_mpki_ci,
            "level": self.level,
            "model_sha256": self.model_sha256,
            "novel": self.novel,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SurrogateEstimate":
        if data.get("surrogate") is not True:
            raise ValueError("record is not a surrogate estimate")
        return cls(
            workload=str(data["workload"]),
            predictor=str(data["predictor"]),
            digest=str(data["digest"]),
            ipc=float(data["ipc"]),
            ipc_ci=float(data["ipc_ci"]),
            violation_mpki=float(data["violation_mpki"]),
            violation_mpki_ci=float(data["violation_mpki_ci"]),
            level=float(data["level"]),
            model_sha256=str(data["model_sha256"]),
            novel=bool(data["novel"]),
        )

    def summary(self) -> str:
        return (
            f"surrogate ipc={self.ipc:.3f}±{self.ipc_ci:.3f} "
            f"mpki={self.violation_mpki:.3f}±{self.violation_mpki_ci:.3f} "
            f"@{self.level:g}"
        )


class SurrogateStore:
    """Persisted estimates, in a namespace apart from detailed results.

    Entries are framed entries of :mod:`repro.common.entries`, like
    :class:`~repro.harness.store.ResultStore`'s: every corruption mode
    (missing file, truncation, a schema, key or CRC mismatch, shape drift)
    reads as a miss. An ``OSError`` on put is logged and the estimate
    dropped — estimates are always recomputable.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def estimates_dir(self) -> Path:
        return self.root / "surrogate"

    def path_for(self, digest: str) -> Path:
        return self.estimates_dir / f"{digest}.json"

    def put(self, estimate: SurrogateEstimate) -> Optional[Path]:
        try:
            return write_entry(
                self.path_for(estimate.digest),
                {"schema": SURROGATE_SCHEMA, "key": estimate.digest},
                "estimate",
                estimate.to_dict(),
            )
        except OSError as error:
            logger.warning(
                "surrogate store %s degraded: could not persist estimate %s (%s)",
                self.root,
                estimate.digest[:12],
                error,
            )
            return None

    def get(self, digest: str) -> Optional[SurrogateEstimate]:
        entry = read_entry(
            self.path_for(digest), "estimate", schema=SURROGATE_SCHEMA, key=digest
        )
        if entry is None:
            return None
        try:
            return SurrogateEstimate.from_dict(entry["estimate"])
        except (KeyError, TypeError, ValueError):
            return None

    def count(self) -> int:
        if not self.estimates_dir.is_dir():
            return 0
        return sum(1 for _ in self.estimates_dir.glob("*.json"))


class SurrogateTier:
    """The planner-facing facade: score cells, settle the certain ones."""

    def __init__(
        self,
        model: "object",
        mode: str = "triage",
        max_ci_ipc: Optional[float] = None,
        max_ci_mpki: Optional[float] = None,
        store: Optional[SurrogateStore] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"surrogate mode must be one of {MODES}, got {mode!r}")
        self.model = model
        self.mode = mode
        self.max_ci_ipc = (
            default_max_ci_ipc() if max_ci_ipc is None else max_ci_ipc
        )
        self.max_ci_mpki = (
            default_max_ci_mpki() if max_ci_mpki is None else max_ci_mpki
        )
        self.store = store

    def estimate(self, cell: RunSpec) -> SurrogateEstimate:
        """Score one cell (see :meth:`predict_all`)."""
        (estimate,) = self.predict_all([cell])
        return estimate

    def would_settle(self, estimate: SurrogateEstimate) -> bool:
        """Is this estimate certain enough to stand in for a simulation?

        ``only`` mode settles everything — the caller opted out of detail.
        ``triage`` requires the cell inside the training support (novel
        cells get spuriously tight intervals — see the model docs) *and*
        both interval halfwidths under their thresholds.
        """
        if self.mode == "off":
            return False
        if self.mode == "only":
            return True
        if estimate.novel:
            return False
        return (
            estimate.ipc_ci <= self.max_ci_ipc
            and estimate.violation_mpki_ci <= self.max_ci_mpki
        )

    def triage(
        self, cells: Sequence[RunSpec]
    ) -> Dict[str, SurrogateEstimate]:
        """Settled estimates by digest; unsettled cells are simply absent."""
        settled: Dict[str, SurrogateEstimate] = {}
        for estimate in self.predict_all(cells):
            if self.would_settle(estimate):
                settled[estimate.digest] = estimate
                if self.store is not None:
                    self.store.put(estimate)
        return settled

    def predict_all(
        self, cells: Iterable[RunSpec]
    ) -> List[SurrogateEstimate]:
        """Unconditional estimates for every cell (the serving path).

        The grid is scored in one model call. The model sees each cell's
        resolved config (``None`` would read as an unknown config) and its
        raw store-key ``num_ops`` (0 = default).
        """
        cells = list(cells)
        # Resolved once per distinct config object: a grid shares one.
        sharing = {id(cell.config): cell for cell in cells}
        configs = {ident: cell.resolved_config() for ident, cell in sharing.items()}
        predicted = self.model.predict_cells(
            [
                (
                    cell.workload_name,
                    cell.predictor_label,
                    configs[id(cell.config)],
                    cell.num_ops or 0,
                    cell.seed,
                )
                for cell in cells
            ]
        )
        return [
            SurrogateEstimate(
                workload=cell.workload_name,
                predictor=cell.predictor_label,
                digest=key.digest,
                **values,
            )
            for cell, key, values in zip(cells, grid_keys(cells), predicted)
        ]


def load_tier(
    model_path: Union[str, Path],
    mode: str = "triage",
    max_ci_ipc: Optional[float] = None,
    max_ci_mpki: Optional[float] = None,
    store: Optional[SurrogateStore] = None,
) -> SurrogateTier:
    """Build a tier from a model artifact, failing loudly when unusable.

    Unlike artifact *loads* (corruption-as-miss), asking for a triage tier
    with an unusable model is an operator error and raises — a sweep that
    silently fell back to full simulation would hide a misconfiguration.
    """
    from repro.surrogate.model import SurrogateError, load_model

    model = load_model(model_path)
    if model is None:
        raise SurrogateError(
            f"surrogate model at {model_path} is missing or corrupt; "
            "retrain with 'repro surrogate train' or fix the path"
        )
    return SurrogateTier(
        model,
        mode=mode,
        max_ci_ipc=max_ci_ipc,
        max_ci_mpki=max_ci_mpki,
        store=store,
    )
