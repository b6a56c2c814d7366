"""Bagged-ridge surrogate model with conformal confidence intervals.

The model is deliberately small: a bag of ridge regressors over the frozen
feature schema, one bag per target (IPC and violation MPKI). Ensemble
spread gives a per-prediction uncertainty *shape*; split-conformal
residuals on a disjoint calibration split scale that shape into an
interval with a distribution-free coverage guarantee. The triage tier
(:mod:`repro.surrogate.triage`) settles a cell only when the interval is
tight, so calibration — not point accuracy — is what the CI gate enforces.

numpy (a declared dependency) does the linear algebra; the dataset layer
never imports this module, so building datasets does not load it.

Predictions for cells outside the training support are flagged ``novel``:
a hashed predictor bucket the model never saw carries near-zero weight in
*every* member, so the members agree and the spread is spuriously tight —
exactly the case where the interval must not be trusted. Novel cells are
never settled in triage mode.

The artifact is a sealed artifact of :mod:`repro.common.entries` —
versioned JSON, content digest, CRC32 guard (``docs/harness.md``
describes the format) — and every corruption mode loads as a miss.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.common.entries import read_sealed, seal, write_sealed
from repro.core.config import CoreConfig
from repro.surrogate.dataset import TARGETS, Dataset
from repro.surrogate.features import (
    FEATURE_SCHEMA_VERSION,
    NUM_FEATURES,
    CellRow,
    feature_names,
    grid_features,
)

#: Artifact schema of the model JSON record; a mismatch loads as a miss.
MODEL_SCHEMA = 1

#: Default nominal coverage of the conformal intervals. 0.8 keeps the
#: conformal order statistic k = ceil((n+1)·level) feasible for small
#: calibration splits (n ≥ 4); higher levels need n ≥ level/(1 − level).
DEFAULT_LEVEL = 0.8

DEFAULT_MEMBERS = 8
DEFAULT_RIDGE = 1.0


class SurrogateError(RuntimeError):
    """The surrogate model layer cannot run (bad data)."""


class SurrogateModel:
    """A trained, serialisable surrogate with calibrated intervals."""

    def __init__(self, payload: Mapping[str, object]) -> None:
        self.payload = payload
        self._mean = _np.asarray(payload["scaler"]["mean"], dtype=float)
        self._std = _np.asarray(payload["scaler"]["std"], dtype=float)
        self._weights = {
            target: _np.asarray(payload["weights"][target], dtype=float)
            for target in TARGETS
        }
        self._center = {
            target: float(payload["center"][target]) for target in TARGETS
        }
        self._conformal = payload["conformal"]
        self._context = payload["context"]
        self._known_workloads = frozenset(payload["known_workloads"])
        self._known_predictors = frozenset(payload["known_predictors"])

    # ---------------------------------------------------------- identity --

    @property
    def content_sha256(self) -> str:
        return str(self.payload["content_sha256"])

    @property
    def level(self) -> float:
        return float(self.payload["level"])

    def summary(self) -> str:
        evaluation = self.payload.get("eval") or {}
        parts = [
            f"model {self.content_sha256[:12]}:",
            f"{self.payload['members']} members,",
            f"level={self.level:g}",
        ]
        if evaluation:
            parts.append(
                f"(heldout ipc_mape={evaluation['ipc']['mape']:.3f} "
                f"coverage={evaluation['ipc']['coverage']:.2f}/"
                f"{evaluation['violation_mpki']['coverage']:.2f})"
            )
        return " ".join(parts)

    # -------------------------------------------------------- prediction --

    def _member_predictions(self, matrix: "object") -> Dict[str, "object"]:
        scaled = (matrix - self._mean) / self._std
        augmented = _np.hstack(
            [scaled, _np.ones((scaled.shape[0], 1), dtype=float)]
        )
        return {
            target: augmented @ self._weights[target].T + self._center[target]
            for target in TARGETS
        }

    def predict_matrix(
        self, matrix: "object"
    ) -> Dict[str, Tuple["object", "object"]]:
        """(mean, CI halfwidth) arrays per target for a feature matrix."""
        per_member = self._member_predictions(_np.asarray(matrix, dtype=float))
        out: Dict[str, Tuple[object, object]] = {}
        for target in TARGETS:
            predictions = per_member[target]
            mean = predictions.mean(axis=1)
            spread = predictions.std(axis=1)
            conformal = self._conformal[target]
            halfwidth = float(conformal["q"]) * (
                spread + float(conformal["epsilon"])
            )
            out[target] = (mean, halfwidth)
        return out

    def is_novel(self, workload: str, predictor: str) -> bool:
        """True when the cell lies outside the training support.

        An unseen predictor label hashes to a bucket with near-zero weight
        in every ensemble member, so the members *agree* and the spread is
        spuriously tight — the interval cannot be trusted and triage must
        not settle the cell.
        """
        return (
            predictor not in self._known_predictors
            or workload not in self._known_workloads
        )

    def feature_matrix(self, rows: Sequence[CellRow]) -> "object":
        """The schema-v1 feature matrix of ``rows``, one row per cell."""
        return _np.asarray(
            grid_features(rows, self._context), dtype=float
        ).reshape(len(rows), NUM_FEATURES)

    def predict_cells(self, rows: Sequence[CellRow]) -> List[Dict[str, object]]:
        """Point estimate + interval for each pending cell, in one product.

        A row is ``(workload, predictor, config, num_ops, seed)``, the
        arguments of :meth:`predict_cell`. The whole grid is scored by one
        :meth:`predict_matrix` call; a value differs from its one-row score
        only by summation order (about 1e-15 relative).
        """
        predicted = self.predict_matrix(self.feature_matrix(rows))
        ipc_mean, ipc_half = predicted["ipc"]
        mpki_mean, mpki_half = predicted["violation_mpki"]
        return [
            {
                "ipc": max(0.0, float(ipc_mean[index])),
                "ipc_ci": float(ipc_half[index]),
                "violation_mpki": max(0.0, float(mpki_mean[index])),
                "violation_mpki_ci": float(mpki_half[index]),
                "level": self.level,
                "novel": self.is_novel(workload, predictor),
                "model_sha256": self.content_sha256,
            }
            for index, (workload, predictor, _, _, _) in enumerate(rows)
        ]

    def predict_cell(
        self,
        workload: str,
        predictor: str,
        config: Optional[CoreConfig],
        num_ops: int,
        seed: Optional[int],
    ) -> Dict[str, object]:
        """Point estimate + interval for one pending cell."""
        (predicted,) = self.predict_cells(
            [(workload, predictor, config, num_ops, seed)]
        )
        return predicted

    # -------------------------------------------------------- evaluation --

    def evaluate(
        self, dataset: Dataset, split: str = "heldout"
    ) -> Dict[str, Dict[str, float]]:
        """Honest error + empirical coverage on a split the fit never saw."""
        rows = dataset.rows_for(split)
        if not rows:
            raise SurrogateError(f"dataset has no rows in split {split!r}")
        matrix = _np.asarray([row["features"] for row in rows], dtype=float)
        predicted = self.predict_matrix(matrix)
        metrics: Dict[str, Dict[str, float]] = {}
        for target in TARGETS:
            truth = _np.asarray(
                [row["targets"][target] for row in rows], dtype=float
            )
            mean, halfwidth = predicted[target]
            error = _np.abs(mean - truth)
            covered = error <= halfwidth
            nonzero = _np.abs(truth) > 1e-9
            mape = (
                float((error[nonzero] / _np.abs(truth[nonzero])).mean())
                if nonzero.any()
                else 0.0
            )
            metrics[target] = {
                "rows": int(len(rows)),
                "mae": float(error.mean()),
                "mape": mape,
                "coverage": float(covered.mean()),
                "mean_halfwidth": float(_np.mean(halfwidth)),
            }
        return metrics

    # --------------------------------------------------------- persistence --

    def save(self, destination: Union[str, Path]) -> Path:
        return write_sealed(destination, self.payload, "model")


def _fit_members(
    matrix: "object",
    truth: "object",
    members: int,
    ridge: float,
    seed: int,
) -> "object":
    """Bootstrap-bagged ridge fits; rows of the result are member weights."""
    samples, columns = matrix.shape
    identity = _np.eye(columns, dtype=float)
    weights = _np.empty((members, columns), dtype=float)
    for member in range(members):
        rng = _np.random.default_rng(seed + member)
        index = rng.integers(0, samples, samples)
        sampled = matrix[index]
        target = truth[index]
        gram = sampled.T @ sampled + ridge * identity
        weights[member] = _np.linalg.solve(gram, sampled.T @ target)
    return weights


def _conformal_quantile(
    scores: "object", level: float
) -> Tuple[float, bool]:
    """Split-conformal order statistic, clamped when n is too small.

    k = ceil((n+1)·level) is the standard finite-sample-valid rank; when it
    exceeds n (calibration split smaller than level/(1−level)) we clamp to
    the maximum score and flag it, trading the formal guarantee for a
    usable — and still conservative — interval.
    """
    ordered = _np.sort(scores)
    count = len(ordered)
    rank = math.ceil((count + 1) * level)
    clamped = rank > count
    return float(ordered[min(rank, count) - 1]), clamped


def train_model(
    dataset: Dataset,
    members: int = DEFAULT_MEMBERS,
    ridge: float = DEFAULT_RIDGE,
    seed: int = 0,
    level: float = DEFAULT_LEVEL,
) -> SurrogateModel:
    """Fit the ensemble on the train split, calibrate on the calib split."""
    if not 0.5 <= level < 1.0:
        raise SurrogateError(f"confidence level must be in [0.5, 1), got {level}")
    if members < 2:
        raise SurrogateError("ensemble needs at least 2 members for spread")
    train_rows = dataset.rows_for("train")
    calib_rows = dataset.rows_for("calib")
    if len(train_rows) < 2:
        raise SurrogateError(
            f"dataset has only {len(train_rows)} train rows; need at least 2"
        )
    matrix = _np.asarray([row["features"] for row in train_rows], dtype=float)
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std[std < 1e-12] = 1.0
    scaled = _np.hstack(
        [
            (matrix - mean) / std,
            _np.ones((matrix.shape[0], 1), dtype=float),
        ]
    )
    weights: Dict[str, List[List[float]]] = {}
    centers: Dict[str, float] = {}
    epsilons: Dict[str, float] = {}
    for target in TARGETS:
        truth = _np.asarray(
            [row["targets"][target] for row in train_rows], dtype=float
        )
        center = float(truth.mean())
        centers[target] = center
        # Minimum spread floor: members can agree exactly (tiny data, strong
        # ridge), and a zero-width interval would claim false certainty.
        epsilons[target] = max(1e-6, 0.05 * float(truth.std()))
        weights[target] = _fit_members(
            scaled, truth - center, members, ridge, seed
        ).tolist()
    payload: Dict[str, object] = {
        "schema": MODEL_SCHEMA,
        "feature_schema": FEATURE_SCHEMA_VERSION,
        "feature_names": feature_names(),
        "dataset_sha256": dataset.content_sha256,
        "members": members,
        "ridge": ridge,
        "seed": seed,
        "level": level,
        "scaler": {"mean": mean.tolist(), "std": std.tolist()},
        "center": centers,
        "weights": weights,
        "context": dataset.context,
        "known_workloads": sorted(
            {row["workload"] for row in train_rows + calib_rows}
        ),
        "known_predictors": sorted(
            {row["predictor"] for row in train_rows + calib_rows}
        ),
        "conformal": {
            target: {"q": 1.0, "epsilon": epsilons[target]}
            for target in TARGETS
        },
        "eval": None,
    }
    model = SurrogateModel(seal(payload))
    # Calibrate: studentized residuals on the disjoint calib split. With no
    # calib rows we fall back to train residuals — optimistic, so flagged.
    conformal: Dict[str, Dict[str, object]] = {}
    source_rows = calib_rows if calib_rows else train_rows
    source = "calib" if calib_rows else "train"
    calib_matrix = _np.asarray(
        [row["features"] for row in source_rows], dtype=float
    )
    per_member = model._member_predictions(calib_matrix)
    for target in TARGETS:
        truth = _np.asarray(
            [row["targets"][target] for row in source_rows], dtype=float
        )
        predictions = per_member[target]
        spread = predictions.std(axis=1)
        scores = _np.abs(predictions.mean(axis=1) - truth) / (
            spread + epsilons[target]
        )
        quantile, clamped = _conformal_quantile(scores, level)
        conformal[target] = {
            "q": quantile,
            "epsilon": epsilons[target],
            "n_calib": int(len(source_rows)),
            "source": source,
            "clamped": bool(clamped or not calib_rows),
        }
    payload["conformal"] = conformal
    model = SurrogateModel(seal(payload))
    if dataset.rows_for("heldout"):
        payload["eval"] = model.evaluate(dataset, "heldout")
        model = SurrogateModel(seal(payload))
    return model


def load_model(path: Union[str, Path]) -> Optional[SurrogateModel]:
    """Load a model artifact, or ``None`` on any corruption mode."""
    payload = read_sealed(
        path,
        schema=MODEL_SCHEMA,
        feature_schema=FEATURE_SCHEMA_VERSION,
        feature_names=feature_names(),
    )
    if payload is None:
        return None
    try:
        return SurrogateModel(payload)
    except (KeyError, TypeError, ValueError):
        return None


def predictions_per_second(
    model: SurrogateModel, matrix: Sequence[Sequence[float]], repeats: int = 5
) -> float:
    """Throughput probe used by the speedup benchmark."""
    import time

    array = _np.asarray(matrix, dtype=float)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        model.predict_matrix(array)
        best = min(best, time.perf_counter() - start)
    return len(array) / best if best > 0 else float("inf")
