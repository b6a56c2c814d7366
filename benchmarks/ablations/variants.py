"""The ablation predictors, registered by name.

Each ablation changes one PHAST design decision in a subclass. Importing
this module registers every subclass under its ``name``
(:func:`repro.sim.simulator.register_predictor`), so ablation cells are
plain labels that a :class:`~repro.harness.sweep.SweepRunner` stores and
runs like any other. Fork-started workers inherit the registry from the
process that imported this module.
"""

from __future__ import annotations

from repro.mdp.base import LoadCommitInfo, ViolationInfo
from repro.mdp.phast import PHASTPredictor
from repro.sim.simulator import register_predictor


class PhastIncrementConfidence(PHASTPredictor):
    """+1 on correct instead of reset-to-max (Sec. IV-A2)."""

    name = "phast-increment-confidence"

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        pending = self._pending.pop(commit.seq, None)
        if pending is None or not commit.prediction.is_dependence:
            return
        table, slot = pending
        confidence = table.confidence[slot]
        if commit.waited_correct:
            table.confidence[slot] = min(self._confidence_max, confidence + 1)
        else:
            table.confidence[slot] = max(0, confidence - 1)


class PhastNoConfidence(PHASTPredictor):
    """Confidence pinned at maximum: entries never expire (Sec. IV-A2)."""

    name = "phast-no-confidence"

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        self._pending.pop(commit.seq, None)


class PhastLengthN(PHASTPredictor):
    """Trains with length N instead of N+1: no pre-store branch (Sec. III-B)."""

    name = "phast-length-n"

    def on_violation(self, violation: ViolationInfo) -> None:
        super().on_violation(
            _ShrunkViolation(violation, max(0, violation.divergent_distance))
        )


class _ShrunkViolation:
    """ViolationInfo proxy with an overridden required history length."""

    def __init__(self, inner: ViolationInfo, required: int) -> None:
        self._inner = inner
        self._required = required

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def required_history_length(self) -> int:
        return self._required


class PhastAtDetection(PHASTPredictor):
    """PHAST trained when the violation is detected, not at commit (Sec. IV-A1)."""

    name = "phast-at-detection"
    trains_at_commit = False


for _variant in (
    PhastIncrementConfidence,
    PhastNoConfidence,
    PhastLengthN,
    PhastAtDetection,
):
    # replace=True: re-importing this module re-registers the same classes.
    register_predictor(_variant.name, _variant, replace=True)
