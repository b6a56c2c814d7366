"""Oracle predictors bounding the design space.

* :class:`IdealPredictor` — the paper's "ideal/perfect MDP": a load waits for
  exactly its youngest truly conflicting store and nothing else, so it never
  squashes and never stalls unnecessarily. The pipeline supplies the ground
  truth through ``LoadDispatchInfo.oracle_store_number`` (it knows the whole
  trace).
* :class:`AlwaysSpeculatePredictor` — never predicts a dependence (pure
  speculation; every true overtaking becomes a violation).
* :class:`AlwaysWaitPredictor` — every load waits for all older stores
  (no-speculation lower bound, the "total order" machine).
"""

from __future__ import annotations

from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    ViolationInfo,
)


class IdealPredictor(MDPredictor):
    """Perfect memory dependence prediction (the normalisation baseline).

    With the forwarding filter enabled (the paper's FWD configuration) the
    ideal predictor provably never squashes, and ``strict=True`` asserts it.
    Without the filter, even perfect waiting squashes in the Fig. 3(c)
    pattern, so NoFWD studies construct it with ``strict=False``. Phantom
    conflicts of wrong-path loads (``load_seq < 0``) never commit, so they
    are counted as trainings and never asserted on.
    """

    name = "ideal"

    def __init__(self, strict: bool = True) -> None:
        super().__init__()
        self._strict = strict

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        if load.oracle_store_number is None:
            return NO_DEPENDENCE
        distance = load.store_count - 1 - load.oracle_store_number
        if distance < 0:
            raise ValueError(
                f"oracle store {load.oracle_store_number} is younger than load "
                f"(store_count={load.store_count})"
            )
        self.stats.dependences_predicted += 1
        return Prediction(distances=(distance,))

    def on_violation(self, violation: ViolationInfo) -> None:
        if self._strict and violation.load_seq >= 0:
            raise AssertionError(
                "the ideal predictor must never cause a memory-order violation: "
                f"load {violation.load_pc:#x} squashed on store {violation.store_pc:#x}"
            )
        self.stats.trainings += 1

    def storage_bits(self) -> int:
        return 0


class AlwaysSpeculatePredictor(MDPredictor):
    """Never predicts a dependence: maximal speculation."""

    name = "always-speculate"

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        return NO_DEPENDENCE

    def on_violation(self, violation: ViolationInfo) -> None:
        self.stats.trainings += 1  # observed, learned nothing

    def storage_bits(self) -> int:
        return 0


class AlwaysWaitPredictor(MDPredictor):
    """Every load waits for every older store: no speculation at all.

    Only a wrong-path load, which never waits, can conflict; such phantom
    conflicts (``load_seq < 0``) are counted as trainings.
    """

    name = "always-wait"

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.dependences_predicted += 1
        return Prediction(wait_all_older=True)

    def on_violation(self, violation: ViolationInfo) -> None:
        if violation.load_seq >= 0:
            raise AssertionError(
                "a load waiting on all older stores cannot violate memory order"
            )
        self.stats.trainings += 1

    def storage_bits(self) -> int:
        return 0
