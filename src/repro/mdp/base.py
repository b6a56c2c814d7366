"""The memory dependence predictor interface and its data records.

The pipeline drives a predictor through four hooks:

* :meth:`MDPredictor.on_load_dispatch` — a load enters the window; the
  predictor returns a :class:`Prediction` describing which older stores the
  load must wait for (by *store distance*, explicit dynamic store sequence
  number, or "all older stores").
* :meth:`MDPredictor.on_store_dispatch` — a store enters the window; Store
  Sets uses this to serialise stores of a set and to update the LFST.
* :meth:`MDPredictor.on_violation` — a true memory-order violation was found;
  this is the training event. The pipeline delivers it at detection time or at
  commit time according to :attr:`MDPredictor.trains_at_commit` (Sec. IV-A1:
  the baselines prefer at-detection, PHAST trains at commit).
* :meth:`MDPredictor.on_load_commit` — the load retires; confidence update
  with the ground truth of what it actually depended on.

Store distances follow the paper's (and CHT's) convention: distance d means
"the (d+1)-th youngest store older than the load", i.e. the number of stores
older than the load but younger than the conflicting store (Sec. I). The
pipeline converts distances to dynamic stores by subtracting from the current
SQ allocation index (Sec. IV-A4).
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.frontend.history import GlobalHistory


@dataclass(frozen=True)
class Prediction:
    """What a load should wait for before issuing.

    ``distances`` lists predicted store distances (most predictors produce at
    most one; Store Vectors can produce several). ``store_seqs`` lists
    explicit dynamic store sequence numbers (Store Sets resolves its
    dependence through the LFST at dispatch, which yields an instance, not a
    distance). ``wait_all_older`` forces in-order execution with respect to
    every older store (the blind predictor, and MDP-TAGE's saturated-distance
    encoding).
    """

    distances: Tuple[int, ...] = ()
    store_seqs: Tuple[int, ...] = ()
    wait_all_older: bool = False

    @property
    def is_dependence(self) -> bool:
        return bool(self.distances) or bool(self.store_seqs) or self.wait_all_older


NO_DEPENDENCE = Prediction()


# The info records below are slotted, non-frozen dataclasses: plain attribute
# stores in __init__ instead of frozen's object.__setattr__ round trips.
#
# Reuse contract (hot-path allocation discipline):
#
# * ``LoadDispatchInfo`` and ``StoreDispatchInfo`` are *transient*: the
#   pipeline owns a single mutable instance of each and rewrites its fields
#   for every dispatching op (``repro.core.pipeline``). Predictors must read
#   them synchronously inside the hook and must NOT retain a reference or
#   mutate them — copy any field they need past the call.
# * ``ViolationInfo`` and ``LoadCommitInfo`` also ride on probe-bus events
#   (``Violation`` / ``LoadCommitted``) whose subscribers may legitimately
#   keep them, so the pipeline allocates those fresh per event; they stay
#   valid indefinitely but are still read-only by convention.


@dataclass(slots=True)
class LoadDispatchInfo:
    """A load at dispatch/decode, as seen by the predictor."""

    pc: int
    seq: int  # dynamic sequence number
    hist_snapshot: int  # master history position at decode
    store_count: int  # stores decoded before this load (SQ allocation cursor)
    history: GlobalHistory
    oracle_store_number: Optional[int] = None  # youngest truly conflicting store
    oracle_multi_store: bool = False  # load's bytes come from >1 store


@dataclass(slots=True)
class StoreDispatchInfo:
    """A store at dispatch/decode."""

    pc: int
    seq: int
    hist_snapshot: int
    store_number: int  # this store's SQ allocation index (cumulative)
    history: GlobalHistory


@dataclass(slots=True)
class ViolationInfo:
    """A detected true dependence that the load speculated past."""

    load_pc: int
    load_seq: int
    load_snapshot: int
    load_store_count: int
    store_pc: int
    store_seq: int
    store_snapshot: int
    store_number: int
    history: GlobalHistory

    @property
    def store_distance(self) -> int:
        """Stores older than the load but younger than the conflicting store."""
        return self.load_store_count - 1 - self.store_number

    @property
    def divergent_distance(self) -> int:
        """The paper's N: divergent branches between the store and the load."""
        return self.history.divergent.count_between(
            self.store_snapshot, self.load_snapshot
        )

    @property
    def required_history_length(self) -> int:
        """The paper's N+1: the minimum history that disambiguates the path."""
        return self.divergent_distance + 1


@dataclass(slots=True)
class LoadCommitInfo:
    """Ground truth delivered when a load retires."""

    pc: int
    seq: int
    hist_snapshot: int
    store_count: int
    prediction: Prediction
    predicted_store_number: Optional[int]  # resolved from the prediction, if any
    actual_store_number: Optional[int]  # youngest truly conflicting store
    waited_correct: bool  # predicted a dependence and it was the right store
    false_positive: bool  # predicted a dependence that was wrong/unnecessary
    violated: bool  # the load squashed (false negative)
    history: GlobalHistory


@dataclass
class MDPStats:
    """Per-predictor access/outcome counters (feeds the energy model, Fig. 16)."""

    load_predictions: int = 0
    dependences_predicted: int = 0
    trainings: int = 0
    table_reads: int = 0
    table_writes: int = 0


class MDPredictor(abc.ABC):
    """Interface implemented by every memory dependence predictor."""

    name: str = "abstract"
    #: Sec. IV-A1: PHAST trains at commit; the baselines train at detection.
    trains_at_commit: bool = False
    #: A predictor's cache of the history tables it reads, derived from the
    #: history it is handed: never pickled, rebuilt on first use.
    _lookup: Optional[tuple] = None

    def __init__(self) -> None:
        self.stats = MDPStats()

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_lookup" in state:
            state = {key: value for key, value in state.items() if key != "_lookup"}
        return state

    @abc.abstractmethod
    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        """Predict the dependences of a dispatching load."""

    def on_store_dispatch(self, store: StoreDispatchInfo) -> Prediction:
        """Dependences imposed on a dispatching *store* (Store Sets only)."""
        return NO_DEPENDENCE

    def on_store_commit(self, store_seq: int, store_pc: int) -> None:
        """A store retired (Store Sets invalidates its LFST slot here)."""
        return None

    @abc.abstractmethod
    def on_violation(self, violation: ViolationInfo) -> None:
        """Train with a detected true dependence."""

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        """Confidence maintenance with retire-time ground truth."""
        return None

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total predictor storage in bits (Table II)."""

    def storage_kb(self) -> float:
        return self.storage_bits() / 8.0 / 1024.0

    def reset_stats(self) -> None:
        self.stats = MDPStats()

    def checkpoint_digest(self) -> int:
        """Cheap semantic digest of predictor state (restore self-check).

        The default covers the predictor's identity and access counters —
        every hook bumps a counter, so a restore that loses training shows a
        different digest. Subclasses with cheap table summaries may extend
        this, but must stay O(1)-ish: it runs once per checkpoint.
        """
        stats = self.stats
        blob = (
            f"{type(self).__name__}:{self.name}:{stats.load_predictions}:"
            f"{stats.dependences_predicted}:{stats.trainings}:"
            f"{stats.table_reads}:{stats.table_writes}"
        )
        return zlib.crc32(blob.encode("ascii"))
