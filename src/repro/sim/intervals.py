"""Windowed (per-interval) pipeline metrics.

End-of-run aggregates hide phase behaviour: a predictor that is perfect for
90% of a trace and pathological for 10% can post the same violation MPKI as
one that is uniformly mediocre. The pipeline's loop therefore keeps one
interval accumulator (``Pipeline.begin(..., interval_ops=N)``) that cuts the
measured region into windows of ``N`` committed micro-ops, each an
:class:`IntervalWindow` with its own IPC, violation MPKI, branch MPKI and
mean ROB occupancy; a trace that ends mid-window flushes a final
``partial`` window.

The windows surface in three places:

* ``simulate(RunSpec(..., interval_ops=N))`` returns them on
  ``SimResult.intervals``
  (and they survive the JSON record round trip);
* the ``repro probe`` CLI subcommand renders them as a table;
* the harness executor streams each completed window over the worker pipe
  as a heartbeat (``Backend.run_many(on_heartbeat=..., heartbeat_ops=...)``;
  the spec's own ``interval_ops``, else ``REPRO_HEARTBEAT_OPS``), so a hung
  or killed sweep cell's failure manifest records the last interval it
  completed.

Occupancy is estimated with Little's law: the mean number of in-flight ops
equals the sum of per-op residencies (commit − dispatch) divided by the
window's cycles — no per-cycle sampling needed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Mapping

from repro.common.env import env_int

#: Environment knob for the executor's heartbeat window (committed ops).
HEARTBEAT_ENV = "REPRO_HEARTBEAT_OPS"
DEFAULT_INTERVAL_OPS = 2000


def heartbeat_interval_ops() -> int:
    """Heartbeat window size (committed ops), resolved at call time.

    ``REPRO_HEARTBEAT_OPS=0`` disables worker heartbeats. A malformed value
    is a hard error (it used to fall back silently, which hid typos).
    """
    return env_int(HEARTBEAT_ENV, DEFAULT_INTERVAL_OPS, min_value=0)


@dataclass
class IntervalWindow:
    """Metrics for one window of committed (measured) micro-ops."""

    index: int
    start_op: int
    end_op: int  # inclusive trace index of the window's last op
    cycles: int
    committed_uops: int
    violations: int = 0
    branch_mispredicts: int = 0
    rob_residency: int = 0  # sum over ops of (commit - dispatch) cycles
    partial: bool = False  # trace ended before the window filled

    @property
    def ipc(self) -> float:
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def violation_mpki(self) -> float:
        if not self.committed_uops:
            return 0.0
        return self.violations * 1000.0 / self.committed_uops

    @property
    def branch_mpki(self) -> float:
        if not self.committed_uops:
            return 0.0
        return self.branch_mispredicts * 1000.0 / self.committed_uops

    @property
    def occupancy(self) -> float:
        """Mean in-flight micro-ops over the window (Little's law)."""
        return self.rob_residency / self.cycles if self.cycles else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload (raw fields plus derived metrics)."""
        payload = asdict(self)
        payload["ipc"] = self.ipc
        payload["violation_mpki"] = self.violation_mpki
        payload["branch_mpki"] = self.branch_mpki
        payload["occupancy"] = self.occupancy
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "IntervalWindow":
        """Inverse of :meth:`to_dict`; derived metrics are recomputed."""
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})
