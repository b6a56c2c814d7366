"""The canonical description of one simulation run.

One frozen dataclass describes a run everywhere: the sim API executes it
directly (``simulate(spec)``), the harness runs it as a sweep cell in a
worker process, and both content-hash keys (:func:`RunSpec.key` for the
result store, :func:`RunSpec.trace_key` for the trace artifact store)
derive from it, so none of them can disagree about what a "run" is.

Identity vs. execution: only ``workload``, ``predictor``, ``config``,
``num_ops`` and ``seed`` participate in the result-store key. The remaining
fields (warmup, probes, invariant checking, interval metrics,
``trace_dir``) affect *how* a run executes or what it observes, not which
cell it is. A sweep therefore refuses cells that set warmup, probes,
interval metrics or a front-end override, or that name an instance
instead of a registry name (:meth:`repro.harness.sweep.SweepRunner.run`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from repro.core.config import CoreConfig
from repro.core.probes import Probe
from repro.frontend.branch_predictors import BranchPredictor
from repro.mdp.base import MDPredictor
from repro.workloads.generator import WorkloadProfile


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to run (and identify) one simulation.

    Attributes:
        workload: profile name (e.g. ``"511.povray"``) or a full
            :class:`~repro.workloads.generator.WorkloadProfile`.
        predictor: registry name (e.g. ``"phast"``), variant label (e.g.
            ``"phast(target_bits=0)"``) or a predictor instance.
            Instances make the spec non-picklable and non-cacheable by name;
            prefer names plus :func:`repro.sim.simulator.register_predictor`.
        config: core configuration; None means the default
            :class:`~repro.core.config.CoreConfig`.
        num_ops: dynamic trace length; None defers to
            :func:`repro.sim.simulator.default_num_ops` at run time.
        warmup_ops: ops excluded from statistics; None defers to
            :func:`repro.sim.simulator.default_warmup_ops` at run time.
        seed: workload seed override (None = the profile's own seed).
        check_invariants: enable simulator self-checks; None defers to
            ``REPRO_CHECK_INVARIANTS``.
        probes: extra observers attached to the pipeline's probe bus.
        interval_ops: window size for interval metrics (None = off).
        branch_predictor: front-end override (None = a fresh TAGE).
        trace_dir: directory of a trace artifact store to consult before
            building the trace (None = ``REPRO_TRACE_STORE`` or no store).
        backend: execution backend name, ``"reference"`` or ``"batch"``;
            None defers to ``REPRO_SIM_BACKEND`` at run time. Either runs
            every spec. Like ``trace_dir``, the backend is *execution*
            strategy, not identity — backends are bit-identical by contract
            (the golden fixtures enforce it), so results from different
            backends share one result-store key and interchange freely.
    """

    workload: Union[str, WorkloadProfile]
    predictor: Union[str, MDPredictor]
    config: Optional[CoreConfig] = None
    num_ops: Optional[int] = None
    warmup_ops: Optional[int] = None
    seed: Optional[int] = None
    check_invariants: Optional[bool] = None
    probes: Tuple[Probe, ...] = ()
    interval_ops: Optional[int] = None
    branch_predictor: Optional[BranchPredictor] = None
    trace_dir: Optional[str] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.probes, tuple):
            object.__setattr__(self, "probes", tuple(self.probes))
        if self.num_ops is not None and self.num_ops <= 0:
            raise ValueError(f"num_ops must be positive, got {self.num_ops}")
        if self.warmup_ops is not None and self.warmup_ops < 0:
            raise ValueError(f"warmup_ops must be >= 0, got {self.warmup_ops}")
        if self.interval_ops is not None and self.interval_ops <= 0:
            raise ValueError(f"interval_ops must be positive, got {self.interval_ops}")

    # -------------------------------------------------------- resolution --

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name

    @property
    def predictor_label(self) -> str:
        """The registry/cache label for the predictor.

        A name is its own label, variants included
        (``"phast(target_bits=0)"``, see
        :func:`repro.sim.simulator.parse_predictor`). For an instance this
        is the object's ``name``, which does not tell a parameter variant
        from its base; pass the variant's label to keep their cells apart.
        """
        if isinstance(self.predictor, str):
            return self.predictor
        return self.predictor.name

    def resolved_config(self) -> CoreConfig:
        return self.config or CoreConfig()

    def resolved_profile(self) -> WorkloadProfile:
        """The concrete workload profile, with any seed override applied."""
        if isinstance(self.workload, str):
            from repro.workloads.spec2017 import workload

            return workload(self.workload, seed=self.seed)
        profile = self.workload
        if self.seed is not None and self.seed != profile.seed:
            return replace(profile, seed=self.seed)
        return profile

    def resolved_num_ops(self) -> int:
        from repro.sim.simulator import default_num_ops

        return self.num_ops or default_num_ops()

    def resolved_warmup_ops(self) -> int:
        from repro.sim.simulator import default_warmup_ops

        return (
            default_warmup_ops() if self.warmup_ops is None else self.warmup_ops
        )

    def resolved_backend(self) -> str:
        """The backend name this run executes on (``REPRO_SIM_BACKEND`` aware).

        Resolved at call time like every other knob, and validated by name —
        an unknown name (in the spec or the environment) is an error naming
        the bad value, never a silent switch to the reference backend.
        """
        from repro.sim.backends import default_backend_name, validate_backend_name

        if self.backend is None:
            return default_backend_name()
        return validate_backend_name(self.backend)

    # --------------------------------------------------------------- keys --

    def key(self):
        """Result-store identity of this run (a ``CellKey``).

        Matches the digests the harness has always produced: ``num_ops`` is
        keyed *raw* (0 = "the default at run time"), so existing on-disk
        stores stay valid.
        """
        # Imported here: the harness layer sits above sim, but the key
        # schema lives with the store that owns the on-disk format.
        from repro.harness.store import grid_keys

        (key,) = grid_keys([self])
        return key

    def trace_key(self):
        """Artifact-store identity of this run's input trace (a ``TraceKey``).

        Unlike :meth:`key`, the trace key uses the *resolved* op count —
        the artifact is the concrete byte sequence, so "the default at run
        time" must be pinned to a number.
        """
        from repro.isa.artifacts import trace_key

        return trace_key(self.resolved_profile(), self.resolved_num_ops())

    # -------------------------------------------------------------- wire --

    def to_wire(self) -> dict:
        """Encode this spec as a versioned wire payload (schema v1).

        The payload is a sparse JSON-safe dict carrying ``"v": 1``; decoding
        it with :meth:`from_wire` on any host reproduces a spec with the
        identical :meth:`key`. Raises :class:`repro.api.wire.WireError` for
        specs that cannot cross a process boundary by name (predictor or
        probe instances, customised profiles). See ``docs/server.md``.
        """
        from repro.api.wire import spec_to_wire

        return spec_to_wire(self)

    @classmethod
    def from_wire(cls, payload) -> "RunSpec":
        """Decode a v1 wire payload (see :meth:`to_wire`) into a spec.

        Rejects missing/mismatched versions and unknown keys with a
        :class:`repro.api.wire.WireError` naming the offending field.
        """
        from repro.api.wire import spec_from_wire

        return spec_from_wire(payload)

    # -------------------------------------------------------------- misc --

    def with_overrides(self, **changes) -> "RunSpec":
        """A copy with the given fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)

    def describe(self) -> dict:
        return dict(self.key().describe)
