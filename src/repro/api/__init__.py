"""repro.api — the supported public surface, in one place.

Import from here instead of deep modules: this facade re-exports the
stable names (:class:`RunSpec`, :func:`simulate`, the predictor registry,
:class:`SweepClient`) plus the v1 wire codec that the server, the client
and the CLI all share. Deep-module paths keep working, but only the names
listed in ``__all__`` here are covered by the deprecation policy.

>>> from repro.api import RunSpec, simulate
>>> result = simulate(RunSpec(workload="511.povray", predictor="phast"))

Remote submission uses the same spec and the same store keys:

>>> from repro.api import SweepClient          # doctest: +SKIP
>>> client = SweepClient("http://127.0.0.1:8321")  # doctest: +SKIP
>>> job = client.submit_spec(RunSpec("511.povray", "phast"))  # doctest: +SKIP
"""

from repro.api.wire import (
    WIRE_VERSION,
    WireError,
    WireGrid,
    attach_tenant,
    config_from_wire,
    config_to_wire,
    grid_from_wire,
    grid_to_wire,
    spec_from_wire,
    spec_to_wire,
    tenant_from_payload,
)
from repro.sim.metrics import SimResult
from repro.sim.simulator import (
    available_predictors,
    make_predictor,
    predictor_variant,
    register_predictor,
    run_spec,
    simulate,
    unregister_predictor,
)
from repro.sim.spec import RunSpec

__all__ = [
    # core simulation surface
    "RunSpec",
    "SimResult",
    "simulate",
    "run_spec",
    "register_predictor",
    "unregister_predictor",
    "available_predictors",
    "make_predictor",
    "predictor_variant",
    # remote submission
    "SweepClient",
    "ServerError",
    # surrogate subsystem (lazy; the model layer needs numpy)
    "SurrogateEstimate",
    "SurrogateTier",
    "build_store_dataset",
    "load_dataset",
    "load_model",
    "load_tier",
    "train_model",
    # wire schema v1
    "WIRE_VERSION",
    "WireError",
    "WireGrid",
    "spec_to_wire",
    "spec_from_wire",
    "grid_to_wire",
    "grid_from_wire",
    "config_to_wire",
    "config_from_wire",
    "attach_tenant",
    "tenant_from_payload",
]


#: Surrogate names resolved lazily: the model layer imports numpy, and the
#: triage/dataset layers pull in the harness — neither belongs in every
#: `import repro.api`.
_SURROGATE_NAMES = frozenset(
    {
        "SurrogateEstimate",
        "SurrogateTier",
        "build_store_dataset",
        "load_dataset",
        "load_model",
        "load_tier",
        "train_model",
    }
)


def __getattr__(name):
    # SweepClient lives in repro.client; importing it eagerly would pull the
    # HTTP machinery into every `import repro.api`, so resolve it on demand
    # (PEP 562).
    if name == "SweepClient":
        from repro.client import SweepClient

        return SweepClient
    if name == "ServerError":
        from repro.client import ServerError

        return ServerError
    if name in _SURROGATE_NAMES:
        import repro.surrogate as surrogate

        return getattr(surrogate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
