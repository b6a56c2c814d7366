"""Execution-backend registry: named strategies for running simulations.

``simulate()``/``run_spec()`` dispatch through this registry; the active
backend comes from ``RunSpec.backend``, else the ``REPRO_SIM_BACKEND``
environment knob (validated, read at call time), else ``"reference"``.

Built-ins:

* ``reference`` — one cell at a time with its own front end; always
  available.
* ``batch`` — one shared trace plan per trace plus predictor kernels;
  imported on first use so importing this package stays light.

Third backends register with :func:`register_backend`; see
``docs/backends.md`` for the contract (bit-identity with ``reference`` on
covered specs, graceful per-cell fallback elsewhere).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.common.env import env_choice
from repro.sim.backends.base import (  # noqa: F401  (public re-exports)
    Backend,
    BackendError,
)
from repro.sim.backends.reference import ReferenceBackend

#: Environment knob naming the default backend (validated at call time).
ENV_BACKEND = "REPRO_SIM_BACKEND"

_FACTORIES: Dict[str, Callable[[], Backend]] = {}
#: One long-lived instance per name: backends keep no per-run state (it
#: lives in the pipeline runs they build; batch caches read-only plans).
_INSTANCES: Dict[str, Backend] = {}


def register_backend(
    name: str, factory: Callable[[], Backend], replace: bool = False
) -> None:
    """Register a named backend factory.

    Registered names work everywhere a built-in does: ``RunSpec.backend``,
    ``REPRO_SIM_BACKEND``, ``repro sweep --backend``, ``repro backends ls``.
    Raises ``ValueError`` on duplicates unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise TypeError(f"factory for backend {name!r} is not callable: {factory!r}")
    if name in _FACTORIES and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True to "
            "override it"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (KeyError if absent)."""
    del _FACTORIES[name]
    _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_FACTORIES))


def validate_backend_name(name: str) -> str:
    """Return ``name`` if registered, else raise a ``ValueError`` naming it."""
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return name


def default_backend_name() -> str:
    """The ``REPRO_SIM_BACKEND`` knob, validated, read at call time."""
    return env_choice(ENV_BACKEND, "reference", available_backends())


def get_backend(name: str) -> Backend:
    """The (cached) backend instance for a registered name."""
    validate_backend_name(name)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _FACTORIES[name]()
        _INSTANCES[name] = instance
    return instance


def _make_batch() -> Backend:
    # Imported on first use: keeps `import repro.sim` free of the kernels
    # and their array stack.
    from repro.sim.backends.batch import BatchBackend

    return BatchBackend()


register_backend("reference", ReferenceBackend)
register_backend("batch", _make_batch)
