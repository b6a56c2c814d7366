"""Execution backends: the two strategies for running simulations.

``simulate()``/``run_spec()`` dispatch through :func:`get_backend`; the
active backend comes from ``RunSpec.backend``, else the
``REPRO_SIM_BACKEND`` environment knob (validated, read at call time),
else ``"reference"``.

* ``reference`` — one cell at a time with its own front end.
* ``batch`` — one shared trace plan per trace; imported on first use.

Both run every spec and are bit-identical (``docs/backends.md``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.env import env_choice
from repro.sim.backends.base import Backend
from repro.sim.backends.reference import ReferenceBackend

#: Environment knob naming the default backend (validated at call time).
ENV_BACKEND = "REPRO_SIM_BACKEND"

_NAMES: Tuple[str, ...] = ("batch", "reference")
#: One long-lived instance per name: backends keep no per-run state (it
#: lives in the pipeline runs they build; batch caches read-only plans).
_INSTANCES: Dict[str, Backend] = {}


def available_backends() -> Tuple[str, ...]:
    """Sorted names of the backends."""
    return _NAMES


def validate_backend_name(name: str) -> str:
    """Return ``name`` if it names a backend, else raise a ``ValueError``."""
    if name not in _NAMES:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(_NAMES)}"
        )
    return name


def default_backend_name() -> str:
    """The ``REPRO_SIM_BACKEND`` knob, validated, read at call time."""
    return env_choice(ENV_BACKEND, "reference", _NAMES)


def get_backend(name: str) -> Backend:
    """The (cached) backend instance for ``name``."""
    instance = _INSTANCES.get(validate_backend_name(name))
    if instance is None:
        if name == "batch":
            from repro.sim.backends.batch import BatchBackend

            instance = BatchBackend()
        else:
            instance = ReferenceBackend()
        _INSTANCES[name] = instance
    return instance
