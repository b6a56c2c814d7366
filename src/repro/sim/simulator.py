"""One-call simulation entry point.

``simulate(RunSpec("511.povray", "phast"))`` builds the workload trace
(cached), the Alder Lake-like core, the TAGE front end and the named
predictor, runs the pipeline and returns a
:class:`~repro.sim.metrics.SimResult`.

Trace length defaults to :func:`default_num_ops` and can be raised globally
with the ``REPRO_TRACE_OPS`` environment variable for higher-fidelity runs
(the paper simulates 100M-instruction intervals; these profiles are
stationary, so tens of thousands of micro-ops reach steady state). The
environment is read at *call* time, so overrides set after import — by
harness worker subprocesses, or tests via ``monkeypatch.setenv`` — take
effect.
"""

from __future__ import annotations

import ast
import inspect
import re
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.common.env import env_int
from repro.common.lru import CacheInfo, LRUCache
from repro.isa.artifacts import TraceStore, default_trace_store, trace_key
from repro.isa.trace import Trace
from repro.mdp.base import MDPredictor
from repro.mdp.cht import CHTPredictor
from repro.mdp.ideal import AlwaysSpeculatePredictor, AlwaysWaitPredictor, IdealPredictor
from repro.mdp.mdp_tage import MDPTagePredictor
from repro.mdp.nosq import NoSQPredictor
from repro.mdp.omnipredictor import OmniPredictor
from repro.mdp.perceptron import PerceptronMDPredictor
from repro.mdp.phast import PHASTPredictor
from repro.mdp.store_sets import StoreSetsPredictor
from repro.mdp.store_vector import StoreVectorPredictor
from repro.mdp.unlimited import (
    UnlimitedMDPTagePredictor,
    UnlimitedNoSQPredictor,
    UnlimitedPHASTPredictor,
)
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec
from repro.workloads.generator import WorkloadProfile, build_trace
from repro.workloads.spec2017 import workload

_FALLBACK_NUM_OPS = 30000
_FALLBACK_WARMUP_OPS = 0


def default_num_ops() -> int:
    """Default dynamic trace length (REPRO_TRACE_OPS, read at call time)."""
    return env_int("REPRO_TRACE_OPS", _FALLBACK_NUM_OPS, min_value=1)


def default_warmup_ops() -> int:
    """Default warm-up exclusion (REPRO_WARMUP_OPS, read at call time)."""
    return env_int("REPRO_WARMUP_OPS", _FALLBACK_WARMUP_OPS, min_value=0)


#: The built-in predictor factories, read-only; the registry starts as a
#: copy of them.
BUILTIN_PREDICTORS: Mapping[str, Callable[[], MDPredictor]] = MappingProxyType(
    {
        "ideal": IdealPredictor,
        "always-speculate": AlwaysSpeculatePredictor,
        "always-wait": AlwaysWaitPredictor,
        "store-sets": StoreSetsPredictor,
        "store-vector": StoreVectorPredictor,
        "cht": CHTPredictor,
        "nosq": NoSQPredictor,
        "mdp-tage": MDPTagePredictor,
        "mdp-tage-s": MDPTagePredictor.tage_s,
        "phast": PHASTPredictor,
        "perceptron-mdp": PerceptronMDPredictor,
        "omnipredictor": OmniPredictor,
        "unlimited-phast": UnlimitedPHASTPredictor,
        "unlimited-nosq": UnlimitedNoSQPredictor,
        "unlimited-mdp-tage": UnlimitedMDPTagePredictor,
    }
)

_REGISTRY: Dict[str, Callable[[], MDPredictor]] = dict(BUILTIN_PREDICTORS)

#: Named predictor factories (fresh instance per call): a read-only view of
#: the registry. Mutate via register_predictor()/unregister_predictor().
PREDICTOR_FACTORIES: Mapping[str, Callable[[], MDPredictor]] = MappingProxyType(
    _REGISTRY
)


def register_predictor(
    name: str,
    factory: Callable[[], MDPredictor],
    replace: bool = False,
) -> None:
    """Register a named predictor factory (fresh instance per call).

    Registered names work everywhere a built-in name does: ``simulate``,
    sweep cells, the CLI. Raises ``ValueError`` on a duplicate name unless
    ``replace=True``; the factory must be a zero-argument callable (bind
    parameters with ``functools.partial`` or a lambda).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"predictor name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise TypeError(f"factory for {name!r} is not callable: {factory!r}")
    if name in PREDICTOR_FACTORIES and not replace:
        raise ValueError(
            f"predictor {name!r} is already registered; pass replace=True "
            "to override it"
        )
    _REGISTRY[name] = factory


def unregister_predictor(name: str) -> None:
    """Remove a registered predictor (KeyError if absent)."""
    del _REGISTRY[name]


def available_predictors() -> Tuple[str, ...]:
    """Sorted names of every registered predictor."""
    return tuple(sorted(PREDICTOR_FACTORIES))


_VARIANT_LABEL = re.compile(r"([^()\s]+)\((.*)\)", re.DOTALL)
#: The value types a parameter admits, by the type of its default; any
#: other default (None, or none at all) admits every literal type.
_ADMITTED = {bool: (bool,), int: (int,), float: (float, int), tuple: (tuple,)}
_LITERALS = (bool, int, float, type(None), tuple)


def _parameters(name: str) -> Mapping[str, inspect.Parameter]:
    """The keyword parameters of registry predictor ``name``'s factory."""
    try:
        factory = PREDICTOR_FACTORIES[name]
    except (KeyError, TypeError):
        available = ", ".join(available_predictors())
        raise KeyError(f"unknown predictor {name!r}; available: {available}") from None
    return inspect.signature(factory).parameters


def _canonical(name: str, params: Mapping[str, object], parameters) -> str:
    spelled = [
        f"{key}={repr(value).replace(' ', '')}"
        for key, value in sorted(params.items())
        if not (
            key in parameters
            and type(value) is type(parameters[key].default)
            and value == parameters[key].default
        )
    ]
    return f"{name}({','.join(spelled)})" if spelled else name


def predictor_variant(name: str, **params: object) -> str:
    """The canonical label of registry predictor ``name`` built with ``params``.

    ``predictor_variant("phast", target_bits=0) == "phast(target_bits=0)"``:
    parameters sorted by name, ``repr`` values without spaces, and those
    equal to the factory's default left out, so a variant that builds the
    default predictor is the plain name. The label is checked like any
    other (:func:`parse_predictor`).
    """
    label = _canonical(name, params, _parameters(name))
    parse_predictor(label)
    return label


def parse_predictor(label: str) -> Tuple[str, Dict[str, object]]:
    """Split a predictor label into ``(registry name, parameters)``, checked.

    A label is a registry name, or a variant ``name(k=v,...)`` whose
    parameters are keyword arguments of the registry factory with literal
    values — int, float, bool, None, or a tuple of ints — typed like the
    parameter's default. They are checked by binding them to the factory's
    signature, without building the predictor. Only the canonical spelling
    (:func:`predictor_variant`) is accepted, so one cell never has two
    keys. Raises ``KeyError`` for an unknown name and ``ValueError`` for any
    other bad label, naming the canonical form where there is one.
    """
    if isinstance(label, str) and label in PREDICTOR_FACTORIES:
        return label, {}
    match = _VARIANT_LABEL.fullmatch(label) if isinstance(label, str) else None
    name, body = match.groups() if match else (label, "")
    parameters = _parameters(name)
    try:
        call = ast.parse(f"f({body})", mode="eval").body
        if call.args or any(keyword.arg is None for keyword in call.keywords):
            raise ValueError
        params = {k.arg: ast.literal_eval(k.value) for k in call.keywords}
    except (AttributeError, SyntaxError, ValueError, RecursionError, MemoryError):
        raise ValueError(
            f"predictor {label!r}: write parameters as k=v with literal values"
        ) from None
    for key, value in params.items():
        default = parameters[key].default if key in parameters else None
        if type(value) not in _ADMITTED.get(type(default), _LITERALS) or (
            isinstance(value, tuple) and any(type(item) is not int for item in value)
        ):
            raise ValueError(
                f"predictor {label!r}: {key}={value!r} is not an int, float, "
                f"bool, None or tuple of ints typed like the default {default!r}"
            )
    try:
        inspect.Signature(list(parameters.values())).bind(**params)
    except TypeError as exc:
        raise ValueError(
            f"predictor {label!r}: {exc}; {name!r} takes "
            f"{', '.join(parameters) or 'no parameters'}"
        ) from None
    canonical = _canonical(name, params, parameters)
    if label != canonical:
        raise ValueError(
            f"predictor {label!r} is not in canonical form; write {canonical!r}"
        )
    return name, params


def make_predictor(label: str) -> MDPredictor:
    """Instantiate a predictor by registry name or variant label."""
    name, params = parse_predictor(label)
    return PREDICTOR_FACTORIES[name](**params)


def _trace_cache_size() -> int:
    return env_int("REPRO_TRACE_CACHE_SIZE", 32, min_value=1)


#: In-process trace cache: tier 1 of the three-tier lookup. Bounded so a
#: long-lived process sweeping many (profile, seed, num_ops) combinations
#: cannot grow without limit. Capacity comes from REPRO_TRACE_CACHE_SIZE
#: (default 32 ≈ one full SPEC suite), re-read on every ``get_trace`` so a
#: mid-process change takes effect — shrinking evicts LRU entries eagerly.
_TRACE_CACHE: LRUCache = LRUCache(maxsize=_trace_cache_size())


def get_trace(
    profile: Union[str, WorkloadProfile],
    num_ops: int,
    store: Optional[TraceStore] = None,
) -> Trace:
    """The deterministic trace for a profile, via the three-tier cache.

    Tiers, in order: the in-process LRU (``trace_cache_info()``), the
    on-disk artifact store (``store`` argument, else ``REPRO_TRACE_STORE``),
    and finally ``build_trace``. A build that happens *despite* a store
    being attached persists the new artifact and drops a rebuild marker —
    the observable signal that precompilation missed this trace (see
    :mod:`repro.isa.artifacts`).
    """
    if isinstance(profile, str):
        profile = workload(profile)
    # REPRO_TRACE_CACHE_SIZE is honoured at call time, not frozen at import:
    # a harness that tightens the cap mid-process sheds entries immediately.
    size = _trace_cache_size()
    if size != _TRACE_CACHE.maxsize:
        _TRACE_CACHE.resize(size)
    # The seed participates in the key: a --seed-overridden profile shares
    # its name with the default profile but is a different trace.
    key = (profile.name, profile.seed, num_ops)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return trace
    if store is None:
        store = default_trace_store()
    if store is not None:
        artifact_key = trace_key(profile, num_ops)
        trace = store.load(artifact_key)
        if trace is None:
            trace = build_trace(profile, num_ops)
            store.save(artifact_key, trace)
            store.record_rebuild(artifact_key)
    else:
        trace = build_trace(profile, num_ops)
    _TRACE_CACHE.put(key, trace)
    return trace


def compile_trace(
    profile: WorkloadProfile, num_ops: int, store: TraceStore
) -> Tuple[Trace, bool]:
    """Compile a trace through ``store`` and keep it in the in-process cache.

    :meth:`TraceStore.compile <repro.isa.artifacts.TraceStore.compile>`
    loads the artifact, or builds and persists it without a rebuild marker;
    the trace it returns then serves this process's ``get_trace`` calls (and
    a fork-started worker's), even when the disk refused the artifact.
    Returns ``(trace, built)``.
    """
    trace, built = store.compile(profile, num_ops)
    _TRACE_CACHE.put((profile.name, profile.seed, num_ops), trace)
    return trace, built


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()


def trace_cache_info() -> CacheInfo:
    """Hit/miss/occupancy counters of the in-process trace cache."""
    return _TRACE_CACHE.info()


def run_spec(spec: RunSpec) -> SimResult:
    """Execute one :class:`~repro.sim.spec.RunSpec` and return its result::

        simulate(RunSpec("511.povray", "phast", num_ops=50_000))

    Dispatches to an execution backend (:mod:`repro.sim.backends`):
    ``spec.backend``, else ``REPRO_SIM_BACKEND`` (validated at call time),
    else the ``reference`` interpreter. Backends are bit-identical by
    contract, so the choice affects wall-clock only, never the result.
    ``simulate`` is the same function under its historical name; vary a
    spec with ``spec.with_overrides(...)``.
    """
    from repro.sim.backends import get_backend

    return get_backend(spec.resolved_backend()).run(spec)


simulate = run_spec
