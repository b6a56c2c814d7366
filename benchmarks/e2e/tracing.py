"""Spans around the public entry points of each layer, for the traced run.

Nothing here is imported by the simulator. :func:`install_service` patches
the entry points of the server, harness, artifact, sampling and simulator
layers *in the process that calls it* — the benchmark's server launcher and
sampling process do so before anything forks, so fork-started workers
inherit the wrappers. :func:`install_client` adds the span header to the
benchmark's own HTTP requests, which is how a server-side span finds its
client-side parent.

A span is ``{id, parent, rid, name, start, end, pid, attrs}``. ``rid`` is
the id of the client-side root span of the request that caused it, so every
span of one request forms one tree, across processes. Clocks are
``time.monotonic()``, which on Linux is one system-wide clock, so intervals
from different processes compare directly.

Spans stop at the simulate boundary: per-op spans would distort the loop,
so a worker's whole body runs under :mod:`cProfile` instead and its self
time is folded by simulator package (:func:`fold_profile`).

Each process keeps its spans in memory. A forked worker appends them to
``spans-<pid>.jsonl`` when its outermost span ends; a long-lived process
does so in :meth:`Tracer.close`.
"""

from __future__ import annotations

import contextlib
import contextvars
import cProfile
import functools
import http.client
import itertools
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

#: HTTP header carrying ``"<rid> <parent span id>"`` from client to server.
HEADER = "X-E2E-Span"

#: ``(rid, span id)`` of the innermost open span in this thread or task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)

#: Simulator packages the profile fold reports; everything else is "other".
SIM_PACKAGES = ("core", "frontend", "mdp", "memory", "backends", "isa", "sampling")


class Span:
    __slots__ = ("id", "parent", "rid", "name", "start", "end", "attrs")

    def __init__(self, id: str, parent: Optional[str], rid: str, name: str) -> None:
        self.id = id
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = time.monotonic()
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = {}

    def to_dict(self, pid: int) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "rid": self.rid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pid": pid,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans for one process (and, after fork, for each child)."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.origin_pid = os.getpid()
        self.pid = self.origin_pid
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child inherits the parent's buffer; those spans are the
        # parent's to write.
        self.pid = os.getpid()
        self.spans = []

    # ------------------------------------------------------------- spans --

    def start(
        self, name: str, rid: Optional[str] = None, parent: Optional[str] = None
    ) -> Span:
        """Open a span under ``parent`` (default: the current span)."""
        if rid is None and parent is None:
            current = _CURRENT.get()
            if current is not None:
                rid, parent = current
        span_id = f"{self.pid}.{next(self._ids)}"
        return Span(span_id, parent, rid or span_id, name)

    def finish(self, span: Span, end: Optional[float] = None) -> None:
        span.end = time.monotonic() if end is None else end
        self.spans.append(span)
        parent_pid = None if span.parent is None else span.parent.split(".")[0]
        if self.pid != self.origin_pid and parent_pid != str(self.pid):
            self.flush()  # outermost span of a forked worker: it exits next

    @contextlib.contextmanager
    def span(self, name: str, profile: bool = False, **attrs):
        span = self.start(name)
        span.attrs.update(attrs)
        token = _CURRENT.set((span.rid, span.id))
        profiler = cProfile.Profile() if profile else None
        try:
            if profiler is not None:
                profiler.enable()
            yield span
        finally:
            if profiler is not None:
                profiler.disable()
            end = time.monotonic()
            _CURRENT.reset(token)
            if profiler is not None:
                span.attrs["fold"] = fold_profile(profiler)
            self.finish(span, end)

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(self.pid)) + "\n")
        self.spans = []

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.flush()

    # ----------------------------------------------------------- patching --

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a version that runs inside a span.

        ``after(span, args, result)`` may add attributes from the call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result

        self.patch(owner, attr, traced)


def fold_profile(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self time by simulator package, in seconds.

    Built-in functions (``list.append``, numpy kernels, ...) and generated
    code (dataclass ``__init__``) are charged to the package of the Python
    function that called them; such time with no recorded caller goes to
    ``other``.
    """
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    totals = {name: 0.0 for name in SIM_PACKAGES + ("other",)}
    unowned: Dict[object, float] = {}
    for entry in profiler.getstats():
        if _charged_to_caller(entry.code):
            unowned[entry.code] = unowned.get(entry.code, 0.0) + entry.inlinetime
            continue
        package = _package(entry.code.co_filename, root)
        totals[package] += entry.inlinetime
        for sub in entry.calls or ():
            if _charged_to_caller(sub.code):
                totals[package] += sub.inlinetime
                unowned[sub.code] = unowned.get(sub.code, 0.0) - sub.inlinetime
    totals["other"] += sum(max(0.0, left) for left in unowned.values())
    return totals


def _charged_to_caller(code) -> bool:
    return isinstance(code, str) or code.co_filename.startswith("<")


def _package(filename: str, root: str) -> str:
    if not filename.startswith(root):
        return "other"
    parts = filename[len(root):].split(os.sep)
    if parts[0] == "sim" and len(parts) > 2 and parts[1] == "backends":
        return "backends"
    return parts[0] if parts[0] in SIM_PACKAGES else "other"


# --------------------------------------------------------------- installs --


def install_client(tracer: Tracer) -> None:
    """Send the current span with every HTTP request this process makes."""
    original = http.client.HTTPConnection.request

    @functools.wraps(original)
    def request(self, method, url, body=None, headers=None, **kwargs):
        headers = dict(headers or {})
        current = _CURRENT.get()
        if current is not None:
            headers[HEADER] = f"{current[0]} {current[1]}"
        return original(self, method, url, body=body, headers=headers, **kwargs)

    tracer.patch(http.client.HTTPConnection, "request", request)


def install_service(tracer: Tracer) -> None:
    """Wrap every layer entry point a server or sampling process runs."""
    from repro.harness import executor, leases, store, sweep
    from repro.isa import artifacts
    from repro.sampling import sampled, warming
    from repro.server import http as server_http
    from repro.server import jobs
    from repro.sim import simulator
    from repro.sim.backends import batch
    from repro.surrogate import triage
    from repro.workloads import generator
    import repro.sampling

    _install_server(tracer, server_http, jobs)
    tracer.wrap(triage.SurrogateTier, "predict_all", "surrogate.predict_all")

    def store_hit(span, args, result):
        span.attrs["hit"] = result is not None

    tracer.wrap(store.ResultStore, "get", "harness.store.get", after=store_hit)
    tracer.wrap(store.ResultStore, "contains", "harness.store.contains")
    tracer.wrap(store.ResultStore, "put", "harness.store.put")
    tracer.wrap(leases.LeaseStore, "acquire", "harness.leases.acquire")
    tracer.wrap(leases.LeaseStore, "release", "harness.leases.release")
    tracer.wrap(sweep.SweepRunner, "run", "harness.sweep.run")
    tracer.wrap(sweep.SweepRunner, "_precompile", "harness.sweep.precompile")
    tracer.wrap(artifacts.TraceStore, "compile", "isa.artifacts.compile")
    tracer.wrap(artifacts.TraceStore, "load", "isa.artifacts.load")
    tracer.wrap(artifacts.TraceStore, "record_rebuild", "isa.artifacts.rebuild")
    # build_trace is bound by name in the simulator module as well.
    tracer.wrap(generator, "build_trace", "workloads.build_trace")
    tracer.wrap(simulator, "build_trace", "workloads.build_trace")
    _install_executor(tracer, executor)

    def result_ops(span, args, result):
        span.attrs["ops"] = result.pipeline.committed_uops

    def results_ops(span, args, results):
        span.attrs["ops"] = sum(r.pipeline.committed_uops for r in results)

    tracer.wrap(executor, "_simulate_cell", "sim.run", after=result_ops)
    tracer.wrap(batch.BatchBackend, "run_many", "sim.run", after=results_ops)
    tracer.wrap(sampled, "_run_interval", "sim.run", after=result_ops)

    tracer.wrap(repro.sampling, "run_sampled", "sampling.run_sampled")
    tracer.wrap(sampled, "run_sampled", "sampling.run_sampled")
    tracer.wrap(sampled, "choose_simpoints", "sampling.simpoints")
    tracer.wrap(sampled, "encode_checkpoint", "sampling.checkpoint.encode")
    tracer.wrap(sampled, "decode_checkpoint", "sampling.checkpoint.decode")
    tracer.wrap(warming.FunctionalWarmer, "snapshot", "sampling.checkpoint.snapshot")
    tracer.wrap(artifacts.CheckpointStore, "load", "sampling.checkpoint.load",
                after=store_hit)
    tracer.wrap(artifacts.CheckpointStore, "save", "sampling.checkpoint.save")
    _install_warming(tracer, warming)


def _install_server(tracer: Tracer, server_http, jobs) -> None:
    original_route = server_http.SweepServer._route

    @functools.wraps(original_route)
    async def route(self, method, path, query, body, headers, writer):
        value = headers.get(HEADER.lower())
        token = None if value is None else _CURRENT.set(tuple(value.split()))
        try:
            return await original_route(
                self, method, path, query, body, headers, writer
            )
        finally:
            if token is not None:
                _CURRENT.reset(token)

    tracer.patch(server_http.SweepServer, "_route", route)

    def submitted(span, args, result):
        job, receipt = result
        span.attrs["cells"] = receipt["cells"]
        span.attrs["cached"] = receipt["cached"]
        # The job runs later, on a dispatcher thread, as part of the client
        # request that submitted it; an untagged submission roots its own.
        job._e2e_rid = span.rid if span.parent is not None else None

    tracer.wrap(jobs.JobManager, "submit", "server.jobs.submit", after=submitted)
    tracer.wrap(jobs.JobManager, "results", "server.jobs.results")
    tracer.wrap(jobs.JobManager, "predict", "server.jobs.predict")

    original_run_job = jobs.JobManager._run_job
    original_set_state = jobs.Job.set_state

    @functools.wraps(original_run_job)
    def run_job(self, job):
        rid = getattr(job, "_e2e_rid", None)
        # Parent is the client's request root: the job outlives the submit
        # call that created it, but not the request that waits for it.
        span = tracer.start("server.jobs.run_job", rid=rid, parent=rid)
        job._e2e_span = span
        token = _CURRENT.set((span.rid, span.id))
        try:
            return original_run_job(self, job)
        finally:
            _CURRENT.reset(token)
            if job.started_at is not None:
                span.attrs["queue_wait_s"] = job.started_at - job.submitted_at
            if span.end is None:
                tracer.finish(span)

    @functools.wraps(original_set_state)
    def set_state(self, state, **data):
        # End the job span before the terminal event reaches any client,
        # so the span lies inside the request that waited for it.
        span = getattr(self, "_e2e_span", None)
        if state in jobs.Job.TERMINAL and span is not None and span.end is None:
            tracer.finish(span)
        return original_set_state(self, state, **data)

    tracer.patch(jobs.JobManager, "_run_job", run_job)
    tracer.patch(jobs.Job, "set_state", set_state)


def _install_executor(tracer: Tracer, executor) -> None:
    """One span per worker unit, from spawn to reap, around the worker's own.

    The worker span is the child's outermost span and runs under cProfile;
    the unit span minus the worker span is fork, pickle and pipe time.
    """
    tracer.wrap(executor.ProcessCellExecutor, "run_many", "harness.executor.run_many")
    open_units: Dict[int, Span] = {}

    def traced_worker(target):
        @functools.wraps(target)
        def worker(conn, job, check_invariants):
            with tracer.span("harness.executor.worker", profile=True):
                target(conn, job, check_invariants)

        return worker

    original_init = executor.ProcessCellExecutor.__init__
    original_spawn = executor.ProcessCellExecutor._spawn

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.worker = traced_worker(self.worker)
        self.group_worker = traced_worker(self.group_worker)

    @functools.wraps(original_spawn)
    def spawn(self, index, spec, *args, **kwargs):
        span = tracer.start("harness.executor.cell")
        span.attrs["cells"] = len(getattr(spec, "cells", None) or (spec,))
        token = _CURRENT.set((span.rid, span.id))  # the fork inherits it
        try:
            entry = original_spawn(self, index, spec, *args, **kwargs)
        finally:
            _CURRENT.reset(token)
        open_units[id(entry)] = span
        return entry

    def reaper(original):
        @functools.wraps(original)
        def reap(self, entry, *args, **kwargs):
            try:
                return original(self, entry, *args, **kwargs)
            finally:
                span = open_units.pop(id(entry), None)
                if span is not None:
                    tracer.finish(span)

        return reap

    tracer.patch(executor.ProcessCellExecutor, "__init__", init)
    tracer.patch(executor.ProcessCellExecutor, "_spawn", spawn)
    for name in ("_reap", "_reap_group"):
        tracer.patch(
            executor.ProcessCellExecutor,
            name,
            reaper(getattr(executor.ProcessCellExecutor, name)),
        )


def _install_warming(tracer: Tracer, warming) -> None:
    original = warming.FunctionalWarmer.advance

    @functools.wraps(original)
    def advance(self, until=None):
        before = self.next_index
        with tracer.span("sampling.warming", profile=True) as span:
            cursor = original(self, until)
            span.attrs["ops"] = cursor - before
        return cursor

    tracer.patch(warming.FunctionalWarmer, "advance", advance)


def load_spans(directory) -> List[Dict[str, object]]:
    """Every span written under ``directory``, from every process."""
    spans: List[Dict[str, object]] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans

