"""The per-layer ledger: where a traced run's host time went.

Input is every span of the traced phase (see :mod:`tracing`). Only spans
that belong to a timed client request count; set-up work has its own
roots and is left out.

* A span's *self time* is its duration minus the union of its children's
  intervals, so it is never negative and concurrent children (two workers)
  are not double-subtracted.
* ``trace.wall_s`` is the summed duration of the timed requests.
* ``trace.unattributed_s`` is the part of that wall time during which no
  layer span was open — time between layers that no layer claims. Waiting
  on the SSE feed is not a layer, so it does not count as covered.
* ``sim.<package>.self_s`` folds the cProfile self time of every profiled
  span (worker bodies, functional warming) by simulator package. It is a
  second view of the same seconds the span layers also hold, not an
  addition to them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from tracing import SIM_PACKAGES

#: Client-side roots of the timed requests, one per workload request kind.
TIMED_ROOTS = frozenset(
    {"client.sweep", "client.read", "client.write", "client.predict", "client.sampled"}
)
#: Spans that wait on other work instead of doing any.
WAITS = frozenset({"client.stream"})


def _union(intervals: Iterable[tuple]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def _clipped(parent: dict, kids: Iterable[dict]) -> List[tuple]:
    return [
        (max(kid["start"], parent["start"]), min(kid["end"], parent["end"]))
        for kid in kids
        if kid["end"] > parent["start"] and kid["start"] < parent["end"]
    ]


def timed_spans(spans: Iterable[dict]) -> List[dict]:
    """The spans that belong to a timed client request."""
    spans = list(spans)
    rids = {
        span["id"]
        for span in spans
        if span["parent"] is None and span["name"] in TIMED_ROOTS
    }
    return [span for span in spans if span["rid"] in rids]


def self_times(spans: List[dict]) -> Dict[str, float]:
    children: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return {
        span["id"]: (span["end"] - span["start"])
        - _union(_clipped(span, children[span["id"]]))
        for span in spans
    }


def compute(spans: Iterable[dict]) -> Dict[str, Optional[float]]:
    """Every per-layer metric; a mean over spans that never ran is None."""
    spans = timed_spans(spans)
    own = self_times(spans)
    named: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def total(name: str, self_only: bool = False) -> float:
        return sum(
            own[span["id"]] if self_only else duration(span) for span in named[name]
        )

    def mean_ms(name: str, self_only: bool = False) -> Optional[float]:
        if not named[name]:
            return None
        return 1000.0 * total(name, self_only) / len(named[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(span["attrs"].get(key, 0) for span in named[name])

    def ratio(numerator: float, denominator: float) -> Optional[float]:
        return numerator / denominator if denominator else None

    out: Dict[str, Optional[float]] = {}
    folds = {package: 0.0 for package in SIM_PACKAGES + ("other",)}
    for span in spans:
        for package, seconds in span["attrs"].get("fold", {}).items():
            folds[package] += seconds
    for package, seconds in folds.items():
        out[f"sim.{package}.self_s"] = seconds
    simulated = [span for span in spans if "ops" in span["attrs"]]
    out["sim.host_us_per_op"] = ratio(
        1e6 * sum(duration(span) for span in simulated),
        sum(span["attrs"]["ops"] for span in simulated),
    )

    out["workloads.build_trace_s"] = total("workloads.build_trace")
    out["isa.artifacts.compile_s"] = total("isa.artifacts.compile", self_only=True)
    out["isa.artifacts.load_ms"] = mean_ms("isa.artifacts.load")
    out["isa.artifacts.rebuilds_n"] = len(named["isa.artifacts.rebuild"])

    out["harness.executor.overhead_ms"] = mean_ms(
        "harness.executor.cell", self_only=True
    )
    out["harness.executor.cells_n"] = attr_sum("harness.executor.cell", "cells")
    waits = [span["attrs"]["queue_wait_s"] for span in named["server.jobs.run_job"]
             if "queue_wait_s" in span["attrs"]]
    out["server.jobs.queue_wait_ms"] = (
        1000.0 * sum(waits) / len(waits) if waits else None
    )
    out["harness.leases.acquire_ms"] = mean_ms("harness.leases.acquire")
    out["harness.leases.release_ms"] = mean_ms("harness.leases.release")
    out["harness.leases.acquire_n"] = len(named["harness.leases.acquire"])
    out["harness.store.put_ms"] = mean_ms("harness.store.put")
    out["harness.sweep.self_s"] = total("harness.sweep.run", True) + total(
        "harness.sweep.precompile", True
    )

    out["server.jobs.submit_ms"] = mean_ms("server.jobs.submit")
    out["harness.store.contains_ms"] = mean_ms("harness.store.contains")
    out["harness.store.get_ms"] = mean_ms("harness.store.get")
    out["server.jobs.results_ms"] = mean_ms("server.jobs.results")
    out["harness.store.hit_ratio"] = ratio(
        attr_sum("server.jobs.submit", "cached"),
        attr_sum("server.jobs.submit", "cells"),
    )
    # Client call time minus the server handler span: parsing, JSON and
    # the connection, on both ends of the wire.
    out["server.http_ms"] = mean_ms("client.http", self_only=True)
    out["surrogate.predict_all_ms"] = mean_ms("surrogate.predict_all")
    out["server.jobs.predict_ms"] = mean_ms("server.jobs.predict")

    run_sampled = named["sampling.run_sampled"]
    out["sampling.run_sampled_s"] = (
        total("sampling.run_sampled") / len(run_sampled) if run_sampled else None
    )
    out["sampling.warming.self_s"] = total("sampling.warming", self_only=True)
    loads = named["sampling.checkpoint.load"]
    out["sampling.checkpoint.load_n"] = len(loads)
    out["sampling.checkpoint.save_n"] = len(named["sampling.checkpoint.save"])
    out["sampling.checkpoint.hit_ratio"] = ratio(
        sum(1 for span in loads if span["attrs"].get("hit")), len(loads)
    )

    roots = [span for span in spans if span["parent"] is None]
    by_rid: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None and span["name"] not in WAITS:
            by_rid[span["rid"]].append(span)
    wall = sum(duration(root) for root in roots)
    covered = sum(_union(_clipped(root, by_rid[root["id"]])) for root in roots)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - covered
    out["trace.unattributed_frac"] = ratio(wall - covered, wall)
    return out
