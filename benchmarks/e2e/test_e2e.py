"""Smoke tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One traced ``--smoke`` run of all four workloads (well under a minute)
backs the metric, digest and span checks; ``compare.py`` is checked on
synthetic reports.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import ledger  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke():
    work = HERE / ".work" / f"test-{os.getpid()}"
    out = work / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--seconds", "2", "--out", str(out), "--work", str(work / "runs")],
        capture_output=True, text=True, timeout=600,
    )
    try:
        report = json.loads(out.read_text()) if out.exists() else None
        spans = {
            name: tracing.load_spans(work / "runs" / name / "spans")
            for name in WORKLOADS
        }
        yield proc, report, spans
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    proc, report, _ = smoke
    assert report is not None, proc.stdout + proc.stderr
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, run in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                entry = run[section].get(metric["name"])
                assert entry is not None, (name, metric["name"])
                assert entry["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(entry["value"], (int, float))


def test_every_result_matches_its_digest(smoke):
    proc, report, _ = smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for name, run in report["workloads"].items():
        assert run["correct"], (name, run["notes"])
        assert run["end_to_end"]["failed_frac"]["value"] == 0.0


def test_spans_form_one_rooted_tree_per_request(smoke):
    _, report, spans = smoke
    for name, found in spans.items():
        assert found, name
        by_rid = defaultdict(list)
        for span in found:
            by_rid[span["rid"]].append(span)
        for rid, tree in by_rid.items():
            ids = {span["id"]: span for span in tree}
            roots = [span for span in tree if span["parent"] is None]
            assert [root["id"] for root in roots] == [rid], (name, rid)
            for span in tree:
                if span["parent"] is None:
                    continue
                parent = ids.get(span["parent"])
                assert parent is not None, (name, span["name"])
                assert parent["start"] <= span["start"], (name, span["name"])
                assert span["end"] <= parent["end"], (name, span["name"])
            assert min(ledger.self_times(tree).values()) >= 0.0, (name, rid)
        # A timed request's tree reaches the server or sampler and its workers.
        assert max(len({s["pid"] for s in tree}) for tree in by_rid.values()) >= 3
        per_layer = report["workloads"][name]["per_layer"]
        unattributed = per_layer["trace.unattributed_s"]["value"]
        assert unattributed <= 0.15 * per_layer["trace.wall_s"]["value"], name


def _report(values, failed=0, trace=False):
    return {
        "provenance": {"trace": trace},
        "workloads": {
            "serve-mix": {
                "attempted": 100,
                "failed": failed,
                "end_to_end": {
                    metric["name"]: {"value": values[metric["name"]]}
                    for metric in SPEC["end_to_end"]
                },
            }
        },
    }


def _runs(center, spread, metric=None, factor=1.0):
    """Ten reports around ``center``; ``metric`` scaled by ``factor``."""
    out = []
    for index in range(10):
        jitter = 1.0 + spread * ((index % 5) - 2) / 2.0
        values = {m["name"]: center * jitter for m in SPEC["end_to_end"]}
        if metric is not None:
            values[metric] *= factor
        out.append(_report(values))
    return out


def _verdicts(parent, change):
    return {row["metric"]: row["verdict"]
            for row in compare.compare(parent, change, SPEC)}


def test_compare_flags_a_synthetic_regression():
    parent = _runs(100.0, 0.002)
    change = _runs(100.0, 0.002, "result_p50_ms", 1.5)
    verdicts = _verdicts(parent, change)
    assert verdicts["result_p50_ms"] == "worse"
    assert verdicts["setup_s"] == "same"
    assert verdicts["failed_frac"] == "same"


def test_compare_reports_synthetic_noise_as_unresolved():
    parent = _runs(100.0, 0.002)
    change = _runs(100.0, 0.8)
    assert set(_verdicts(parent, change).values()) == {"unresolved", "same"}
    assert _verdicts(parent, change)["sim_kops_per_s"] == "unresolved"


def test_compare_counts_new_failures_as_worse():
    parent = _runs(100.0, 0.002)
    change = [_report({m["name"]: 100.0 for m in SPEC["end_to_end"]}, failed=1)]
    assert _verdicts(parent, change)["failed_frac"] == "worse"
