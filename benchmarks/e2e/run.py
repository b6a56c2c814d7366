#!/usr/bin/env python3
"""End-to-end benchmark of the served sweep: four closed-loop workloads.

Run from the repository root::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 1 --out run.json
    python benchmarks/e2e/run.py --workload serve-mix --seed 3 --seconds 15 --trace 0
    python benchmarks/e2e/run.py --workload sweep-ref --trace 1     # the ledger
    python benchmarks/e2e/run.py --refresh-expected                 # new digests

Each workload runs in a fresh process, measures for ``--seconds``, checks
every result against ``expected.json`` (or the reference backend), and
prints one line per metric, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Untraced, the metrics are
the end-to-end metrics ``BENCHMARK.json`` declares; with ``--trace 1`` they
are its per-layer metrics. ``--out`` writes the full report: provenance,
every metric, and the raw samples. The exit code is 0 only when every
result was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import expected
import inputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Environment every process of the benchmark runs with: modelled caches
#: start empty. Every other REPRO_* variable is removed.
REPRO_ENV = {"REPRO_WARMUP_OPS": "0"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: per-layer ledger instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: all four workloads in seconds")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--work", help="scratch directory to use and keep")
    parser.add_argument("--refresh-expected", action="store_true",
                        help="recompute expected.json with the reference backend")
    return parser.parse_args(argv)


def _environment() -> None:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(REPRO_ENV)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def _provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": "smoke" if args.smoke else "full",
        "git_commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "started_at": time.time(),
    }


def _declared(section: str) -> list:
    """Names of the metrics ``BENCHMARK.json`` declares in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[section]]


def _print_report(report: dict) -> None:
    name = report["workload"]
    for section in ("end_to_end", "per_layer"):
        for metric, entry in report[section].items():
            count = f"  n={entry['n']}" if "n" in entry else ""
            wall = f"  wall {entry['wall']:.4f}" if "wall" in entry else ""
            print(f"{name:<13} {metric:<32} {entry['value']:>14.4f} "
                  f"{entry['unit']}{count}{wall}")
    for note in report["notes"]:
        print(f"{name:<13} note: {note}")
    verdict = "correct" if report["correct"] else "INCORRECT"
    print(f"{name:<13} {verdict}: {report['failed']} failed of "
          f"{report['attempted']} attempted")


def _result_line(report: dict, names) -> dict:
    section = report["per_layer"] if report["trace"] else report["end_to_end"]
    metrics = {
        name: {"value": section[name]["value"], "unit": section[name]["unit"]}
        for name in names
        if name in section
    }
    return {
        "correct": report["correct"] and len(metrics) == len(names),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _run_one(args, work: Path) -> dict:
    scale = inputs.SMOKE if args.smoke else inputs.FULL
    return workloads.run(args.workload, scale, args.seed, args.seconds,
                         bool(args.trace), work)


def _run_all(args, work: Path) -> dict:
    """Each workload in a fresh interpreter; their reports, merged."""
    reports = {}
    for name in workloads.WORKLOADS:
        out = work / f"{name}.json"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out),
                "--work", str(work / name)]
        if args.smoke:
            argv.append("--smoke")
        subprocess.run(argv, check=False)
        try:
            reports[name] = json.loads(out.read_text())["workloads"][name]
        except (OSError, ValueError, KeyError):
            reports[name] = {"workload": name, "correct": False, "attempted": 1,
                             "failed": 1, "notes": ["workload run crashed"],
                             "end_to_end": {}, "per_layer": {}, "trace": args.trace}
    return reports


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    _environment()
    scratch = Path(args.work) if args.work else (
        HERE / ".work" / f"run-{os.getpid()}-{int(time.time())}")
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.refresh_expected:
            expected.refresh(scratch)
            print(f"wrote {expected.PATH}")
            return 0
        provenance = _provenance(args)
        if args.seed != 1:
            provenance["note"] = (
                "non-default seed: serve-mix write digests are computed with the "
                "reference backend after the timed window, not read from "
                "expected.json"
            )
        if args.workload == "all":
            reports = _run_all(args, scratch)
        else:
            reports = {args.workload: _run_one(args, scratch)}
            _print_report(reports[args.workload])
        if args.out:
            Path(args.out).write_text(json.dumps(
                {"provenance": provenance, "workloads": reports}, indent=1) + "\n")
        names = _declared("per_layer" if args.trace else "end_to_end")
        lines = {name: _result_line(report, names) for name, report in reports.items()}
        if args.workload == "all":
            line = {
                "correct": all(entry["correct"] for entry in lines.values()),
                "attempted": sum(entry["attempted"] for entry in lines.values()),
                "failed": sum(entry["failed"] for entry in lines.values()),
                "metrics": {f"{workload}.{metric}": value
                            for workload, entry in lines.items()
                            for metric, value in entry["metrics"].items()},
            }
        else:
            line = lines[args.workload]
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] else 1
    finally:
        if not args.work:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
