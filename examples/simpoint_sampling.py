#!/usr/bin/env python3
"""SimPoint-style sampled simulation (the paper's Sec. V methodology).

Splits a workload into intervals, clusters their hashed-PC phase signatures,
functionally warms a checkpoint for each cluster's representative, simulates
only the representatives in detail, and compares the weighted-IPC estimate
(with its 95% sampling CI) against the full-trace run.

Usage:
    python examples/simpoint_sampling.py [workload] [total_ops] [interval_ops]
"""

import sys
import time

from repro.api import RunSpec, simulate
from repro.sampling import run_sampled


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "502.gcc_1"
    total_ops = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    interval_ops = int(sys.argv[3]) if len(sys.argv) > 3 else 5_000
    spec = RunSpec(workload=workload, predictor="phast", num_ops=total_ops)

    started = time.time()
    full = simulate(spec)
    full_seconds = time.time() - started

    started = time.time()
    sampled = run_sampled(spec, interval_ops=interval_ops, max_clusters=4)
    sampled_seconds = time.time() - started
    sampling = sampled.sampling

    error = abs(sampling.ipc - full.ipc) / full.ipc * 100.0
    print(
        f"{workload}: {total_ops} ops -> {sampling.num_representatives} "
        f"representatives of {sampling.num_intervals} x {interval_ops}-op intervals"
    )
    print(f"\nfull trace IPC      {full.ipc:.4f}  ({full_seconds:.1f}s)")
    print(
        f"sampled estimate    {sampling.ipc:.4f} ±{sampling.ipc_ci95:.4f} "
        f"(95% CI)  ({sampled_seconds:.1f}s)"
    )
    print(
        f"error {error:.1f}%  |  detail fraction {sampling.detail_fraction:.3f} "
        f"({sampling.simulated_ops}/{sampling.total_ops} ops simulated in detail)"
    )


if __name__ == "__main__":
    main()
