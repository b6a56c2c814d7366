"""How fast the host runs while a workload runs.

A separate process times a fixed, simulator-shaped pure-Python kernel
(object fields, table lookups, a cache-like dict) every ``PERIOD_S``
seconds, in thread CPU time so that waiting for a busy core does not count.
It runs beside the workload for the whole measurement and reports every
sample when its stdin closes.

``python hostclock.py`` is that process; :class:`HostClock` starts and stops
it around a block of code.
"""

from __future__ import annotations

import json
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

#: Seconds between kernel runs; one run takes about 20 ms of one core.
PERIOD_S = 0.5
#: Lower-quartile kernel CPU time of a full-scale run on the host the bounds
#: were measured on (Xeon, 2.1 GHz, 2 vCPUs): the median over 80 runs.
REFERENCE_S = 0.0197


def host_factor(samples: List[float]) -> float:
    """How much slower than the reference the host ran (>1: slower).

    The lower quartile keeps the kernel runs least slowed by the
    benchmark's own processes sharing the cores, so it follows the host
    rather than the phase mix of the workload.
    """
    return statistics.quantiles(samples, n=4)[0] / REFERENCE_S


class _Op:
    __slots__ = ("pc", "kind", "src", "dst", "addr")

    def __init__(self, pc: int, kind: int, src: int, dst: int, addr: int) -> None:
        self.pc = pc
        self.kind = kind
        self.src = src
        self.dst = dst
        self.addr = addr


def _ops() -> List[_Op]:
    rng = random.Random(7)
    return [
        _Op(0x400000 + 4 * rng.randrange(20000), rng.randrange(4), rng.randrange(32),
            rng.randrange(32), rng.randrange(1 << 22) & ~7)
        for _ in range(40_000)
    ]


def kernel(ops: List[_Op]) -> int:
    """A toy in-order scheduler over ``ops``; returns its stall cycles."""
    ready = [0] * 32
    table: dict = {}
    lines: dict = {}
    history = cycle = stalls = 0
    for op in ops:
        if ready[op.src] > cycle:
            stalls += ready[op.src] - cycle
            cycle = ready[op.src]
        key = (op.pc ^ history) & 8191
        entry = table.get(key)
        if entry is None:
            table[key] = [op.pc, 1]
        else:
            entry[1] += 1
        latency = 1
        if op.kind == 1:
            line = op.addr >> 6
            if line not in lines:
                latency = 40
                lines[line] = cycle
                if len(lines) > 4096:
                    lines.pop(next(iter(lines)))
            else:
                latency = 4
        elif op.kind == 2:
            history = ((history << 1) | (op.pc & 1)) & 0xFFFF
        ready[op.dst] = cycle + latency
        cycle += 1
    return stalls


def main() -> None:
    ops = _ops()
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.thread_time()
        kernel(ops)
        samples.append(time.thread_time() - start)
    print(json.dumps(samples), flush=True)


class HostClock:
    """Runs the clock process for the duration of a ``with`` block."""

    def __enter__(self) -> "HostClock":
        self.samples: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        try:  # communicate() closes stdin, which ends the clock
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            return
        self.samples = json.loads(out) if out.strip() else []


if __name__ == "__main__":
    main()
