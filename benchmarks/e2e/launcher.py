"""Child processes the benchmark drives: a sweep server or a sampling run.

``python launcher.py serve --store DIR --stats FILE [--surrogate-model M]``
runs :func:`repro.server.http.serve` on an ephemeral port with two workers
and prints its listening line. SIGTERM shuts it down cleanly.

``python launcher.py sample --checkpoints DIR --stats FILE --num-ops N``
imports the sampling stack, prints ``ready``, and on a ``go`` line from
stdin runs ``repro.sampling.run_sampled`` on a fresh checkpoint store twice
(cold, then warm), printing one JSON line with both results and timings.
Any other line, or EOF, exits without running.

Both write ``{"rss_mb", "children_rss_mb"}`` (peak resident set of the
process and of its largest reaped worker) to ``--stats`` on exit.
``--trace-dir`` installs the layer wrappers of :mod:`tracing` before
anything forks and writes the process's spans there.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

#: Worker processes per server or sampling run: the machine's two cores.
WORKERS = 2


def _write_stats(path: str) -> None:
    stats = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024.0,
    }
    Path(path).write_text(json.dumps(stats))


def _serve(args) -> None:
    from repro.server.http import serve

    async def main() -> None:
        task = asyncio.current_task()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, task.cancel)
        try:
            await serve(
                args.store,
                port=0,
                workers=WORKERS,
                surrogate_model=args.surrogate_model,
                surrogate_mode="off" if args.surrogate_model else None,
                announce=lambda line: print(line, flush=True),
            )
        except asyncio.CancelledError:
            pass

    asyncio.run(main())


def _sample(args, tracer) -> None:
    import repro.sampling
    from repro.isa.artifacts import CheckpointStore
    from repro.sim.spec import RunSpec

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    spec = RunSpec(args.workload, args.predictor, num_ops=args.num_ops)
    store = CheckpointStore(args.checkpoints)
    out = {}
    for phase in ("cold", "warm"):
        scope = (
            tracer.span("client.sampled", phase=phase)
            if tracer is not None
            else contextlib.nullcontext()
        )
        start = time.monotonic()
        with scope:
            result = repro.sampling.run_sampled(
                spec, checkpoint_store=store, workers=WORKERS
            )
        out[f"{phase}_s"] = time.monotonic() - start
        out[phase] = result.to_record()
    print(json.dumps(out), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "sample"))
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--store")
    parser.add_argument("--surrogate-model")
    parser.add_argument("--checkpoints")
    parser.add_argument("--workload")
    parser.add_argument("--predictor")
    parser.add_argument("--num-ops", type=int)
    args = parser.parse_args()

    tracer = None
    if args.trace_dir:
        import tracing

        tracer = tracing.Tracer(args.trace_dir)
        tracing.install_service(tracer)
    try:
        if args.mode == "serve":
            _serve(args)
        else:
            _sample(args, tracer)
    finally:
        _write_stats(args.stats)
        if tracer is not None:
            tracer.close()


if __name__ == "__main__":
    main()
