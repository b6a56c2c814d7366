"""The four workloads, and the metrics computed from their samples.

Every workload is one closed loop: a single client that sends its next
request only after the previous reply, one connection at a time.

* ``sweep-ref`` / ``sweep-batch`` — per round, a fresh ``repro serve``
  (two workers) on an empty store runs one grid job; the client streams
  the job to ``done`` and fetches the results.
* ``serve-mix`` — one warm server with a surrogate model (mode ``off``)
  answers cycles of three reads, one write and one predict.
* ``sampled-long`` — per round, a fresh sampling process runs
  ``run_sampled`` cold then warm on an empty checkpoint store.

Each workload's phase function runs rounds (or cycles) until the
:class:`Plan`'s budget is spent and returns a :class:`Phase` of raw
samples. The traced run runs it twice, untraced then traced, to report the
tracing overhead next to the ledger.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import expected
import hostclock
import inputs
import ledger
import tracing

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"

#: How long a child gets to exit after SIGTERM (or EOF) before SIGKILL.
STOP_SECONDS = 60.0

_UNITS = (
    ("_kops_per_s", "kops/s"),
    ("_us_per_op", "us"),
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("_s", "s"),
    ("_n", "count"),
    ("_ratio", "ratio"),
    ("_frac", "ratio"),
    ("overhead", "x"),
    ("_factor", "x"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------- children --


class Child:
    """A launcher process in its own session; :meth:`stop` leaves none behind."""

    def __init__(self, argv: List[str], stats: Path) -> None:
        self.stats = stats
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *argv, "--stats", str(stats)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited early (code {self.proc.wait()})")
        return line.strip()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self, terminate: bool = True) -> Dict[str, float]:
        """End the child and its whole process group; returns its stats."""
        if terminate and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STOP_SECONDS)
        except subprocess.TimeoutExpired:
            pass
        _kill_group(self.proc.pid)
        self.proc.wait()
        self.proc.stdout.close()
        try:
            return json.loads(self.stats.read_text())
        except (OSError, ValueError):
            return {}


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left in the group and wait for it to be gone."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


@dataclass(frozen=True)
class Plan:
    """How long a phase measures, and how often it repeats regardless."""

    budget: float  # seconds; a round or cycle started in time is finished
    rounds: int  # sweep or sampled rounds made even past the budget
    setups: int  # set-ups measured, adding bare ones after the load if short


@dataclass
class Phase:
    """Raw samples of one measured phase, plus what its verification found."""

    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    model: Dict[str, int] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.notes.append(message)


class Bench:
    """One benchmark run: its scale, seed, scratch space and tracer."""

    def __init__(self, scale: inputs.Scale, seed: int, work: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.work = work
        self.expected = expected.load()[scale.name]
        self.tracer: Optional[tracing.Tracer] = None
        self._dirs = itertools.count()

    def fresh(self, label: str) -> Path:
        path = self.work / f"{label}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def trace_args(self) -> List[str]:
        if self.tracer is None:
            return []
        return ["--trace-dir", str(self.tracer.out_dir)]

    def launch_server(self, root: Path, model: Optional[str] = None):
        """Start ``repro serve``; returns (child, client) once health is OK."""
        from repro.client import SweepClient

        argv = ["serve", "--store", str(root / "store"), *self.trace_args()]
        if model is not None:
            argv += ["--surrogate-model", model]
        child = Child(argv, root / "stats.json")
        try:
            line = child.readline()
            match = re.search(r"http://([^:/\s]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"unexpected server banner: {line!r}")
            client = SweepClient(f"{match.group(1)}:{match.group(2)}", timeout=120.0)
            client.health()
        except BaseException:
            child.stop()
            raise
        return child, client


def model_counts(results) -> Dict[str, int]:
    """Simulated (not host) counts summed over ``results``."""
    return {
        f"model.{name}_n": sum(getattr(r.pipeline, name) for r in results)
        for name in ("committed_uops", "cycles", "violations", "branch_mispredicts")
    }


# -------------------------------------------------------------------- sweeps --


def sweep_phase(bench: Bench, backend: str, plan: Plan) -> Phase:
    scale = bench.scale
    cells = [(w, p) for w in scale.sweep_workloads for p in scale.sweep_predictors]
    ops = len(cells) * scale.sweep_ops
    phase = Phase()
    samples = phase.samples
    begin = time.monotonic()
    for rounds in itertools.count():
        if rounds >= plan.rounds and time.monotonic() - begin >= plan.budget:
            break
        root = bench.fresh("sweep")
        child, client = bench.launch_server(root)
        samples["setup_s"].append(time.monotonic() - child.started)
        latencies: List[float] = []
        results = {}
        start = time.monotonic()
        try:
            with bench.span("client.sweep"):
                with bench.span("client.http"):
                    receipt = client.submit_grid(
                        scale.sweep_workloads,
                        scale.sweep_predictors,
                        num_ops=scale.sweep_ops,
                        backend=backend,
                    )
                with bench.span("client.stream"):
                    for event in client.stream(receipt["id"]):
                        if event.get("event") == "cell" and event["state"] == "ok":
                            latencies.append(time.monotonic() - start)
                with bench.span("client.http"):
                    results = client.results(receipt["id"])
                elapsed = time.monotonic() - start
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            elapsed = time.monotonic() - start
            phase.notes.append(f"sweep round failed: {type(exc).__name__}: {exc}")
        finally:
            stats = child.stop()
        phase.attempted += len(cells)
        wrong = [
            expected.cell_name(w, p)
            for w, p in cells
            if (w, p) not in results
            or expected.digest(results[(w, p)].to_record())
            != bench.expected["sweep"][expected.cell_name(w, p)]
        ]
        if wrong:
            phase.fail(len(wrong), f"sweep cells wrong or missing: {wrong}")
        elif not phase.model:
            phase.model = model_counts(results.values())
        samples["unit_s"].append(elapsed)
        samples["kops_per_s"].append(ops / elapsed / 1000.0)
        samples["result_ms"].extend(1000.0 * value for value in latencies)
        if latencies:
            samples["first_result_s"].append(min(latencies))
        samples["server_rss_mb"].append(stats.get("rss_mb", 0.0))
        samples["worker_rss_mb"].append(stats.get("children_rss_mb", 0.0))
    while len(samples["setup_s"]) < plan.setups:
        child, _client = bench.launch_server(bench.fresh("setup"))
        samples["setup_s"].append(time.monotonic() - child.started)
        child.stop()
    return phase


# ----------------------------------------------------------------- serve-mix --


def fabricate_model(root: Path) -> str:
    """Train a surrogate on a fabricated store; returns the artifact path.

    Prediction cost depends on matrix shapes and ensemble size, not on the
    values fitted, so invented results serve as well as simulated ones.
    """
    from repro.core.config import CoreConfig
    from repro.core.pipeline import PipelineStats
    from repro.harness.store import ResultStore, cell_key
    from repro.mdp.base import MDPStats
    from repro.sim.metrics import SimResult
    from repro.surrogate.dataset import build_store_dataset
    from repro.surrogate.model import train_model
    from repro.workloads.spec2017 import spec_suite

    store = ResultStore(root / "fabricated")
    for wi, workload in enumerate(spec_suite()[:8]):
        for pi, predictor in enumerate(inputs.PAPER_PREDICTORS):
            store.put(
                cell_key(workload, predictor, CoreConfig(), 8000, None),
                SimResult(
                    workload=workload,
                    predictor=predictor,
                    core="alderlake",
                    pipeline=PipelineStats(
                        committed_uops=10_000,
                        cycles=4000 + 317 * wi + 523 * pi,
                        loads=2500,
                        stores=1200,
                        branches=900,
                        violations=2 * wi + 3 * pi,
                    ),
                    mdp=MDPStats(load_predictions=2500, trainings=2 * wi + 3 * pi),
                ),
            )
    model = train_model(build_store_dataset(store.root))
    return str(model.save(root / "model"))


def _serve_setup(bench: Bench):
    """Train a model, start a server with it, run the grid reads resubmit.

    Returns (child, client, model path).
    """
    scale = bench.scale
    root = bench.fresh("serve")
    model = fabricate_model(root)
    child, client = bench.launch_server(root, model=model)
    try:
        with bench.span("client.setup"):
            receipt = client.submit_grid(
                scale.grid_workloads, scale.sweep_predictors, num_ops=scale.grid_ops
            )
            for _ in client.stream(receipt["id"]):
                pass
    except BaseException:
        child.stop()
        raise
    return child, client, model


def serve_phase(bench: Bench, plan: Plan) -> Phase:
    scale = bench.scale
    suite = scale.suite_workloads()
    grid = [(w, p) for w in scale.grid_workloads for p in scale.sweep_predictors]
    phase = Phase()
    samples = phase.samples
    started = time.monotonic()
    child, client, model = _serve_setup(bench)
    samples["setup_s"].append(time.monotonic() - started)

    reads, writes, predicts = [], [], []

    def read():
        with bench.span("client.read"):
            with bench.span("client.http"):
                receipt = client.submit_grid(
                    scale.grid_workloads, scale.sweep_predictors, num_ops=scale.grid_ops
                )
            with bench.span("client.http"):
                reads.append((receipt, client.results(receipt["id"])))

    def write(cell):
        workload, predictor, seed = cell
        with bench.span("client.write"):
            with bench.span("client.http"):
                receipt = client.submit_grid(
                    [workload], [predictor], num_ops=scale.write_ops, seed=seed
                )
            with bench.span("client.stream"):
                for _ in client.stream(receipt["id"]):
                    pass
            with bench.span("client.http"):
                writes.append((cell, receipt, client.results(receipt["id"])))

    def predict():
        with bench.span("client.predict"):
            with bench.span("client.http"):
                predicts.append(client.predict(
                    suite, scale.sweep_predictors, num_ops=scale.grid_ops
                ))

    stream = inputs.write_stream(bench.seed, scale)
    # A write is the one request that returns a newly simulated result.
    kinds = {"R": ("read_ms", read), "W": ("result_ms", lambda: write(next(stream))),
             "P": ("predict_ms", predict)}
    jobs_seen = None
    try:
        begin = time.monotonic()
        for cycles, cycle in enumerate(inputs.request_cycles(bench.seed)):
            if cycles and time.monotonic() - begin >= plan.budget:
                break
            cycle_start = time.monotonic()
            for kind in cycle:
                key, request = kinds[kind]
                phase.attempted += 1
                start = time.monotonic()
                try:
                    request()
                except Exception as exc:  # noqa: BLE001 — counted, the run goes on
                    phase.fail(1, f"{kind} request failed: {type(exc).__name__}: {exc}")
                samples[key].append(1000.0 * (time.monotonic() - start))
            samples["unit_s"].append(time.monotonic() - cycle_start)
        # One write per cycle: the window's simulated ops over its time.
        samples["kops_per_s"].append(
            scale.write_ops * len(samples["unit_s"]) / sum(samples["unit_s"]) / 1000.0
        )
        jobs_seen = len(client.jobs())
    finally:
        stats = child.stop()
    samples["server_rss_mb"].append(stats.get("rss_mb", 0.0))
    samples["worker_rss_mb"].append(stats.get("children_rss_mb", 0.0))
    _verify_serve(bench, phase, model, grid, suite, reads, writes, predicts, jobs_seen)
    while len(samples["setup_s"]) < plan.setups:
        started = time.monotonic()
        child, _client, _model = _serve_setup(bench)
        samples["setup_s"].append(time.monotonic() - started)
        child.stop()
    return phase


def _verify_serve(bench, phase, model, grid, suite, reads, writes, predicts, jobs_seen):
    scale = bench.scale
    want = bench.expected
    for receipt, results in reads:
        if receipt["scheduled"] != 0 or set(results) != set(grid) or any(
            expected.digest(results[cell].to_record())
            != want["grid"][expected.cell_name(*cell)]
            for cell in grid
        ):
            phase.fail(1, f"read {receipt['id']} was rescheduled or wrong")
    if reads and not phase.failed:
        phase.model = model_counts(reads[0][1].values())
    names = [expected.cell_name(*cell) for cell, _, _ in writes]
    digests = dict(want["writes"]) if bench.seed == 1 else {}
    missing = [cell for (cell, _, _), name in zip(writes, names) if name not in digests]
    if missing:
        digests.update(expected.reference_digests(
            [(w, p, scale.write_ops, seed) for w, p, seed in missing]))
        phase.notes.append(
            f"{len(missing)} write digests computed with the reference backend "
            "after the timed window (not in expected.json)"
        )
    for ((workload, predictor, _), receipt, results), name in zip(writes, names):
        result = results.get((workload, predictor))
        if receipt["scheduled"] != 1 or result is None or (
            expected.digest(result.to_record()) != digests[name]
        ):
            phase.fail(1, f"write {name} returned a wrong or missing result")
    if predicts:
        reference = expected.predictions(model, suite, scale.sweep_predictors,
                                         scale.grid_ops)
        for payload in predicts:
            if not expected.predictions_match(payload["predictions"], reference):
                phase.fail(1, "a predict response differs from the in-process model")
    # One job for the set-up grid, one per read and write, none per predict.
    if jobs_seen is not None and jobs_seen != 1 + len(reads) + len(writes):
        phase.fail(len(predicts), f"server holds {jobs_seen} jobs; predicts made jobs")


# -------------------------------------------------------------- sampled-long --


def sampled_phase(bench: Bench, plan: Plan) -> Phase:
    workload, predictor, ops = bench.scale.sampled
    phase = Phase()
    samples = phase.samples

    def launch() -> Child:
        root = bench.fresh("sampled")
        child = Child(
            ["sample", "--checkpoints", str(root / "checkpoints"),
             "--workload", workload, "--predictor", predictor,
             "--num-ops", str(ops), *bench.trace_args()],
            root / "stats.json",
        )
        try:
            if child.readline() != "ready":
                raise RuntimeError("sampling process did not report ready")
        except BaseException:
            child.stop()
            raise
        samples["setup_s"].append(time.monotonic() - child.started)
        return child

    begin = time.monotonic()
    for rounds in itertools.count():
        if rounds >= plan.rounds and time.monotonic() - begin >= plan.budget:
            break
        child = launch()
        out = None
        try:
            child.send("go")
            out = json.loads(child.readline())
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            phase.notes.append(f"sampled round failed: {type(exc).__name__}: {exc}")
        finally:
            stats = child.stop(terminate=False)
        phase.attempted += 2
        if out is None:
            phase.fail(2, "sampled round produced no result")
            continue
        for run in ("cold", "warm"):
            if expected.digest(out[run]) != bench.expected["sampled"][run]:
                phase.fail(1, f"sampled {run} estimate differs from expected.json")
        if not phase.model:
            from repro.sim.metrics import SimResult

            phase.model = model_counts([SimResult.from_record(out["cold"])])
        elapsed = out["cold_s"] + out["warm_s"]
        samples["unit_s"].append(elapsed)
        samples["kops_per_s"].append(2 * ops / elapsed / 1000.0)
        samples["result_ms"] += [1000.0 * out["cold_s"], 1000.0 * out["warm_s"]]
        samples["server_rss_mb"].append(stats.get("rss_mb", 0.0))
        samples["worker_rss_mb"].append(stats.get("children_rss_mb", 0.0))
    while len(samples["setup_s"]) < plan.setups:
        launch().stop(terminate=False)
    return phase


PHASES: Dict[str, Callable[[Bench, Plan], Phase]] = {
    "sweep-ref": lambda bench, plan: sweep_phase(bench, "reference", plan),
    "sweep-batch": lambda bench, plan: sweep_phase(bench, "batch", plan),
    "serve-mix": serve_phase,
    "sampled-long": sampled_phase,
}
WORKLOADS = tuple(PHASES)


# ------------------------------------------------------------------- metrics --


def end_to_end(phase: Phase) -> Dict[str, Dict[str, object]]:
    """Headline metrics (and per-workload detail) from a phase's samples.

    Host-time values are scaled to the reference host speed: divided by
    ``host_factor`` (times) or multiplied by it (rates). ``wall`` keeps the
    value the wall clock read.
    """
    samples = phase.samples
    factor = hostclock.host_factor(samples["host_s"])
    values = {
        "setup_s": (statistics.median, "setup_s"),
        "sim_kops_per_s": (statistics.median, "kops_per_s"),
        "result_p50_ms": (lambda v: percentile(v, 50), "result_ms"),
        "result_p90_ms": (lambda v: percentile(v, 90), "result_ms"),
        "server_rss_mb": (statistics.median, "server_rss_mb"),
        "worker_rss_mb": (statistics.median, "worker_rss_mb"),
        "first_result_s": (statistics.median, "first_result_s"),
    }
    for kind in ("read", "predict"):
        values[f"{kind}_p50_ms"] = (lambda v: percentile(v, 50), f"{kind}_ms")
        values[f"{kind}_p90_ms"] = (lambda v: percentile(v, 90), f"{kind}_ms")
    scale = {"s": 1.0 / factor, "ms": 1.0 / factor, "kops/s": factor}
    out: Dict[str, Dict[str, object]] = {}
    for name, (reduce, key) in values.items():
        if samples.get(key):
            unit = unit_of(name)
            wall = reduce(samples[key])
            out[name] = {"value": wall * scale.get(unit, 1.0), "unit": unit,
                         "n": len(samples[key])}
            if unit in scale:
                out[name]["wall"] = wall
    out["host_factor"] = {"value": factor, "unit": unit_of("host_factor"),
                          "n": len(samples["host_s"])}
    out["failed_frac"] = {
        "value": phase.failed / phase.attempted if phase.attempted else 1.0,
        "unit": unit_of("failed_frac"),
        "n": phase.attempted,
    }
    return out


def run(name: str, scale: inputs.Scale, seed: int, seconds: float, trace: bool,
        work: Path) -> Dict[str, object]:
    """Run one workload; returns its report (metrics, samples, verification).

    Untraced, the phase gets all of ``seconds``; traced, an untraced half
    comes first and a traced half follows.
    """
    bench = Bench(scale, seed, work)
    run_phase = PHASES[name]
    if trace:
        plan = Plan(budget=seconds / 2, rounds=1, setups=1)
    else:
        plan = Plan(budget=seconds, rounds=2, setups=3)
    with hostclock.HostClock() as clock:
        phase = run_phase(bench, plan)
    phase.samples["host_s"] = clock.samples
    phases = [phase]
    per_layer: Dict[str, Dict[str, object]] = {}
    if trace:
        bench.tracer = tracing.Tracer(work / "spans")
        tracing.install_client(bench.tracer)
        try:
            traced = run_phase(bench, plan)
        finally:
            bench.tracer.close()
        phases.append(traced)
        layers = ledger.compute(tracing.load_spans(work / "spans"))
        layers.update(traced.model)
        layers["trace.overhead"] = statistics.mean(traced.samples["unit_s"]) / (
            statistics.mean(phase.samples["unit_s"])
        )
        per_layer = {
            key: {"value": value, "unit": unit_of(key)}
            for key, value in layers.items()
            if value is not None
        }
    return {
        "workload": name,
        "scale": scale.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": all(p.failed == 0 for p in phases) and bool(phase.model),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "notes": [note for p in phases for note in p.notes],
        "end_to_end": end_to_end(phase),
        "per_layer": per_layer,
        "model": phase.model,
        "samples": [dict(p.samples) for p in phases],
    }
