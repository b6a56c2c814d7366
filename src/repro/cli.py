"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one (workload, predictor) pair and print the result.
* ``suite`` — run a predictor roster over workloads, print Fig. 15-style
  normalised IPC and the mean-speedup summary.
* ``sweep`` — fault-tolerant resumable sweep: per-cell worker processes,
  timeouts, retries, a durable result store and a failure manifest
  (``--resume`` to continue a killed campaign, ``--status`` to inspect it).
* ``probe`` — simulate one pair with interval metrics enabled and print the
  per-window IPC / violation-MPKI / occupancy table (``--json`` to export).
* ``sample`` — checkpointed sampled run (``repro.sampling``): functional
  warming to SimPoint representatives, detailed interval runs (optionally
  fanned out across workers), weighted estimate with 95% sampling CIs.
* ``trace`` — manage the compiled trace artifact store
  (``trace compile`` / ``trace ls`` / ``trace verify``).
* ``chaos`` — deterministic fault-injection soak: run a sweep twice (clean,
  then under a seeded :class:`~repro.harness.chaos.FaultPlan`) and gate on
  completion, fault classification, and bit-identical surviving results.
* ``serve`` — simulation-as-a-service: the asyncio HTTP front door
  (wire schema v1, store dedupe before scheduling, SSE progress; see
  docs/server.md).
* ``submit`` — submit a grid to a running ``repro serve`` via
  :class:`repro.client.SweepClient` and (by default) wait for it.
* ``backends`` — inspect the execution-backend registry
  (``backends ls``); ``sweep --backend batch`` selects one for a campaign.
* ``export`` — run a sweep and write JSON records (``--provenance`` for the
  self-contained format the surrogate dataset builder consumes).
* ``surrogate`` — the learned IPC/MPKI surrogate (docs/surrogate.md):
  ``build`` a dataset from a store or provenance export, ``train`` the
  bagged-ridge ensemble, ``eval`` held-out error/coverage with CI gates,
  ``predict`` a grid without simulating; ``sweep --surrogate triage``
  settles tight-CI cells from the model.
* ``workloads`` — list the synthetic SPEC CPU 2017-like profiles.
* ``predictors`` — list the predictor registry with storage budgets.
* ``table2`` — print the reproduced Table II (configurations/storage/energy).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional

from repro.analysis.export import dump_results, intervals_to_records
from repro.analysis.report import format_table
from repro.common.atomicio import atomic_write_text
from repro.common.stats import geometric_mean
from repro.core.config import GENERATIONS, CoreConfig
from repro.harness.chaos import FaultPlan
from repro.harness.executor import ProcessCellExecutor
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.isa.artifacts import ENV_TRACE_STORE, CheckpointStore, TraceStore
from repro.mdp.storage import format_table2
from repro.sampling import run_sampled
from repro.sim.backends import available_backends, get_backend
from repro.sim.intervals import DEFAULT_INTERVAL_OPS
from repro.sim.spec import RunSpec
from repro.sim.simulator import (
    available_predictors,
    default_num_ops,
    make_predictor,
    parse_predictor,
    run_spec,
    simulate,
)
from repro.workloads.spec2017 import SPEC_PROFILES, spec_suite, workload

#: Default durable store location; flags override, env overrides the default.
ENV_STORE = "REPRO_RESULT_STORE"
DEFAULT_STORE = ".repro-store"
#: Help of the one-predictor commands' positional.
PREDICTOR_HELP = (
    "a predictor name ('repro predictors') or a variant label such as "
    "'phast(target_bits=0)'"
)


def _default_trace_store() -> str:
    """$REPRO_TRACE_STORE, else ``traces/`` under the default result store."""
    explicit = os.environ.get(ENV_TRACE_STORE)
    if explicit:
        return explicit
    return os.path.join(os.environ.get(ENV_STORE, DEFAULT_STORE), "traces")


def _core_config(name: str) -> CoreConfig:
    try:
        return GENERATIONS[name]
    except KeyError:
        raise SystemExit(
            f"unknown core {name!r}; available: {', '.join(sorted(GENERATIONS))}"
        )


def _split_predictors(text: str) -> List[str]:
    """Split a ``--predictors`` list on the commas outside parentheses.

    ``"phast,phast(history_lengths=(0,8),target_bits=0)"`` is two labels;
    a comma is inside a label when a ``)`` follows it before any ``(``.
    """
    return re.split(r",(?![^()]*\))", text)


def _predictor_label(label: str) -> str:
    """A predictor name or variant label, checked like a worker would."""
    try:
        parse_predictor(label)
    except KeyError:
        raise argparse.ArgumentTypeError(f"unknown predictor {label!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return label


def _predictors(args: argparse.Namespace) -> List[str]:
    """The ``--predictors`` labels, each checked like a worker would."""
    predictors = _split_predictors(args.predictors)
    for label in predictors:
        try:
            _predictor_label(label)
        except argparse.ArgumentTypeError as exc:
            raise SystemExit(str(exc)) from None
    return predictors


def _workloads(args: argparse.Namespace) -> List[str]:
    """``--workloads`` when given, else the first ``--subset`` SPEC workloads."""
    return args.workloads.split(",") if args.workloads else spec_suite(args.subset)


def _known_workloads(args: argparse.Namespace) -> List[str]:
    """:func:`_workloads`, refusing a name that is not a SPEC profile."""
    names = _workloads(args)
    for name in names:
        if name not in SPEC_PROFILES:
            raise SystemExit(f"unknown workload {name!r}")
    return names


def _cmd_run(args: argparse.Namespace) -> int:
    result = simulate(
        RunSpec(
            workload=args.workload,
            predictor=args.predictor,
            config=_core_config(args.core),
            num_ops=args.num_ops,
            seed=args.seed,
            check_invariants=True if args.check_invariants else None,
        )
    )
    print(result.summary())
    stats = result.pipeline
    print(
        f"cycles={stats.cycles}  committed={stats.committed_uops}  "
        f"loads={stats.loads}  stores={stats.stores}  "
        f"branches={stats.branches} (mispredicted {stats.branch_mispredicts})"
    )
    print(
        f"violations={stats.violations}  false_positives={stats.false_positives}  "
        f"correct_waits={stats.correct_waits}  forwarded={stats.forwarded_loads}  "
        f"partial={stats.partial_loads}"
    )
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    result = simulate(
        RunSpec(
            workload=args.workload,
            predictor=args.predictor,
            config=_core_config(args.core),
            num_ops=args.num_ops,
            seed=args.seed,
            interval_ops=args.interval_ops,
        )
    )
    rows = []
    for window in result.intervals:
        ops = f"{window.start_op}-{window.end_op}" + ("*" if window.partial else "")
        rows.append(
            [
                window.index,
                ops,
                window.cycles,
                f"{window.ipc:.3f}",
                f"{window.violation_mpki:.3f}",
                f"{window.branch_mpki:.3f}",
                f"{window.occupancy:.1f}",
            ]
        )
    print(
        format_table(
            ["window", "ops", "cycles", "ipc", "viol_mpki", "br_mpki", "rob_occ"],
            rows,
            title=(
                f"{args.workload}/{args.predictor} per-{args.interval_ops}-op "
                f"intervals ({args.core}, {args.num_ops} ops; * = partial window)"
            ),
        )
    )
    print(result.summary())
    if args.json:
        records = intervals_to_records(result)
        atomic_write_text(args.json, json.dumps(records, indent=2) + "\n")
        print(f"wrote {len(records)} interval records to {args.json}")
    return 0


def _run_cells(
    args: argparse.Namespace, workloads: List[str], predictors: List[str]
) -> dict:
    """(workload, predictor) -> result, each distinct cell simulated once."""
    config = _core_config(args.core)
    return {
        (name, predictor): run_spec(
            RunSpec(name, predictor, config, num_ops=args.num_ops, seed=args.seed)
        )
        for name in workloads
        for predictor in dict.fromkeys(predictors)
    }


def _cmd_suite(args: argparse.Namespace) -> int:
    workloads = spec_suite(subset=args.subset)
    predictors = _predictors(args)
    config = _core_config(args.core)
    results = _run_cells(args, workloads, ["ideal"] + predictors)

    rows = []
    normalized = {name: [] for name in predictors}
    for workload_name in workloads:
        row: List[object] = [workload_name]
        for name in predictors:
            result = results[workload_name, name]
            ratio = result.ipc / results[workload_name, "ideal"].ipc
            normalized[name].append(ratio)
            row.append(ratio)
        rows.append(row)
    rows.append(["GEOMEAN"] + [geometric_mean(normalized[n]) for n in predictors])
    print(
        format_table(
            ["workload"] + predictors,
            rows,
            title=f"IPC normalised to ideal ({config.name}, {args.num_ops} ops)",
        )
    )
    return 0


def _cmd_workloads(_: argparse.Namespace) -> int:
    rows = [
        [name, profile.seed, profile.description]
        for name, profile in sorted(SPEC_PROFILES.items())
    ]
    print(format_table(["workload", "seed", "character"], rows))
    return 0


def _cmd_predictors(_: argparse.Namespace) -> int:
    rows = []
    for name in available_predictors():
        predictor = make_predictor(name)
        kb = predictor.storage_kb()
        rows.append([name, f"{kb:.2f}" if kb else "-", type(predictor).__name__])
    print(format_table(["predictor", "KB", "class"], rows))
    return 0


def _cmd_backends_ls(_: argparse.Namespace) -> int:
    rows = []
    for name in available_backends():
        row = get_backend(name).describe()
        rows.append(
            [
                name,
                row.get("class", "-"),
                "yes" if row.get("available", True) else "no",
                str(row.get("coverage", "-")),
            ]
        )
    print(format_table(["backend", "class", "available", "coverage"], rows))
    return 0


def _cmd_table2(_: argparse.Namespace) -> int:
    print(format_table2())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    workloads = spec_suite(subset=args.subset)
    predictors = _predictors(args)
    config = _core_config(args.core)
    if args.provenance:
        # Provenance export: full RunSpec wire dicts plus interval records,
        # so a surrogate dataset built from this file featurizes exactly
        # like one built from the originating store (docs/surrogate.md).
        from repro.analysis.export import dump_provenance

        pairs = []
        for name in workloads:
            for predictor in predictors:
                spec = RunSpec(
                    workload=name,
                    predictor=predictor,
                    config=config,
                    num_ops=args.num_ops,
                    seed=args.seed,
                    interval_ops=args.interval_ops or None,
                )
                pairs.append((spec, run_spec(spec)))
        dump_provenance(pairs, args.output)
        print(f"wrote {len(pairs)} provenance records to {args.output}")
        return 0
    results = list(_run_cells(args, workloads, predictors).values())
    dump_results(results, args.output)
    print(f"wrote {len(results)} records to {args.output}")
    return 0


def _cmd_trace_compile(args: argparse.Namespace) -> int:
    store = TraceStore(args.store)
    names = _known_workloads(args)
    built = loaded = 0
    for name in names:
        profile = workload(name, seed=args.seed)
        _, was_built = store.compile(profile, args.num_ops)
        built += was_built
        loaded += not was_built
    # A fresh compile pass defines the new "zero rebuilds" baseline.
    store.clear_rebuilds()
    print(
        f"trace store: {store.root} — compiled {built}, "
        f"already stored {loaded} ({args.num_ops} ops each)"
    )
    return 0


def _cmd_trace_ls(args: argparse.Namespace) -> int:
    store = TraceStore(args.store)
    entries = store.entries()
    rows = [
        [
            str(entry.get("workload")),
            entry.get("seed"),
            entry.get("num_ops"),
            entry.get("generator_version"),
            entry.get("bytes"),
            str(entry.get("key"))[:12],
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["workload", "seed", "num_ops", "gen", "bytes", "digest"],
            rows,
            title=f"{store.root}: {len(entries)} artifacts, "
            f"{store.rebuild_count()} rebuild markers",
        )
    )
    return 0


def _cmd_trace_verify(args: argparse.Namespace) -> int:
    store = TraceStore(args.store)
    problems = store.verify()
    checked = len(store.entries())
    if args.deep:
        # Regenerate each trace from its profile and compare op-for-op: the
        # strongest guarantee that replaying artifacts cannot change results.
        from repro.workloads.generator import GENERATOR_VERSION, build_trace

        for entry in store.entries():
            name, seed = str(entry.get("workload")), entry.get("seed")
            num_ops = entry.get("num_ops")
            digest = str(entry.get("key"))[:12]
            if entry.get("generator_version") != GENERATOR_VERSION:
                problems.append(
                    f"{digest}: generator {entry.get('generator_version')} != "
                    f"current {GENERATOR_VERSION} (stale artifact)"
                )
                continue
            if name not in SPEC_PROFILES:
                problems.append(f"{digest}: unknown workload {name!r}")
                continue
            from repro.isa.artifacts import TraceKey

            stored = store.load(TraceKey(digest=str(entry["key"]), describe=entry))
            if stored is None:
                continue  # already reported by the shallow pass
            fresh = build_trace(workload(name, seed=seed), int(num_ops))
            if list(stored.ops) != list(fresh.ops):
                problems.append(f"{digest}: ops differ from a fresh build")
    for problem in problems:
        print(f"PROBLEM {problem}")
    mode = "deep" if args.deep else "shallow"
    print(
        f"trace store: {store.root} — verified {checked} artifacts "
        f"({mode}), {len(problems)} problems"
    )
    return 1 if problems else 0


def _surrogate_tier(mode: Optional[str], model_path: Optional[str], store):
    """Resolve the sweep's surrogate tier from flags/env, or None when off.

    A non-``off`` mode without a model path is an operator error: the sweep
    must not silently run full-detail when triage was asked for.
    """
    from repro.surrogate.triage import (
        SurrogateStore,
        default_mode,
        default_model_path,
        load_tier,
    )

    resolved_mode = mode if mode is not None else default_mode()
    if resolved_mode == "off":
        return None
    resolved_path = (
        model_path if model_path is not None else default_model_path()
    )
    if not resolved_path:
        raise SystemExit(
            f"--surrogate {resolved_mode} needs a model: pass "
            "--surrogate-model or set REPRO_SURROGATE_MODEL "
            "(train one with 'repro surrogate train')"
        )
    from repro.surrogate.model import SurrogateError

    try:
        return load_tier(
            resolved_path,
            mode=resolved_mode,
            store=SurrogateStore(store.root),
        )
    except SurrogateError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_surrogate_build(args: argparse.Namespace) -> int:
    from repro.analysis.export import load_provenance
    from repro.surrogate.dataset import (
        build_dataset,
        extract_store_records,
        records_from_provenance,
    )

    if args.provenance:
        records, skipped = records_from_provenance(
            load_provenance(args.provenance)
        )
        source = args.provenance
    else:
        records, skipped = extract_store_records(args.store)
        source = args.store
    if not records:
        raise SystemExit(
            f"no usable completed cells in {source} "
            f"({skipped} skipped); run a sweep first"
        )
    dataset = build_dataset(records, skipped=skipped)
    destination = args.output or os.path.join(args.store, "datasets")
    path = dataset.save(destination)
    print(dataset.summary())
    print(f"wrote {path}")
    return 0


def _cmd_surrogate_train(args: argparse.Namespace) -> int:
    from repro.surrogate.dataset import load_dataset
    from repro.surrogate.model import SurrogateError, train_model

    dataset = load_dataset(args.dataset)
    if dataset is None:
        raise SystemExit(
            f"dataset at {args.dataset} is missing or corrupt; "
            "rebuild it with 'repro surrogate build'"
        )
    try:
        model = train_model(
            dataset,
            members=args.members,
            ridge=args.ridge,
            seed=args.train_seed,
            level=args.level,
        )
    except SurrogateError as exc:
        raise SystemExit(str(exc)) from exc
    destination = args.output or os.path.dirname(args.dataset) or "."
    path = model.save(destination)
    print(model.summary())
    print(f"wrote {path}")
    return 0


def _cmd_surrogate_eval(args: argparse.Namespace) -> int:
    from repro.surrogate.dataset import load_dataset
    from repro.surrogate.model import SurrogateError, load_model

    dataset = load_dataset(args.dataset)
    if dataset is None:
        raise SystemExit(f"dataset at {args.dataset} is missing or corrupt")
    model = load_model(args.model)
    if model is None:
        raise SystemExit(f"model at {args.model} is missing or corrupt")
    try:
        metrics = model.evaluate(dataset, split=args.split)
    except SurrogateError as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        rows = [
            [
                target,
                stats["rows"],
                f"{stats['mae']:.4f}",
                f"{stats['mape']:.4f}",
                f"{stats['coverage']:.3f}",
                f"{stats['mean_halfwidth']:.4f}",
            ]
            for target, stats in metrics.items()
        ]
        print(
            format_table(
                ["target", "rows", "mae", "mape", "coverage", "halfwidth"],
                rows,
                title=f"{args.split} split, nominal level {model.level:g}",
            )
        )
    failed = []
    if args.max_ipc_mape is not None:
        if metrics["ipc"]["mape"] > args.max_ipc_mape:
            failed.append(
                f"ipc MAPE {metrics['ipc']['mape']:.4f} > "
                f"bound {args.max_ipc_mape}"
            )
    if args.max_mpki_mae is not None:
        if metrics["violation_mpki"]["mae"] > args.max_mpki_mae:
            failed.append(
                f"violation-MPKI MAE {metrics['violation_mpki']['mae']:.4f} "
                f"> bound {args.max_mpki_mae}"
            )
    if args.min_coverage is not None:
        for target in ("ipc", "violation_mpki"):
            if metrics[target]["coverage"] < args.min_coverage:
                failed.append(
                    f"{target} coverage {metrics[target]['coverage']:.3f} < "
                    f"required {args.min_coverage}"
                )
    for problem in failed:
        print(f"GATE FAILED: {problem}")
    if not failed and (
        args.max_ipc_mape is not None
        or args.max_mpki_mae is not None
        or args.min_coverage is not None
    ):
        print("OK: all calibration gates passed")
    return 1 if failed else 0


def _cmd_surrogate_predict(args: argparse.Namespace) -> int:
    from repro.surrogate.model import SurrogateError, load_model

    workloads = _known_workloads(args)
    predictors = _predictors(args)
    model = load_model(args.model)
    if model is None:
        raise SystemExit(f"model at {args.model} is missing or corrupt")
    config = _core_config(args.core)
    cells = [
        (name, predictor, config, args.num_ops, args.seed)
        for name in workloads
        for predictor in predictors
    ]
    try:
        estimates = model.predict_cells(cells)
    except SurrogateError as exc:
        raise SystemExit(str(exc)) from exc
    for (name, predictor, _, _, _), predicted in zip(cells, estimates):
        predicted["workload"] = name
        predicted["predictor"] = predictor
    if args.json:
        print(json.dumps(estimates, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            est["workload"],
            est["predictor"],
            f"{est['ipc']:.3f}±{est['ipc_ci']:.3f}",
            f"{est['violation_mpki']:.3f}±{est['violation_mpki_ci']:.3f}",
            "yes" if est["novel"] else "",
        ]
        for est in estimates
    ]
    print(
        format_table(
            ["workload", "predictor", "ipc", "violation_mpki", "novel"],
            rows,
            title=(
                f"surrogate estimates @{model.level:g} "
                f"(model {model.content_sha256[:12]})"
            ),
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    workloads = spec_suite(subset=args.subset)
    predictors = _predictors(args)
    cells = build_cells(
        workloads,
        predictors,
        config=_core_config(args.core),
        num_ops=args.num_ops,
        seed=args.seed,
        backend=args.backend,
    )
    store = ResultStore(args.store)
    runner = SweepRunner(
        store,
        ProcessCellExecutor(
            timeout=args.timeout,
            retries=args.retries,
            workers=args.workers,
            check_invariants=args.check_invariants,
            jitter_seed=args.jitter_seed,
            breaker_threshold=args.breaker_threshold,
        ),
    )

    if args.status:
        status = runner.status(cells)
        print(f"store: {store.root}")
        print(status.summary())
        return 0

    surrogate_tier = _surrogate_tier(
        args.surrogate, args.surrogate_model, store
    )

    def progress(outcome) -> None:
        spec = outcome.spec
        if outcome.ok:
            tag = "cached" if outcome.cached else "ok"
            print(f"  [{tag}] {spec.workload}/{spec.predictor}")
        elif outcome.estimate is not None:
            print(
                f"  [surrogate] {spec.workload}/{spec.predictor} "
                f"{outcome.estimate.summary()}"
            )
        else:
            print(f"  {outcome.failure.summary()}")

    report = runner.run(
        cells,
        resume=not args.no_resume,
        progress=progress,
        deadline=args.deadline,
        quarantine=args.quarantine,
        surrogate=surrogate_tier,
    )
    print(report.summary())
    print(f"failure manifest: {store.manifest_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server.http import serve

    try:
        asyncio.run(
            serve(
                args.store,
                host=args.host,
                port=args.port,
                workers=args.workers,
                timeout=args.timeout,
                retries=args.retries,
                dispatchers=args.dispatchers,
                lease_ttl=args.lease_ttl,
                surrogate_model=args.surrogate_model,
                surrogate_mode=args.surrogate,
            )
        )
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.client import ServerError, SweepClient

    client = SweepClient(args.server, tenant=args.tenant)
    workloads = _workloads(args)
    try:
        receipt = client.submit_grid(
            workloads,
            _split_predictors(args.predictors),
            config=_core_config(args.core),
            num_ops=args.num_ops,
            seed=args.seed,
            check_invariants=args.check_invariants,
            backend=args.backend,
        )
    except ServerError as exc:
        raise SystemExit(f"submit rejected: {exc}") from exc
    print(
        f"submitted {receipt['id']}: {receipt['cells']} cells "
        f"(cached={receipt['cached']}, scheduled={receipt['scheduled']})"
    )
    if args.no_wait:
        return 0
    status = client.wait(receipt["id"], timeout=args.wait_timeout)
    summary = status.get("summary") or ""
    print(f"{receipt['id']}: {status['state']} — {summary}".rstrip(" —"))
    return 0 if status["state"] == "completed" else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Twin-sweep chaos soak: clean baseline vs. seeded fault injection.

    The gate passes when (1) the chaos sweep completes every cell (no lost
    results), (2) every injected worker fault was classified into exactly
    the FailureKind it simulates, and (3) every surviving chaos result is
    bit-identical to its fault-free twin.
    """
    workloads = spec_suite(subset=args.subset)
    predictors = _predictors(args)

    if args.plan:
        plan = FaultPlan.load(args.plan)
    else:
        plan = FaultPlan.transient(
            args.rate, seed=args.seed, max_faults=args.max_faults
        )
    config = _core_config(args.core)

    def sweep(store_root: str, fault_plan) -> object:
        cells = build_cells(
            workloads,
            predictors,
            config=config,
            num_ops=args.num_ops,
            seed=args.seed_trace,
        )
        runner = SweepRunner(
            ResultStore(store_root),
            ProcessCellExecutor(
                timeout=args.timeout,
                retries=args.retries,
                workers=args.workers,
                backoff_base=args.backoff_base,
                jitter_seed=plan.seed,
            ),
        )
        return runner.run(cells, fault_plan=fault_plan)

    total = len(workloads) * len(predictors)
    print(
        f"chaos soak: {total} cells, plan seed={plan.seed} "
        f"total-rate={plan.total_rate:.2f}"
    )
    baseline = sweep(os.path.join(args.store, "baseline"), None)
    print(f"baseline  {baseline.summary()}")
    chaotic = sweep(os.path.join(args.store, "chaos"), plan)
    print(f"chaos     {chaotic.summary()}")
    summary = chaotic.chaos.summary()
    print(f"injected: {summary['injected']} faults — {summary['by_site']}")

    problems = list(chaotic.chaos.verify())
    lost = total - chaotic.completed - chaotic.failed
    if lost:
        problems.append(f"{lost} cell(s) lost: neither a result nor a failure")
    if chaotic.failed:
        problems.append(
            f"{chaotic.failed} cell(s) failed under chaos "
            "(transient plans must complete after retries)"
        )
    mismatched = 0
    for key, clean_result in baseline.results.items():
        survivor = chaotic.results.get(key)
        if survivor is None:
            continue
        if survivor.to_record() != clean_result.to_record():
            mismatched += 1
            problems.append(f"{key[0]}/{key[1]}: result differs from baseline")
    survivors = len(chaotic.results)
    print(
        f"bit-identity: {survivors - mismatched}/{survivors} surviving "
        f"cells identical to the fault-free baseline"
    )
    for problem in problems:
        print(f"PROBLEM {problem}")
    verdict = "PASS" if not problems else "FAIL"
    print(
        f"chaos soak: {verdict} ({total} cells, {summary['injected']} faults "
        f"injected, {len(problems)} problems)"
    )
    return 1 if problems else 0


def _cmd_sample(args: argparse.Namespace) -> int:
    spec = RunSpec(
        workload=args.workload,
        predictor=args.predictor,
        config=_core_config(args.core),
        num_ops=args.num_ops,
        seed=args.seed,
        check_invariants=True if args.check_invariants else None,
        trace_dir=args.trace_store,
    )
    result = run_sampled(
        spec,
        interval_ops=args.interval_ops,
        warmup_ops=args.warmup_ops,
        max_clusters=args.clusters,
        seed=args.cluster_seed,
        checkpoint_store=CheckpointStore(args.checkpoint_store),
        workers=args.workers,
    )
    sampling = result.sampling
    print(result.summary())
    print(
        f"ipc={sampling.ipc:.4f} ±{sampling.ipc_ci95:.4f}  "
        f"violation_mpki={sampling.violation_mpki:.3f} "
        f"±{sampling.violation_mpki_ci95:.3f}  (95% sampling CI)"
    )
    print(
        f"intervals: {sampling.num_representatives} representatives of "
        f"{sampling.num_intervals} x {sampling.interval_ops} ops "
        f"(+{sampling.warmup_ops}-op detailed lead each); "
        f"detail fraction {sampling.detail_fraction:.4f}"
    )
    print(
        f"checkpoints: reused={sampling.checkpoints_reused} "
        f"warmed={sampling.checkpoints_warmed} store={args.checkpoint_store}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PHAST (HPCA 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Resolved at parser-build time (not import time) so REPRO_TRACE_OPS set
    # by a wrapper script before main() is honoured.
    num_ops_default = default_num_ops()
    from repro.surrogate.triage import (
        default_level as _default_level,
        default_members as _default_members,
        default_ridge as _default_ridge,
        default_seed as _default_seed,
    )

    surrogate_members_default = _default_members()
    surrogate_ridge_default = _default_ridge()
    surrogate_level_default = _default_level()
    surrogate_seed_default = _default_seed()

    run = sub.add_parser("run", help="simulate one workload/predictor pair")
    run.add_argument("workload")
    run.add_argument("predictor", type=_predictor_label, help=PREDICTOR_HELP)
    run.add_argument("--num-ops", type=int, default=num_ops_default)
    run.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    run.add_argument(
        "--seed", type=int, default=None, help="override the workload trace seed"
    )
    run.add_argument(
        "--check-invariants",
        action="store_true",
        help="enable simulator self-checks (fail loudly on model corruption)",
    )
    run.set_defaults(func=_cmd_run)

    probe = sub.add_parser(
        "probe",
        help="per-interval IPC/MPKI/occupancy windows for one pair",
    )
    probe.add_argument("workload")
    probe.add_argument("predictor", type=_predictor_label, help=PREDICTOR_HELP)
    probe.add_argument("--num-ops", type=int, default=num_ops_default)
    probe.add_argument(
        "--interval-ops",
        type=int,
        default=DEFAULT_INTERVAL_OPS,
        help="committed micro-ops per metrics window",
    )
    probe.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    probe.add_argument(
        "--seed", type=int, default=None, help="override the workload trace seed"
    )
    probe.add_argument(
        "--json", default=None, help="also write interval records to this path"
    )
    probe.set_defaults(func=_cmd_probe)

    suite = sub.add_parser("suite", help="predictor roster over the suite")
    suite.add_argument(
        "--predictors", default="store-sets,nosq,mdp-tage,mdp-tage-s,phast"
    )
    suite.add_argument("--num-ops", type=int, default=num_ops_default)
    suite.add_argument("--subset", type=int, default=None)
    suite.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    suite.add_argument(
        "--seed", type=int, default=None, help="override every workload's trace seed"
    )
    suite.set_defaults(func=_cmd_suite)

    sweep = sub.add_parser(
        "sweep",
        help="fault-tolerant resumable sweep with a durable result store",
    )
    sweep.add_argument(
        "--predictors", default="store-sets,nosq,mdp-tage,mdp-tage-s,phast,ideal"
    )
    sweep.add_argument("--num-ops", type=int, default=num_ops_default)
    sweep.add_argument("--subset", type=int, default=None)
    sweep.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument(
        "--store",
        default=os.environ.get(ENV_STORE, DEFAULT_STORE),
        help=f"result store directory (default ${ENV_STORE} or {DEFAULT_STORE})",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds ($REPRO_SWEEP_TIMEOUT)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries for transient failures ($REPRO_SWEEP_RETRIES)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="concurrent worker processes ($REPRO_SWEEP_WORKERS)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from the store (the default; kept as an "
        "explicit flag for campaign scripts)",
    )
    sweep.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore previously stored results and re-simulate every cell",
    )
    sweep.add_argument(
        "--status",
        action="store_true",
        help="report completed/failed/pending counts without running",
    )
    sweep.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="campaign wall-clock budget in seconds: cells still running or "
        "pending when it expires are cut cleanly (kind 'deadline', still "
        "pending on the next resume)",
    )
    sweep.add_argument(
        "--quarantine",
        action="store_true",
        help="skip cells with a durable failure record from a prior run "
        "instead of re-judging them (kind 'quarantined')",
    )
    sweep.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        help="per-workload circuit breaker: after N final failures with no "
        "successes, skip the workload's remaining cells",
    )
    sweep.add_argument(
        "--jitter-seed",
        type=int,
        default=None,
        help="apply seeded equal-jitter to retry backoff (deterministic "
        "per cell and attempt)",
    )
    sweep.add_argument("--check-invariants", action="store_true")
    sweep.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="execution backend for the cells (default $REPRO_SIM_BACKEND "
        "or 'reference'); 'batch' groups cells sharing a trace into one "
        "worker unit with a single decode",
    )
    sweep.add_argument(
        "--surrogate",
        default=None,
        choices=["off", "triage", "only"],
        help="surrogate tier: 'triage' settles tight-CI cells from the "
        "model and simulates the rest; 'only' settles everything "
        "(default $REPRO_SURROGATE or off)",
    )
    sweep.add_argument(
        "--surrogate-model",
        default=None,
        help="trained model artifact for the surrogate tier "
        "(default $REPRO_SURROGATE_MODEL)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP server (wire schema v1, store "
        "dedupe before scheduling, polling + SSE progress)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port to bind (0 = an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--store",
        default=os.environ.get(ENV_STORE, DEFAULT_STORE),
        help=f"shared result store directory (default ${ENV_STORE} or "
        f"{DEFAULT_STORE}) — the same store 'repro sweep' writes, so local "
        "and remote results dedupe against each other",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per job ($REPRO_SWEEP_WORKERS)",
    )
    serve.add_argument("--timeout", type=float, default=None)
    serve.add_argument("--retries", type=int, default=None)
    serve.add_argument(
        "--dispatchers",
        type=int,
        default=None,
        help="concurrent dispatch threads — jobs run at once "
        "($REPRO_SERVE_DISPATCHERS, default 2)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="seconds before a crashed peer's cell claims become "
        "reclaimable when several servers share one store "
        "($REPRO_SERVE_LEASE_TTL, default 300)",
    )
    serve.add_argument(
        "--surrogate-model",
        default=None,
        help="trained surrogate model artifact: enables /v1/predict "
        "(default $REPRO_SURROGATE_MODEL)",
    )
    serve.add_argument(
        "--surrogate",
        default=None,
        choices=["off", "triage", "only"],
        help="let submitted sweeps settle cells from the surrogate "
        "(default $REPRO_SURROGATE or off; /v1/predict works either way)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a (workloads x predictors) grid to a repro serve "
        "instance and wait for it",
    )
    submit.add_argument(
        "--server",
        default="http://127.0.0.1:8321",
        help="base URL of the repro serve instance",
    )
    submit.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: the whole suite)",
    )
    submit.add_argument(
        "--predictors", default="store-sets,nosq,mdp-tage,mdp-tage-s,phast,ideal"
    )
    submit.add_argument("--subset", type=int, default=None)
    submit.add_argument("--num-ops", type=int, default=num_ops_default)
    submit.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--check-invariants", action="store_true")
    submit.add_argument(
        "--backend", default=None, choices=available_backends()
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the submission receipt and return without polling",
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        help="give up polling after this many seconds (exit nonzero)",
    )
    submit.add_argument(
        "--tenant",
        default=None,
        help="tenant id to attribute the submission to (sent as a bearer "
        "token and in the wire 'ext' escape hatch; the server applies "
        "that tenant's quota policy)",
    )
    submit.set_defaults(func=_cmd_submit)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection soak: clean sweep, chaos sweep, then gate on "
        "completion + classification + bit-identical results (exit 1 on "
        "any problem)",
    )
    chaos.add_argument("--predictors", default="store-sets,phast")
    chaos.add_argument("--num-ops", type=int, default=num_ops_default)
    chaos.add_argument("--subset", type=int, default=2)
    chaos.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    chaos.add_argument(
        "--rate",
        type=float,
        default=0.2,
        help="total transient fault rate for the generated plan "
        "(ignored with --plan)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (ignored with --plan)"
    )
    chaos.add_argument(
        "--max-faults",
        type=int,
        default=None,
        help="cap on total injected faults (ignored with --plan)",
    )
    chaos.add_argument(
        "--plan",
        default=None,
        help="JSON FaultPlan file; overrides --rate/--seed/--max-faults",
    )
    chaos.add_argument(
        "--seed-trace",
        type=int,
        default=None,
        help="override every workload's trace seed",
    )
    chaos.add_argument(
        "--store",
        default=os.path.join(os.environ.get(ENV_STORE, DEFAULT_STORE), "chaos-soak"),
        help="soak root; baseline/ and chaos/ stores are created under it",
    )
    chaos.add_argument("--timeout", type=float, default=30.0)
    chaos.add_argument(
        "--retries",
        type=int,
        default=4,
        help="retries per cell — must exceed the fault depth a transient "
        "plan can stack on one cell",
    )
    chaos.add_argument("--workers", type=int, default=None)
    chaos.add_argument(
        "--backoff-base",
        type=float,
        default=0.05,
        help="retry backoff base in seconds (small: injected faults are "
        "not real infrastructure weather)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    sample = sub.add_parser(
        "sample",
        help="checkpointed sampled run: functional warming + representative "
        "intervals with sampling-error bars",
    )
    sample.add_argument("workload")
    sample.add_argument("predictor", type=_predictor_label, help=PREDICTOR_HELP)
    sample.add_argument("--num-ops", type=int, default=num_ops_default)
    sample.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    sample.add_argument(
        "--seed", type=int, default=None, help="override the workload trace seed"
    )
    sample.add_argument(
        "--interval-ops",
        type=int,
        default=None,
        help="measured ops per representative ($REPRO_SAMPLE_INTERVAL_OPS)",
    )
    sample.add_argument(
        "--warmup-ops",
        type=int,
        default=None,
        help="detailed-warmup lead per interval ($REPRO_SAMPLE_WARMUP_OPS)",
    )
    sample.add_argument(
        "--clusters",
        type=int,
        default=5,
        help="maximum SimPoint clusters (= representative intervals)",
    )
    sample.add_argument(
        "--cluster-seed", type=int, default=0, help="k-means clustering seed"
    )
    sample.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = everything inline); above 1, the "
        "interval runs fan out and, under the fork start method with "
        "wrong-path replay off, a helper warms the cache hierarchy on a "
        "second core",
    )
    sample.add_argument(
        "--trace-store",
        default=_default_trace_store(),
        help="trace artifact store directory ($REPRO_TRACE_STORE)",
    )
    sample.add_argument(
        "--checkpoint-store",
        default=os.path.join(os.environ.get(ENV_STORE, DEFAULT_STORE), "checkpoints"),
        help="checkpoint artifact store directory",
    )
    sample.add_argument("--check-invariants", action="store_true")
    sample.set_defaults(func=_cmd_sample)

    trace = sub.add_parser(
        "trace",
        help="manage the compiled trace artifact store",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_store_default = _default_trace_store()

    compile_cmd = trace_sub.add_parser(
        "compile",
        help="compile workload traces into binary artifacts (and reset the "
        "rebuild-marker baseline)",
    )
    compile_cmd.add_argument(
        "--store",
        default=trace_store_default,
        help=f"trace store directory (default ${ENV_TRACE_STORE} or "
        f"{DEFAULT_STORE}/traces)",
    )
    compile_cmd.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: the whole suite)",
    )
    compile_cmd.add_argument("--subset", type=int, default=None)
    compile_cmd.add_argument("--num-ops", type=int, default=num_ops_default)
    compile_cmd.add_argument("--seed", type=int, default=None)
    compile_cmd.set_defaults(func=_cmd_trace_compile)

    ls_cmd = trace_sub.add_parser("ls", help="list stored trace artifacts")
    ls_cmd.add_argument("--store", default=trace_store_default)
    ls_cmd.set_defaults(func=_cmd_trace_ls)

    verify_cmd = trace_sub.add_parser(
        "verify",
        help="check every artifact decodes cleanly (--deep: also regenerate "
        "and compare op-for-op); exit 1 on problems",
    )
    verify_cmd.add_argument("--store", default=trace_store_default)
    verify_cmd.add_argument("--deep", action="store_true")
    verify_cmd.set_defaults(func=_cmd_trace_verify)

    backends = sub.add_parser(
        "backends",
        help="inspect the execution-backend registry",
    )
    backends_sub = backends.add_subparsers(dest="backends_command", required=True)
    backends_ls = backends_sub.add_parser(
        "ls", help="list registered execution backends"
    )
    backends_ls.set_defaults(func=_cmd_backends_ls)

    workloads = sub.add_parser("workloads", help="list workload profiles")
    workloads.set_defaults(func=_cmd_workloads)

    predictors = sub.add_parser("predictors", help="list predictors")
    predictors.set_defaults(func=_cmd_predictors)

    table2 = sub.add_parser("table2", help="print the reproduced Table II")
    table2.set_defaults(func=_cmd_table2)

    export = sub.add_parser("export", help="run a sweep and write JSON records")
    export.add_argument("output", help="destination .json path")
    export.add_argument(
        "--predictors", default="store-sets,nosq,mdp-tage,mdp-tage-s,phast,ideal"
    )
    export.add_argument("--num-ops", type=int, default=num_ops_default)
    export.add_argument("--subset", type=int, default=None)
    export.add_argument("--core", default="alderlake", choices=sorted(GENERATIONS))
    export.add_argument(
        "--seed", type=int, default=None, help="override every workload's trace seed"
    )
    export.add_argument(
        "--provenance",
        action="store_true",
        help="write full provenance records (RunSpec wire dict, generator "
        "version, interval windows) instead of bare results — the format "
        "'repro surrogate build --provenance' consumes",
    )
    export.add_argument(
        "--interval-ops",
        type=int,
        default=0,
        help="with --provenance: also record per-window interval metrics "
        "every N committed ops (0 = none)",
    )
    export.set_defaults(func=_cmd_export)

    surrogate = sub.add_parser(
        "surrogate",
        help="learned IPC/MPKI surrogate: build datasets, train, evaluate, "
        "predict (see docs/surrogate.md)",
    )
    surrogate_sub = surrogate.add_subparsers(dest="surrogate_cmd", required=True)

    surrogate_build = surrogate_sub.add_parser(
        "build",
        help="featurize completed cells into a content-addressed dataset",
    )
    surrogate_build.add_argument(
        "--store",
        default=os.environ.get(ENV_STORE, DEFAULT_STORE),
        help=f"result store to read (default ${ENV_STORE} or {DEFAULT_STORE})",
    )
    surrogate_build.add_argument(
        "--provenance",
        default=None,
        help="build from a 'repro export --provenance' file instead of "
        "the store",
    )
    surrogate_build.add_argument(
        "--output",
        default=None,
        help="destination path or directory (default <store>/datasets/)",
    )
    surrogate_build.set_defaults(func=_cmd_surrogate_build)

    surrogate_train = surrogate_sub.add_parser(
        "train", help="fit the bagged-ridge ensemble and calibrate intervals"
    )
    surrogate_train.add_argument("--dataset", required=True)
    surrogate_train.add_argument(
        "--output",
        default=None,
        help="destination path or directory (default: next to the dataset)",
    )
    surrogate_train.add_argument(
        "--members",
        type=int,
        default=surrogate_members_default,
        help="ensemble size ($REPRO_SURROGATE_MEMBERS, default 8)",
    )
    surrogate_train.add_argument(
        "--ridge",
        type=float,
        default=surrogate_ridge_default,
        help="ridge regularisation strength ($REPRO_SURROGATE_RIDGE)",
    )
    surrogate_train.add_argument(
        "--level",
        type=float,
        default=surrogate_level_default,
        help="nominal CI coverage in [0.5, 1) ($REPRO_SURROGATE_LEVEL)",
    )
    surrogate_train.add_argument(
        "--train-seed",
        type=int,
        default=surrogate_seed_default,
        help="bootstrap RNG seed ($REPRO_SURROGATE_SEED)",
    )
    surrogate_train.set_defaults(func=_cmd_surrogate_train)

    surrogate_eval = surrogate_sub.add_parser(
        "eval",
        help="honest error + CI coverage on a held-out split, with "
        "optional CI gates (exit 1 when a gate fails)",
    )
    surrogate_eval.add_argument("--dataset", required=True)
    surrogate_eval.add_argument("--model", required=True)
    surrogate_eval.add_argument(
        "--split", default="heldout", choices=["heldout", "calib", "train"]
    )
    surrogate_eval.add_argument("--json", action="store_true")
    surrogate_eval.add_argument(
        "--max-ipc-mape",
        type=float,
        default=None,
        help="gate: fail when held-out IPC MAPE exceeds this",
    )
    surrogate_eval.add_argument(
        "--max-mpki-mae",
        type=float,
        default=None,
        help="gate: fail when held-out violation-MPKI MAE exceeds this",
    )
    surrogate_eval.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        help="gate: fail when empirical CI coverage of either target "
        "falls below this (use the nominal level)",
    )
    surrogate_eval.set_defaults(func=_cmd_surrogate_eval)

    surrogate_predict = surrogate_sub.add_parser(
        "predict", help="score a grid from the model alone (no simulation)"
    )
    surrogate_predict.add_argument("--model", required=True)
    surrogate_predict.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: the whole suite)",
    )
    surrogate_predict.add_argument(
        "--predictors", default="store-sets,nosq,mdp-tage,mdp-tage-s,phast"
    )
    surrogate_predict.add_argument("--subset", type=int, default=None)
    surrogate_predict.add_argument("--num-ops", type=int, default=num_ops_default)
    surrogate_predict.add_argument(
        "--core", default="alderlake", choices=sorted(GENERATIONS)
    )
    surrogate_predict.add_argument("--seed", type=int, default=None)
    surrogate_predict.add_argument("--json", action="store_true")
    surrogate_predict.set_defaults(func=_cmd_surrogate_predict)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
