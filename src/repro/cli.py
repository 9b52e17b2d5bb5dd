"""Command-line interface.

Usage examples::

    python -m repro workloads
    python -m repro run --workload oltp --txns 200 --warmup 300
    python -m repro space --workload oltp --runs 10 --txns 200
    python -m repro compare --vary l2-assoc --a 2 --b 4 --runs 10
    python -m repro campaign --vary l2-assoc --values 2 4 --runs 10
    python -m repro campaign --adaptive --target 0.02 --max-runs 40

    # the distributed campaign service (repro.service)
    python -m repro campaign serve --port 8642 --store-backend sqlite
    python -m repro campaign worker --store-backend sqlite --drain
    python -m repro campaign submit --workload oltp --runs 20 --port 8642
    python -m repro campaign watch --id <campaign-id> --port 8642

The CLI wraps the same public API the examples use; it exists so the
methodology can be driven from shell scripts and sweeps.  ``space`` and
``compare`` take ``--json`` to emit the serialized result objects for
scripting; ``campaign`` runs (and, after an interrupt, *resumes*) a grid
of runs against the persistent store.  ``campaign
serve/worker/submit/watch/status`` shard campaigns across processes and
hosts through a shared store and lease-based work queue; ``--store-backend
sqlite`` (or ``$REPRO_STORE_BACKEND``) selects the multi-process store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.config import RunConfig, SystemConfig
from repro.core.experiment import compare_configurations
from repro.core.request import MODE_AXES, modes_of
from repro.core.runner import DEFAULT_WORKLOAD_SEED, run_space
from repro.store import resolve_store
from repro.store.backends import BACKENDS
from repro.system.simulation import run_simulation
from repro.workloads.registry import PAPER_TRANSACTIONS, available_workloads, make_workload


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="oltp", choices=available_workloads())
    parser.add_argument("--txns", type=int, default=200, help="measured transactions")
    parser.add_argument("--warmup", type=int, default=300, help="warm-up transactions")
    parser.add_argument("--seed", type=int, default=1, help="perturbation seed")
    parser.add_argument("--cpus", type=int, default=16, help="processor count")
    parser.add_argument(
        "--perturbation", type=int, default=4, help="max perturbation ns (0 disables)"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload op-count scale factor"
    )


def _add_mode_arguments(parser: argparse.ArgumentParser, *names: str) -> None:
    """One flag per run-mode axis (all of them, or just ``names``), straight
    from the axis declaration in :mod:`repro.core.request`."""
    for axis in MODE_AXES:
        if not names or axis.name in names:
            parser.add_argument(
                "--" + axis.name.replace("_", "-"),
                choices=axis.values, default=axis.default, help=axis.help,
            )


def _base_config(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(n_cpus=args.cpus).with_perturbation(args.perturbation)


def _workload(args: argparse.Namespace):
    """``--workload`` at its ``--scale``: an instance, which is what
    carries the scale into the runs and their keys."""
    return make_workload(args.workload, scale=args.scale)


def _run_config(args: argparse.Namespace, seed: int | None = None) -> RunConfig:
    return RunConfig(
        measured_transactions=args.txns,
        warmup_transactions=args.warmup,
        seed=seed if seed is not None else args.seed,
    )


def _add_store_arguments(
    parser: argparse.ArgumentParser,
    store_help: str = "store root (default: $REPRO_STORE_DIR or ~/.cache/repro)",
) -> None:
    parser.add_argument("--store", default=None, help=store_help)
    parser.add_argument(
        "--store-backend", choices=tuple(BACKENDS), default=None,
        help="store backend (default: $REPRO_STORE_BACKEND or 'dir'; 'sqlite' "
             "lets many worker processes share one store safely)",
    )


def _store_from_args(args: argparse.Namespace):
    from repro.store import RunStore

    return RunStore(
        getattr(args, "store", None),
        backend=getattr(args, "store_backend", None),
    )


def _queue_from_args(args: argparse.Namespace, store):
    from repro.service import WorkQueue, default_queue_path

    path = getattr(args, "queue", None)
    return WorkQueue(path if path else default_queue_path(store.root))


def _add_campaign_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid flags shared by ``campaign`` and ``campaign submit``."""
    _add_run_arguments(parser)
    parser.add_argument(
        "--workloads", nargs="*", choices=available_workloads(),
        help="workloads in the grid (default: the single --workload)",
    )
    parser.add_argument(
        "--vary", choices=("l2-assoc", "dram", "rob"),
        help="configuration dimension to sweep (with --values)",
    )
    parser.add_argument(
        "--values", nargs="*", type=int,
        help="values of the --vary dimension, one configuration each",
    )
    parser.add_argument("--runs", type=int, default=10,
                        help="fixed runs per cell (ignored with --adaptive)")
    parser.add_argument(
        "--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
        help="workload content seed (default %(default)s)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="grow each cell until the CI half-width target is met",
    )
    parser.add_argument(
        "--target", type=float, default=0.02,
        help="adaptive: CI half-width target as a fraction of the mean",
    )
    parser.add_argument("--confidence", type=float, default=0.95)
    parser.add_argument("--min-runs", type=int, default=4,
                        help="adaptive: runs before the rule is consulted")
    parser.add_argument("--max-runs", type=int, default=40,
                        help="adaptive: per-cell run cap")
    parser.add_argument("--batch", type=int, default=4,
                        help="adaptive: runs added per batch")
    parser.add_argument(
        "--warm-start", action="store_true",
        help="pay each cell's warm-up once (shared checkpoint, cached in the "
             "store) instead of once per seed",
    )
    _add_mode_arguments(parser)
    parser.add_argument(
        "--name", default="campaign", help="campaign name recorded in the journal"
    )


def _add_service_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="server host")
    parser.add_argument("--port", type=int, default=8642, help="server port")


def _add_service_subcommands(campaign_parser: argparse.ArgumentParser) -> None:
    """Attach serve/worker/submit/watch/status under ``campaign``."""
    from repro.service import DEFAULT_LEASE_S, DEFAULT_MAX_ATTEMPTS

    service = campaign_parser.add_subparsers(
        dest="service_cmd", metavar="{serve,worker,submit,watch,status}",
    )

    serve = service.add_parser(
        "serve", help="run the campaign service HTTP server",
    )
    _add_service_client_arguments(serve)
    _add_store_arguments(serve)
    serve.add_argument("--queue", default=None,
                       help="queue database path (default: <store>/queue.sqlite)")
    serve.add_argument("--workers", type=int, default=0,
                       help="also spawn N local worker processes")
    serve.add_argument("--lease", type=float, default=DEFAULT_LEASE_S,
                       help="lease duration handed to local workers (seconds)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    worker = service.add_parser(
        "worker", help="run one worker daemon against the shared store/queue",
    )
    _add_store_arguments(worker)
    worker.add_argument("--queue", default=None,
                        help="queue database path (default: <store>/queue.sqlite)")
    worker.add_argument("--lease", type=float, default=DEFAULT_LEASE_S,
                        help="lease duration in seconds")
    worker.add_argument("--poll", type=float, default=0.5,
                        help="idle poll interval in seconds")
    worker.add_argument("--drain", action="store_true",
                        help="exit once no cell is pending or leased")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit after completing this many cells")
    worker.add_argument("--worker-id", default=None,
                        help="worker identity (default: pid + random suffix)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")

    submit = service.add_parser(
        "submit", help="submit the campaign grid to a running server",
    )
    _add_campaign_grid_arguments(submit)
    # The grid flags exist on the parent `campaign` parser too.  argparse
    # applies subparser defaults AFTER parent parsing, which would clobber
    # values typed before `submit`; suppressing the duplicates' defaults
    # keeps parent values (typed or defaulted) unless retyped after
    # `submit`.
    for action in submit._actions:  # noqa: SLF001 -- no public hook for this
        if action.dest != "help":
            if action.help and "%(default)" in action.help:
                action.help = action.help % {"default": action.default}
            action.default = argparse.SUPPRESS
    _add_service_client_arguments(submit)
    submit.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                        help="execution attempts before a cell is quarantined")
    submit.add_argument("--watch", action="store_true",
                        help="follow the campaign's event stream to completion")
    submit.add_argument("--json", action="store_true",
                        help="print raw JSON instead of rendered lines")

    watch = service.add_parser(
        "watch", help="stream one campaign's per-cell progress",
    )
    _add_service_client_arguments(watch)
    watch.add_argument("--id", required=True, help="campaign id (from submit)")
    watch.add_argument("--json", action="store_true",
                       help="print raw JSON events")

    status = service.add_parser(
        "status", help="print campaign state counts",
    )
    _add_service_client_arguments(status)
    status.add_argument("--id", default=None,
                        help="campaign id (omit to list all campaigns)")

    # serve/worker duplicate the parent's store flags; same clobbering
    # hazard as submit's grid flags, same fix.
    for sub in (serve, worker):
        for action in sub._actions:  # noqa: SLF001
            if action.dest in ("store", "store_backend"):
                action.default = argparse.SUPPRESS


def _vary(config: SystemConfig, dimension: str, value: int) -> SystemConfig:
    if dimension == "l2-assoc":
        return config.with_l2_associativity(value)
    if dimension == "dram":
        return config.with_dram_latency(value)
    if dimension == "rob":
        return config.with_rob_entries(value)
    raise ValueError(f"unknown dimension {dimension!r}")


def cmd_workloads(_args: argparse.Namespace) -> int:
    """List the available workloads with their paper transaction counts."""
    print(f"{'workload':12s} {'paper #txns (Table 3)':>22s}")
    for name in available_workloads():
        print(f"{name:12s} {PAPER_TRANSACTIONS[name]:>22,d}")
    return 0


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top functions by "
             "cumulative time, then what the stream and branch-batch memos "
             "reused (this process only: use --jobs 1; the profiler roughly "
             "halves throughput; results are unchanged)",
    )
    parser.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="with --profile: number of functions to print (default 25)",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH",
        help="with --profile: also dump raw pstats data to PATH for "
             "offline analysis (python -m pstats PATH)",
    )


def _profiled(args: argparse.Namespace, execute):
    """``execute()``, under cProfile when ``--profile`` was given.

    The report goes to stdout, or to stderr when stdout carries
    ``--json``; it is printed, never attached to the result.
    """
    if not args.profile:
        return execute()
    import cProfile
    import pstats

    from repro.proc.base import branch_memo_stats
    from repro.workloads.base import stream_memo_stats

    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    profiler = cProfile.Profile()
    result = profiler.runcall(execute)
    profiler.create_stats()
    if args.profile_out:
        profiler.dump_stats(args.profile_out)
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    stats.print_stats(args.profile_top)
    if args.profile_out:
        print(f"raw profile written to {args.profile_out}", file=out)
    streams, batches = stream_memo_stats(), branch_memo_stats()
    print(
        f"stream memo : {streams.hits:,} of {streams.hits + streams.misses:,} "
        f"transactions replayed ({streams.ops_reused:,} ops)",
        file=out,
    )
    print(
        f"branch memo : {batches.hits:,} of {batches.hits + batches.misses:,} "
        f"sampled batches replayed ({batches.entries:,} held, "
        f"{batches.clears} clears)",
        file=out,
    )
    return result


def cmd_run(args: argparse.Namespace) -> int:
    """Execute one measured simulation run and print its metrics."""
    result = _profiled(
        args,
        lambda: run_simulation(
            _base_config(args),
            args.workload,
            _run_config(args),
            workload_scale=args.scale,
            warmup_mode=args.warmup_mode,
        ),
    )
    print(f"cycles per transaction : {result.cycles_per_transaction:,.0f}")
    print(f"simulated time         : {result.elapsed_ns:,} ns")
    print(f"throughput             : {result.transactions_per_second:,.0f} txn/s")
    print(f"L2 miss rate           : {result.stats['l2_miss_rate']:.1%}")
    print(f"schedule dispatches    : {result.stats['dispatches']}")
    return 0


def cmd_space(args: argparse.Namespace) -> int:
    """Sample the space of perturbed runs and print the variability summary."""
    sample = _profiled(
        args,
        lambda: run_space(
            _base_config(args),
            _workload(args),
            _run_config(args),
            args.runs,
            n_jobs=args.jobs,
            warm_start=args.warm_start,
            store=resolve_store(args.store, backend=args.store_backend),
            **modes_of(args),
        ),
    )
    if args.json:
        print(json.dumps(sample.to_dict(), indent=2))
        return 0
    for result in sample.results:
        print(f"seed {result.seed:4d}: {result.cycles_per_transaction:,.0f} cycles/txn")
    print(sample.summary())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare two configurations with the full statistical methodology.

    Exit code 0 when the conclusion is statistically safe, 1 otherwise.
    """
    base = _base_config(args)
    result = compare_configurations(
        _vary(base, args.vary, args.a),
        _vary(base, args.vary, args.b),
        _workload(args),
        _run_config(args),
        args.runs,
        label_a=f"{args.vary}={args.a}",
        label_b=f"{args.vary}={args.b}",
        confidence=args.confidence,
        n_jobs=args.jobs,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.conclusion_is_safe else 1
    print(result.report())
    if result.conclusion_is_safe:
        print(f"\nconclusion: {result.faster} is faster "
              f"({result.speedup_percent:.1f}%)")
        return 0
    print("\nconclusion: not statistically significant; run more simulations")
    return 1


def _campaign_spec_from_args(args: argparse.Namespace):
    """Build the CampaignSpec the campaign/submit grid flags describe.

    Raises ``ValueError`` with a user-facing message on a bad grid;
    shared by the in-process ``campaign`` path and ``campaign submit``
    so both execute the very same spec (and thus the same run keys).
    """
    from repro.campaign import CampaignSpec
    from repro.core.runner import WorkloadSpec
    from repro.core.sampling import AdaptiveStopRule

    base = _base_config(args)
    if args.vary:
        if not args.values or len(args.values) < 1:
            raise ValueError("--vary needs --values")
        configs = [
            (f"{args.vary}={value}", _vary(base, args.vary, value))
            for value in args.values
        ]
    else:
        configs = [("base", base)]
    workloads = [
        WorkloadSpec(name=name, seed=args.workload_seed, scale=args.scale)
        for name in (args.workloads or [args.workload])
    ]
    stop_rule = None
    if args.adaptive:
        stop_rule = AdaptiveStopRule(
            target_fraction=args.target,
            confidence=args.confidence,
            min_runs=args.min_runs,
            max_runs=args.max_runs,
            batch_size=args.batch,
        )
    return CampaignSpec(
        configs=configs,
        workloads=workloads,
        run=_run_config(args),
        n_runs=args.runs,
        stop_rule=stop_rule,
        name=args.name,
        warm_start=args.warm_start,
        **modes_of(args),
    )


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run (or resume) a persistent experiment campaign.

    Completed runs live in the store (``--store`` or ``REPRO_STORE_DIR``
    or ``~/.cache/repro``), so re-invoking an interrupted campaign
    executes only the missing runs.  ``--dry-run`` prints the
    cached-vs-pending plan without simulating.  Exit code 0 on success,
    1 when any run failed.

    With a service subcommand (``serve``/``worker``/``submit``/
    ``watch``/``status``), dispatches to the distributed campaign
    service instead (:mod:`repro.service`).
    """
    service_cmd = getattr(args, "service_cmd", None)
    if service_cmd is not None:
        return _SERVICE_COMMANDS[service_cmd](args)

    from repro.campaign import Campaign

    spec = _campaign_spec_from_args(args)
    store = _store_from_args(args)
    campaign = Campaign(
        spec, store, n_jobs=args.jobs, timeout_s=args.timeout
    )
    print(campaign.plan().render())
    if args.dry_run:
        return 0
    print()
    try:
        report = campaign.run(progress=print)
    except KeyboardInterrupt:
        print(
            f"\ninterrupted -- completed runs are saved in {store.root}; "
            "re-run the same command to resume",
            file=sys.stderr,
        )
        return 130
    print()
    print(report.render())
    if report.n_failures:
        print(f"\n{report.n_failures} runs failed; rerun to retry them")
        return 1
    return 0


def cmd_campaign_serve(args: argparse.Namespace) -> int:
    """Run the campaign service HTTP server (and, optionally, workers).

    The server accepts study submissions (``campaign submit``),
    deduplicates them against the shared store, and streams per-cell
    progress to ``campaign watch``.  ``--workers N`` also spawns N local
    worker daemons against the same store and queue; remote hosts run
    ``campaign worker`` pointing at the shared root instead.
    """
    import signal
    import subprocess

    from repro.service.server import serve_forever

    store = _store_from_args(args)
    queue = _queue_from_args(args, store)
    children: list = []

    # SIGTERM (the polite kill) would otherwise skip the finally clause
    # and orphan the spawned workers; route it through KeyboardInterrupt
    # so serve_forever unwinds and the children get reaped.
    def _terminate(signum, frame):  # noqa: ARG001
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        for _ in range(args.workers):
            command = [
                sys.executable, "-m", "repro", "campaign", "worker",
                "--store", str(store.root),
                "--store-backend", store.backend.kind,
                "--queue", str(queue.path),
                "--lease", str(args.lease),
            ]
            children.append(subprocess.Popen(command))
        print(
            f"campaign service on http://{args.host}:{args.port} "
            f"(store {store.backend.describe()}, queue {queue.path}, "
            f"{args.workers} local workers)"
        )
        return serve_forever(
            store, queue, host=args.host, port=args.port, verbose=args.verbose
        )
    finally:
        for child in children:
            child.terminate()
        for child in children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()


def cmd_campaign_worker(args: argparse.Namespace) -> int:
    """Run one worker daemon against the shared store and queue.

    The worker leases cells, executes them through the same
    warm-state/fast-forward path as in-process campaigns, heartbeats
    while running, and publishes results through the store.  ``--drain``
    exits when no work remains; the default is to idle for more.
    """
    from repro.service import Worker

    store = _store_from_args(args)
    queue = _queue_from_args(args, store)
    worker = Worker(
        queue,
        store,
        worker_id=args.worker_id,
        lease_s=args.lease,
        poll_s=args.poll,
        drain=args.drain,
        max_cells=args.max_cells,
        progress=None if args.quiet else print,
    )
    try:
        worker.run_forever()
    except KeyboardInterrupt:
        print(
            f"worker interrupted after {worker.completed} cells "
            "(in-flight lease will lapse and requeue)",
            file=sys.stderr,
        )
        return 130
    return 0


def cmd_campaign_submit(args: argparse.Namespace) -> int:
    """Submit the campaign grid to a running ``campaign serve``.

    The same grid flags as ``campaign`` itself describe the study; the
    server deduplicates every (config × workload × seed) cell against
    everything already in the shared store.  ``--watch`` follows the
    stream until completion (exit 0 iff no cell was quarantined).
    """
    from repro.service import spec_to_dict
    from repro.service.client import ServiceClientError, submit_campaign

    # a bad grid and an unservable spec (ServiceError, a ValueError) both
    # exit 2 through main()
    payload = spec_to_dict(_campaign_spec_from_args(args))
    try:
        receipt = submit_campaign(
            args.host, args.port, payload, max_attempts=args.max_attempts
        )
    except (ServiceClientError, OSError) as exc:
        print(f"campaign submit: {exc}", file=sys.stderr)
        # HTTP 400 is the server's ServiceError: the submission was illegal
        return 2 if getattr(exc, "status", None) == 400 else 1
    if args.json:
        # one line: with --watch the output is a JSONL stream
        print(json.dumps(receipt))
    else:
        print(
            f"campaign {receipt['id']} submitted: {receipt['cells']} cells, "
            f"{receipt['cached']} already in the store, "
            f"{receipt['pending']} queued"
        )
    if args.watch:
        return _watch_stream(args.host, args.port, receipt["id"], args.json)
    return 0


def _watch_stream(host: str, port: int, campaign_id: str, as_json: bool) -> int:
    """Follow one campaign's event stream; exit 0 iff it finished clean."""
    from repro.service.client import ServiceClientError, watch_campaign

    try:
        for event in watch_campaign(host, port, campaign_id):
            if as_json:
                print(json.dumps(event), flush=True)
            else:
                print(_render_event(event), flush=True)
            if event.get("kind") == "campaign-done":
                return 0 if event.get("ok") else 1
    except (ServiceClientError, OSError) as exc:
        print(f"campaign watch: {exc}", file=sys.stderr)
        return 1
    # stream ended without a summary line: the server went away
    print("campaign watch: stream ended before completion", file=sys.stderr)
    return 1


def _render_event(event: dict) -> str:
    kind = event.get("kind", "?")
    if kind == "campaign-done":
        counts = event.get("counts", {})
        status = "clean" if event.get("ok") else "with quarantined cells"
        return (
            f"campaign {event.get('id')} done {status}: "
            f"{counts.get('done', 0)} executed, {counts.get('cached', 0)} cached, "
            f"{counts.get('quarantined', 0)} quarantined"
        )
    cell = event.get("cell", "?")
    if kind == "submitted":
        return (
            f"submitted: {event.get('cells')} cells "
            f"({event.get('cached')} cached, {event.get('pending')} pending)"
        )
    if kind == "done" and event.get("cached"):
        return f"cell {cell}: served from store"
    detail = ""
    if kind == "failed":
        detail = f" ({event.get('error', '')[:80]})"
    elif kind == "leased":
        detail = f" -> {event.get('worker')}"
    return f"cell {cell}: {kind}{detail}"


def cmd_campaign_watch(args: argparse.Namespace) -> int:
    """Stream one campaign's per-cell progress as it executes."""
    return _watch_stream(args.host, args.port, args.id, args.json)


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Print one campaign's state counts (or all campaigns without --id)."""
    from repro.service.client import ServiceClientError, campaign_status, list_campaigns

    try:
        if args.id:
            snapshot = campaign_status(args.host, args.port, args.id)
        else:
            snapshot = list_campaigns(args.host, args.port)
    except (ServiceClientError, OSError) as exc:
        print(f"campaign status: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(snapshot, indent=2))
    return 0


_SERVICE_COMMANDS = {
    "serve": cmd_campaign_serve,
    "worker": cmd_campaign_worker,
    "submit": cmd_campaign_submit,
    "watch": cmd_campaign_watch,
    "status": cmd_campaign_status,
}


def cmd_survey(args: argparse.Namespace) -> int:
    """Survey workload space variability (the paper's Table 3 protocol)."""
    from repro.core.survey import survey_workloads

    names = args.workloads or None
    survey = survey_workloads(names, n_runs=args.runs)
    print(survey.render())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the correctness gate: invariants, differentials, optional fuzz."""
    from repro.verify import run_verify

    progress = None if args.quiet else print
    report = run_verify(fuzz=args.fuzz, seed=args.seed, progress=progress)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "scenarios": [
                        {"label": s.label, "ok": s.ok,
                         "violations": s.violations, "error": s.error}
                        for s in report.scenarios
                    ],
                    "differentials": [
                        {"name": d.name, "ok": d.ok, "mismatches": d.mismatches}
                        for d in report.differentials
                    ],
                    "fuzz": (
                        None
                        if report.fuzz is None
                        else {
                            "seed": report.fuzz.seed,
                            "cases": len(report.fuzz.results),
                            "ok": report.fuzz.ok,
                            "failures": [
                                r.describe_failure() for r in report.fuzz.failures
                            ],
                        }
                    ),
                },
                indent=2,
            )
        )
    elif args.quiet:
        print(report.render())
    else:
        print("verify: PASS" if report.ok else "verify: FAIL")
        if not report.ok:
            print(report.render())
    return 0 if report.ok else 1


def cmd_budget(args: argparse.Namespace) -> int:
    """Plan a runs-x-length allocation under a simulation budget."""
    from repro.core.budget import allocate_budget, fit_cov_model_from_samples
    from repro.core.runner import run_space
    from repro.system.checkpoint import Checkpoint
    from repro.system.machine import Machine

    config = _base_config(args)
    workload = _workload(args)
    machine = Machine(config, workload)
    machine.hierarchy.seed_perturbation(8)
    machine.run_until_transactions(args.warmup or 1000, max_time_ns=10**13)
    checkpoint = Checkpoint.capture(machine)
    pilots = {}
    for length in (args.txns // 2, args.txns * 2):
        sample = run_space(
            config,
            workload,
            RunConfig(measured_transactions=max(20, length), seed=40),
            n_runs=args.pilot_runs,
            checkpoint=checkpoint,
        )
        pilots[max(20, length)] = sample.values
    model = fit_cov_model_from_samples(pilots)
    plan = allocate_budget(model, args.budget, args.difference / 100.0)
    print(f"CoV model: {model.c:.3f} * L^-{model.gamma:.2f}")
    print(plan)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Variability-aware multiprocessor simulation "
            "(Alameldeen & Wood, HPCA 2003 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("workloads", help="list available workloads").set_defaults(
        func=cmd_workloads
    )

    run_parser = subparsers.add_parser("run", help="one measured simulation run")
    _add_run_arguments(run_parser)
    run_parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers (a single run is serial; accepted so sweep "
             "scripts can pass --jobs to every subcommand uniformly)",
    )
    _add_mode_arguments(run_parser, "warmup_mode")
    _add_profile_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    space_parser = subparsers.add_parser(
        "space", help="sample the space of perturbed runs"
    )
    _add_run_arguments(space_parser)
    space_parser.add_argument("--runs", type=int, default=10)
    space_parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    space_parser.add_argument(
        "--warm-start", action="store_true",
        help="pay the warm-up once (shared checkpoint) instead of per seed; "
             "seeds then measure from identical warm state",
    )
    _add_store_arguments(
        space_parser,
        "persistent run store root (caches runs and, with --warm-start, the "
        "warm checkpoint; default: no store)",
    )
    space_parser.add_argument(
        "--json", action="store_true",
        help="emit the serialized RunSample as JSON for scripting",
    )
    _add_mode_arguments(space_parser)
    _add_profile_arguments(space_parser)
    space_parser.set_defaults(func=cmd_space)

    compare_parser = subparsers.add_parser(
        "compare", help="compare two configurations with the full methodology"
    )
    _add_run_arguments(compare_parser)
    compare_parser.add_argument(
        "--vary", required=True, choices=("l2-assoc", "dram", "rob"),
        help="configuration dimension to vary",
    )
    compare_parser.add_argument("--a", type=int, required=True, help="value for config A")
    compare_parser.add_argument("--b", type=int, required=True, help="value for config B")
    compare_parser.add_argument("--runs", type=int, default=10)
    compare_parser.add_argument("--confidence", type=float, default=0.95)
    compare_parser.add_argument("--jobs", type=int, default=1)
    compare_parser.add_argument(
        "--json", action="store_true",
        help="emit the serialized ComparisonResult as JSON for scripting",
    )
    compare_parser.set_defaults(func=cmd_compare)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run or resume a persistent experiment campaign (store-backed); "
             "subcommands serve/worker/submit/watch/status run the "
             "distributed campaign service",
    )
    _add_campaign_grid_arguments(campaign_parser)
    campaign_parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    campaign_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock timeout in seconds",
    )
    _add_store_arguments(campaign_parser)
    campaign_parser.add_argument(
        "--dry-run", action="store_true",
        help="print the cached-vs-pending plan and exit without simulating",
    )
    campaign_parser.set_defaults(func=cmd_campaign, service_cmd=None)
    _add_service_subcommands(campaign_parser)

    survey_parser = subparsers.add_parser(
        "survey", help="survey workload space variability (Table 3 protocol)"
    )
    survey_parser.add_argument(
        "--workloads", nargs="*", choices=available_workloads(),
        help="workloads to survey (default: all seven)",
    )
    survey_parser.add_argument("--runs", type=int, default=10)
    survey_parser.set_defaults(func=cmd_survey)

    verify_parser = subparsers.add_parser(
        "verify",
        help="run the correctness gate (invariants, differentials, fuzzing)",
    )
    verify_parser.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="also fuzz N random configurations (double-run digest check)",
    )
    verify_parser.add_argument(
        "--seed", type=int, default=1, help="fuzz stream seed"
    )
    verify_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress live progress; print only the final report",
    )
    verify_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    verify_parser.set_defaults(func=cmd_verify)

    budget_parser = subparsers.add_parser(
        "budget", help="plan runs x length under a simulation budget"
    )
    _add_run_arguments(budget_parser)
    budget_parser.add_argument(
        "--budget", type=int, required=True,
        help="total simulated transactions across both configurations",
    )
    budget_parser.add_argument(
        "--difference", type=float, default=4.0,
        help="expected performance difference, percent",
    )
    budget_parser.add_argument("--pilot-runs", type=int, default=5)
    budget_parser.set_defaults(func=cmd_budget)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    An illegal argument combination surfaces as the library's own
    ``ValueError``; it is reported here, once for every subcommand, as
    ``<command>: <message>`` on stderr with exit code 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        command = " ".join(
            filter(None, (args.command, getattr(args, "service_cmd", None)))
        )
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
