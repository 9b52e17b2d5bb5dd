"""``service_drain``: a submitted grid drained by real worker processes.

Set-up builds a sqlite store, pre-seeds the first ``base`` seeds
in-process and submits the whole grid to a lease queue (the pre-seeded
cells are deduplicated at submit).  The timed region starts two
``python -m repro campaign worker --drain`` processes and ends when both
have exited.  Cells cost ~70 ms, so interpreter start-up, claim /
heartbeat / complete transactions and sqlite store puts are about half
the wall; the simulator is a minority.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import repro.service.worker
from repro.campaign import Campaign, CampaignSpec
from repro.campaign.plan import cell_request
from repro.config import RunConfig, SystemConfig
from repro.core.request import execute_request
from repro.core.runner import WorkloadSpec
from repro.service import WorkQueue, Worker, enumerate_cells, spec_to_dict
from repro.store import RunStore
from repro.workloads.base import reset_stream_memo

from benchmarks.ledger import host, spec
from benchmarks.ledger.outcome import Outcome
from benchmarks.ledger.study import campaign_stack_metrics, wrap_campaign_stack
from benchmarks.ledger.trace import Tracer, span

MAX_TIME_NS = 10**13
DRAIN_TIMEOUT_S = 150


def build_spec(sizes: dict, seeds: dict) -> CampaignSpec:
    base = SystemConfig(n_cpus=4)
    return CampaignSpec(
        configs=[("base", base), ("dram=200", base.with_dram_latency(200))],
        workloads=[WorkloadSpec.resolve("oltp", workload_seed=seeds["content"])],
        run=RunConfig(
            measured_transactions=sizes["measured"],
            warmup_transactions=sizes["warmup"],
            seed=seeds["perturbation"],
            max_time_ns=MAX_TIME_NS,
        ),
        n_runs=sizes["n_seeds"],
        name="service_drain",
    )


def _payload_sha(store: RunStore) -> tuple[str, int]:
    """Digest of every stored payload, sorted by key."""
    keys = sorted(store.keys())
    payloads = [store.get_payload(key) for key in keys]
    text = json.dumps(payloads, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16], len(keys)


def _set_up(campaign_spec: CampaignSpec, sizes: dict, root: Path, tracer: Tracer | None):
    """Store + pre-seed + submit; returns (store, queue, campaign id)."""
    store = RunStore(root, backend="sqlite")
    preseed = replace(campaign_spec, configs=campaign_spec.configs[:1], n_runs=sizes["preseed"])
    Campaign(preseed, store, n_jobs=1).run()
    queue = WorkQueue(store.root / "queue.sqlite")
    with span(tracer, "service.submit"):
        campaign_id = queue.submit(
            campaign_spec.name, spec_to_dict(campaign_spec), enumerate_cells(campaign_spec, store)
        )
    return store, queue, campaign_id


def _drain_with_workers(store: RunStore, queue: WorkQueue, n_workers: int) -> None:
    """Run real worker processes until the queue is drained."""
    command = [
        sys.executable, "-m", "repro", "campaign", "worker",
        "--store", str(store.root), "--store-backend", "sqlite",
        "--queue", str(queue.path), "--drain", "--quiet", "--poll", "0.05",
    ]
    env = host.scrubbed_env(store.root)
    workers = [subprocess.Popen(command, env=env) for _ in range(n_workers)]
    try:
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for worker in workers:
            worker.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
    codes = [worker.returncode for worker in workers]
    if any(codes):
        raise RuntimeError(f"worker processes exited with {codes}")


def describe_mismatch(expected: dict, observed: dict) -> list[str]:
    return [
        f"{key}: expected {expected.get(key)}, got {observed.get(key)}"
        for key in sorted(set(expected) | set(observed))
        if expected.get(key) != observed.get(key)
    ]


def run(workload: str, seed: int, seconds: float, tracer: Tracer | None,
        scratch: Path) -> Outcome:
    seeds = spec.seeds_of(workload, seed)
    sizes = spec.service_sizes(seconds)
    outcome = Outcome(info={"sizes": sizes, "seeds": seeds})
    campaign_spec = build_spec(sizes, seeds)
    n_cells = len(campaign_spec.configs) * sizes["n_seeds"]

    # Set-up, three times over (once when traced: setup_s is not reported
    # then); the pre-seeded payloads of every set-up must be identical --
    # two executions of the same inputs agree exactly.
    setups, preseeded = [], []
    for index in range(1 if tracer is not None else 3):
        reset_stream_memo()
        start = time.perf_counter()
        store, queue, campaign_id = _set_up(
            campaign_spec, sizes, scratch / f"store-{index}", tracer
        )
        setups.append(time.perf_counter() - start)
        preseeded.append(_payload_sha(store)[0])
    outcome.setup_s = statistics.median(setups)
    outcome.attempt(
        len(set(preseeded)) == 1, f"pre-seeded payloads differ between set-ups: {preseeded}"
    )

    with host.Region() as region:
        with span(tracer, "service.drain"):
            _drain_with_workers(store, queue, sizes["workers"])
    outcome.metrics.update({"wall_s": region.wall_s, "cpu_s": region.cpu_s})

    counts = queue.counts(campaign_id)
    sha, n_payloads = _payload_sha(store)
    outcome.observed = {"counts": counts, "payload_sha": sha, "n_payloads": n_payloads}
    drained = n_cells - sizes["preseed"]
    outcome.attempted += n_cells
    bad = n_cells - counts["done"] - counts["cached"]
    if bad or counts["done"] != drained or n_payloads != n_cells:
        outcome.failed += max(bad, 1)
        outcome.mismatches.append(f"grid did not drain cleanly: {counts}, {n_payloads} payloads")

    # One worker-computed cell per configuration, executed again here.
    wspec = campaign_spec.workloads[0]
    for _label, config in campaign_spec.configs:
        request = cell_request(campaign_spec, config, wspec).with_seed(
            campaign_spec.run.seed + sizes["n_seeds"] - 1
        )
        stored = store.get_payload(request.run_key)
        outcome.attempt(
            stored is not None and stored["result"] == execute_request(request).to_dict(),
            f"worker result for {request.run_key[:12]} differs from in-process execution",
        )

    if tracer is not None:
        _layer_metrics(outcome, tracer, region, campaign_spec, sizes, store, queue,
                       campaign_id, counts, drained, scratch)
    return outcome


def _layer_metrics(outcome, tracer, region, campaign_spec, sizes, store, queue, campaign_id,
                   counts, drained, scratch) -> None:
    m = outcome.metrics
    m["service.submit_s"] = tracer.total("service.submit")
    m["service.worker_busy_frac"] = region.cpu_s / (sizes["workers"] * region.wall_s)
    m["service.cells_per_s"] = drained / region.wall_s
    m["service.dedup_cells"] = counts["cached"]
    m["service.quarantined"] = counts["quarantined"]
    m["service.lease_lapses"] = sum(
        1 for event in queue.events_since(campaign_id, 0) if event["kind"] == "lease-expired"
    )

    # Half as many cells drained by one in-process worker, where spans
    # reach: a fresh store and queue, nothing pre-seeded.
    traced_store = RunStore(scratch / "store-traced", backend="sqlite")
    traced_queue = WorkQueue(traced_store.root / "queue.sqlite")
    traced_queue.submit(
        campaign_spec.name, spec_to_dict(campaign_spec), enumerate_cells(campaign_spec)
    )
    wrap_campaign_stack(tracer)
    tracer.wrap(repro.service.worker, "execute_request", "core.request.execute")
    reset_stream_memo()
    with span(tracer, "traced.workload"):
        Worker(
            traced_queue, traced_store, drain=True, poll_s=0.05, max_cells=max(1, drained // 2)
        ).run_forever()
    outcome.attempt(
        all(
            traced_store.get_payload(key) == store.get_payload(key)
            for key in traced_store.keys()
        ),
        "in-process worker and worker processes stored different payloads",
    )
    campaign_stack_metrics(m, tracer, traced_store.root)

    # Queue transactions alone: claim -> complete over a scratch copy of
    # the grid, nothing simulated.
    scratch_queue = WorkQueue(scratch / "scratch-queue.sqlite")
    scratch_queue.submit(
        campaign_spec.name, spec_to_dict(campaign_spec), enumerate_cells(campaign_spec)
    )
    claims, completes = [], []
    while True:
        start = time.perf_counter()
        cell = scratch_queue.claim("ledger")
        claimed = time.perf_counter()
        if cell is None:
            break
        scratch_queue.complete(cell.cell_id, "ledger")
        completes.append(time.perf_counter() - claimed)
        claims.append(claimed - start)
    m["service.claim_us"] = statistics.median(claims) * 1e6
    m["service.complete_us"] = statistics.median(completes) * 1e6
