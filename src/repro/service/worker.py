"""The campaign worker daemon (``python -m repro campaign worker``).

A worker owns no campaign state: it pulls one lease at a time from the
shared :class:`~repro.service.queue.WorkQueue`, executes the cell, and
publishes the result through the shared :class:`~repro.store.RunStore`.
Everything that matters for correctness is therefore in infrastructure
the in-process path already trusts:

- the cell is one seed of the very request template an in-process
  campaign cell keys and runs
  (:func:`repro.campaign.plan.cell_request`), executed by
  :func:`repro.core.request.execute_request` -- the single-run entry of
  the one run dispatch every fan-out seed goes through -- so its result
  is bit-identical to an in-process campaign's;
- a warm-started cell resolves its shared warm checkpoint through
  :func:`repro.system.checkpoint.warm_checkpoint` with the store --
  cause-keyed, so N workers build it at most N times and usually zero
  (first one wins, the rest read the cache);
- the result is stored *before* the queue is told: a crash between the
  two leaves a cached result that the requeued cell's next worker
  serves without re-executing.

While a cell runs, a daemon thread heartbeats the lease.  A worker that
dies stops heartbeating and the queue requeues the cell -- crash
recovery needs no cooperation from the crashed process.  If a heartbeat
reports the lease lost (e.g. a long GC pause let it lapse), the worker
still finishes and stores the run -- content-addressed writes are
idempotent -- but leaves the queue transition to the new owner.
"""

from __future__ import annotations

import os
import threading
import time
import uuid

from repro.campaign.plan import cell_request
from repro.core.request import effective_config, execute_request, format_failure
from repro.service.protocol import spec_from_dict
from repro.service.queue import DEFAULT_LEASE_S, LeasedCell, WorkQueue
from repro.store import RunStore

#: test-only hook: seconds to sleep after claiming a lease, before
#: executing (gives crash-recovery tests a deterministic kill window)
TEST_SLEEP_ENV = "REPRO_SERVICE_TEST_SLEEP"


class _Heartbeat(threading.Thread):
    """Renews one lease until stopped; flags a lost lease."""

    def __init__(self, queue: WorkQueue, cell: LeasedCell, worker_id: str,
                 lease_s: float) -> None:
        super().__init__(daemon=True)
        self.queue = queue
        self.cell = cell
        self.worker_id = worker_id
        self.lease_s = lease_s
        self.lost = False
        # NB: not "_stop" -- Thread.join() calls a private _stop() method
        self._halt = threading.Event()

    def run(self) -> None:
        interval = max(self.lease_s / 3.0, 0.05)
        while not self._halt.wait(interval):
            if not self.queue.heartbeat(
                self.cell.cell_id, self.worker_id, lease_s=self.lease_s
            ):
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class Worker:
    """Pull leases, execute cells, publish results.

    ``drain=True`` exits once no cell anywhere is pending or leased
    (instead of idling for new submissions); ``max_cells`` bounds how
    many cells this worker will run (tests and canaries).  The worker
    never parses campaign specs twice: decoded specs are cached per
    campaign id.
    """

    def __init__(
        self,
        queue: WorkQueue,
        store: RunStore,
        *,
        worker_id: str | None = None,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.5,
        drain: bool = False,
        max_cells: int | None = None,
        progress=None,
    ) -> None:
        self.queue = queue
        self.store = store
        self.worker_id = worker_id or f"{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.drain = drain
        self.max_cells = max_cells
        self.progress = progress
        self.completed = 0
        self.served_cached = 0
        self.failed = 0
        self._specs: dict = {}  # campaign id -> CampaignSpec

    def _say(self, text: str) -> None:
        if self.progress is not None:
            self.progress(f"[worker {self.worker_id}] {text}")

    def _spec_for(self, campaign_id: str):
        spec = self._specs.get(campaign_id)
        if spec is None:
            row = self.queue.campaign(campaign_id)
            if row is None:
                raise RuntimeError(f"campaign {campaign_id} vanished from the queue")
            spec = spec_from_dict(row["spec"])
            self._specs[campaign_id] = spec
        return spec

    # ------------------------------------------------------------------
    def run_forever(self) -> int:
        """The daemon loop; returns the number of cells completed."""
        while True:
            if self.max_cells is not None and self.completed >= self.max_cells:
                self._say(f"max-cells reached ({self.max_cells}); exiting")
                return self.completed
            # Cheap read-only probe first: only take the queue's write
            # lock when a claim can plausibly succeed.
            cell = (
                self.queue.claim(self.worker_id, lease_s=self.lease_s)
                if self.queue.has_claimable()
                else None
            )
            if cell is None:
                if self.drain and self.queue.outstanding() == 0:
                    self._say("queue drained; exiting")
                    return self.completed
                time.sleep(self.poll_s)
                continue
            self.run_one(cell)

    def run_one(self, cell: LeasedCell) -> bool:
        """Execute one leased cell end to end; ``True`` on completion."""
        test_sleep = float(os.environ.get(TEST_SLEEP_ENV, "0") or "0")
        if test_sleep > 0:
            # Crash-recovery tests SIGKILL the worker inside this window;
            # no heartbeat runs yet, so the lease lapses on schedule.
            time.sleep(test_sleep)

        # Dedup at claim time: another campaign (or a crashed twin that
        # stored before dying) may have produced this key already.
        if self.store.contains(cell.run_key):
            self.queue.complete(cell.cell_id, self.worker_id, cached=True)
            self.completed += 1
            self.served_cached += 1
            self._say(f"cell {cell.cell_id} served from store ({cell.run_key[:12]})")
            return True

        heartbeat = _Heartbeat(self.queue, cell, self.worker_id, self.lease_s)
        heartbeat.start()
        try:
            result, spec, label, wspec = self._execute(cell)
        except Exception as exc:  # noqa: BLE001 -- a cell failure must not kill the daemon
            heartbeat.stop()
            self.failed += 1
            message = format_failure(exc)
            self.queue.fail(cell.cell_id, self.worker_id, message)
            self._say(f"cell {cell.cell_id} failed: {message}")
            return False
        heartbeat.stop()

        # Store first, then transition the queue: a crash in between
        # costs one redundant (and idempotent) store read, never a loss.
        self.store.put(
            cell.run_key,
            result,
            workload=wspec.name,
            config=label,
            campaign=spec.name,
        )
        if heartbeat.lost:
            # The queue re-leased this cell; its new owner will find the
            # stored result and complete as cached.  Don't double-report.
            self._say(f"cell {cell.cell_id} finished after lease loss (stored)")
            return True
        self.queue.complete(cell.cell_id, self.worker_id)
        self.completed += 1
        self._say(
            f"cell {cell.cell_id} done ({cell.config_label} x {cell.workload} "
            f"seed {cell.seed})"
        )
        return True

    def _execute(self, cell: LeasedCell):
        """Run the cell's simulation exactly as the in-process path would."""
        spec = self._spec_for(cell.campaign_id)
        try:
            label, config = spec.configs[cell.config_index]
            wspec = spec.workloads[cell.workload_index]
        except IndexError as exc:
            raise RuntimeError(
                f"cell {cell.cell_id} indexes outside its campaign spec"
            ) from exc
        template = cell_request(spec, config, wspec)
        checkpoint = None
        if spec.warm_start:
            from repro.system.checkpoint import warm_checkpoint

            # Warm-up under the fidelity-effective configuration, matching
            # the cell's warm key (cause-keyed: first worker builds it,
            # the rest read the cache).
            checkpoint = warm_checkpoint(
                effective_config(config, spec.fidelity),
                wspec.make(),
                warmup_transactions=spec.run.warmup_transactions,
                max_time_ns=spec.run.max_time_ns,
                store=self.store,
                mode=spec.warmup_mode,
            )
        request = template.with_seed(cell.seed)
        return execute_request(request, checkpoint), spec, label, wspec
