"""The campaign worker daemon (``python -m repro campaign worker``).

A worker owns no campaign state and no execution path of its own: it
pulls one lease at a time from the shared
:class:`~repro.service.queue.WorkQueue` and runs the leased seed as one
``collect([seed])`` of the cell's
:class:`~repro.core.fanout.CellSampler`, built exactly as an in-process
:class:`~repro.campaign.campaign.Campaign` cell builds it and driven by
the same :func:`~repro.core.fanout.run_cells`.  The sampler serves a
result the store already holds, reads the cell's warm checkpoint from
the store or orders the warm-up and stores it, runs the seed through
the one run dispatch, persists the result with the campaign's journal
fields and captures a failure as a ``RunFailure`` -- so a served result
is bit-identical to an in-process one.  A worker keeps the samplers of
the last two cells it leased seeds of, so a cell's seeds share one
checkpoint read and one opened machine, each seed a clone of it.

What is left here is the queue protocol.  The result is stored *before*
the queue is told: a crash between the two leaves a stored result that
the requeued cell's next worker is served by its sampler's store lookup,
without re-executing.  While a seed runs, a daemon thread heartbeats
the lease.  A worker that dies stops heartbeating and the queue
requeues the cell -- crash recovery needs no cooperation from the
crashed process.  If a heartbeat reports the lease lost (e.g. a long GC
pause let it lapse), the worker still finishes and stores the run --
content-addressed writes are idempotent -- but leaves the queue
transition to the new owner.
"""

from __future__ import annotations

import os
import threading
import time
import uuid

from repro.core.fanout import CellSampler, run_cells
# Not called here; benchmarks/ledger/service.py wraps this attribute.
from repro.core.request import execute_request  # noqa: F401
from repro.service.protocol import spec_from_dict
from repro.service.queue import DEFAULT_LEASE_S, LeasedCell, WorkQueue
from repro.store import RunStore

#: test-only hook: seconds to sleep after claiming a lease, before
#: executing (gives crash-recovery tests a deterministic kill window)
TEST_SLEEP_ENV = "REPRO_SERVICE_TEST_SLEEP"

#: cells whose samplers a worker keeps; leases come in grid order, so
#: older cells are finished ones, and evicting one costs at worst a
#: checkpoint read and an open, never a wrong result
_SAMPLER_WINDOW = 2


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
    """Pull leases, run each leased seed through its cell's sampler,
    report to the queue.

    ``drain=True`` exits once no cell anywhere is pending or leased
    (instead of idling for new submissions); ``max_cells`` bounds how
    many cells this worker will run (tests and canaries).
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
        # (campaign id, config index, workload index) -> CellSampler, oldest first
        self._samplers: dict[tuple, CellSampler] = {}

    def _say(self, text: str) -> None:
        if self.progress is not None:
            self.progress(f"[worker {self.worker_id}] {text}")

    def _sampler_for(self, key: tuple, cell: LeasedCell) -> CellSampler:
        """The sampler of the leased seed's cell (``key``), built as
        ``Campaign._run_cell`` builds it."""
        sampler = self._samplers.pop(key, None)
        if sampler is None:
            row = self.queue.campaign(cell.campaign_id)
            if row is None:
                raise RuntimeError(f"campaign {cell.campaign_id} vanished from the queue")
            spec = spec_from_dict(row["spec"])
            label, config = spec.configs[cell.config_index]
            sampler = CellSampler(
                spec.request(config, spec.workloads[cell.workload_index]), self.store,
                warm_start=spec.warm_start, config=label, campaign=spec.name,
            )
        self._samplers[key] = sampler
        while len(self._samplers) > _SAMPLER_WINDOW:
            del self._samplers[next(iter(self._samplers))]
        return sampler

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
        """Run one leased cell end to end; ``True`` on completion."""
        test_sleep = float(os.environ.get(TEST_SLEEP_ENV, "0") or "0")
        if test_sleep > 0:
            # Crash-recovery tests SIGKILL the worker inside this window;
            # no heartbeat runs yet, so the lease lapses on schedule.
            time.sleep(test_sleep)

        key = (cell.campaign_id, cell.config_index, cell.workload_index)
        heartbeat = _Heartbeat(self.queue, cell, self.worker_id, self.lease_s)
        heartbeat.start()
        try:
            # Served from the store, or executed and stored, by the sampler.
            ((done, fails),) = run_cells([self._sampler_for(key, cell).collect([cell.seed])])
        finally:
            heartbeat.stop()
        if fails:
            del self._samplers[key]  # a retry starts over: a failed warm-up is not kept
            message = fails[0].error
            self.queue.fail(cell.cell_id, self.worker_id, message)
            self._say(f"cell {cell.cell_id} failed: {message}")
            return False
        if heartbeat.lost:
            # The queue re-leased this cell; its new owner will find the
            # stored result and complete as cached.  Don't double-report.
            self._say(f"cell {cell.cell_id} finished after lease loss (stored)")
            return True
        self.queue.complete(cell.cell_id, self.worker_id, cached=not done)
        self.completed += 1
        if done:
            self._say(
                f"cell {cell.cell_id} done ({cell.config_label} x {cell.workload} "
                f"seed {cell.seed})"
            )
        else:
            self._say(f"cell {cell.cell_id} served from store ({cell.run_key[:12]})")
        return True
