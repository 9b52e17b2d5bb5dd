"""The distributed campaign service.

The paper's prescription -- many runs per (configuration × workload)
cell, with confidence intervals -- makes every serious study an
embarrassingly parallel grid of thousands of independent runs.  This
package shards those grids across processes and hosts:

- :mod:`repro.service.protocol` -- the wire form of a
  :class:`~repro.campaign.plan.CampaignSpec` and the decomposition of a
  spec into (config × workload × seed) *cells*, each resolved to its
  content-addressed run key;
- :mod:`repro.service.queue` -- a lease-based work queue (SQLite,
  compare-and-set claims): cells are leased to workers with
  heartbeat-renewed expiry, requeued when a lease lapses (worker
  crash), and quarantined after too many failed attempts;
- :mod:`repro.service.worker` -- the worker daemon
  (``python -m repro campaign worker``): pull a lease, run the seed
  through its cell's :class:`~repro.core.fanout.CellSampler` -- the
  executor in-process campaigns use, which also publishes the result
  through the store -- and heartbeat while it runs;
- :mod:`repro.service.server` -- the HTTP front door
  (``python -m repro campaign serve``, stdlib ``ThreadingHTTPServer``):
  accepts study submissions as JSON, deduplicates submitted cells
  against everything already in the store, and streams per-cell
  progress as JSON lines to ``campaign watch``;
- :mod:`repro.service.client` -- stdlib HTTP helpers the CLI's
  ``submit``/``watch``/``status`` subcommands are built on.

Correctness contract: a campaign executed via server + workers yields
per-run payloads byte-identical to the same spec run through the
in-process :class:`~repro.campaign.campaign.Campaign` -- the service
changes *where* cells run, never *what* a run means.  That holds because
a worker runs its seed through the very sampler an in-process campaign
cell runs (:class:`repro.core.fanout.CellSampler`, built from the same
stated request), from the same cause-keyed warm checkpoint, and results
are keyed by the same content addresses.
"""

from repro.service.protocol import (
    PROTOCOL_VERSION,
    Cell,
    ServiceError,
    enumerate_cells,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.queue import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    LeasedCell,
    WorkQueue,
    default_queue_path,
)
from repro.service.worker import Worker

__all__ = [
    "PROTOCOL_VERSION",
    "Cell",
    "ServiceError",
    "enumerate_cells",
    "spec_from_dict",
    "spec_to_dict",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "LeasedCell",
    "WorkQueue",
    "default_queue_path",
    "Worker",
]
