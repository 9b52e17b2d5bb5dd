"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  The
experiments follow the paper's methodology: warm the workload once,
checkpoint, and start every perturbed run from that checkpoint.

All persistence goes through the run store (:mod:`repro.store`,
``$REPRO_STORE_DIR`` or ``~/.cache/repro``): warm-up checkpoints are
cached under ``checkpoints/`` so re-running a bench does not repeat the
warm-up, and every perturbed run is content-addressed in the store --
interrupting a bench and re-running it reuses all completed runs and
executes only the missing seeds.

Environment knobs:

- ``REPRO_STORE_DIR``: run-store root (default ``~/.cache/repro``).
- ``REPRO_STORE_BACKEND``: ``dir`` (default) or ``sqlite`` -- the store
  backend (:mod:`repro.store.backends`); ``sqlite`` keeps the journal
  safe under many concurrent writer processes.
- ``REPRO_BENCH_RUNS``: runs per configuration (default 20, the paper's
  sample size; set lower for a quick pass).
- ``REPRO_BENCH_TXNS``: measured transactions for the standard OLTP
  experiments (default 200, as in Experiment 1).
- ``REPRO_BENCH_WARMUP_MODE``: ``timed`` (default) or ``functional`` --
  how warm-up legs execute (:mod:`repro.core.ffwd`).  Functional
  warm-up reaches a different (but equally valid) warm state, so its
  checkpoints and runs cache under separate keys.

Scale note (see DESIGN.md): one synthetic transaction costs ~10^2-10^3
memory operations, about 500x lighter than the paper's (~10^6
instructions), so absolute cycles-per-transaction values are ~500x
smaller.  All comparisons are relative, which is what the paper's
conclusions rest on.
"""

from __future__ import annotations

import os

from repro.config import RunConfig, SystemConfig
from repro.core.runner import RunSample, run_space
from repro.store import RunStore
from repro.system.checkpoint import Checkpoint
from repro.system.checkpoint import warm_checkpoint as _library_warm_checkpoint
from repro.workloads.registry import make_workload

#: the shared persistent run store (honours $REPRO_STORE_DIR and
#: $REPRO_STORE_BACKEND)
STORE = RunStore()

#: runs per configuration (paper: twenty)
N_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "20"))
#: measured transactions for the standard OLTP experiments
N_TXNS = int(os.environ.get("REPRO_BENCH_TXNS", "200"))
#: machine-lifetime transactions of warm-up before the checkpoint
WARMUP_TXNS = int(os.environ.get("REPRO_BENCH_WARMUP", "3000"))
#: how warm-up legs execute: "timed" or "functional" (repro.core.ffwd)
WARMUP_MODE = os.environ.get("REPRO_BENCH_WARMUP_MODE", "timed")

MAX_TIME_NS = 10**13


def warm_checkpoint(
    workload_name: str = "oltp",
    *,
    config: SystemConfig | None = None,
    warmup: int | None = None,
    workload_params: dict | None = None,
    warmup_mode: str | None = None,
) -> Checkpoint:
    """Warm a workload on the base configuration and checkpoint it.

    A thin wrapper over the library helper
    (:func:`repro.system.checkpoint.warm_checkpoint`), which caches the
    checkpoint in the run store under its cause key
    (:func:`repro.store.warm_key`) -- re-running a bench skips the
    warm-up, and campaigns/run_space resolve the very same checkpoint.

    ``warmup_mode`` (default: ``$REPRO_BENCH_WARMUP_MODE`` or
    ``"timed"``) selects timed or functional warm-up execution.
    """
    config = config or SystemConfig()
    warmup = warmup if warmup is not None else WARMUP_TXNS
    return _library_warm_checkpoint(
        config,
        make_workload(workload_name, **(workload_params or {})),
        warmup_transactions=warmup,
        max_time_ns=MAX_TIME_NS,
        store=STORE,
        mode=warmup_mode if warmup_mode is not None else WARMUP_MODE,
    )


def sample_runs(
    config: SystemConfig,
    checkpoint: Checkpoint,
    *,
    n_runs: int | None = None,
    txns: int | None = None,
    seed_base: int = 100,
    workload_name: str = "oltp",
    workload_params: dict | None = None,
    n_jobs: int = 1,
) -> RunSample:
    """N perturbed runs of one configuration from a shared checkpoint.

    Backed by the run store: completed runs persist as they finish, so
    an interrupted bench reuses them on the next invocation and only
    executes the missing seeds.  ``n_jobs > 1`` fans the seeds out
    through :mod:`repro.core.fanout` (bit-identical results).
    """
    run = RunConfig(
        measured_transactions=txns if txns is not None else N_TXNS,
        warmup_transactions=0,
        seed=seed_base,
        max_time_ns=MAX_TIME_NS,
    )
    return run_space(
        config,
        make_workload(workload_name, **(workload_params or {})),
        run,
        n_runs if n_runs is not None else N_RUNS,
        checkpoint=checkpoint,
        workload_params=workload_params or {},
        store=STORE,
        n_jobs=n_jobs,
    )


def paper_vs_measured(rows: list[tuple[str, object, object]]) -> str:
    """Render a paper-value vs measured-value comparison table."""
    from repro.analysis.tables import format_table

    return format_table(
        ["quantity", "paper", "measured"],
        [[name, paper, measured] for name, paper, measured in rows],
    )


def print_header(title: str) -> None:
    """Print a bench banner."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
