"""The lease-based work queue.

One SQLite database (``queue.sqlite``, by default beside the run store)
holds every submitted campaign, its cells, and an append-only event log.
Server and workers share it directly -- the queue *is* the coordination
point, so neither side depends on the other staying alive.

Cell lifecycle::

    submitted --> cached                        (store already had it)
              \\-> pending --> leased --> done   (normal completion)
                     ^           |
                     |           +--> pending   (lease expired / run failed,
                     |                 attempts < max)
                     |           +--> quarantined (attempts exhausted)
                     +-----------+

Lease discipline: a worker *claims* a cell inside a ``BEGIN IMMEDIATE``
transaction -- take the write lock, requeue any lapsed leases, pick the
oldest pending cell, stamp it with the worker id and an expiry --
a compare-and-set in which the database write lock is the "compare", so
two workers can never lease the same cell (exclusivity is a transaction
property, not a convention).  While executing, the worker *heartbeats*
to push the expiry forward; a worker that dies (crash, SIGKILL, network
partition) simply stops heartbeating, the lease lapses, and the next
claim requeues the cell.  A cell that keeps failing -- every lapse and
failure increments ``attempts`` -- is quarantined after
``max_attempts`` so one poisoned cell cannot livelock the fleet.

Every transition appends an event row; ``campaign watch`` streams these
as JSON lines.
"""

from __future__ import annotations

import contextlib
import json
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.store.backends import sqlite_connect, sqlite_write

#: default lease duration (a worker heartbeats at a fraction of this)
DEFAULT_LEASE_S = 30.0

#: default attempts before a cell is quarantined as poisoned
DEFAULT_MAX_ATTEMPTS = 3

#: queue database filename, beside the run store by default
QUEUE_FILENAME = "queue.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id           TEXT PRIMARY KEY,
    name         TEXT NOT NULL,
    spec         TEXT NOT NULL,
    max_attempts INTEGER NOT NULL,
    submitted_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id    TEXT NOT NULL,
    config_index   INTEGER NOT NULL,
    workload_index INTEGER NOT NULL,
    config_label   TEXT NOT NULL,
    workload       TEXT NOT NULL,
    seed           INTEGER NOT NULL,
    run_key        TEXT NOT NULL,
    state          TEXT NOT NULL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    worker         TEXT,
    lease_expiry   REAL,
    error          TEXT,
    finished_at    REAL,
    UNIQUE (campaign_id, run_key)
);
CREATE INDEX IF NOT EXISTS cells_by_state ON cells (state, id);
CREATE TABLE IF NOT EXISTS events (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL,
    at          REAL NOT NULL,
    kind        TEXT NOT NULL,
    detail      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS events_by_campaign ON events (campaign_id, seq);
"""

#: states a cell can rest in ("leased" is the only one with an owner;
#: no transition writes "failed", whose always-0 count the ledger's
#: pinned service_drain digests still list)
CELL_STATES = ("pending", "leased", "done", "failed", "quarantined", "cached")

#: states that need no further work
TERMINAL_STATES = ("done", "quarantined", "cached")


def default_queue_path(store_root: str | Path) -> Path:
    """The queue database that belongs to a store root."""
    return Path(store_root) / QUEUE_FILENAME


@dataclass(frozen=True)
class LeasedCell:
    """What a successful claim hands the worker."""

    cell_id: int
    campaign_id: str
    config_index: int
    workload_index: int
    config_label: str
    workload: str
    seed: int
    run_key: str
    attempts: int
    lease_expiry: float


class WorkQueue:
    """Multi-process work queue over one SQLite database.

    Instances are cheap (a path and a schema check); every operation
    opens its own connection, so one ``WorkQueue`` may be shared across
    threads and survives ``fork()``.  All read-modify-write operations
    run under ``BEGIN IMMEDIATE`` (:func:`~repro.store.backends.sqlite_write`)
    and retry on lock contention, so concurrent servers and workers
    serialize rather than corrupt.  Only lock timeouts retry: a
    ``UNIQUE`` violation is a real error and fails at once.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            conn.executescript(_SCHEMA)

    @staticmethod
    def _event(conn, campaign_id: str, kind: str, detail: dict, at: float) -> None:
        conn.execute(
            "INSERT INTO events (campaign_id, at, kind, detail) VALUES (?, ?, ?, ?)",
            (campaign_id, at, kind, json.dumps(detail, sort_keys=True)),
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        spec_dict: dict,
        cells,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: float | None = None,
    ) -> str:
        """Enqueue a decomposed campaign; returns its id.

        ``cells`` is the :func:`repro.service.protocol.enumerate_cells`
        output: cells flagged ``cached`` are recorded as already
        satisfied (the submit-side dedup) and never leased; the rest
        start ``pending``.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        campaign_id = uuid.uuid4().hex[:12]
        at = time.time() if now is None else now
        spec_text = json.dumps(spec_dict, sort_keys=True)
        cells = list(cells)

        def body(conn):
            conn.execute(
                "INSERT INTO campaigns (id, name, spec, max_attempts, submitted_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (campaign_id, name, spec_text, max_attempts, at),
            )
            for cell in cells:
                state = "cached" if cell.cached else "pending"
                conn.execute(
                    "INSERT INTO cells (campaign_id, config_index, workload_index,"
                    " config_label, workload, seed, run_key, state, finished_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        cell.config_index,
                        cell.workload_index,
                        cell.config_label,
                        cell.workload,
                        cell.seed,
                        cell.run_key,
                        state,
                        at if cell.cached else None,
                    ),
                )
            n_cached = sum(1 for c in cells if c.cached)
            self._event(
                conn,
                campaign_id,
                "submitted",
                {
                    "name": name,
                    "cells": len(cells),
                    "cached": n_cached,
                    "pending": len(cells) - n_cached,
                },
                at,
            )
            return campaign_id

        return sqlite_write(self.path, body)

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def _retry_or_quarantine(
        self, conn, campaign_id: str, max_attempts: int, now: float, kind: str,
        detail: dict, error: str | None = None,
    ) -> None:
        """Take the cell ``detail`` names off its lease: back to
        ``pending`` while attempts remain, else ``quarantined``.  Logs
        ``kind`` (``detail`` plus whether the cell was requeued), then
        ``quarantined`` if it was not; ``error``, when given, replaces the
        cell's last error."""
        poisoned = detail["attempts"] >= max_attempts
        conn.execute(
            "UPDATE cells SET state = ?, worker = NULL, lease_expiry = NULL,"
            " error = COALESCE(?, error), finished_at = ? WHERE id = ?",
            ("quarantined" if poisoned else "pending", error, now if poisoned else None,
             detail["cell"]),
        )
        self._event(conn, campaign_id, kind, {**detail, "requeued": not poisoned}, now)
        if poisoned:
            quarantined = {key: detail[key] for key in ("cell", "run_key", "attempts")}
            self._event(conn, campaign_id, "quarantined", quarantined, now)

    def _requeue_lapsed(self, conn, now: float) -> None:
        """Requeue (or quarantine) every cell whose lease has lapsed.

        Runs inside the caller's write transaction.  ``attempts`` was
        charged at claim time, so a lapse only moves state.
        """
        rows = conn.execute(
            "SELECT c.id, c.campaign_id, c.run_key, c.worker, c.attempts,"
            "       m.max_attempts"
            " FROM cells c JOIN campaigns m ON m.id = c.campaign_id"
            " WHERE c.state = 'leased' AND c.lease_expiry < ?",
            (now,),
        ).fetchall()
        for cell_id, campaign_id, run_key, worker, attempts, max_attempts in rows:
            detail = {"cell": cell_id, "run_key": run_key, "worker": worker, "attempts": attempts}
            self._retry_or_quarantine(conn, campaign_id, max_attempts, now, "lease-expired", detail)

    def claim(
        self,
        worker_id: str,
        *,
        lease_s: float = DEFAULT_LEASE_S,
        now: float | None = None,
    ) -> LeasedCell | None:
        """Lease the oldest pending cell to ``worker_id``, or ``None``.

        Atomic with lapsed-lease requeue: a claim first recovers any
        cells whose workers died, so a single surviving worker drains a
        crashed fleet's backlog with no separate reaper process.
        """
        now = time.time() if now is None else now

        def body(conn):
            self._requeue_lapsed(conn, now)
            row = conn.execute(
                "SELECT id, campaign_id, config_index, workload_index,"
                " config_label, workload, seed, run_key, attempts"
                " FROM cells WHERE state = 'pending' ORDER BY id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            (
                cell_id,
                campaign_id,
                ci,
                wi,
                label,
                workload,
                seed,
                run_key,
                attempts,
            ) = row
            expiry = now + lease_s
            conn.execute(
                "UPDATE cells SET state = 'leased', worker = ?, lease_expiry = ?,"
                " attempts = attempts + 1 WHERE id = ?",
                (worker_id, expiry, cell_id),
            )
            self._event(
                conn,
                campaign_id,
                "leased",
                {
                    "cell": cell_id,
                    "run_key": run_key,
                    "worker": worker_id,
                    "attempt": attempts + 1,
                },
                now,
            )
            return LeasedCell(
                cell_id=cell_id,
                campaign_id=campaign_id,
                config_index=ci,
                workload_index=wi,
                config_label=label,
                workload=workload,
                seed=seed,
                run_key=run_key,
                attempts=attempts + 1,
                lease_expiry=expiry,
            )

        return sqlite_write(self.path, body)

    def heartbeat(
        self,
        cell_id: int,
        worker_id: str,
        *,
        lease_s: float = DEFAULT_LEASE_S,
        now: float | None = None,
    ) -> bool:
        """Extend a held lease; ``False`` means the lease was lost.

        The ownership check is part of the UPDATE's WHERE clause, so a
        worker whose lease lapsed (and was re-leased elsewhere) learns
        it here and must abandon the cell rather than publish state
        transitions for it.
        """
        now = time.time() if now is None else now

        def body(conn):
            cur = conn.execute(
                "UPDATE cells SET lease_expiry = ? WHERE id = ? AND worker = ?"
                " AND state = 'leased'",
                (now + lease_s, cell_id, worker_id),
            )
            return cur.rowcount == 1

        return sqlite_write(self.path, body)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(
        self,
        cell_id: int,
        worker_id: str,
        *,
        cached: bool = False,
        now: float | None = None,
    ) -> bool:
        """Mark a leased cell done (``cached=True`` when the result was
        served from the store rather than executed).  Returns ``False``
        if the lease was lost in the meantime -- harmless, because the
        result is content-addressed: whoever re-runs the cell writes
        identical bytes."""
        now = time.time() if now is None else now

        def body(conn):
            row = conn.execute(
                "SELECT campaign_id, run_key, attempts FROM cells"
                " WHERE id = ? AND worker = ? AND state = 'leased'",
                (cell_id, worker_id),
            ).fetchone()
            if row is None:
                return False  # lease lost; result (if any) is still cached
            campaign_id, run_key, attempts = row
            conn.execute(
                "UPDATE cells SET state = 'done', worker = NULL, lease_expiry = NULL,"
                " error = NULL, finished_at = ? WHERE id = ?",
                (now, cell_id),
            )
            self._event(
                conn,
                campaign_id,
                "done",
                {
                    "cell": cell_id,
                    "run_key": run_key,
                    "worker": worker_id,
                    "attempts": attempts,
                    "cached": cached,
                },
                now,
            )
            return True

        return sqlite_write(self.path, body)

    def fail(
        self,
        cell_id: int,
        worker_id: str,
        error: str,
        *,
        now: float | None = None,
    ) -> bool:
        """Report a failed execution: requeue, or quarantine when the
        attempt budget is spent."""
        now = time.time() if now is None else now

        def body(conn):
            row = conn.execute(
                "SELECT c.campaign_id, c.run_key, c.attempts, m.max_attempts"
                " FROM cells c JOIN campaigns m ON m.id = c.campaign_id"
                " WHERE c.id = ? AND c.worker = ? AND c.state = 'leased'",
                (cell_id, worker_id),
            ).fetchone()
            if row is None:
                return False
            campaign_id, run_key, attempts, max_attempts = row
            detail = {
                "cell": cell_id,
                "run_key": run_key,
                "worker": worker_id,
                "attempts": attempts,
                "error": error[:500],
            }
            self._retry_or_quarantine(conn, campaign_id, max_attempts, now, "failed", detail, error)
            return True

        return sqlite_write(self.path, body)

    def has_claimable(self, *, now: float | None = None) -> bool:
        """Whether a claim could plausibly succeed right now.

        A read-only probe (shared lock, no journal write): idle workers
        poll this instead of hammering the write-locked :meth:`claim`
        transaction, which matters when many workers share one core or a
        slow filesystem.  It may say ``True`` for a cell another worker
        snatches first -- the claim itself remains the only arbiter.
        """
        now = time.time() if now is None else now
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            return conn.execute(
                "SELECT EXISTS (SELECT 1 FROM cells WHERE state = 'pending'"
                " OR (state = 'leased' AND lease_expiry < ?))",
                (now,),
            ).fetchone()[0] == 1

    def requeue_lapsed(self, *, now: float | None = None) -> None:
        """Recover lapsed leases outside a claim (servers call this
        periodically so progress is visible even with no worker asking)."""
        now = time.time() if now is None else now
        sqlite_write(self.path, lambda conn: self._requeue_lapsed(conn, now))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def campaign(self, campaign_id: str) -> dict | None:
        """The stored campaign row (id, name, spec dict, max_attempts)."""
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            row = conn.execute(
                "SELECT id, name, spec, max_attempts, submitted_at"
                " FROM campaigns WHERE id = ?",
                (campaign_id,),
            ).fetchone()
        if row is None:
            return None
        cid, name, spec_text, max_attempts, submitted_at = row
        return {
            "id": cid,
            "name": name,
            "spec": json.loads(spec_text),
            "max_attempts": max_attempts,
            "submitted_at": submitted_at,
        }

    def campaigns(self) -> list[dict]:
        """Every campaign with its state counts, oldest first."""
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            rows = conn.execute(
                "SELECT id, name, submitted_at FROM campaigns ORDER BY submitted_at"
            ).fetchall()
        return [
            {"id": cid, "name": name, "submitted_at": at, **self.counts(cid)}
            for cid, name, at in rows
        ]

    def counts(self, campaign_id: str) -> dict:
        """Cell-state counts of one campaign (zero-filled)."""
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) FROM cells WHERE campaign_id = ?"
                " GROUP BY state",
                (campaign_id,),
            ).fetchall()
        counts = {state: 0 for state in CELL_STATES}
        counts.update(dict(rows))
        counts["total"] = sum(counts[state] for state in CELL_STATES)
        return counts

    def cells(self, campaign_id: str) -> list[dict]:
        """Every cell of a campaign, in creation order."""
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            rows = conn.execute(
                "SELECT id, config_label, workload, seed, run_key, state,"
                " attempts, worker, error FROM cells WHERE campaign_id = ?"
                " ORDER BY id",
                (campaign_id,),
            ).fetchall()
        names = (
            "cell", "config", "workload", "seed", "run_key", "state",
            "attempts", "worker", "error",
        )
        return [dict(zip(names, row)) for row in rows]

    def is_done(self, campaign_id: str) -> bool:
        """Whether every cell of a campaign is in a terminal state."""
        counts = self.counts(campaign_id)
        terminal = sum(counts[state] for state in TERMINAL_STATES)
        return counts["total"] > 0 and terminal == counts["total"]

    def outstanding(self) -> int:
        """Cells not yet in a terminal state, across all campaigns."""
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM cells WHERE state IN ('pending', 'leased')"
            ).fetchone()[0]

    def events_since(self, campaign_id: str, seq: int) -> list[dict]:
        """Events of a campaign after ``seq``, oldest first (the watch
        stream's cursor-based page)."""
        with contextlib.closing(sqlite_connect(self.path)) as conn:
            rows = conn.execute(
                "SELECT seq, at, kind, detail FROM events"
                " WHERE campaign_id = ? AND seq > ? ORDER BY seq",
                (campaign_id, seq),
            ).fetchall()
        return [
            {"seq": s, "at": at, "kind": kind, **json.loads(detail)}
            for s, at, kind, detail in rows
        ]
