"""The persistent run store.

A :class:`RunStore` maps content-addressed keys to completed simulation
results, with an append-only journal and cached warm-up checkpoints.
*Where* that state lives is a :class:`~repro.store.backends.StoreBackend`:

- ``"dir"`` (default) -- the original filesystem layout under a root
  directory: ``runs/<key>.json`` atomic per-run files, a
  ``journal.jsonl`` whole-line-append journal, pickles under
  ``checkpoints/``;
- ``"sqlite"`` -- one ``store.sqlite`` database under the same root,
  with compare-and-set journal appends, for many worker processes
  sharing one store over a common filesystem (the campaign service's
  deployment, :mod:`repro.service`).

The root defaults to ``~/.cache/repro``, overridden by the
``REPRO_STORE_DIR`` environment variable or an explicit path; the
backend defaults to ``dir``, overridden by ``REPRO_STORE_BACKEND`` or an
explicit argument.  Both backends speak the same key space (keys name
causes, not storage), so the same key always means the same result.

Robustness rules: readers never trust stored bytes.  A corrupt or
truncated run payload, journal entry, or checkpoint (e.g. from a power
cut mid-rename on a non-atomic filesystem) is skipped with a
:class:`RuntimeWarning`, never raised -- losing one cached run costs a
re-execution, not the store.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.store.backends import DirBackend, StoreBackend, make_backend
from repro.system.simulation import SimulationResult

#: environment variable naming the store root
STORE_DIR_ENV = "REPRO_STORE_DIR"


def default_store_dir() -> Path:
    """The store root: ``$REPRO_STORE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class RunStore:
    """Content-addressed persistence for simulation runs.

    Safe for concurrent use by multiple processes sharing one root: the
    ``dir`` backend relies on atomic renames and whole-line appends, the
    ``sqlite`` backend on short write-locked transactions.  ``backend``
    is ``"dir"``, ``"sqlite"``, an explicit
    :class:`~repro.store.backends.StoreBackend` instance, or ``None`` to
    honour ``$REPRO_STORE_BACKEND`` (default ``dir``).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        backend: str | StoreBackend | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        if isinstance(backend, StoreBackend):
            self.backend = backend
        else:
            self.backend = make_backend(self.root, backend)

    # ------------------------------------------------------------------
    # Filesystem-layout accessors (dir backend only)
    # ------------------------------------------------------------------
    def _dir_backend(self) -> DirBackend:
        if not isinstance(self.backend, DirBackend):
            raise TypeError(
                f"store backend {self.backend.kind!r} has no filesystem layout"
            )
        return self.backend

    @property
    def runs_dir(self) -> Path:
        """The per-run file directory (``dir`` backend only)."""
        return self._dir_backend().runs_dir

    @property
    def journal_path(self) -> Path:
        """The JSONL journal path (``dir`` backend only)."""
        return self._dir_backend().journal_path

    def path_for(self, key: str) -> Path:
        """The run file path for a key (``dir`` backend only)."""
        return self._dir_backend().path_for(key)

    def checkpoint_path_for(self, key: str) -> Path:
        """The cached-checkpoint path for a warm key (``dir`` backend only)."""
        return self._dir_backend().checkpoint_path_for(key)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether a run with this key has been stored."""
        return self.backend.contains(key)

    def _result_of(self, key: str, payload: dict | None) -> SimulationResult | None:
        if payload is None:
            return None
        try:
            return SimulationResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError) as exc:
            import warnings

            warnings.warn(
                f"run store: skipping corrupt entry {key}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def get(self, key: str) -> SimulationResult | None:
        """The stored result for a key, or ``None`` (missing or corrupt)."""
        return self._result_of(key, self.backend.get_payload(key))

    def get_payload(self, key: str) -> dict | None:
        """The raw stored payload (``{"key", "result", "meta"}``) or ``None``.

        This is what differential tests compare byte-for-byte across
        execution paths and backends; normal consumers want :meth:`get`.
        """
        return self.backend.get_payload(key)

    def get_many(self, keys: list[str]) -> dict:
        """Stored results for many keys in one backend pass.

        The returned dict holds only the keys that were found and
        readable; corrupt entries are skipped with the same warning as
        :meth:`get`.  Resolution goes through the backend interface
        (one directory scan, or one batched query), so dedup-on-submit
        behaves identically on every backend.
        """
        found = {}
        for key, payload in self.backend.get_many_payloads(keys).items():
            result = self._result_of(key, payload)
            if result is not None:
                found[key] = result
        return found

    def put(self, key: str, result: SimulationResult, **meta) -> None:
        """Store a completed run and journal the event.

        ``meta`` (e.g. ``workload='oltp'``) is recorded alongside the
        result and in the journal line; it does not affect the key.
        """
        payload = {"key": key, "result": result.to_dict(), "meta": dict(meta)}
        self.backend.put_payload(key, payload)
        self.backend.append_journal(
            {
                "key": key,
                "seed": result.seed,
                "cycles_per_transaction": result.cycles_per_transaction,
                "timed_out": result.timed_out,
                "stored_at": time.time(),
                **meta,
            }
        )

    def log_event(self, event: str, **fields) -> None:
        """Journal a non-run event (e.g. a fidelity escalation decision).

        Event records carry an ``"event"`` field, so -- like evictions --
        they are excluded from :meth:`journal_length` and never mistaken
        for stored runs.  This is what makes decisions *about* runs (which
        cells the escalation ladder promoted to full fidelity, and why)
        reproducible from the same audit trail as the runs themselves.
        """
        if event in ("", "delete"):
            raise ValueError(f"invalid event name {event!r}")
        self.backend.append_journal(
            {"event": event, "logged_at": time.time(), **fields}
        )

    def events(self, event: str | None = None) -> list[dict]:
        """Journaled event records (non-run entries), oldest first.

        ``event`` filters to one event name; evictions appear under
        ``"delete"``.
        """
        entries = [e for e in self.journal_entries() if "event" in e]
        if event is not None:
            entries = [e for e in entries if e.get("event") == event]
        return entries

    def delete(self, key: str, **meta) -> bool:
        """Evict one stored run, journaling the eviction.

        Returns ``True`` if a run was actually removed.  The journal
        gains an ``{"event": "delete", "key": ...}`` record either way a
        run existed, so a shared store's audit trail explains shrinkage
        as well as growth; ``meta`` (e.g. ``reason='stale'``) rides
        along.  Checkpoints are untouched -- they are keyed by cause and
        re-warm on demand.
        """
        removed = self.backend.delete_payload(key)
        if removed:
            self.backend.append_journal(
                {
                    "event": "delete",
                    "key": key,
                    "deleted_at": time.time(),
                    **meta,
                }
            )
        return removed

    def prune(self, predicate) -> list[str]:
        """Evict every stored run whose payload matches ``predicate``.

        ``predicate(key, payload)`` receives each run's key and raw
        payload dict (``{"key", "result", "meta"}``) and returns truthy
        to evict.  Each eviction is journaled as
        ``{"event": "delete", "reason": "prune"}``; the list of evicted
        keys is returned.  A multi-tenant store uses this to enforce
        retention (e.g. drop a retired campaign's runs) -- without it
        the cache can only grow.
        """
        evicted: list[str] = []
        for key in self.backend.keys():
            payload = self.backend.get_payload(key)
            if payload is None:
                continue
            if predicate(key, payload):
                if self.backend.delete_payload(key):
                    self.backend.append_journal(
                        {
                            "event": "delete",
                            "key": key,
                            "deleted_at": time.time(),
                            "reason": "prune",
                        }
                    )
                    evicted.append(key)
        return evicted

    def keys(self) -> list[str]:
        """All stored run keys, sorted."""
        return self.backend.keys()

    def __len__(self) -> int:
        return self.backend.count()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    # ------------------------------------------------------------------
    # Warm-up checkpoints
    # ------------------------------------------------------------------
    def get_checkpoint(self, key: str):
        """The cached checkpoint for a warm key, or ``None``.

        Like :meth:`get`, a corrupt or unreadable checkpoint -- or one
        in a layout this version no longer reads
        (:meth:`~repro.system.checkpoint.Checkpoint.loads`) -- is a cache
        miss (warned, never raised): losing a cached warm-up costs one
        re-warm, not the campaign.
        """
        return self.backend.get_checkpoint(key)

    def put_checkpoint(self, key: str, checkpoint) -> None:
        """Cache a warm-up checkpoint under its warm key."""
        self.backend.put_checkpoint(key, checkpoint)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _append_journal(self, entry: dict) -> None:
        self.backend.append_journal(entry)

    def journal_entries(self) -> list[dict]:
        """All journal entries, oldest first, skipping corrupt ones."""
        return self.backend.journal_entries()

    def journal_length(self) -> int:
        """Number of runs recorded in the journal (eviction records --
        entries carrying an ``"event"`` field -- are not counted)."""
        return sum(1 for e in self.journal_entries() if "event" not in e)
