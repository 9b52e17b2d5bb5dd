"""Store backends: where run payloads, the journal, and checkpoints live.

The :class:`~repro.store.store.RunStore` API (keys in, results out) is
backend-independent; this module supplies the persistence strategies
behind it:

- :class:`DirBackend` -- the original layout: one atomic JSON file per
  run under ``runs/``, an ``O_APPEND`` JSONL journal, pickle files under
  ``checkpoints/``.  Ideal for a single machine; concurrent writers are
  safe because every mutation is either an atomic rename or a single
  whole-line append.
- :class:`SQLiteBackend` -- one ``store.sqlite`` database under the same
  root, for N worker processes sharing a store over a common
  filesystem.  Run payloads and checkpoints are rows; journal appends
  are compare-and-set: each entry takes an explicit ``seq`` (primary
  key) computed inside a ``BEGIN IMMEDIATE`` transaction, so the journal
  is a dense, gap-free sequence no matter how many processes append
  concurrently.  WAL is deliberately *not* enabled -- its shared-memory
  index does not work across network filesystems, which are exactly the
  deployment this backend exists for.

Both backends speak the same key space: keys are content addresses
(:mod:`repro.store.keys`), naming a run by its complete cause, so the
same key means the same result bytes on either backend and migrating a
store between backends can never alias two different experiments.  The
never-mix guarantees (warm-started vs cold, timed vs functional) are
carried by the keys themselves and therefore hold identically on both.

Corruption policy is inherited from the store: a payload or journal
entry that fails to parse is skipped with a :class:`RuntimeWarning`,
never raised -- the cost is one re-execution.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import sqlite3
import time
import warnings
from pathlib import Path

#: environment variable selecting the backend (a :data:`BACKENDS` name)
STORE_BACKEND_ENV = "REPRO_STORE_BACKEND"

#: sqlite database filename under the store root
SQLITE_FILENAME = "store.sqlite"

#: how long a writer waits on a locked sqlite database before failing
_SQLITE_BUSY_TIMEOUT_S = 30.0

#: chunk size for IN (...) queries, far below SQLITE_MAX_VARIABLE_NUMBER
_SQLITE_IN_CHUNK = 400

#: attempts of one write transaction before a lock timeout is raised
_SQLITE_WRITE_ATTEMPTS = 12


def sqlite_connect(path: Path) -> sqlite3.Connection:
    """A new connection to the database at ``path``, explicit transactions
    only.  Callers open one per operation (never cached), which keeps
    them safe to use after ``fork()`` and from any thread."""
    return sqlite3.connect(path, timeout=_SQLITE_BUSY_TIMEOUT_S, isolation_level=None)


def sqlite_write(path: Path, fn, retry_on: tuple = (sqlite3.OperationalError,)):
    """Run ``fn(conn)`` in one write transaction; its return value.

    ``BEGIN IMMEDIATE`` takes the database write lock up front, so
    read-modify-write bodies are serialized across all processes.  An
    error in ``retry_on`` (by default a lock timeout) rolls back and
    retries the whole body on a new connection, backing off 10 ms
    doubling to 0.5 s, and is raised after the last attempt; any other
    error is raised at once.  The run store and the work queue share
    this one write policy.
    """
    delay = 0.01
    for attempt in range(1, _SQLITE_WRITE_ATTEMPTS + 1):
        conn = sqlite_connect(path)
        try:
            conn.execute("BEGIN IMMEDIATE")
            out = fn(conn)
            conn.execute("COMMIT")
            return out
        except retry_on:
            with contextlib.suppress(sqlite3.Error):
                conn.execute("ROLLBACK")
            if attempt == _SQLITE_WRITE_ATTEMPTS:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 0.5)
        finally:
            conn.close()


class StoreBackend:
    """The contract a store backend fulfils.

    Payloads are the JSON-serializable dicts the store writes per run
    (``{"key", "result", "meta"}``); the backend persists and returns
    them opaquely.  Journal entries are JSON-serializable dicts appended
    in order; readers get them back oldest first.  Checkpoints are
    :class:`~repro.system.checkpoint.Checkpoint` objects (pickled by the
    backend).  All methods must be safe for concurrent use by multiple
    processes sharing the same root.
    """

    #: short backend name ("dir" / "sqlite"), recorded for diagnostics
    kind: str

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # -- run payloads --------------------------------------------------
    def contains(self, key: str) -> bool:
        raise NotImplementedError

    def get_payload(self, key: str) -> dict | None:
        """The stored payload, or ``None`` (missing or corrupt, warned)."""
        raise NotImplementedError

    def get_many_payloads(self, keys: list[str]) -> dict:
        """Payloads for the subset of ``keys`` present, in one pass."""
        raise NotImplementedError

    def contains_many(self, keys: list[str]) -> set:
        """The subset of ``keys`` present, in one pass, without reading
        payloads (what dedup-on-submit wants)."""
        raise NotImplementedError

    def put_payload(self, key: str, payload: dict) -> None:
        raise NotImplementedError

    def delete_payload(self, key: str) -> bool:
        """Remove a payload; ``True`` if something was deleted."""
        raise NotImplementedError

    def keys(self) -> list[str]:
        """All stored run keys, sorted."""
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    # -- journal -------------------------------------------------------
    def append_journal(self, entry: dict) -> None:
        raise NotImplementedError

    def journal_entries(self) -> list[dict]:
        raise NotImplementedError

    # -- checkpoints ---------------------------------------------------
    def get_checkpoint(self, key: str):
        raise NotImplementedError

    def put_checkpoint(self, key: str, checkpoint) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (root + backend kind)."""
        return f"{self.root} [{self.kind}]"


def _warn_corrupt(what: str, exc: Exception) -> None:
    from repro.system.checkpoint import EarlierLayout

    if isinstance(exc, EarlierLayout):
        message = f"run store: {what} written by an earlier version ({exc}); re-warming"
    else:
        message = f"run store: skipping corrupt {what}: {exc}"
    warnings.warn(message, RuntimeWarning, stacklevel=3)


# ----------------------------------------------------------------------
# Filesystem backend
# ----------------------------------------------------------------------
def _atomic_write_text(path: Path, text: str) -> None:
    """Write a file so readers see either the old content or the new,
    never a torn mix (write temp in the same directory, then rename)."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class DirBackend(StoreBackend):
    """One file per run under ``runs/``, JSONL journal, pickled checkpoints.

    Concurrency story: run files are written atomically under
    content-addressed names (two writers racing on the same key write
    identical bytes), and journal appends are single whole-line writes
    on an ``O_APPEND`` descriptor, so concurrent writers interleave
    whole lines rather than bytes.
    """

    kind = "dir"

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.runs_dir = self.root / "runs"
        self.journal_path = self.root / "journal.jsonl"
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """The run file path for a key."""
        return self.runs_dir / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get_payload(self, key: str) -> dict | None:
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
            _warn_corrupt(f"entry {path.name}", exc)
            return None

    def get_many_payloads(self, keys: list[str]) -> dict:
        # One runs/ listing resolves which keys exist, then only the
        # present files are opened -- replacing N per-key stat probes
        # (mostly misses, on a fresh campaign) with a single scan.
        wanted = set(keys)
        if not wanted:
            return {}
        present = {
            path.stem for path in self.runs_dir.glob("*.json") if path.stem in wanted
        }
        found = {}
        for key in keys:
            if key in present:
                payload = self.get_payload(key)
                if payload is not None:
                    found[key] = payload
        return found

    def contains_many(self, keys: list[str]) -> set:
        wanted = set(keys)
        if not wanted:
            return set()
        return {
            path.stem for path in self.runs_dir.glob("*.json") if path.stem in wanted
        }

    def put_payload(self, key: str, payload: dict) -> None:
        _atomic_write_text(self.path_for(key), json.dumps(payload))

    def delete_payload(self, key: str) -> bool:
        try:
            os.remove(self.path_for(key))
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.runs_dir.glob("*.json"))

    def count(self) -> int:
        return sum(1 for _ in self.runs_dir.glob("*.json"))

    def append_journal(self, entry: dict) -> None:
        line = json.dumps(entry, sort_keys=True) + "\n"
        # A single write on an O_APPEND descriptor: concurrent writers
        # interleave whole lines (POSIX guarantees append atomicity for
        # writes well under PIPE_BUF-scale sizes on local filesystems).
        with open(self.journal_path, "a", encoding="utf-8") as f:
            f.write(line)

    def journal_entries(self) -> list[dict]:
        if not self.journal_path.exists():
            return []
        entries: list[dict] = []
        with open(self.journal_path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    _warn_corrupt(f"journal line {lineno}", exc)
        return entries

    def checkpoint_path_for(self, key: str) -> Path:
        """The cached-checkpoint path for a warm key."""
        return self.root / "checkpoints" / f"{key}.ckpt"

    def get_checkpoint(self, key: str):
        path = self.checkpoint_path_for(key)
        if not path.exists():
            return None
        from repro.system.checkpoint import Checkpoint

        try:
            return Checkpoint.load(path)
        except Exception as exc:  # noqa: BLE001 -- any corruption is a miss
            _warn_corrupt(f"checkpoint {path.name}", exc)
            return None

    def put_checkpoint(self, key: str, checkpoint) -> None:
        path = self.checkpoint_path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        checkpoint.save(tmp)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# SQLite backend
# ----------------------------------------------------------------------
_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS journal (
    seq   INTEGER PRIMARY KEY,
    entry TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    key  TEXT PRIMARY KEY,
    data BLOB NOT NULL
);
"""


class SQLiteBackend(StoreBackend):
    """All store state in one ``store.sqlite`` under the root.

    Built for N processes sharing one store over a common (possibly
    network) filesystem.  Every mutation is one short transaction; the
    journal is append-only with an explicit dense ``seq``: an appender
    takes the write lock (``BEGIN IMMEDIATE``), reads ``MAX(seq)``, and
    inserts ``seq+1`` -- a compare-and-set in which the primary-key
    constraint is the "compare".  Lock contention surfaces as
    ``SQLITE_BUSY``; writers retry with backoff rather than fail, so
    contention costs latency, never corruption or gaps.

    Connections are opened per operation (:func:`sqlite_connect`) --
    worker pools and the threading campaign server both hold
    ``RunStore`` objects across process/thread boundaries.
    """

    kind = "sqlite"

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = self.root / SQLITE_FILENAME
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            conn.executescript(_SCHEMA)

    def _write(self, fn):
        """:func:`sqlite_write` on this store; a primary-key race
        (impossible under the write lock, but cheap to guard) retries
        too."""
        return sqlite_write(
            self.db_path, fn, retry_on=(sqlite3.OperationalError, sqlite3.IntegrityError)
        )

    # -- run payloads --------------------------------------------------
    def contains(self, key: str) -> bool:
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            row = conn.execute("SELECT 1 FROM runs WHERE key = ?", (key,)).fetchone()
        return row is not None

    def _parse_payload(self, key: str, text: str) -> dict | None:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            _warn_corrupt(f"entry {key}", exc)
            return None

    def get_payload(self, key: str) -> dict | None:
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            row = conn.execute(
                "SELECT payload FROM runs WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        return self._parse_payload(key, row[0])

    def get_many_payloads(self, keys: list[str]) -> dict:
        if not keys:
            return {}
        found: dict = {}
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            for start in range(0, len(keys), _SQLITE_IN_CHUNK):
                chunk = keys[start : start + _SQLITE_IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT key, payload FROM runs WHERE key IN ({marks})", chunk
                ).fetchall()
                for key, text in rows:
                    payload = self._parse_payload(key, text)
                    if payload is not None:
                        found[key] = payload
        # preserve the caller's key order, as DirBackend does
        return {key: found[key] for key in keys if key in found}

    def contains_many(self, keys: list[str]) -> set:
        if not keys:
            return set()
        present: set = set()
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            for start in range(0, len(keys), _SQLITE_IN_CHUNK):
                chunk = keys[start : start + _SQLITE_IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT key FROM runs WHERE key IN ({marks})", chunk
                ).fetchall()
                present.update(row[0] for row in rows)
        return present

    def put_payload(self, key: str, payload: dict) -> None:
        text = json.dumps(payload)
        self._write(
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO runs (key, payload) VALUES (?, ?)",
                (key, text),
            )
        )

    def delete_payload(self, key: str) -> bool:
        def body(conn):
            cur = conn.execute("DELETE FROM runs WHERE key = ?", (key,))
            return cur.rowcount > 0

        return self._write(body)

    def keys(self) -> list[str]:
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            rows = conn.execute("SELECT key FROM runs ORDER BY key").fetchall()
        return [row[0] for row in rows]

    def count(self) -> int:
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    # -- journal -------------------------------------------------------
    def append_journal(self, entry: dict) -> None:
        text = json.dumps(entry, sort_keys=True)

        def body(conn):
            seq = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM journal"
            ).fetchone()[0]
            conn.execute(
                "INSERT INTO journal (seq, entry) VALUES (?, ?)", (seq, text)
            )

        self._write(body)

    def journal_entries(self) -> list[dict]:
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            rows = conn.execute("SELECT seq, entry FROM journal ORDER BY seq").fetchall()
        entries: list[dict] = []
        for seq, text in rows:
            try:
                entries.append(json.loads(text))
            except json.JSONDecodeError as exc:
                _warn_corrupt(f"journal entry {seq}", exc)
        return entries

    def journal_seqs(self) -> list[int]:
        """All journal sequence numbers, ascending (CAS-contention tests
        assert density: ``1..N`` with no gaps or duplicates)."""
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            rows = conn.execute("SELECT seq FROM journal ORDER BY seq").fetchall()
        return [row[0] for row in rows]

    # -- checkpoints ---------------------------------------------------
    def get_checkpoint(self, key: str):
        with contextlib.closing(sqlite_connect(self.db_path)) as conn:
            row = conn.execute(
                "SELECT data FROM checkpoints WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        from repro.system.checkpoint import Checkpoint

        try:
            return Checkpoint.loads(row[0])
        except Exception as exc:  # noqa: BLE001 -- any corruption is a miss
            _warn_corrupt(f"checkpoint {key}", exc)
            return None

    def put_checkpoint(self, key: str, checkpoint) -> None:
        data = pickle.dumps(checkpoint)
        self._write(
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO checkpoints (key, data) VALUES (?, ?)",
                (key, data),
            )
        )


#: every store backend by name, declared once: :func:`make_backend` (which
#: also vets ``$REPRO_STORE_BACKEND``) and the CLI's ``--store-backend``
#: choices read this table
BACKENDS: dict[str, type[StoreBackend]] = {
    backend.kind: backend for backend in (DirBackend, SQLiteBackend)
}


def default_backend_kind() -> str:
    """The backend name in ``$REPRO_STORE_BACKEND`` (default ``dir``);
    :func:`make_backend` rejects one that is not in :data:`BACKENDS`."""
    return os.environ.get(STORE_BACKEND_ENV, "").strip() or DirBackend.kind


def make_backend(root: Path, kind: str | None = None) -> StoreBackend:
    """Construct the backend for a store root.

    ``kind`` is a :data:`BACKENDS` name, or ``None`` to honour
    ``$REPRO_STORE_BACKEND`` (default ``dir``).
    """
    if kind is None:
        kind = default_backend_kind()
    if kind not in BACKENDS:
        raise ValueError(
            f"unknown store backend {kind!r}: expected one of "
            f"{', '.join(BACKENDS)} (--store-backend or ${STORE_BACKEND_ENV})"
        )
    return BACKENDS[kind](root)
