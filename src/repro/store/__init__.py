"""Persistent, content-addressed storage for simulation runs.

The paper's methodology multiplies cost by N runs per configuration;
this package makes those runs *durable*: every completed simulation is
keyed by its complete cause (:mod:`repro.store.keys`), serialized to
JSON (the dataclasses' own ``to_dict``/``from_dict``), and persisted
under a cache directory with an append-only journal
(:mod:`repro.store.store`).
``run_space(..., store=...)`` and :mod:`repro.campaign` consult the
store before executing, so interrupted experiments resume where they
stopped and repeated studies reuse prior measurements.
"""

from repro.store.backends import (
    STORE_BACKEND_ENV,
    DirBackend,
    SQLiteBackend,
    StoreBackend,
    default_backend_kind,
    make_backend,
)
from repro.store.keys import KEY_VERSION, canonical_json, digest, run_key, warm_key
from repro.store.store import STORE_DIR_ENV, RunStore, default_store_dir

__all__ = [
    "KEY_VERSION",
    "canonical_json",
    "digest",
    "run_key",
    "warm_key",
    "STORE_DIR_ENV",
    "STORE_BACKEND_ENV",
    "RunStore",
    "StoreBackend",
    "DirBackend",
    "SQLiteBackend",
    "default_backend_kind",
    "make_backend",
    "default_store_dir",
    "resolve_store",
]


def resolve_store(store, *, backend=None):
    """Normalize a store argument into a :class:`RunStore` (or ``None``).

    Accepts an existing :class:`RunStore` (returned as-is), a root path
    (``str``/``Path``), or ``None``.  ``backend`` applies only when a
    path is given; ``None`` honours ``$REPRO_STORE_BACKEND``.  This is
    how ``run_space``, the CLI, and the campaign service all turn a
    ``--store``/``--store-backend`` pair into the same store object.
    """
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store, backend=backend)
