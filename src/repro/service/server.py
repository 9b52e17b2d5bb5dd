"""The campaign server (``python -m repro campaign serve``).

A stdlib :class:`~http.server.ThreadingHTTPServer` front door over the
shared store and queue -- no new dependencies, one thread per client.
The server is *stateless beyond its two databases*: submissions land in
the queue, results land in the store, so restarting it loses nothing
and multiple servers over the same root are harmless.

Endpoints (all JSON):

- ``POST /api/submit`` -- body is a campaign spec in wire form
  (:func:`repro.service.protocol.spec_to_dict`), optionally wrapped as
  ``{"spec": ..., "max_attempts": N}``.  The grid is decomposed into
  cells, deduplicated against everything already in the store, and
  enqueued; the reply carries the campaign id and cached/pending
  counts.
- ``GET /api/status?id=<campaign>`` -- cell-state counts plus per-cell
  rows.
- ``GET /api/watch?id=<campaign>`` -- a *stream* of JSON lines, one per
  queue event (submitted / leased / done / failed / lease-expired /
  quarantined), replaying history first, then following live until the
  campaign reaches a terminal state; the final line is a
  ``campaign-done`` summary.  ``campaign watch`` renders this.
- ``GET /api/campaigns`` -- every campaign with its counts.
- ``GET /healthz`` -- liveness.

The server also requeues lapsed leases on a timer, so watch streams
show crash recovery promptly even when no surviving worker is asking
for work.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.protocol import ServiceError, enumerate_cells, spec_from_dict
from repro.service.queue import DEFAULT_MAX_ATTEMPTS, WorkQueue
from repro.store import RunStore

#: how often the watch stream polls the event log
WATCH_POLL_S = 0.2

#: how often the server-side reaper requeues lapsed leases
REAPER_PERIOD_S = 2.0


def decode_submission(body) -> tuple[dict, int]:
    """Split a ``POST /api/submit`` body into ``(spec wire form,
    max_attempts)``: the body is the spec itself, or wraps it as
    ``{"spec": ..., "max_attempts": N}``."""
    if not isinstance(body, dict):
        raise ServiceError(f"submission must be a JSON object, not {type(body).__name__}")
    if "spec" not in body:
        return body, DEFAULT_MAX_ATTEMPTS
    max_attempts = body.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
    # bool is an int subclass, and true is not an attempt count
    if isinstance(max_attempts, bool) or not isinstance(max_attempts, int) or max_attempts < 1:
        raise ServiceError(
            f"max_attempts must be an integer of at least 1, not {json.dumps(max_attempts)}"
        )
    return body["spec"], max_attempts


class CampaignService:
    """The HTTP-independent service core (also used directly by tests)."""

    def __init__(self, store: RunStore, queue: WorkQueue) -> None:
        self.store = store
        self.queue = queue

    def submit(self, body) -> dict:
        """Decompose, dedup, and enqueue one submitted study.

        ``body`` is outside input: anything wrong with it is a
        :class:`ServiceError` raised before the queue is touched."""
        spec_dict, max_attempts = decode_submission(body)
        spec = spec_from_dict(spec_dict)
        cells = enumerate_cells(spec, self.store)
        campaign_id = self.queue.submit(
            spec.name, spec_dict, cells, max_attempts=max_attempts
        )
        n_cached = sum(1 for c in cells if c.cached)
        return {
            "id": campaign_id,
            "name": spec.name,
            "cells": len(cells),
            "cached": n_cached,
            "pending": len(cells) - n_cached,
        }

    def status(self, campaign_id: str) -> dict:
        row = self.queue.campaign(campaign_id)
        if row is None:
            raise ServiceError(f"unknown campaign {campaign_id!r}")
        counts = self.queue.counts(campaign_id)
        return {
            "id": campaign_id,
            "name": row["name"],
            "done": self.queue.is_done(campaign_id),
            "counts": counts,
            "cells": self.queue.cells(campaign_id),
        }

    def summary(self, campaign_id: str) -> dict:
        """The watch stream's terminal line."""
        counts = self.queue.counts(campaign_id)
        return {
            "kind": "campaign-done",
            "id": campaign_id,
            "ok": counts["quarantined"] == 0,
            "counts": counts,
        }

    def watch_events(self, campaign_id: str, *, poll_s: float = WATCH_POLL_S):
        """Yield event dicts until the campaign is terminal, then the summary.

        The generator replays the full event history first (a late
        watcher misses nothing), then follows the log.  Termination is
        checked *before* draining the tail so the final events are never
        lost to the race between "done" flipping and the last page.
        """
        if self.queue.campaign(campaign_id) is None:
            raise ServiceError(f"unknown campaign {campaign_id!r}")
        cursor = 0
        while True:
            done = self.queue.is_done(campaign_id)
            events = self.queue.events_since(campaign_id, cursor)
            for event in events:
                cursor = event["seq"]
                yield event
            if done:
                yield self.summary(campaign_id)
                return
            if not events:
                time.sleep(poll_s)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP onto the :class:`CampaignService` core."""

    # set by make_server()
    service: CampaignService = None  # type: ignore[assignment]

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: D102 -- quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send_json(self, obj: dict, status: int = 200) -> None:
        data = (json.dumps(obj) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status)

    def _query(self) -> dict:
        return {
            key: values[0]
            for key, values in parse_qs(urlparse(self.path).query).items()
        }

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        path = urlparse(self.path).path
        try:
            if path == "/healthz":
                self._send_json({"ok": True, "store": self.service.store.backend.describe()})
            elif path == "/api/campaigns":
                self._send_json({"campaigns": self.service.queue.campaigns()})
            elif path == "/api/status":
                campaign_id = self._query().get("id", "")
                self._send_json(self.service.status(campaign_id))
            elif path == "/api/watch":
                self._watch(self._query().get("id", ""))
            else:
                self._send_error_json(f"no such endpoint {path!r}", 404)
        except ServiceError as exc:
            self._send_error_json(str(exc), 404)
        except BrokenPipeError:
            pass  # client hung up mid-stream; nothing to clean up
        except Exception as exc:  # noqa: BLE001 -- one request must not kill the server
            self._send_error_json(f"{type(exc).__name__}: {exc}", 500)

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        path = urlparse(self.path).path
        try:
            if path != "/api/submit":
                self._send_error_json(f"no such endpoint {path!r}", 404)
                return
            length = int(self.headers.get("Content-Length", "0"))
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError as exc:
                raise ServiceError(f"submission is not valid JSON: {exc}") from exc
            self._send_json(self.service.submit(body))
        except ServiceError as exc:
            self._send_error_json(str(exc), 400)
        except Exception as exc:  # noqa: BLE001 -- one request must not kill the server
            self._send_error_json(f"{type(exc).__name__}: {exc}", 500)

    def _watch(self, campaign_id: str) -> None:
        # Validate before committing to a 200: an unknown id must be a
        # clean 404, not a broken stream.
        events = self.service.watch_events(campaign_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # HTTP/1.0 + connection close delimits the stream: no chunked
        # framing needed, every flushed line reaches the client live.
        self.end_headers()
        for event in events:
            self.wfile.write((json.dumps(event) + "\n").encode("utf-8"))
            self.wfile.flush()


def make_server(
    store: RunStore,
    queue: WorkQueue,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build (without starting) the campaign HTTP server."""
    service = CampaignService(store, queue)
    handler = type("CampaignHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.verbose = verbose
    server.service = service
    return server


def _start_reaper(queue: WorkQueue, stop: threading.Event) -> threading.Thread:
    def reap() -> None:
        while not stop.wait(REAPER_PERIOD_S):
            try:
                queue.requeue_lapsed()
            except Exception:  # noqa: BLE001 -- a transient lock must not kill the reaper
                pass

    thread = threading.Thread(target=reap, daemon=True)
    thread.start()
    return thread


def serve_forever(
    store: RunStore,
    queue: WorkQueue,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    verbose: bool = False,
    ready=None,
) -> int:
    """Run the server until interrupted; the CLI entry point.

    ``ready`` is an optional callable invoked with the bound
    ``(host, port)`` once the socket is listening (tests use it).
    """
    server = make_server(store, queue, host=host, port=port, verbose=verbose)
    stop = threading.Event()
    _start_reaper(queue, stop)
    if ready is not None:
        ready(server.server_address)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        server.server_close()
    return 0
