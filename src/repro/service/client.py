"""Stdlib HTTP client helpers for the campaign service.

``campaign submit``/``watch``/``status`` are thin shells over these;
tests drive them directly.  Everything uses :mod:`urllib.request` --
the watch stream works because the server speaks HTTP/1.0 with
connection-close framing, so iterating the response yields each
flushed JSON line as it arrives.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request


class ServiceClientError(RuntimeError):
    """The server rejected a request (carries its error message and the
    HTTP ``status``: 400 means the request itself was illegal)."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def _url(host: str, port: int, path: str) -> str:
    return f"http://{host}:{port}{path}"


def _raise_for_error(exc: urllib.error.HTTPError):
    try:
        detail = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
    except Exception:  # noqa: BLE001 -- error body is best-effort
        detail = str(exc)
    raise ServiceClientError(detail, exc.code) from exc


def submit_campaign(
    host: str, port: int, spec_dict: dict, *, max_attempts: int | None = None,
    timeout: float = 30.0,
) -> dict:
    """POST a campaign spec; returns the server's submit receipt."""
    body: dict = {"spec": spec_dict}
    if max_attempts is not None:
        body["max_attempts"] = max_attempts
    request = urllib.request.Request(
        _url(host, port, "/api/submit"),
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        _raise_for_error(exc)


def _get_json(host: str, port: int, path: str, timeout: float) -> dict:
    try:
        with urllib.request.urlopen(_url(host, port, path), timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        _raise_for_error(exc)


def campaign_status(host: str, port: int, campaign_id: str, *,
                    timeout: float = 30.0) -> dict:
    """GET one campaign's status snapshot."""
    return _get_json(host, port, f"/api/status?id={campaign_id}", timeout)


def list_campaigns(host: str, port: int, *, timeout: float = 30.0) -> dict:
    """GET every campaign with its state counts."""
    return _get_json(host, port, "/api/campaigns", timeout)


def watch_campaign(host: str, port: int, campaign_id: str, *,
                   timeout: float = 600.0):
    """Yield the watch stream's event dicts, ending with ``campaign-done``.

    ``timeout`` is the socket read timeout between lines -- generous,
    because a line only arrives when a cell changes state.
    """
    try:
        with urllib.request.urlopen(
            _url(host, port, f"/api/watch?id={campaign_id}"), timeout=timeout
        ) as response:
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
    except urllib.error.HTTPError as exc:
        _raise_for_error(exc)


def wait_healthy(host: str, port: int, *, timeout: float = 10.0) -> bool:
    """Poll ``/healthz`` until the server answers (or the timeout runs out)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                _url(host, port, "/healthz"), timeout=2.0
            ) as response:
                if response.status == 200:
                    return True
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    return False
