"""In-memory spans recorded from outside the program.

The traced run of a workload wraps the public callables at each layer
boundary (``RunStore.put``, ``Checkpoint.materialize``, ...) by
rebinding the attribute on its class or module; nothing under ``src/``
is edited.  Spans are ``{name, start, end, parent, workload}`` with
times in seconds since the tracer was created and ``parent`` the index
of the enclosing span (``None`` at the root); they stay in memory until
:meth:`Tracer.dump`.  End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter() - self._origin,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
            }
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter() - self._origin

    def _inside(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self._stack)

    def wrap(self, owner, attr: str, name) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a callable mapping the call's
        arguments to one.  A call made while a span of the same name is
        already open runs unrecorded, so one logical operation that
        passes through two wrapped entry points counts once.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if self._inside(label):
                return func(*args, **kwargs)
            with self.span(label):
                return func(*args, **kwargs)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(traced) if kind else traced)

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _named(self, name: str) -> list[tuple[int, dict]]:
        return [(i, s) for i, s in enumerate(self.spans) if s["name"] == name]

    def calls(self, name: str) -> int:
        return len(self._named(name))

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for _i, s in self._named(name))

    def self_time(self, name: str) -> float:
        """:meth:`total` minus the part covered by direct child spans."""
        mine = dict(self._named(name))
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in mine
        )
        return self.total(name) - covered

    def total_under(self, name: str, ancestor: str) -> float:
        """Summed duration of ``name`` spans that have an ``ancestor`` span
        somewhere above them."""
        out = 0.0
        for _i, span in self._named(name):
            parent = span["parent"]
            while parent is not None:
                if self.spans[parent]["name"] == ancestor:
                    out += span["end"] - span["start"]
                    break
                parent = self.spans[parent]["parent"]
        return out

    def span_cost_s(self, samples: int = 20000) -> float:
        """Host seconds one span costs, measured on a scratch tracer."""
        scratch = Tracer(self.workload)
        start = time.perf_counter()
        for _ in range(samples):
            with scratch.span("calibrate"):
                pass
        return (time.perf_counter() - start) / samples

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "workload": self.workload,
                    "clock": "seconds since the tracer was created (perf_counter)",
                    "spans": self.spans,
                }
            )
            + "\n"
        )


def span(tracer: Tracer | None, name: str):
    """A span on ``tracer``, or nothing in an untraced run."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()
