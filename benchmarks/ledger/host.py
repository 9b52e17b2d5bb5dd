"""Host-side measurement: clocks, CPU and memory accounting, clean
environments, and the order statistics every report uses."""

from __future__ import annotations

import os
import resource
import statistics
import time
from pathlib import Path

from benchmarks.ledger.spec import REPO_ROOT

SRC_DIR = REPO_ROOT / "src"

#: variables that change what the simulator or the store does
_SCRUBBED = ("REPRO_SIM_BACKEND", "REPRO_STREAM_MEMO", "REPRO_STORE_BACKEND")


def scrubbed_env(store_dir: str | Path) -> dict:
    """The environment every repetition and every worker runs under:
    backend/memo/store selectors and ``REPRO_BENCH_*`` knobs removed, the
    store pointed at a temp dir, ``src`` importable."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in _SCRUBBED and not key.startswith("REPRO_BENCH_")
    }
    env["REPRO_STORE_DIR"] = str(store_dir)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(REPO_ROOT)])
    return env


def scrub_own_env(store_dir: str | Path) -> None:
    """Apply :func:`scrubbed_env` to this process (before importing repro:
    the stream memo reads its switch at import)."""
    env = scrubbed_env(store_dir)
    for key in list(os.environ):
        if key not in env:
            del os.environ[key]
    os.environ.update(env)


def cpu_seconds() -> float:
    """user+sys of this process and of every child it has reaped."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """max ru_maxrss (KiB on Linux) over this process and its children."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


class Region:
    """``with Region() as r:`` -- host wall and CPU of the block."""

    wall_s = 0.0
    cpu_s = 0.0

    def __enter__(self) -> "Region":
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = cpu_seconds() - self._cpu


def since_process_start_s() -> float:
    """Seconds since the kernel started this process: interpreter start
    and everything imported so far (Linux ``/proc``, 10 ms ticks)."""
    after_comm = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(after_comm[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return float(Path("/proc/uptime").read_text().split()[0]) - started


def spread(values) -> dict:
    """Median, quartiles, extremes and count of a sample.

    Quartiles are taken inclusively: the 3 or 5 repetitions of a ledger
    run are the whole sample, and the exclusive method would put q3
    between the two largest of five values, so that one slow repetition
    alone reads as a wide spread."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": values[0],
        "max": values[-1],
        "n": len(values),
    }
