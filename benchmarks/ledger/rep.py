"""One repetition of one workload, in this process.

This is what ``BENCHMARK.json``'s command runs and what the full ledger
spawns once per repetition, so that every repetition pays its own
interpreter start, imports and cold caches.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from benchmarks.ledger import check, host, spec
from benchmarks.ledger.trace import Tracer


def run(workload: str, seed: int, seconds: float, trace: bool, detail: Path | None) -> int:
    """Execute the repetition; returns the process exit code."""
    if workload not in spec.WORKLOAD_BY_NAME:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if not host.SRC_DIR.joinpath("repro").is_dir():
        print(f"the program under test is missing: no {host.SRC_DIR}/repro", file=sys.stderr)
        return 2
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"rep-{workload}-", dir=spec.OUT_DIR))
    try:
        record = _run(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if detail is not None:
        detail.write_text(json.dumps(record, indent=1) + "\n")
    for line in record["mismatches"]:
        print(f"MISMATCH {workload}: {line}", file=sys.stderr)
    wanted = spec.driver_per_layer() if trace else spec.DRIVER_E2E
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {
                        # Metrics of layers this workload never enters, and unscored
                        # accuracy metrics, read 0: the protocol wants a number.
                        "value": record["metrics"].get(name, 0.0),
                        "unit": spec.METRIC_BY_NAME[name].unit,
                    }
                    for name in wanted
                },
            }
        )
    )
    return 0 if record["correct"] else 1


def _run(workload, seed, seconds, trace, scratch) -> dict:
    host.scrub_own_env(scratch / "default-store")
    sys.path.insert(0, str(host.SRC_DIR))
    # The workload's module is named after its kind (sim, study, service)
    # and imports what it needs of the program under test.
    kind = spec.WORKLOAD_BY_NAME[workload].kind
    module = importlib.import_module(f"benchmarks.ledger.{kind}")
    import_s = host.since_process_start_s()

    tracer = Tracer(workload) if trace else None
    try:
        outcome = module.run(workload, seed, seconds, tracer, scratch)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    check.verify(outcome, workload, seed, seconds, module.describe_mismatch)

    metrics = outcome.metrics
    metrics["failed_frac"] = outcome.failed / outcome.attempted
    if trace:
        tracer.dump(spec.OUT_DIR / f"trace-{workload}.json")
        # A traced run's wall and CPU include span bookkeeping and
        # ablation passes: never report them as end-to-end numbers.
        traced_wall = metrics.pop("wall_s", None)
        metrics.pop("cpu_s", None)
    else:
        traced_wall = None
        metrics["setup_s"] = import_s + outcome.setup_s
        metrics["peak_rss_mb"] = host.peak_rss_mb()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "mismatches": outcome.mismatches,
        "metrics": metrics,
        "observed": outcome.observed,
        "info": {**outcome.info, "traced_wall_s": traced_wall, "import_s": import_s},
    }
