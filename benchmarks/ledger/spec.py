"""What the ledger measures: workloads, sizes, and every metric by name.

This module is plain data plus the rules that derive a workload's
inputs from ``--seed`` and its size from ``--seconds``.  ``BENCHMARK.json``
at the repository root is the machine-readable extract of these tables;
:func:`check_manifest` fails when the two disagree.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"
EXPECTED_PATH = LEDGER_DIR / "expected.json"
BASELINE_PATH = LEDGER_DIR / "baseline.json"
OUT_DIR = LEDGER_DIR / "out"

#: ``--seconds`` at which the sizes below were calibrated (2-core sandbox)
REFERENCE_SECONDS = 10
#: ``--seconds`` of the ``--quick`` pass (1/10 size)
QUICK_SECONDS = 1

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" | "study" | "service"
    reps: int  # untraced repetitions of a full ledger run
    why: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "sim_resident", "sim", 5,
        "cache-resident oltp (L1 hit ~0.8): generation, hit path and dispatch "
        "do the work; a miss-path change should leave it flat",
    ),
    Workload(
        "sim_missy", "sim", 5,
        "miss-dominated oltp (L1 hit ~0.44): coherence miss legs, crossbar, "
        "DRAM and events do the work; a hit-path change should leave it flat",
    ),
    Workload(
        "study_exhaustive", "study", 3,
        "the paper's protocol end to end (OOO, warm checkpoints, 2-process "
        "fan-out, dir store): the reference full run the cheap studies are scored against",
    ),
    Workload(
        "study_live", "study", 3,
        "same grid under live sampling in-process: survey, pilot and Neyman "
        "passes plus memo replay; fan-out bypassed",
    ),
    Workload(
        "study_ladder", "study", 3,
        "same grid through the fidelity ladder: SimpleCore base tier, OOO "
        "sentinels, correction and escalation",
    ),
    Workload(
        "service_drain", "service", 5,
        "sqlite store and lease queue drained by 2 real worker processes: "
        "claim, heartbeat, complete and store puts are about half the wall",
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

#: oltp parameters of the two simulator workloads
SIM_PARAMS = {
    "sim_resident": {
        "threads_per_cpu": 2,
        "pool_bytes": 64 * 1024,
        "code_footprint_bytes": 32 * 1024,
        "private_bytes": 4 * 1024,
    },
    "sim_missy": {
        "threads_per_cpu": 2,
        "pool_bytes": 16 * 1024 * 1024,
        "private_bytes": 256 * 1024,
    },
}
SIM_WARMUP_TXNS = 500
SIM_SEGMENT_TXNS = 1000
#: timed segments at REFERENCE_SECONDS (first pass ~6 s, replay ~3.5 s)
SIM_SEGMENTS = {"sim_resident": 13, "sim_missy": 9}

#: configurations of the three studies: Fig. 4 (DRAM sweep) + Table 1
#: (L2 associativity), relative to ``base``
STUDY_CONFIGS = (
    ("base", None, None),
    ("dram=100", "dram", 100),
    ("dram=160", "dram", 160),
    ("dram=240", "dram", 240),
    ("l2assoc=1", "l2assoc", 1),
    ("l2assoc=2", "l2assoc", 2),
)
STUDY_RUNS = 8
STUDY_CONFIDENCE = 0.95


def scale_of(seconds: float) -> float:
    return seconds / REFERENCE_SECONDS


def sim_sizes(workload: str, seconds: float, trace: bool) -> dict:
    """Segments of a simulator workload.  The traced run covers 0.3 of
    the region: it repeats it about a dozen times for the ablations."""
    segments = max(1, round(SIM_SEGMENTS[workload] * scale_of(seconds)))
    if trace:
        segments = max(1, round(0.3 * segments))
    return {
        "warmup_txns": SIM_WARMUP_TXNS,
        "segment_txns": SIM_SEGMENT_TXNS,
        "segments": segments,
    }


def study_sizes(seconds: float) -> dict:
    """Half the issue's 150/400 plan at REFERENCE_SECONDS: the run-time
    cap of the benchmark driver is tighter than the full plan."""
    k = scale_of(seconds)
    return {
        "measured": max(8, round(75 * k)),
        "warmup": max(20, round(200 * k)),
        "n_runs": STUDY_RUNS,
    }


def service_sizes(seconds: float) -> dict:
    k = scale_of(seconds)
    return {
        "n_seeds": max(4, round(64 * k)),
        "preseed": max(1, round(16 * k)),
        "measured": 40,
        "warmup": 100,
        "workers": 2,
    }


def seeds_of(workload: str, seed: int) -> dict:
    """Inputs derived from ``--seed``.

    The simulator and service workloads draw their transaction content
    (``12345 + S``) and their perturbation stream (``1000 + 100 S``) from
    the seed.  The three studies model one fixed experiment -- the
    paper's protocol on one grid -- and always use S = 0: the ladder's
    and the live sampler's work depends discretely on their inputs (2 to
    6 reference-tier cells across seeds, a 2x wall), so a seed-varying
    study would measure the seed instead of the code, and the cheap
    studies can only be scored against the exhaustive one on shared
    inputs.
    """
    if WORKLOAD_BY_NAME[workload].kind == "study":
        seed = 0
    return {"content": 12345 + seed, "perturbation": 1000 + 100 * seed}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: "e2e" metrics have a regression bound; "layer" metrics do not
    cls: str
    #: share of the other set's median (of 5 or 3 repetitions) by which
    #: the metric may worsen in --compare; 0 marks an exact metric (must
    #: repeat identically); None = unbounded
    bound: float | None
    workloads: tuple[str, ...]  # the workloads it is defined on
    #: True when the value is a host-time measurement (noisy); False when
    #: it is a count or a ratio of counts and repeats exactly
    timing: bool
    definition: str


ALL = tuple(w.name for w in WORKLOADS)
SIM = ("sim_resident", "sim_missy")
STUDY = ("study_exhaustive", "study_live", "study_ladder")
EXHAUSTIVE = ("study_exhaustive",)
LIVE = ("study_live",)
LADDER = ("study_ladder",)
SERVICE = ("service_drain",)
CAMPAIGN = STUDY + SERVICE


#: setup_s may worsen by max(its bound, this many seconds) in --compare
SETUP_ABS_SLACK_S = 0.15

METRICS: tuple[Metric, ...] = (
    # ---- end to end --------------------------------------------------
    Metric("wall_s", "s", "lower", "e2e", 0.10, ALL, True,
           "host wall of the timed region (sim: first pass + replay pass)"),
    Metric("cpu_s", "s", "lower", "e2e", 0.07, ALL, True,
           "user+sys of the driver plus reaped children over the timed region"),
    Metric("peak_rss_mb", "MiB", "lower", "e2e", 0.10, ALL, True,
           "max ru_maxrss over the driver and its children"),
    Metric("setup_s", "s", "lower", "e2e", 0.15, ALL, True,
           "this process's start + imports (since the kernel started it) plus "
           "building machines/specs/stores, warm-up, pre-seed and submit (median of 3)"),
    Metric("sim_ops_per_s", "1/s", "higher", "e2e", 0.10, SIM, True,
           "simulated ops per host second, first pass, stream memo cold "
           "(median over 1000-transaction segments)"),
    Metric("replay_ops_per_s", "1/s", "higher", "e2e", 0.10, SIM, True,
           "simulated ops per host second, replay pass, stream memo hot "
           "(median over segments)"),
    Metric("ooo_txn_frac", "ratio", "lower", "e2e", 0.0, STUDY, False,
           "measured transactions executed under the OOO timing model / those "
           "of study_exhaustive"),
    Metric("conclusions_matched_frac", "ratio", "higher", "e2e", 0.0, STUDY, False,
           "per-config conclusions equal to study_exhaustive's"),
    Metric("mean_rel_err_max", "ratio", "lower", "e2e", 0.0, STUDY, False,
           "max over configs of |mean - exhaustive mean| / exhaustive mean"),
    Metric("failed_frac", "ratio", "lower", "e2e", 0.0, ALL, False,
           "runs that raised, timed out, were quarantined or mismatched their "
           "expected digest / runs attempted"),
    # ---- workloads ----------------------------------------------------
    Metric("workloads.gen_s", "s", "lower", "layer", None, SIM, True,
           "generation share of the first pass: gen_ns_per_op x its ops"),
    Metric("workloads.gen_ns_per_op", "ns", "lower", "layer", None, SIM, True,
           "draining make_program().next_ops round-robin, memo cold, no machine"),
    Metric("workloads.ops", "count", "lower", "layer", None, SIM, False,
           "ops the first pass executed"),
    Metric("workloads.replay_ns_per_op", "ns", "lower", "layer", None, SIM, True,
           "the same drain with the memo hot (decode on hit)"),
    Metric("workloads.memo_hit_frac", "ratio", "higher", "layer", None, ALL, False,
           "stream_memo_stats() hits / lookups over the whole in-process workload"),
    # ---- memory -------------------------------------------------------
    Metric("memory.access_s", "s", "lower", "layer", None, SIM, True,
           "memory share of the first pass: access_ns_per_ref x its refs"),
    Metric("memory.access_ns_per_ref", "ns", "lower", "layer", None, SIM, True,
           "recorded reference trace replayed through a fresh "
           "MemoryHierarchy.access, empty loop subtracted"),
    Metric("memory.functional_ns_per_ref", "ns", "lower", "layer", None, SIM, True,
           "the same trace through access_functional"),
    Metric("memory.refs", "count", "lower", "layer", None, SIM, False,
           "memory references of the first pass"),
    Metric("memory.l1_hit_frac", "ratio", "higher", "layer", None, SIM, False,
           "L1 hits / refs"),
    Metric("memory.l2_miss_per_ref", "ratio", "lower", "layer", None, SIM, False,
           "L2 misses / refs"),
    Metric("memory.c2c_per_ref", "ratio", "lower", "layer", None, SIM, False,
           "cache-to-cache transfers / refs"),
    Metric("memory.upgrades_per_ref", "ratio", "lower", "layer", None, SIM, False,
           "upgrades / refs"),
    # ---- system / sim / osmodel / proc / probes -----------------------
    Metric("system.dispatch_s", "s", "lower", "layer", None, SIM, True,
           "residual: first-pass CPU - workloads.gen_s - memory.access_s (run "
           "loop, op dispatch, scheduler, event kernel)"),
    Metric("sim.events", "count", "lower", "layer", None, SIM, False,
           "machine.events_processed over the first pass"),
    Metric("sim.events_per_op", "ratio", "lower", "layer", None, SIM, False,
           "events / ops"),
    Metric("sim.queue_ns_per_event", "ns", "lower", "layer", None, SIM, True,
           "EventQueue.schedule + pop loop over that many events"),
    Metric("osmodel.dispatches", "count", "lower", "layer", None, SIM + EXHAUSTIVE, False,
           "scheduler dispatches (studies: summed over stored runs)"),
    Metric("osmodel.migrations", "count", "lower", "layer", None, SIM + EXHAUSTIVE, False,
           "scheduler migrations"),
    Metric("osmodel.lock_blocks", "count", "lower", "layer", None, SIM, False,
           "lock blocks seen by an on_lock probe"),
    Metric("osmodel.dispatches_per_txn", "ratio", "lower", "layer", None, SIM + EXHAUSTIVE, False,
           "dispatches / transactions"),
    Metric("core.ffwd.functional_s", "s", "lower", "layer", None, SIM, True,
           "Machine.fast_forward_transactions over the same region, memo cold (CPU)"),
    Metric("core.ffwd.timed_over_functional", "ratio", "lower", "layer", None, SIM, True,
           "first-pass CPU / core.ffwd.functional_s"),
    Metric("proc.ooo_over_simple", "ratio", "lower", "layer", None, SIM, True,
           "first segment under with_rob_entries(64) / under SimpleCore, CPU"),
    Metric("probes.empty_bus_overhead_frac", "ratio", "lower", "layer", None, SIM, True,
           "same region with an empty ProbeBus attached / plain - 1, CPU"),
    Metric("probes.op_hook_overhead_frac", "ratio", "lower", "layer", None, SIM, True,
           "same region with the op recorder attached / plain - 1, CPU"),
    Metric("system.machine_build_s", "s", "lower", "layer", None, ALL, True,
           "spans around Machine(...)"),
    Metric("system.machine_build.calls", "count", "lower", "layer", None, ALL, False, ""),
    Metric("system.warm_checkpoint_s", "s", "lower", "layer", None, CAMPAIGN, True,
           "spans around repro.system.checkpoint.warm_checkpoint"),
    Metric("system.warm_checkpoint.calls", "count", "lower", "layer", None, CAMPAIGN, False, ""),
    Metric("system.materialize_s", "s", "lower", "layer", None, CAMPAIGN, True,
           "spans around Checkpoint.materialize"),
    Metric("system.materialize.calls", "count", "lower", "layer", None, CAMPAIGN, False, ""),
    Metric("system.freeze_s", "s", "lower", "layer", None, ALL, True,
           "spans around Machine.freeze (sim: one explicit call)"),
    Metric("system.freeze.calls", "count", "lower", "layer", None, ALL, False, ""),
    Metric("system.thaw_s", "s", "lower", "layer", None, ALL, True,
           "spans around Machine.thaw"),
    Metric("system.thaw.calls", "count", "lower", "layer", None, ALL, False, ""),
    Metric("system.clone_s", "s", "lower", "layer", None, ALL, True,
           "spans around Machine.clone (sim: one explicit call)"),
    Metric("system.clone.calls", "count", "lower", "layer", None, ALL, False, ""),
    # ---- campaign stack -----------------------------------------------
    Metric("core.request.execute_s", "s", "lower", "layer", None, CAMPAIGN, True,
           "spans around one measured run (execute_request / the fan-out "
           "engine's measure call)"),
    Metric("core.request.runs", "count", "lower", "layer", None, CAMPAIGN, False,
           "measured runs executed in-process"),
    Metric("core.fanout.parallel_eff", "ratio", "higher", "layer", None, EXHAUSTIVE, True,
           "in-process wall / (2 x n_jobs=2 wall of the same study)"),
    Metric("core.fanout.context_bytes", "B", "lower", "layer", None, EXHAUSTIVE, False,
           "len(pickle.dumps(SharedRunContext)) of the base cell"),
    Metric("store.put_s", "s", "lower", "layer", None, CAMPAIGN, True,
           "spans around RunStore.put"),
    Metric("store.puts", "count", "lower", "layer", None, CAMPAIGN, False, ""),
    Metric("store.get_many_s", "s", "lower", "layer", None, CAMPAIGN, True,
           "spans around RunStore.get_many"),
    Metric("store.gets", "count", "lower", "layer", None, CAMPAIGN, False,
           "RunStore.get_many calls"),
    Metric("store.checkpoint_io_s", "s", "lower", "layer", None, CAMPAIGN, True,
           "spans around RunStore.get_checkpoint / put_checkpoint"),
    Metric("store.put_us_per_op", "us", "lower", "layer", None, CAMPAIGN, True,
           "store.put_s / store.puts"),
    Metric("store.bytes", "B", "lower", "layer", None, CAMPAIGN, False,
           "on-disk size of the store after the run (sqlite page allocation "
           "may vary by a page under concurrent writers)"),
    Metric("campaign.plan_s", "s", "lower", "layer", None, STUDY, True,
           "Campaign.plan() against the full store"),
    Metric("campaign.resume_s", "s", "lower", "layer", None, STUDY, True,
           "a second run against the now-full store: zero simulation, pure reads"),
    Metric("campaign.self_s", "s", "lower", "layer", None, STUDY, True,
           "Campaign.run self time (span minus its children)"),
    Metric("core.stats.analyze_s", "s", "lower", "layer", None, STUDY, True,
           "conclusion / WCR / ANOVA calls on the study's samples"),
    Metric("core.livesample.functional_s", "s", "lower", "layer", None, LIVE, True,
           "Machine.fast_forward_transactions inside measured runs"),
    Metric("core.livesample.timed_s", "s", "lower", "layer", None, LIVE, True,
           "Machine.run_until_transactions inside measured runs"),
    Metric("core.livesample.self_s", "s", "lower", "layer", None, LIVE, True,
           "measured-run self time (sampler logic, probes' signatures)"),
    Metric("core.livesample.timed_windows", "count", "lower", "layer", None, LIVE, False,
           "sum of stats['livesample']['n_timed_windows']"),
    Metric("core.livesample.strata", "count", "lower", "layer", None, LIVE, False,
           "sum of stats['livesample']['n_strata']"),
    Metric("core.livesample.change_points", "count", "lower", "layer", None, LIVE, False,
           "sum of len(stats['livesample']['change_points'])"),
    Metric("core.fidelity.base_s", "s", "lower", "layer", None, LADDER, True,
           "Campaign.run spans at the ladder's base tier"),
    Metric("core.fidelity.reference_s", "s", "lower", "layer", None, LADDER, True,
           "Campaign.run spans at the reference tier"),
    Metric("core.fidelity.self_s", "s", "lower", "layer", None, LADDER, True,
           "run_escalated_campaign self time (correction fit, decisions)"),
    Metric("core.fidelity.reference_cells", "count", "lower", "layer", None, LADDER, False,
           "EscalationReport.n_reference_cells"),
    Metric("core.fidelity.escalated_cells", "count", "lower", "layer", None, LADDER, False,
           "cells escalated to the reference tier"),
    Metric("service.submit_s", "s", "lower", "layer", None, SERVICE, True,
           "span around WorkQueue.submit"),
    Metric("service.claim_us", "us", "lower", "layer", None, SERVICE, True,
           "median WorkQueue.claim in a claim->complete loop over a scratch "
           "copy of the grid, no simulation"),
    Metric("service.complete_us", "us", "lower", "layer", None, SERVICE, True,
           "median WorkQueue.complete in the same loop"),
    Metric("service.worker_busy_frac", "ratio", "higher", "layer", None, SERVICE, True,
           "children CPU / (workers x drain wall)"),
    Metric("service.cells_per_s", "1/s", "higher", "layer", None, SERVICE, True,
           "cells drained by the worker processes / drain wall"),
    Metric("service.dedup_cells", "count", "higher", "layer", None, SERVICE, False,
           "cells the submit-side dedup served from the pre-seeded store"),
    Metric("service.quarantined", "count", "lower", "layer", None, SERVICE, False, ""),
    Metric("service.lease_lapses", "count", "lower", "layer", None, SERVICE, False,
           "lease-expired events"),
    Metric("trace.first_pass_cpu_s", "s", "lower", "layer", None, SIM, True,
           "CPU of the traced run's plain first pass: the base of the "
           "gen + access + dispatch split"),
    Metric("trace.overhead_frac", "ratio", "lower", "layer", None, ALL, True,
           "sim: recorder pass wall / plain pass wall - 1; others: spans x "
           "calibrated per-span cost / traced wall"),
)
METRIC_BY_NAME = {m.name: m for m in METRICS}

#: The metrics every workload emits: BENCHMARK.json's ``end_to_end``, with
#: the bounds the benchmark driver applies.  The driver judges SINGLE
#: repetitions (it takes its own medians over runs with different seeds)
#: and refuses a benchmark whose single-run spread (IQR / median) exceeds
#: the bound; on the 2-core sandbox that spread is 4-11 % for host time
#: and under 2 % for memory, so the time bounds there are 0.25, about
#: three spreads.  ``--compare`` judges medians of 5 or 3 repetitions
#: with the tighter ``Metric.bound``.  The other ledger e2e metrics apply
#: to some workloads only and so sit under ``per_layer`` there (the
#: schema has no third class).
DRIVER_E2E = {"wall_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.10, "setup_s": 0.25}


def driver_per_layer() -> list[str]:
    return [m.name for m in METRICS if m.name not in DRIVER_E2E]


def applies(metric: Metric, workload: str) -> bool:
    return workload in metric.workloads


def manifest() -> dict:
    """The BENCHMARK.json this module describes."""
    return {
        "command": ["python3", "benchmarks/ledger/__main__.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": REFERENCE_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {
                "name": name,
                "unit": METRIC_BY_NAME[name].unit,
                "better": METRIC_BY_NAME[name].better,
                "bound": bound,
            }
            for name, bound in DRIVER_E2E.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": METRIC_BY_NAME[name].unit,
                "better": METRIC_BY_NAME[name].better,
            }
            for name in driver_per_layer()
        ],
    }


def check_manifest() -> list[str]:
    """Differences between BENCHMARK.json and these tables (empty = in sync)."""
    problems = []
    for metric in METRICS:
        if not NAME_RE.match(metric.name):
            problems.append(f"metric name {metric.name!r} breaks the name syntax")
    for workload in WORKLOADS:
        if not NAME_RE.match(workload.name):
            problems.append(f"workload name {workload.name!r} breaks the name syntax")
    try:
        on_disk = json.loads(MANIFEST_PATH.read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"cannot read {MANIFEST_PATH.name}: {exc}"]
    want = manifest()
    for key in want:
        if on_disk.get(key) != want[key]:
            problems.append(f"BENCHMARK.json[{key!r}] differs from benchmarks/ledger/spec.py")
    for key in on_disk:
        if key not in want:
            problems.append(f"BENCHMARK.json has an unknown key {key!r}")
    return problems
