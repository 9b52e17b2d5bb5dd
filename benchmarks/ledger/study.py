"""``study_exhaustive``, ``study_live`` and ``study_ladder``: time to a
paper-grade conclusion.

All three run one grid -- the Figure-4 DRAM sweep plus the Table-1 L2
associativity pair against ``base``, OOO cores, 8 perturbed runs per
configuration from a shared warm checkpoint -- from a cold ``dir`` store
in a temp dir, then draw the per-configuration conclusion (95 %
confidence intervals separate -> faster/slower, overlap -> tie) and the
wrong-conclusion ratio.  ``study_exhaustive`` times every measured
transaction (2 worker processes); ``study_live`` samples windows
(in-process); ``study_ladder`` runs SimpleCore everywhere and OOO only
where the tiers disagree (in-process).  The cheap two are scored against
the exhaustive one's checked-in result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import statistics
import sys
import time
from pathlib import Path

import repro.core.fanout
import repro.core.livesample
import repro.system.checkpoint
from repro.campaign import Campaign, CampaignSpec
from repro.campaign.plan import cell_request
from repro.config import RunConfig, SystemConfig
from repro.core.anova import one_way_anova
from repro.core.confidence import confidence_interval, intervals_overlap
from repro.core.fanout import SharedRunContext
from repro.core.fidelity import EscalationPolicy, run_escalated_campaign
from repro.core.request import effective_config
from repro.core.runner import WorkloadSpec
from repro.core.wcr import wrong_conclusion_ratio
from repro.store import RunStore
from repro.system.checkpoint import Checkpoint
from repro.system.machine import Machine
from repro.workloads.base import reset_stream_memo, stream_memo_stats

from benchmarks.ledger import check, host, spec
from benchmarks.ledger.outcome import Outcome
from benchmarks.ledger.trace import Tracer, span

MAX_TIME_NS = 10**13
EXHAUSTIVE = "study_exhaustive"


def build_spec(workload: str, sizes: dict, seeds: dict) -> CampaignSpec:
    base = SystemConfig(n_cpus=4).with_rob_entries(64)
    configs = []
    for label, dimension, value in spec.STUDY_CONFIGS:
        if dimension == "dram":
            configs.append((label, base.with_dram_latency(value)))
        elif dimension == "l2assoc":
            configs.append((label, base.with_l2_associativity(value)))
        else:
            configs.append((label, base))
    return CampaignSpec(
        configs=configs,
        workloads=[WorkloadSpec.resolve("oltp", workload_seed=seeds["content"])],
        run=RunConfig(
            measured_transactions=sizes["measured"],
            warmup_transactions=sizes["warmup"],
            seed=seeds["perturbation"],
            max_time_ns=MAX_TIME_NS,
        ),
        n_runs=sizes["n_runs"],
        warm_start=True,
        sampling_mode="live" if workload == "study_live" else "fixed",
        name=workload,
    )


def _execute(workload: str, campaign_spec: CampaignSpec, store: RunStore, n_jobs: int):
    """Run the study; returns ({label: values}, {label: conclusion or None},
    the library's report)."""
    if workload == "study_ladder":
        report = run_escalated_campaign(
            campaign_spec, store, policy=EscalationPolicy(confidence=spec.STUDY_CONFIDENCE),
            n_jobs=n_jobs,
        )
        values = {o.config_label: list(o.values) for o in report.outcomes}
        stated = {o.config_label: o.conclusion for o in report.outcomes}
        return values, stated, report
    report = Campaign(campaign_spec, store, n_jobs=n_jobs).run()
    values = {cell.config_label: list(cell.sample.values) for cell in report.cells}
    return values, {}, report


def _conclude(values, baseline) -> str:
    """faster / slower when the 95 % intervals separate, else tie."""
    mean_v = sum(values) / len(values)
    mean_b = sum(baseline) / len(baseline)
    if len(values) >= 2 and len(baseline) >= 2:
        try:
            if intervals_overlap(
                confidence_interval(values, spec.STUDY_CONFIDENCE),
                confidence_interval(baseline, spec.STUDY_CONFIDENCE),
            ):
                return "tie"
        except ValueError:
            pass  # zero-variance sample: fall back to the means
    if mean_v == mean_b:
        return "tie"
    return "faster" if mean_v < mean_b else "slower"


def _rounded(value: float) -> float:
    """10 significant digits.  The ladder's corrected values differ in the
    last bit from process to process: ``run_escalated_campaign`` pools its
    correction pairs by iterating a *set* of labels, so the float sums
    run in hash-seed order.  Everything pinned in ``expected.json`` is
    rounded below that noise and far above any modelling change."""
    return float(f"{value:.10g}")


def analyze(values: dict, stated: dict) -> dict:
    """Per-configuration mean, conclusion vs ``base`` and WCR, plus the
    one-way ANOVA across configurations."""
    baseline = values["base"]
    configs = {}
    for label, sample in values.items():
        try:
            wcr = wrong_conclusion_ratio(sample, baseline) if label != "base" else None
        except ValueError:
            wcr = None  # equal means: no correct conclusion exists
        configs[label] = {
            "mean": _rounded(sum(sample) / len(sample)),
            "n": len(sample),
            "values_sha": hashlib.sha256(
                json.dumps([_rounded(v) for v in sample]).encode()
            ).hexdigest()[:16],
            "conclusion": stated.get(label) or _conclude(sample, baseline),
            "wcr_percent": wcr,
        }
    return {
        "configs": configs,
        "anova_f": _rounded(one_way_anova(list(values.values())).f_statistic),
    }


def _ooo_transactions(workload: str, report, sizes: dict) -> int:
    if workload == "study_ladder":
        return report.n_reference_cells * sizes["n_runs"] * sizes["measured"]
    if workload == "study_live":
        return sum(
            result.stats["livesample"]["timed_transactions"]
            for cell in report.cells
            for result in cell.sample.results
        )
    return sum(
        result.measured_transactions for cell in report.cells for result in cell.sample.results
    )


def score(outcome: Outcome, observed: dict, reference: dict | None, sizes: dict) -> None:
    """Accuracy against study_exhaustive's checked-in result."""
    m = outcome.metrics
    full = len(spec.STUDY_CONFIGS) * sizes["n_runs"] * sizes["measured"]
    m["ooo_txn_frac"] = observed["ooo_transactions"] / full
    if reference is None:
        # Only REFERENCE_SECONDS and QUICK_SECONDS have a blessed exhaustive
        # result; the two accuracy metrics are left out at any other size.
        print("unscored: no study_exhaustive result is checked in for this size",
              file=sys.stderr)
        return
    mine, theirs = observed["configs"], reference["configs"]
    matched = sum(
        1 for label in theirs if mine[label]["conclusion"] == theirs[label]["conclusion"]
    )
    m["conclusions_matched_frac"] = matched / len(theirs)
    m["mean_rel_err_max"] = max(
        abs(mine[label]["mean"] - theirs[label]["mean"]) / theirs[label]["mean"]
        for label in theirs
    )


def describe_mismatch(expected: dict, observed: dict) -> list[str]:
    lines = []
    for label, want in expected["configs"].items():
        got = observed["configs"].get(label)
        if got != want:
            lines.append(f"{label}: expected {want}, got {got}")
    for key in ("anova_f", "ooo_transactions"):
        if expected.get(key) != observed.get(key):
            lines.append(f"{key}: expected {expected.get(key)}, got {observed.get(key)}")
    return lines


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, tracer: Tracer | None,
        scratch: Path) -> Outcome:
    seeds = spec.seeds_of(workload, seed)
    sizes = spec.study_sizes(seconds)
    outcome = Outcome(info={"sizes": sizes, "seeds": seeds})
    n_jobs = 2 if workload == EXHAUSTIVE and tracer is None else 1
    outcome.info["n_jobs"] = n_jobs

    setups = []
    for index in range(3):
        start = time.perf_counter()
        campaign_spec = build_spec(workload, sizes, seeds)
        store = RunStore(scratch / f"store-{index}", backend="dir")
        setups.append(time.perf_counter() - start)
    outcome.setup_s = statistics.median(setups)

    if tracer is not None:
        wrap_campaign_stack(tracer)
    reset_stream_memo()
    gc.collect()
    with host.Region() as region:
        with span(tracer, "traced.workload"):
            values, stated, report = _execute(workload, campaign_spec, store, n_jobs)
            with span(tracer, "core.stats.analyze"):
                observed = analyze(values, stated)
    observed["ooo_transactions"] = _ooo_transactions(workload, report, sizes)
    outcome.observed = observed
    score(outcome, observed, check.exhaustive_reference(seconds), sizes)
    outcome.metrics.update({"wall_s": region.wall_s, "cpu_s": region.cpu_s})

    expected_runs = len(spec.STUDY_CONFIGS) * sizes["n_runs"]
    completed = sum(entry["n"] for entry in observed["configs"].values())
    outcome.attempted += expected_runs
    if completed != expected_runs:
        outcome.failed += expected_runs - completed
        outcome.mismatches.append(f"{expected_runs - completed} runs did not complete")
    if workload != "study_ladder":
        timed_out = sum(
            1 for cell in report.cells for result in cell.sample.results if result.timed_out
        )
        if timed_out:
            outcome.failed += timed_out
            outcome.mismatches.append(f"{timed_out} runs timed out")

    if tracer is not None:
        _layer_metrics(outcome, workload, tracer, region, report, campaign_spec, store, sizes,
                       scratch)
    return outcome


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def wrap_campaign_stack(tracer: Tracer) -> None:
    """Spans at every layer boundary a campaign crosses, in-process."""
    tracer.wrap(Machine, "__init__", "system.machine_build")
    tracer.wrap(Machine, "freeze", "system.freeze")
    tracer.wrap(Machine, "thaw", "system.thaw")
    tracer.wrap(Machine, "clone", "system.clone")
    tracer.wrap(Machine, "run_until_transactions", "machine.timed")
    tracer.wrap(Machine, "fast_forward_transactions", "machine.functional")
    tracer.wrap(Checkpoint, "materialize", "system.materialize")
    tracer.wrap(repro.system.checkpoint, "warm_checkpoint", "system.warm_checkpoint")
    # One measured run: the fan-out engine's in-process leg calls these
    # two; service workers reach the same code through execute_request.
    tracer.wrap(repro.core.fanout, "measure_machine", "core.request.execute")
    tracer.wrap(repro.core.livesample, "measure_live", "core.request.execute")
    tracer.wrap(RunStore, "put", "store.put")
    tracer.wrap(RunStore, "get_many", "store.get_many")
    tracer.wrap(RunStore, "get_checkpoint", "store.checkpoint_io")
    tracer.wrap(RunStore, "put_checkpoint", "store.checkpoint_io")
    tracer.wrap(Campaign, "run", lambda self, *a, **k: f"campaign.run.{self.spec.fidelity}")


def campaign_stack_metrics(m: dict, tracer: Tracer, store_root: Path) -> None:
    """Layer metrics every campaign-driven workload shares."""
    for layer in ("machine_build", "warm_checkpoint", "materialize", "freeze", "thaw", "clone"):
        m[f"system.{layer}_s"] = tracer.total(f"system.{layer}")
        m[f"system.{layer}.calls"] = tracer.calls(f"system.{layer}")
    m["core.request.execute_s"] = tracer.total("core.request.execute")
    m["core.request.runs"] = tracer.calls("core.request.execute")
    m["store.put_s"] = tracer.total("store.put")
    m["store.puts"] = tracer.calls("store.put")
    m["store.get_many_s"] = tracer.total("store.get_many")
    m["store.gets"] = tracer.calls("store.get_many")
    m["store.checkpoint_io_s"] = tracer.total("store.checkpoint_io")
    m["store.put_us_per_op"] = (
        m["store.put_s"] / m["store.puts"] * 1e6 if m["store.puts"] else 0.0
    )
    m["store.bytes"] = sum(p.stat().st_size for p in store_root.rglob("*") if p.is_file())
    memo = stream_memo_stats()
    lookups = memo.hits + memo.misses
    m["workloads.memo_hit_frac"] = memo.hits / lookups if lookups else 0.0
    m["trace.overhead_frac"] = (
        len(tracer.spans) * tracer.span_cost_s() / tracer.total("traced.workload")
    )


def _layer_metrics(outcome, workload, tracer, region, report, campaign_spec, store, sizes,
                   scratch) -> None:
    m = outcome.metrics
    campaign_stack_metrics(m, tracer, store.root)
    m["campaign.self_s"] = sum(
        tracer.self_time(f"campaign.run.{tier}") for tier in ("ooo", "simple", "ffwd")
    )
    m["core.stats.analyze_s"] = tracer.total("core.stats.analyze")

    if workload == EXHAUSTIVE:
        # Live runs keep only the sampler's record and the ladder returns
        # values only: scheduler counters exist for the exhaustive study.
        results = [r for cell in report.cells for r in cell.sample.results]
        m["osmodel.dispatches"] = sum(r.stats["dispatches"] for r in results)
        m["osmodel.migrations"] = sum(r.stats["migrations"] for r in results)
        m["osmodel.dispatches_per_txn"] = m["osmodel.dispatches"] / sum(
            r.measured_transactions for r in results
        )
    if workload == "study_live":
        live = [
            r.stats["livesample"] for cell in report.cells for r in cell.sample.results
        ]
        m["core.livesample.functional_s"] = tracer.total_under(
            "machine.functional", "core.request.execute"
        )
        m["core.livesample.timed_s"] = tracer.total_under(
            "machine.timed", "core.request.execute"
        )
        m["core.livesample.self_s"] = tracer.self_time("core.request.execute")
        m["core.livesample.timed_windows"] = sum(s["n_timed_windows"] for s in live)
        m["core.livesample.strata"] = sum(s["n_strata"] for s in live)
        m["core.livesample.change_points"] = sum(len(s["change_points"]) for s in live)
    if workload == "study_ladder":
        m["core.fidelity.base_s"] = tracer.total("campaign.run.simple")
        m["core.fidelity.reference_s"] = tracer.total("campaign.run.ooo")
        m["core.fidelity.self_s"] = tracer.total("traced.workload") - (
            m["core.fidelity.base_s"] + m["core.fidelity.reference_s"]
            + m["core.stats.analyze_s"]
        )
        m["core.fidelity.reference_cells"] = report.n_reference_cells
        m["core.fidelity.escalated_cells"] = sum(
            1 for o in report.outcomes if o.kind == "escalated"
        )

    # The store is full now: planning and a second run are pure reads.
    with span(tracer, "campaign.plan"):
        start = time.perf_counter()
        plan = Campaign(campaign_spec, store).plan()
        m["campaign.plan_s"] = time.perf_counter() - start
    with span(tracer, "campaign.resume"):
        start = time.perf_counter()
        values, stated, _report = _execute(workload, campaign_spec, store, 1)
        m["campaign.resume_s"] = time.perf_counter() - start
    outcome.attempt(
        analyze(values, stated)["configs"] == outcome.observed["configs"],
        "resume from the full store changed the study's result",
    )
    if workload != "study_ladder":  # the ladder leaves corrected cells unrun at "ooo"
        outcome.attempt(plan.n_pending == 0, "plan against the full store has pending runs")

    if workload == EXHAUSTIVE:
        _label, config = campaign_spec.configs[0]
        wspec = campaign_spec.workloads[0]
        checkpoint = repro.system.checkpoint.warm_checkpoint(
            effective_config(config, campaign_spec.fidelity),
            wspec.make(),
            warmup_transactions=campaign_spec.run.warmup_transactions,
            max_time_ns=campaign_spec.run.max_time_ns,
            store=store,
            mode=campaign_spec.warmup_mode,
        )
        context = SharedRunContext(
            config=config,
            spec=wspec,
            run=cell_request(campaign_spec, config, wspec).run,
            checkpoint=checkpoint,
        )
        m["core.fanout.context_bytes"] = len(pickle.dumps(context))
        # The same study through the 2-process fan-out, untraced spans
        # aside (children are separate processes), for parallel efficiency.
        parallel_store = RunStore(scratch / "store-parallel", backend="dir")
        reset_stream_memo(reset_stats=False)
        gc.collect()
        with span(tracer, "study.parallel"):
            start = time.perf_counter()
            parallel_values, _stated, _report = _execute(
                workload, campaign_spec, parallel_store, 2
            )
            parallel_wall = time.perf_counter() - start
        outcome.attempt(
            analyze(parallel_values, {})["configs"] == outcome.observed["configs"],
            "2-process fan-out and in-process execution disagree",
        )
        m["core.fanout.parallel_eff"] = region.wall_s / (2 * parallel_wall)
