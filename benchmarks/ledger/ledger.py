"""The full ledger: repetitions in fresh processes, medians, the report,
and the comparison of two result files under each metric's bound."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.ledger import check, host, spec


# ----------------------------------------------------------------------
# Running repetitions
# ----------------------------------------------------------------------
def run_rep(workload: str, seed: int, seconds: float, trace: bool, *,
            quiet: bool = False) -> dict:
    """One repetition in a fresh, scrubbed process; returns its full record
    (``returncode`` and the parsed last stdout line added).  ``quiet``
    drops the repetition's stderr (its mismatch lines)."""
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ledger-", dir=spec.OUT_DIR) as tmp:
        detail = Path(tmp) / "detail.json"
        done = subprocess.run(
            [
                sys.executable, str(spec.LEDGER_DIR / "__main__.py"),
                "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
                "--trace", str(int(trace)), "--detail", str(detail),
            ],
            cwd=spec.REPO_ROOT,
            env=host.scrubbed_env(Path(tmp) / "default-store"),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL if quiet else None,
            text=True,
        )
        if not detail.exists():
            raise RuntimeError(
                f"repetition of {workload} died with exit code {done.returncode} "
                "before writing its record"
            )
        record = json.loads(detail.read_text())
    record["returncode"] = done.returncode
    record["line"] = json.loads(done.stdout.strip().splitlines()[-1])
    return record


def measure(workloads: list[str], seed: int, n_sets: int = 1) -> list[dict]:
    """``n_sets`` independent result sets of the same tree, at the
    reference size with each workload's own repetition count.

    Untraced repetitions are interleaved round-robin across workloads --
    and across sets, repetition by repetition -- so that drift on the host
    (minutes-long slow phases of 15-20 % were seen) hits every workload
    and every set alike; then one traced run per workload and set."""
    seconds = spec.REFERENCE_SECONDS
    plan = {w: spec.WORKLOAD_BY_NAME[w].reps for w in workloads}
    untraced = [{w: [] for w in workloads} for _ in range(n_sets)]
    for index in range(max(plan.values())):
        for workload in workloads:
            if index >= plan[workload]:
                continue
            for records in untraced:
                print(f"  rep {index + 1}/{plan[workload]} {workload}", file=sys.stderr)
                records[workload].append(run_rep(workload, seed, seconds, trace=False))
    traced = [{} for _ in range(n_sets)]
    for workload in workloads:
        for records in traced:
            print(f"  traced {workload}", file=sys.stderr)
            records[workload] = run_rep(workload, seed, seconds, trace=True)
    meta = {
        "seed": seed,
        "seconds": seconds,
        "reps": plan,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "when": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return [
        {
            "meta": meta,
            "workloads": {w: _aggregate(w, untraced[i][w], traced[i][w]) for w in workloads},
        }
        for i in range(n_sets)
    ]


def _aggregate(workload: str, reps: list[dict], traced: dict) -> dict:
    e2e, layers, problems = {}, {}, []
    for metric in spec.METRICS:
        if not spec.applies(metric, workload):
            continue
        if metric.cls == "layer":
            layers[metric.name] = traced["metrics"].get(metric.name)
            continue
        values = [rep["metrics"].get(metric.name) for rep in reps]
        if None in values:
            continue  # unscored: no blessed study_exhaustive result to score against
        if metric.timing:
            e2e[metric.name] = {"unit": metric.unit, **host.spread(values)}
        else:
            if len(set(values)) != 1:
                problems.append(f"exact metric {metric.name} varies between reps: {values}")
            e2e[metric.name] = {"unit": metric.unit, "value": values[0]}
    records = reps + [traced]
    e2e["failed_frac"]["value"] = max(
        e2e["failed_frac"]["value"], traced["metrics"]["failed_frac"]
    )
    return {
        "sizes": reps[0]["info"]["sizes"],
        "traced_sizes": traced["info"]["sizes"],
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records) + len(problems),
        "mismatches": problems + [line for r in records for line in r["mismatches"]],
        "e2e": e2e,
        "layers": layers,
        "traced_wall_s": traced["info"].get("traced_wall_s"),
    }


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 10:
        return f"{int(value):,}"
    return f"{value:,.4g}"


def render(results: dict) -> str:
    meta = results["meta"]
    lines = [
        f"performance ledger: seed {meta['seed']}, --seconds {meta['seconds']:g}, "
        f"python {meta['python']}, {meta['cpus']} cpus, {meta['when']}",
        "timing metrics: median [q1 .. q3] (min .. max) n; exact metrics: one value",
    ]
    for workload, entry in results["workloads"].items():
        lines.append("")
        lines.append(f"== {workload}  sizes={entry['sizes']}  reps={meta['reps'][workload]}")
        for name, stats in entry["e2e"].items():
            bound = spec.METRIC_BY_NAME[name].bound
            if "median" in stats:
                lines.append(
                    f"  {name:<28}{_fmt(stats['median']):>12} {stats['unit']:<6}"
                    f"[{_fmt(stats['q1'])} .. {_fmt(stats['q3'])}] "
                    f"({_fmt(stats['min'])} .. {_fmt(stats['max'])}) n={stats['n']}  "
                    f"bound {bound:.0%}"
                )
            else:
                lines.append(
                    f"  {name:<28}{_fmt(stats['value']):>12} {stats['unit']:<6}exact"
                )
        lines.append(f"  -- per layer (one traced run, sizes={entry['traced_sizes']})")
        for name, value in entry["layers"].items():
            unit = spec.METRIC_BY_NAME[name].unit
            lines.append(f"  {name:<36}{_fmt(value):>14} {unit}")
        base = entry["layers"].get("trace.first_pass_cpu_s")
        if base:
            shares = ", ".join(
                f"{layer} {entry['layers'][layer] / base:.0%}"
                for layer in ("workloads.gen_s", "memory.access_s", "system.dispatch_s")
            )
            lines.append(f"  layer shares of first-pass CPU: {shares}")
        for line in entry["mismatches"]:
            lines.append(f"  MISMATCH: {line}")
    exhaustive = results["workloads"].get("study_exhaustive")
    if exhaustive and exhaustive.get("traced_wall_s"):
        lines.append("")
        lines.append(
            "speed-up and error against the full run (study_exhaustive, in-process "
            f"{exhaustive['traced_wall_s']:.2f} s; the model is unvalidated against "
            "hardware: 'error' is error against study_exhaustive)"
        )
        for workload in ("study_live", "study_ladder"):
            entry = results["workloads"].get(workload)
            if entry is None:
                continue
            e2e = entry["e2e"]
            scores = "  ".join(
                f"{name} {_fmt(e2e.get(name, {}).get('value'))}"
                for name in ("mean_rel_err_max", "conclusions_matched_frac", "ooo_txn_frac")
            )
            lines.append(
                f"  {workload:<14} speedup_vs_exhaustive "
                f"{exhaustive['traced_wall_s'] / e2e['wall_s']['median']:.2f}x  {scores}"
            )
    return "\n".join(lines)


def _failed(results: dict) -> int:
    return sum(entry["failed"] for entry in results["workloads"].values())


def full(workloads: list[str], seed: int) -> int:
    (results,) = measure(workloads, seed)
    print(render(results))
    out = spec.OUT_DIR / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {out}; traces in {spec.OUT_DIR}/trace-<workload>.json")
    failed = _failed(results)
    if failed:
        print(f"FAIL: {failed} failed runs or mismatched outputs")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------
def noise_floors() -> dict:
    """Same-commit spreads recorded by the last passing ``--self-check``:
    ``{workload: {metric: share of the median}}``."""
    try:
        return json.loads(spec.BASELINE_PATH.read_text())["noise_floor"]
    except FileNotFoundError:
        return {}


def judge(metric: spec.Metric, a: dict, b: dict, floor: float = 0.0) -> tuple[str, float]:
    """Verdict on B against A for one (metric, workload) and the signed
    relative change (positive = worse).  ``floor`` is the recorded
    same-commit spread of this row."""
    sign = 1.0 if metric.better == "lower" else -1.0
    if "value" in a:
        if a["value"] == b["value"]:
            return "ok", 0.0
        worse = sign * (b["value"] - a["value"])
        base = abs(a["value"]) or 1.0
        return ("regressed" if worse > 0 else "improved"), worse / base
    base = a["median"]
    worse = sign * (b["median"] - base) / base
    bound = metric.bound
    if metric.name == "setup_s":
        bound = max(bound, spec.SETUP_ABS_SLACK_S / base)
    noise = max(floor, (a["q3"] - a["q1"]) / base, (b["q3"] - b["q1"]) / base)
    if noise > bound:
        # Two sets of the same commit differ by more than the bound:
        # only disjoint ranges decide.
        lo_a, hi_a, lo_b, hi_b = (
            (a["min"], a["max"], b["min"], b["max"]) if sign > 0
            else (-a["max"], -a["min"], -b["max"], -b["min"])
        )
        if lo_b > hi_a:
            return "regressed", worse
        if hi_b < lo_a:
            return "improved", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def compare(a: dict, b: dict, floors: dict) -> list[dict]:
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, stats_a in entry_a["e2e"].items():
            stats_b = entry_b["e2e"].get(name)
            if stats_b is None:
                continue
            metric = spec.METRIC_BY_NAME[name]
            verdict, change = judge(
                metric, stats_a, stats_b, floors.get(workload, {}).get(name, 0.0)
            )
            rows.append(
                {
                    "workload": workload, "metric": name, "verdict": verdict,
                    "change": change, "timing": metric.timing,
                    "a": stats_a.get("median", stats_a.get("value")),
                    "b": stats_b.get("median", stats_b.get("value")),
                }
            )
    return rows


def render_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<18}{'metric':<28}{'A':>14}{'B':>14}{'worse by':>10}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<18}{row['metric']:<28}{_fmt(row['a']):>14}"
            f"{_fmt(row['b']):>14}{row['change']:>+10.1%}  {row['verdict']}"
        )
    return "\n".join(lines)


def compare_files(path_a: Path, path_b: Path) -> int:
    rows = compare(
        json.loads(path_a.read_text()), json.loads(path_b.read_text()), noise_floors()
    )
    print(render_rows(rows))
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    return 1 if regressed else 0


def self_check(workloads: list[str], seed: int) -> int:
    """Two full sets on the same tree, their repetitions interleaved,
    must agree: every timing row ``ok``, every exact metric identical,
    nothing failed.  A row whose spread in these two sets is wider than
    its bound is ``unresolved`` and only warned about: the sample cannot
    tell, and its spread is recorded so ``--compare`` knows.  A pass
    writes the observed spreads to ``baseline.json`` as noise floors."""
    a, b = measure(workloads, seed, n_sets=2)
    for name, results in (("A", a), ("B", b)):
        (spec.OUT_DIR / f"self-check-{name}.json").write_text(
            json.dumps(results, indent=1) + "\n"
        )
    rows = compare(a, b, floors={})
    print(render(b))
    print()
    print(render_rows(rows))
    floors = noise_floors()
    for row in rows:
        if not row["timing"]:
            continue
        stats = [x["workloads"][row["workload"]]["e2e"][row["metric"]] for x in (a, b)]
        floors.setdefault(row["workload"], {})[row["metric"]] = round(
            max(
                abs(row["change"]),
                *((s["q3"] - s["q1"]) / s["median"] for s in stats),
            ),
            4,
        )
    print("\nsame-commit spread per timing metric (noise floor, share of the median):")
    for workload in workloads:
        print(f"  {workload:<18}" + "  ".join(f"{k} {v:.1%}" for k, v in floors[workload].items()))
    bad = []
    for row in rows:
        if row["verdict"] == "unresolved":
            print(f"warning: {row['workload']} {row['metric']}: spread wider than its bound")
        elif row["verdict"] != "ok":
            bad.append(row)
    failed = _failed(a) + _failed(b)
    for row in bad:
        print(f"SELF-CHECK FAIL: {row['workload']} {row['metric']}: {row['verdict']}")
    if failed:
        print(f"SELF-CHECK FAIL: {failed} failed runs or mismatched outputs")
    if bad or failed:
        return 1
    spec.BASELINE_PATH.write_text(
        json.dumps({"noise_floor": floors}, indent=1) + "\n"
    )
    print(f"wrote {spec.BASELINE_PATH}")
    return 0


# ----------------------------------------------------------------------
# --quick and --rebless
# ----------------------------------------------------------------------
def quick(workloads: list[str], seed: int) -> int:
    """One repetition of each kind at 1/10 size; digests, the protocol
    line and the metric names are checked.  Writes no numbers anywhere."""
    problems = spec.check_manifest()
    for workload in workloads:
        for trace in (False, True):
            start = time.perf_counter()
            record = run_rep(workload, seed, spec.QUICK_SECONDS, trace)
            print(
                f"{workload:<18}trace={int(trace)} {time.perf_counter() - start:5.1f} s  "
                f"attempted {record['attempted']} failed {record['failed']}  "
                f"expected: {record['info']['expected']}"
            )
            problems += [f"{workload}: {line}" for line in record["mismatches"]]
            if record["returncode"] != (0 if record["correct"] else 1):
                problems.append(f"{workload}: exit code {record['returncode']}")
            wanted = set(spec.driver_per_layer() if trace else spec.DRIVER_E2E)
            if set(record["line"]["metrics"]) != wanted:
                problems.append(f"{workload} trace={int(trace)}: protocol line names differ")
            # An untraced repetition reports the ledger's end-to-end class,
            # a traced one everything the protocol's --trace 1 line carries.
            expected_names = {
                m.name for m in spec.METRICS
                if spec.applies(m, workload)
                and (m.name not in spec.DRIVER_E2E if trace else m.cls == "e2e")
            }
            emitted = set(record["metrics"])
            for name in sorted(expected_names - emitted):
                problems.append(f"{workload} trace={int(trace)}: metric {name} not emitted")
            for name in sorted(emitted - {m.name for m in spec.METRICS}):
                problems.append(f"{workload} trace={int(trace)}: unknown metric {name} emitted")
    for line in problems:
        print(f"QUICK FAIL: {line}")
    print("quick: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def rebless() -> int:
    clean, detail = check.src_is_clean()
    if not clean:
        print(f"refusing to rebless: src/ is not the committed tree\n{detail}")
        return 1
    entries = {}
    for seconds in (spec.REFERENCE_SECONDS, spec.QUICK_SECONDS):
        for workload in spec.WORKLOADS:
            key = check.key_for(workload.name, 0, seconds)
            if key in entries:
                continue  # simulator boundaries: the quick run is a prefix
            print(f"  blessing {key}", file=sys.stderr)
            # Quiet: disagreeing with the entry being replaced is the point.
            record = run_rep(workload.name, 0, seconds, trace=False, quiet=True)
            internal = [m for m in record["mismatches"] if "expected.json" not in m]
            if internal:
                print(f"refusing to rebless {key}: {internal}")
                return 1
            entries[key] = record["observed"]
    check.write(entries)
    print(f"wrote {spec.EXPECTED_PATH} ({len(entries)} entries)")
    return 0
