"""The output check: simulated results against ``expected.json``.

The simulator is bit-deterministic, so every simulated output has one
right value per (workload, size, seed).  ``expected.json`` pins them for
seed 0 at the reference size and at the ``--quick`` size; other seeds
and sizes are checked for self-agreement only (two executions of the
same inputs inside the repetition must agree exactly).
"""

from __future__ import annotations

import json
import subprocess

from benchmarks.ledger import spec
from benchmarks.ledger.outcome import Outcome


def key_for(workload: str, seed: int, seconds: float) -> str:
    kind = spec.WORKLOAD_BY_NAME[workload].kind
    if kind == "sim":
        # Segment boundaries of a shorter run are a prefix of a longer one.
        return f"{workload}/seed{seed}"
    if kind == "study":
        return f"{workload}@{seconds:g}s"  # studies ignore the seed
    return f"{workload}@{seconds:g}s/seed{seed}"


def load() -> dict:
    try:
        return json.loads(spec.EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return {}


def verify(outcome: Outcome, workload: str, seed: int, seconds: float, describe) -> None:
    """Count one attempt for the expected-digest comparison, when one is
    checked in for these inputs.  ``describe(expected, observed)`` is the
    workload module's ``describe_mismatch``: the differences, as lines."""
    key = key_for(workload, seed, seconds)
    expected = load().get(key)
    outcome.info["expected"] = key if expected is not None else "absent"
    if expected is None:
        return
    lines = describe(expected, outcome.observed)
    outcome.attempt(not lines, f"expected.json[{key}] mismatch: " + "; ".join(lines))


def exhaustive_reference(seconds: float) -> dict | None:
    return load().get(key_for("study_exhaustive", 0, seconds))


def src_is_clean() -> tuple[bool, str]:
    """Whether ``src/`` matches the committed tree (rebless precondition)."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=spec.REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        return False, f"cannot ask git about src/: {exc}"
    return (not status), status


def write(entries: dict) -> None:
    spec.EXPECTED_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
