"""Golden-digest determinism tests.

The hot-path refactor (integer op ISA, dispatch tables, tuple events,
allocation-free access fast path) must be behavior-preserving
*bit-for-bit*: same (config, seed) => same transaction log and final
hierarchy statistics.  These digests were generated from the
pre-refactor ``main`` and committed; any change to them means the
simulation's observable behaviour changed, which is a regression even if
every other test still passes.

The digest deliberately hashes only integers (transaction timestamps and
type ids, hierarchy counters, elapsed time) so it is stable across
Python versions and platforms.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src python tests/test_golden_determinism.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import RunConfig, SystemConfig
from repro.system.checkpoint import warm_checkpoint
from repro.system.simulation import measure_machine, run_simulation
from repro.workloads.registry import make_workload

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"

#: digest scenarios: name -> (workload, workload params, config builder, txns)
SCENARIOS: dict[str, dict] = {
    "oltp": {"workload": "oltp", "params": {"threads_per_cpu": 2}, "txns": 40},
    "apache": {"workload": "apache", "params": {"threads_per_cpu": 2}, "txns": 40},
    "specjbb": {"workload": "specjbb", "params": {}, "txns": 40},
    "slashcode": {"workload": "slashcode", "params": {"threads_per_cpu": 2}, "txns": 25},
    "ecperf": {"workload": "ecperf", "params": {"threads_per_cpu": 2}, "txns": 25},
    "barnes": {"workload": "barnes", "params": {}, "txns": 1},
    "ocean": {"workload": "ocean", "params": {}, "txns": 1},
    "oltp-ooo": {
        "workload": "oltp",
        "params": {"threads_per_cpu": 2},
        "txns": 25,
        "config": lambda: SystemConfig(n_cpus=4).with_rob_entries(32),
    },
    "oltp-mesi": {
        "workload": "oltp",
        "params": {"threads_per_cpu": 2},
        "txns": 25,
        "config": lambda: SystemConfig(n_cpus=4).with_protocol("mesi"),
    },
}

#: hierarchy counters folded into the digest (integer fields only)
STAT_KEYS = (
    "l1_hits",
    "l2_hits",
    "l2_misses",
    "cache_to_cache",
    "memory_fetches",
    "upgrades",
    "writebacks",
    "perturbation_total_ns",
    "block_race_stalls",
)


def golden_digest(scenario: dict, seed: int = 9) -> str:
    """Hash the run's transaction log and final hierarchy statistics."""
    config = scenario.get("config", lambda: SystemConfig(n_cpus=4))()
    workload = make_workload(scenario["workload"], **scenario["params"])
    result = run_simulation(
        config,
        workload,
        RunConfig(
            measured_transactions=scenario["txns"],
            warmup_transactions=0,
            seed=seed,
            max_time_ns=10**13,
        ),
        collect_transaction_times=True,
    )
    return _result_digest(result)


def _result_digest(result) -> str:
    blob = repr(
        (
            result.elapsed_ns,
            result.measured_transactions,
            result.transaction_times,
            [(key, int(result.stats[key])) for key in STAT_KEYS],
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def warm_ooo_digests(seed: int = 9) -> dict[str, str]:
    """Digests of an OOO warm checkpoint and of one run measured from it.

    The checkpoint digest covers every predictor table *in dict iteration
    order* (``Checkpoint.digest`` canonicalises dicts as item lists), so
    it pins the branch stream, the predictor updates and their key
    insertion order all at once; the measured run pins the timing the
    core derives from them.
    """
    config = SystemConfig(n_cpus=4).with_rob_entries(64)
    checkpoint = warm_checkpoint(
        config, make_workload("oltp", threads_per_cpu=2), warmup_transactions=200
    )
    result = measure_machine(
        checkpoint.materialize(config),
        config,
        RunConfig(
            measured_transactions=25,
            warmup_transactions=0,
            seed=seed,
            max_time_ns=10**13,
        ),
        collect_transaction_times=True,
    )
    return {
        "oltp-ooo-warm-checkpoint": checkpoint.digest(),
        "oltp-ooo-warm-measure": _result_digest(result),
    }


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


# The ``-python`` suffix keeps these test ids what they have always been.
@pytest.mark.parametrize(
    "name", sorted(SCENARIOS), ids=[f"{name}-python" for name in sorted(SCENARIOS)]
)
def test_matches_golden_digest(name):
    golden = load_golden()
    assert name in golden, f"no golden digest for scenario {name!r}; regenerate"
    digest = golden_digest(SCENARIOS[name])
    assert digest == golden[name], (
        f"scenario {name!r} diverged from the committed golden digest: "
        "the simulator's observable behaviour changed for a fixed "
        "(config, seed).  If this was intentional, regenerate with "
        "`python tests/test_golden_determinism.py --regen`."
    )


def test_ooo_warm_checkpoint_matches_golden_digest():
    golden = load_golden()
    for name, digest in warm_ooo_digests().items():
        assert digest == golden[name], (
            f"{name!r} diverged from the committed golden digest: the OOO "
            "core's branch stream, predictor state (including dict "
            "insertion order) or timing changed for a fixed (config, seed)."
        )


def _regen() -> None:
    digests = {}
    for name in sorted(SCENARIOS):
        digests[name] = golden_digest(SCENARIOS[name])
    digests.update(warm_ooo_digests())
    for name in sorted(digests):
        print(f"{name}: {digests[name]}")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
