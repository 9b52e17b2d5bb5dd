"""The ``python -m repro verify`` driver.

Composes the verification layers into one pass/fail report:

1. **Invariant scenarios** -- a curated set of runs spanning every
   protocol, both core models, contended locks, and barrier phases, each
   executed with the full :class:`repro.verify.invariants.InvariantSuite`
   attached.  Any recorded violation fails the run.
2. **Differential checks** -- core-model agreement, checkpoint
   convergence, and functional-vs-timed warm-up agreement
   (:mod:`repro.verify.differential`).
3. **Fuzz sweep** (optional, ``--fuzz N``) -- N random configurations,
   each double-run for digest equality with checkers attached
   (:mod:`repro.verify.fuzz`).

Exit status is 0 iff every layer is clean, so CI can gate on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig, SystemConfig
from repro.sim.rng import stream_seed
from repro.system.machine import Machine, SimulationStall
from repro.verify.differential import (
    DifferentialResult,
    check_checkpoint_convergence,
    check_core_model_agreement,
    check_functional_warmup_agreement,
)
from repro.verify.fuzz import FuzzReport, run_fuzz
from repro.verify.invariants import attach_invariants
from repro.workloads.registry import make_workload

#: (label, workload, transactions, config) -- chosen to exercise every
#: protocol, both core models, lock contention (oltp/slashcode), barrier
#: phases (barnes/ocean), and single-CPU multiprogramming
_SCENARIOS: tuple[tuple[str, str, int, SystemConfig], ...] = (
    ("oltp/mosi/4cpu", "oltp", 20, SystemConfig(n_cpus=4)),
    (
        "oltp/mesi/8cpu",
        "oltp",
        20,
        SystemConfig(n_cpus=8).with_protocol("mesi"),
    ),
    (
        "slashcode/moesi/4cpu",
        "slashcode",
        15,
        SystemConfig(n_cpus=4).with_protocol("moesi"),
    ),
    (
        "apache/mosi/ooo",
        "apache",
        10,
        SystemConfig(n_cpus=4).with_rob_entries(32),
    ),
    ("barnes/mosi/4cpu", "barnes", 1, SystemConfig(n_cpus=4)),
    (
        "ocean/mesi/8cpu",
        "ocean",
        1,
        SystemConfig(n_cpus=8).with_protocol("mesi"),
    ),
    ("specjbb/moesi/1cpu", "specjbb", 8, SystemConfig(n_cpus=1).with_protocol("moesi")),
    (
        "ecperf/mosi/noperturb",
        "ecperf",
        10,
        SystemConfig(n_cpus=4).with_perturbation(0),
    ),
)


@dataclass
class ScenarioResult:
    """Outcome of one invariant-checked scenario run."""

    label: str
    violations: list[str]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations


@dataclass
class VerifyReport:
    """Everything one verify pass found."""

    scenarios: list[ScenarioResult] = field(default_factory=list)
    differentials: list[DifferentialResult] = field(default_factory=list)
    fuzz: FuzzReport | None = None

    @property
    def ok(self) -> bool:
        return (
            all(s.ok for s in self.scenarios)
            and all(d.ok for d in self.differentials)
            and (self.fuzz is None or self.fuzz.ok)
        )

    def render(self) -> str:
        """Full human-readable report."""
        lines = []
        for scenario in self.scenarios:
            if scenario.ok:
                lines.append(f"invariants {scenario.label}: ok")
            elif scenario.error is not None:
                lines.append(f"invariants {scenario.label}: ERROR {scenario.error}")
            else:
                lines.append(
                    f"invariants {scenario.label}: "
                    f"{len(scenario.violations)} violation(s)"
                )
                lines.extend(f"  {v}" for v in scenario.violations)
        for differential in self.differentials:
            lines.append(differential.render())
        if self.fuzz is not None:
            lines.append(self.fuzz.render())
        lines.append("verify: PASS" if self.ok else "verify: FAIL")
        return "\n".join(lines)


def _run_scenario(
    label: str, workload_name: str, transactions: int, config: SystemConfig
) -> ScenarioResult:
    """Run one scenario with the invariant suite attached."""
    machine = Machine(config, make_workload(workload_name))
    machine.hierarchy.seed_perturbation(stream_seed(7, "perturbation"))
    suite = attach_invariants(machine)
    try:
        machine.run_until_transactions(
            transactions, max_time_ns=RunConfig().max_time_ns
        )
    except SimulationStall as exc:
        return ScenarioResult(
            label=label, violations=suite.violations,
            error=f"SimulationStall: {exc}",
        )
    return ScenarioResult(label=label, violations=suite.finalize())


def run_verify(fuzz: int = 0, seed: int = 1, progress=None) -> VerifyReport:
    """Run the full verification pass.

    ``progress`` (optional callable taking one line of text) receives
    live status lines for CLI output.
    """

    def say(line: str) -> None:
        if progress is not None:
            progress(line)

    report = VerifyReport()
    for label, workload_name, transactions, config in _SCENARIOS:
        result = _run_scenario(label, workload_name, transactions, config)
        report.scenarios.append(result)
        say(f"invariants {label}: {'ok' if result.ok else 'FAIL'}")
    for check in (
        check_core_model_agreement,
        check_checkpoint_convergence,
        check_functional_warmup_agreement,
        ):
        result = check()
        report.differentials.append(result)
        say(f"{result.name}: {'ok' if result.ok else 'FAIL'}")
    if fuzz > 0:
        say(f"fuzzing {fuzz} cases from seed {seed} ...")
        report.fuzz = run_fuzz(
            fuzz,
            seed=seed,
            progress=lambda r: say(
                f"  {r.case.describe()}: {'ok' if r.ok else 'FAIL'}"
            ),
        )
    return report
