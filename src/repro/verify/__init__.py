"""Runtime verification: invariant checkers, fuzzing, differential tests.

The paper's whole argument rests on trusting that divergent runs are
*legitimate* executions -- space variability produced by real
scheduling/coherence/lock mechanisms, not simulator bugs.  This package
is the standing correctness gate behind that trust:

- :mod:`repro.verify.invariants` -- live checkers that attach through
  the :class:`repro.probes.ProbeBus` hook points and assert, while the
  simulation runs, the properties the simulator must never violate
  (coherence SWMR, lock mutual exclusion, scheduler accounting, event
  time monotonicity, stat conservation).
- :mod:`repro.verify.fuzz` -- a seeded config-space fuzzer that sweeps
  random valid ``SystemConfig`` x workload x protocol combinations,
  runs short slices with the checkers attached, and double-runs every
  case to assert bit-identical digests (determinism under fuzzing).
- :mod:`repro.verify.differential` -- cross-implementation checks:
  simple vs. OOO cores must agree on memory-system event counts for a
  fixed op stream, and a checkpoint restored mid-run must converge to
  the live machine's continuation bit-for-bit.
- :mod:`repro.verify.runner` -- the ``python -m repro verify`` driver
  that composes all of the above into one pass/fail report.

Every future performance PR must keep ``python -m repro verify
--fuzz N`` clean; CI runs a smoke-sized sweep on every push.
"""

from repro.verify.differential import (
    check_checkpoint_convergence,
    check_core_model_agreement,
)
from repro.verify.fuzz import FuzzCase, FuzzReport, generate_case, run_fuzz
from repro.verify.invariants import (
    InvariantSuite,
    InvariantViolation,
    attach_invariants,
)
from repro.verify.runner import VerifyReport, run_verify

__all__ = [
    "InvariantSuite",
    "InvariantViolation",
    "attach_invariants",
    "FuzzCase",
    "FuzzReport",
    "generate_case",
    "run_fuzz",
    "check_core_model_agreement",
    "check_checkpoint_convergence",
    "VerifyReport",
    "run_verify",
]
