"""What one repetition of one workload produced."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    #: metric name -> measured value (units live in ``spec.METRICS``)
    metrics: dict = field(default_factory=dict)
    #: runs / boundaries / cells whose output was checked, and how many
    #: raised, timed out, were quarantined or disagreed
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    #: the simulated outputs ``expected.json`` pins for this workload
    observed: dict = field(default_factory=dict)
    #: sizes and seeds actually used
    info: dict = field(default_factory=dict)
    #: the in-process part of set-up (median of three); the repetition
    #: driver adds interpreter start + imports
    setup_s: float = 0.0

    def attempt(self, ok: bool, message: str) -> None:
        """Count one checked output; ``message`` describes a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(message)
