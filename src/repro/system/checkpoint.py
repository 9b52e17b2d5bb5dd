"""Checkpoints: full-state capture and restore.

The paper uses Simics' checkpointing facility to (a) start every run of a
comparison from the same initial conditions and (b) record multiple
checkpoints across a workload's lifetime to study time variability
(sections 3.2.2 and 4.3, Figure 9).  A :class:`Checkpoint` here captures
the complete machine state -- threads, program counters-in-stream,
caches, coherence state, locks, run queues, and in-flight events -- and
can be materialized under a *different* system configuration, which is
exactly how one checkpoint seeds runs of many candidate designs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.config import SystemConfig
from repro.core.request import WorkloadSpec
from repro.system.machine import Machine, check_warmup_mode
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload


def _canonicalize(obj):
    """Rewrite state into a form whose pickle bytes are content-stable.

    A ``set``'s iteration order depends on its insertion history, so two
    equal sets (e.g. one freshly built and one rebuilt by unpickling) can
    pickle to different bytes; hashing that would give a checkpoint a
    different digest after every save/load round-trip.  Sorting set
    elements (snapshot state only holds sortable primitives in sets)
    makes the digest a pure function of content.
    """
    if isinstance(obj, (set, frozenset)):
        return ("__set__", sorted(_canonicalize(x) for x in obj))
    if isinstance(obj, dict):
        return ("__dict__", [(k, _canonicalize(v)) for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_canonicalize(x) for x in obj])
    return obj


@dataclass
class Checkpoint:
    """A captured machine state plus what is needed to rebuild it.

    ``workload`` is the identity of the workload whose program state
    ``state`` holds -- a :class:`~repro.core.request.WorkloadSpec`, the
    same record run keys and warm keys hash.
    """

    state: dict
    workload: WorkloadSpec
    taken_at_transactions: int

    @classmethod
    def capture(cls, machine: Machine) -> "Checkpoint":
        """Snapshot a quiesced machine (between event-loop calls)."""
        return cls(
            state=machine.snapshot(),
            workload=WorkloadSpec.resolve(machine.workload),
            taken_at_transactions=machine.completed_transactions,
        )

    def materialize(
        self, config: SystemConfig, workload: Workload | None = None
    ) -> Machine:
        """Rebuild a machine from this checkpoint under ``config``.

        Pass ``workload`` to supply a parameter-overridden workload
        instance; it must match the checkpoint's name/seed/scale (the
        captured program state belongs to that stream).
        """
        spec = self.workload
        if workload is None:
            workload = spec.make()
        elif (workload.name, workload.seed, workload.scale) != (spec.name, spec.seed, spec.scale):
            raise ValueError(
                "workload instance does not match the checkpointed stream "
                f"({workload.name}/{workload.seed}/{workload.scale} vs "
                f"{spec.name}/{spec.seed}/{spec.scale})"
            )
        return Machine.from_snapshot(config, workload, self.state)

    def digest(self) -> str:
        """A content hash identifying this checkpoint's initial conditions.

        The run store mixes this into its keys so runs started from
        different checkpoints (even of the same workload) never collide.
        The hash covers the captured machine state and the workload
        identity; it is stable across processes and across save/load
        round-trips for a checkpoint captured by the same code version,
        which is exactly the cache-reuse window we want (a code change
        conservatively invalidates cached runs).
        """
        import hashlib

        spec = self.workload
        payload = pickle.dumps(
            (
                spec.name,
                spec.seed,
                spec.scale,
                sorted(spec.params),
                self.taken_at_transactions,
                _canonicalize(self.state),
            ),
            protocol=4,
        )
        return hashlib.sha256(payload).hexdigest()[:32]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialize the checkpoint to a file."""
        with open(path, "wb") as f:
            pickle.dump(self, f)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Load a checkpoint written by :meth:`save`."""
        return cls.loads(Path(path).read_bytes())

    @classmethod
    def loads(cls, data: bytes) -> "Checkpoint":
        """The checkpoint pickled in ``data`` -- the one loader every
        store backend reads through.

        Raises ``TypeError`` for anything else, and its subclass
        :class:`EarlierLayout` for a checkpoint pickled before
        ``workload`` was one :class:`~repro.core.request.WorkloadSpec`
        (loose ``workload_*`` fields): stores treat either as a miss and
        warm up again, rather than hand :meth:`materialize` a state it
        cannot rebuild.
        """
        checkpoint = pickle.loads(data)
        if not isinstance(checkpoint, cls):
            raise TypeError("data does not contain a Checkpoint")
        if "workload" not in vars(checkpoint):
            raise EarlierLayout("checkpoint predates the WorkloadSpec layout")
        return checkpoint


class EarlierLayout(TypeError):
    """A checkpoint written by an earlier version, in a layout this one
    no longer reads: not damage, just a warm-up to pay again."""


#: perturbation seed of the shared warm-up leg (the warm-up is part of
#: the initial conditions, so it uses one fixed stream -- per-run seeds
#: perturb only the measurement, as with the paper's Simics checkpoints)
WARMUP_PERTURBATION_SEED = 777


def warm_checkpoint(
    config: SystemConfig,
    workload: Workload | str,
    *,
    warmup_transactions: int,
    warmup_seed: int = WARMUP_PERTURBATION_SEED,
    max_time_ns: int = 30_000_000_000,
    store=None,
    mode: str = "timed",
) -> Checkpoint:
    """Run the warm-up leg once and capture it as shared initial conditions.

    The paper pays the warm-up cost once per workload -- record a Simics
    checkpoint after warm-up, then start every perturbed run from it
    (section 3.2.2).  This helper is that step as a library call: boot
    ``workload`` cold under ``config``, run ``warmup_transactions``
    under a *fixed* warm-up perturbation stream, and capture the state.
    Runs started from the returned checkpoint with
    ``warmup_transactions=0`` then pay only the measurement window,
    whatever the sample size.
    :meth:`repro.core.request.RunRequest.warm_checkpoint` reads these
    arguments off a request.

    With ``store`` (a :class:`repro.store.RunStore`), the checkpoint is
    cached under its cause key (:func:`repro.store.warm_key`), so
    repeated campaigns -- and resumed ones -- skip the warm-up entirely.

    ``mode`` selects how the warm-up leg executes: ``"timed"`` runs the
    full event-driven simulation; ``"functional"`` drives the same state
    transitions through :mod:`repro.core.ffwd` at ~5x the throughput,
    skipping latency evaluation.  The two produce different machine
    states (functional time is a fixed clock), so they cache under
    different warm keys and must never alias.
    """
    check_warmup_mode(mode)
    if isinstance(workload, str):
        workload = make_workload(workload)
    if warmup_transactions <= 0:
        raise ValueError("warm-up needs a positive transaction count")

    key = None
    if store is not None:
        from repro.store import warm_key

        key = warm_key(
            config,
            WorkloadSpec.resolve(workload),
            warmup_transactions=warmup_transactions,
            warmup_seed=warmup_seed,
            max_time_ns=max_time_ns,
            warmup_mode=mode,
        )
        cached = store.get_checkpoint(key)
        if cached is not None:
            return cached

    (checkpoint,) = _forward_capture(
        config, workload, [warmup_transactions], max_time_ns, mode, warmup_seed
    )
    if store is not None:
        store.put_checkpoint(key, checkpoint)
    return checkpoint


#: time budget of :func:`make_checkpoints`' forward run over a lifetime
_LIFETIME_MAX_TIME_NS = 120_000_000_000


def make_checkpoints(
    config: SystemConfig, workload: Workload, at_transactions: list[int]
) -> list[Checkpoint]:
    """Run a workload forward, capturing checkpoints along its lifetime.

    ``at_transactions`` lists machine-lifetime transaction counts (e.g.
    ``[1000, 2000, ..., 10000]`` for the paper's ten starting points in
    Figure 9); counts must be increasing.  A single timed forward run
    under the warm-up stream (:data:`WARMUP_PERTURBATION_SEED`) produces
    all checkpoints, as with recording Simics checkpoints during one
    workload execution -- the run :func:`warm_checkpoint` makes to its
    one count.
    """
    if sorted(at_transactions) != list(at_transactions):
        raise ValueError("checkpoint transaction counts must be increasing")
    return _forward_capture(
        config, workload, at_transactions, _LIFETIME_MAX_TIME_NS, "timed",
        WARMUP_PERTURBATION_SEED,
    )


def _forward_capture(
    config: SystemConfig,
    workload: Workload,
    at_transactions: list[int],
    max_time_ns: int,
    mode: str,
    warmup_seed: int,
) -> list[Checkpoint]:
    """Boot ``workload`` cold under the warm-up perturbation stream of
    ``warmup_seed``, advance it under ``mode`` and capture a checkpoint
    at each of the increasing lifetime counts ``at_transactions``."""
    from repro.sim.rng import stream_seed

    machine = Machine(config, workload)
    machine.hierarchy.seed_perturbation(stream_seed(warmup_seed, "warmup"))
    checkpoints = []
    for count in at_transactions:
        machine.advance_to_transactions(count, max_time_ns, mode)
        checkpoints.append(Checkpoint.capture(machine))
    return checkpoints
