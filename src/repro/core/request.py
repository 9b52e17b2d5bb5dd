"""The run request: one object that *is* a run's identity.

Every layer of the harness used to thread the same eight facts --
configuration, workload name/seed/scale/params, per-run config,
checkpoint, warm-up mode -- as a positional tuple or as
parallel keyword arguments, copied across the runner, the fan-out
engine, campaign planning, the service wire format, the worker
execution path, store keys, and the CLI.  Each new per-run dimension
(PR 5's ``warmup_mode``) meant editing every one of those layers in
lock-step.

:class:`RunRequest` collapses that plumbing into a single frozen,
picklable, JSON-round-trippable value:

- **identity**: :meth:`RunRequest.run_key` is the content-addressed
  store key of the run's outcome, the canonical payload of
  :func:`repro.store.keys.run_key` over the request's fields (locked
  byte-for-byte to the pre-refactor keys by a hypothesis property
  test); :class:`WorkloadSpec` is the only record of a workload's
  identity, and :meth:`RunRequest.warm_checkpoint` the only reading of
  a warm-up's cause;
- **execution**: :func:`execute_request` turns a request (plus, for
  checkpoint-started runs, the materialized checkpoint) into a
  :class:`~repro.system.simulation.SimulationResult` through the one
  run dispatch every seed of a sample also goes through
  (:func:`repro.core.fanout._simulate_resident`);
  :meth:`RunRequest.seed_template` is the one derivation of what a
  sample's seeds run from the protocol a caller states;
- **modes**: :data:`MODE_AXES` declares each run-mode axis once --
  legal values and default; every combination of legal values is a
  legal run -- and the validator (:func:`check_modes`), the key fold,
  the wire decode and the CLI flags are derived from it;
- **fidelity**: the :attr:`RunRequest.fidelity` tier selects how much
  simulation the run pays -- ``"ooo"`` (full fidelity: the
  configuration's own core model, historically the OOO core) or
  ``"simple"`` (the blocking SimpleCore forced in place of the
  configured model).  See :mod:`repro.core.fidelity` for the escalation
  ladder built on this field.

Key-stability contract (the "never-mix" rule from the warm-up work):
new fields fold into the canonical payload only at non-default values,
so every store key that existed before this object did is still byte
identical -- a default-fidelity, timed-warm-up request keys exactly as
the pre-refactor tuple plumbing keyed it.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace

from repro.config import RunConfig, SystemConfig
from repro.workloads.base import Workload

#: the workload content seed used when a workload is passed by name and no
#: explicit ``workload_seed`` is given -- the registry default, so
#: ``run_space(cfg, "oltp", ...)`` and ``run_space(cfg, make_workload("oltp"), ...)``
#: sample the same stream.
DEFAULT_WORKLOAD_SEED = 12345


@dataclass(frozen=True)
class ModeAxis:
    """One run-mode axis: its field name, legal values, default and meaning.

    ``name`` is the axis's spelling everywhere it appears -- the
    ``RunRequest``/``CampaignSpec`` field, the ``run_space`` keyword, the
    store-key payload entry, the wire field, and (dashed) the CLI flag;
    ``help`` is the CLI's description of it.
    """

    name: str
    values: tuple
    default: str
    help: str


#: every run-mode axis, declared once.  Store keys, the wire format, the
#: validators and the CLI flags are all derived from this table, so a new
#: value of an axis is one entry here plus the module that executes it.
MODE_AXES = (
    ModeAxis(
        "warmup_mode",
        ("timed", "functional"),
        "timed",
        "how warm-up legs (per-seed, or the shared --warm-start leg) execute: "
        "timed (full event loop, default) or functional (fast-forward, "
        "repro.core.ffwd; measurement is always timed); functional warm-up "
        "keys its runs separately",
    ),
    ModeAxis(
        "fidelity",
        ("simple", "ooo"),  # cheapest first, see repro.core.fidelity
        "ooo",
        "execution tier: ooo (full fidelity -- the configuration's own core "
        "model -- default) or simple (SimpleCore substituted for the "
        "configured model); the simple tier keys its runs separately",
    ),
    ModeAxis(
        "sampling_mode",
        ("fixed", "live"),
        "fixed",
        "how each run observes its measured region: fixed (one contiguous "
        "timed window, default) or live (phase-detecting stratified window "
        "placement, repro.core.livesample -- an estimate at a fraction of "
        "the timed cost); live keys its runs separately",
    ),
)

#: the fidelity tiers, cheapest first (see repro.core.fidelity)
FIDELITY_TIERS = MODE_AXES[1].values

#: full fidelity: execute the configuration exactly as given (its own
#: core model -- for the paper's studies, the OOO core).  This is the
#: default, and the only tier that folds to nothing in store keys.
FIDELITY_FULL = MODE_AXES[1].default


def modes_of(obj) -> dict:
    """The mode fields of ``obj`` (a request, a campaign spec, a shared
    context, parsed CLI arguments) as ``{axis name: value}``."""
    return {axis.name: getattr(obj, axis.name) for axis in MODE_AXES}


def check_modes(**modes) -> None:
    """The one validator of mode values; an axis not given is at its default.

    Raises ``ValueError`` naming the offending field -- the message is
    safe to show a service client -- for a value outside an axis's
    declaration.  The axes are independent: every combination of legal
    values is a legal run.
    """
    for axis in MODE_AXES:
        value = modes.get(axis.name, axis.default)
        if value not in axis.values:
            raise ValueError(
                f"unknown {axis.name} {value!r}: expected one of {', '.join(axis.values)}"
            )


def fold_modes(**modes) -> dict:
    """The entries ``modes`` contribute to a key payload or a wire form:
    the non-default ones only.  This is the key-stability rule -- every
    key and request serialized before an axis existed is byte-identical
    to its default-valued spelling today."""
    return {
        axis.name: modes[axis.name]
        for axis in MODE_AXES
        if modes.get(axis.name, axis.default) != axis.default
    }


def decode_modes(data) -> dict:
    """Every axis's value in a plain-data form, absent fields at their
    defaults (the inverse of :func:`fold_modes`; not validated)."""
    return {axis.name: data.get(axis.name, axis.default) for axis in MODE_AXES}


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload identity as plain data: what a worker process rebuilds.

    ``params`` holds class-attribute overrides as a sorted tuple of
    (name, value) pairs so the spec is hashable and deterministic.
    """

    name: str
    seed: int = DEFAULT_WORKLOAD_SEED
    scale: float = 1.0
    params: tuple = ()

    @property
    def params_dict(self) -> dict:
        """The parameter overrides as a dict."""
        return dict(self.params)

    @classmethod
    def resolve(
        cls,
        workload: Workload | str,
        *,
        workload_seed: int | None = None,
        workload_params: dict | None = None,
    ) -> "WorkloadSpec":
        """Normalize a workload instance or name into a spec.

        A workload *instance* carries its own seed/scale/overrides; an
        explicit ``workload_seed`` that contradicts the instance is an
        error (silent precedence hid bugs).  A workload *name* uses
        ``workload_seed`` (default :data:`DEFAULT_WORKLOAD_SEED`).
        """
        if isinstance(workload, Workload):
            if workload_seed is not None and workload_seed != workload.seed:
                raise ValueError(
                    f"workload instance has seed {workload.seed} but "
                    f"workload_seed={workload_seed} was passed; drop one"
                )
            name = workload.name
            seed = workload.seed
            scale = workload.scale
            # Instance-level parameter overrides travel with the job so
            # worker processes rebuild the exact same workload.
            instance_params = {
                key: value
                for key, value in vars(workload).items()
                if key not in ("seed", "scale") and hasattr(type(workload), key)
            }
        else:
            name = workload
            seed = DEFAULT_WORKLOAD_SEED if workload_seed is None else workload_seed
            scale = 1.0
            instance_params = {}
        params = {**instance_params, **(workload_params or {})}
        return cls(
            name=name, seed=seed, scale=scale, params=tuple(sorted(params.items()))
        )

    def to_dict(self) -> dict:
        """Plain-data (JSON-serializable) form of this spec."""
        return {
            "name": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "params": self.params_dict,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        return cls(
            name=data["name"],
            seed=data["seed"],
            scale=data["scale"],
            params=tuple(sorted(dict(data.get("params") or {}).items())),
        )

    def make(self) -> Workload:
        """Instantiate the workload this spec names."""
        from repro.workloads.registry import make_workload

        return make_workload(
            self.name, seed=self.seed, scale=self.scale, **self.params_dict
        )


def effective_config(config: SystemConfig, fidelity: str) -> SystemConfig:
    """The configuration a run at ``fidelity`` actually simulates.

    ``"ooo"`` (full fidelity) leaves the configuration untouched;
    ``"simple"`` forces the blocking SimpleCore in place of
    whatever core model the configuration names, holding everything else
    (caches, interconnect, OS, perturbation) fixed -- that is what makes
    a simple-tier run a *model substitution* of the same design point
    rather than a different design point.
    """
    check_modes(fidelity=fidelity)
    if fidelity != "simple" or config.processor.model == "simple":
        return config
    return replace(config, processor=replace(config.processor, model="simple"))


@dataclass(frozen=True)
class RunRequest:
    """Everything that identifies one simulation run, as one value.

    ``run.seed`` is the perturbation seed of *this* run (use
    :meth:`with_seed` to stamp out a sample's members from a template).
    ``checkpoint_ref`` names the initial conditions when the run starts
    from captured state: either a checkpoint content digest, or
    ``"warm:" + warm_key(...)`` for a shared cause-keyed warm-up
    checkpoint -- the same strings store keys have always carried.  The
    *materialized* checkpoint travels next to the request (execution
    needs state, identity needs only the ref), so requests stay small
    and JSON-serializable.
    """

    config: SystemConfig
    workload: WorkloadSpec
    run: RunConfig
    checkpoint_ref: str | None = None
    warmup_mode: str = "timed"
    fidelity: str = FIDELITY_FULL
    sampling_mode: str = "fixed"

    def __post_init__(self) -> None:
        check_modes(**modes_of(self))

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "RunRequest":
        """This request with a different perturbation seed."""
        return replace(self, run=replace(self.run, seed=seed))

    def with_fidelity(self, fidelity: str) -> "RunRequest":
        """This request at a different fidelity tier."""
        return replace(self, fidelity=fidelity)

    @property
    def effective_config(self) -> SystemConfig:
        """The configuration this run actually simulates (fidelity applied)."""
        return effective_config(self.config, self.fidelity)

    def seed_template(self, warm_start: bool = False) -> "RunRequest":
        """The request each seed of a sample runs and is keyed by.

        ``self`` states the sample's protocol as asked for: the full
        warm-up length and the warm-up mode.  What one seed executes
        follows from it, and this is the only place that says how:

        - ``warm_start`` (the paper's warm-then-checkpoint protocol,
          section 3.2.2): the warm-up is paid once per sample under a
          fixed perturbation stream, so the seed drops its warm-up leg
          and starts from ``"warm:" + warm_checkpoint_key()`` -- a
          *cause* key, which is what lets planning key warm-started runs
          before the checkpoint exists;
        - the warm-up mode is part of a run's own key only when the run
          itself pays a warm-up leg: a warm-started sample carries it in
          the warm key, and a sample with no warm-up leg at all is
          mode-independent.

        ``run_space``, campaign planning and execution, and the service
        all derive keys and execution from this template (stamp out the
        members with :meth:`with_seed`), which keeps ``--dry-run``,
        execution, resume and served results in agreement.
        """
        run, ref = self.run, self.checkpoint_ref
        if warm_start:
            if run.warmup_transactions <= 0:
                raise ValueError("warm_start needs run.warmup_transactions > 0")
            run = replace(run, warmup_transactions=0)
            ref = f"warm:{self.warm_checkpoint_key()}"
        key_mode = self.warmup_mode if run.warmup_transactions > 0 else "timed"
        return replace(self, run=run, checkpoint_ref=ref, warmup_mode=key_mode)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def run_key(self) -> str:
        """The content-addressed store key of this run's outcome.

        This is *the* canonical digest, built by
        :func:`repro.store.keys.run_key` from the request's own fields.
        A default-fidelity request keys byte-identically to the
        pre-``RunRequest`` plumbing (locked by the key-stability
        property test).
        """
        from repro.store.keys import run_key

        return run_key(
            self.config,
            self.run,
            self.workload,
            checkpoint_digest=self.checkpoint_ref,
            **modes_of(self),
        )

    def warm_checkpoint_key(self) -> str:
        """The cause key of this request's shared warm-up checkpoint.

        Meaningful for requests whose sample shares one warm-up leg
        (``warm_start``): the key names the checkpoint *before* it
        exists, which is what lets planning resolve warm-started run
        keys without ever warming up.  The warm-up executes under the
        fidelity-effective configuration, so a simple-tier warm state
        can never alias a full-fidelity one.
        """
        from repro.store.keys import warm_key
        from repro.system.checkpoint import WARMUP_PERTURBATION_SEED

        return warm_key(
            self.effective_config,
            self.workload,
            warmup_transactions=self.run.warmup_transactions,
            warmup_seed=WARMUP_PERTURBATION_SEED,
            max_time_ns=self.run.max_time_ns,
            warmup_mode=self.warmup_mode,
        )

    def warm_checkpoint(self):
        """This request's shared warm-up checkpoint, the one
        :meth:`warm_checkpoint_key` names: the warm-up leg run under the
        fidelity-effective configuration.

        The one place a warm-up's cause is read off a request, by the
        fan-out engine's warm-up task; reading and storing the
        checkpoint under its key is the
        :class:`~repro.core.fanout.CellSampler`'s job, in the parent.
        """
        # A module attribute, not an imported name: tracers wrap it there.
        from repro.system import checkpoint as checkpoint_mod

        return checkpoint_mod.warm_checkpoint(
            self.effective_config,
            self.workload.make(),
            warmup_transactions=self.run.warmup_transactions,
            max_time_ns=self.run.max_time_ns,
            mode=self.warmup_mode,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data (JSON-serializable) form of this request.

        Default-valued modes are folded out (:func:`fold_modes`), so the
        wire form obeys the same stability rule as store keys: old
        readers see exactly the fields they know.
        """
        return {
            "config": self.config.to_dict(),
            "workload": self.workload.to_dict(),
            "run": self.run.to_dict(),
            "checkpoint_ref": self.checkpoint_ref,
            **fold_modes(**modes_of(self)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRequest":
        """Rebuild a request from its :meth:`to_dict` form."""
        return cls(
            config=SystemConfig.from_dict(data["config"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            run=RunConfig.from_dict(data["run"]),
            checkpoint_ref=data.get("checkpoint_ref"),
            **decode_modes(data),
        )


def execute_request(request: RunRequest, checkpoint=None):
    """Execute one run request and return its ``SimulationResult``.

    The single-run entry of the one run dispatch
    (:func:`repro.core.fanout._simulate_resident`): any caller holding
    one request runs exactly what a seed of a sample runs, so its result
    is bit-identical to a pooled, in-process or served one.  The initial
    conditions are opened for this run alone, into an ordinary resident
    the run clones (about 1-2 ms).  Samples, service workers' included,
    go through :class:`~repro.core.fanout.CellSampler` instead, which
    opens a cell's state once for all its seeds.

    ``checkpoint`` is the materialized
    :class:`~repro.system.checkpoint.Checkpoint` when
    ``request.checkpoint_ref`` names one; the request itself carries only
    the ref (identity), so callers that resolved the checkpoint -- from
    the store, or by warming up -- pass the state alongside.
    """
    from repro.core.fanout import SharedRunContext, _Resident, _simulate_resident

    if request.checkpoint_ref is not None and checkpoint is None:
        raise ValueError(
            f"request names checkpoint {request.checkpoint_ref[:16]}... but no "
            "materialized checkpoint was supplied"
        )
    context = SharedRunContext.from_request(request, checkpoint)
    return _simulate_resident(_Resident(context), request.run)


def format_failure(exc: BaseException, *, frames: int = 3) -> str:
    """Render a worker-side exception for per-seed error capture.

    ``"TypeError: ..."`` alone makes a campaign failure report
    undebuggable -- the same message can come from a dozen call sites.
    Append the last ``frames`` traceback frames (innermost last) so the
    captured string names where the run actually died.
    """
    message = f"{type(exc).__name__}: {exc}"
    tb = traceback.extract_tb(exc.__traceback__)
    if tb:
        where = "; ".join(
            f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"
            for frame in tb[-frames:]
        )
        message += f" [at {where}]"
    return message
