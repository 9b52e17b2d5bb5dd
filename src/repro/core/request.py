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
  store key of the run's outcome, derived from the same canonical
  payload as :func:`repro.store.keys.run_key` (the two are byte-for-byte
  identical -- locked by a hypothesis property test);
- **execution**: :func:`execute_request` turns a request (plus, for
  checkpoint-started runs, the materialized checkpoint) into a
  :class:`~repro.system.simulation.SimulationResult` -- the single
  worker body behind ``run_space``, the fan-out engine, and the
  campaign service;
- **fidelity**: the :attr:`RunRequest.fidelity` tier selects how much
  simulation the run pays -- ``"ooo"`` (full fidelity: the
  configuration's own core model, historically the OOO core),
  ``"simple"`` (the blocking SimpleCore forced in place of the
  configured model), or ``"ffwd"`` (functional fast-forward only, with
  cycles *estimated* from a latency model over the hierarchy event
  counts).  See :mod:`repro.core.fidelity` for the escalation ladder
  built on this field.

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

#: the three fidelity tiers, cheapest first (see repro.core.fidelity)
FIDELITY_TIERS = ("ffwd", "simple", "ooo")

#: full fidelity: execute the configuration exactly as given (its own
#: core model -- for the paper's studies, the OOO core).  This is the
#: default, and the only tier that folds to nothing in store keys.
FIDELITY_FULL = "ooo"

#: warm-up execution modes (see repro.core.ffwd)
WARMUP_MODES = ("timed", "functional")

#: measurement sampling modes (see repro.core.livesample): "fixed" times
#: the whole measured region as one contiguous window (the historical
#: behaviour, and the only mode that folds to nothing in store keys);
#: "live" surveys the region functionally, detects phases online from
#: probe-bus signatures, and spends a timed-window budget across phase
#: strata -- an *estimate* of the same region at a fraction of the
#: timed work.
SAMPLING_MODES = ("fixed", "live")

#: the default sampling mode: exhaustive contiguous timing.
SAMPLING_FIXED = "fixed"


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

    ``"ooo"`` (full fidelity) and ``"ffwd"`` leave the configuration
    untouched; ``"simple"`` forces the blocking SimpleCore in place of
    whatever core model the configuration names, holding everything else
    (caches, interconnect, OS, perturbation) fixed -- that is what makes
    a simple-tier run a *model substitution* of the same design point
    rather than a different design point.
    """
    if fidelity not in FIDELITY_TIERS:
        raise ValueError(f"unknown fidelity tier {fidelity!r}")
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
    sampling_mode: str = SAMPLING_FIXED

    def __post_init__(self) -> None:
        if self.warmup_mode not in WARMUP_MODES:
            raise ValueError(f"unknown warm-up mode {self.warmup_mode!r}")
        if self.fidelity not in FIDELITY_TIERS:
            raise ValueError(
                f"unknown fidelity tier {self.fidelity!r} "
                f"(expected one of {', '.join(FIDELITY_TIERS)})"
            )
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"unknown sampling mode {self.sampling_mode!r} "
                f"(expected one of {', '.join(SAMPLING_MODES)})"
            )
        if self.sampling_mode == "live" and self.fidelity == "ffwd":
            raise ValueError(
                "sampling_mode='live' places timed measurement windows, but "
                "the ffwd fidelity tier has no timed execution; use "
                "fidelity='simple' or 'ooo' with live sampling"
            )

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

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def run_key(self) -> str:
        """The content-addressed store key of this run's outcome.

        This is *the* canonical digest: :func:`repro.store.keys.run_key`
        builds the identical payload from loose arguments, and every
        layer now derives keys through one of the two.  A
        default-fidelity request keys byte-identically to the
        pre-``RunRequest`` plumbing (locked by the key-stability
        property test).
        """
        from repro.store.keys import run_key

        return run_key(
            self.config,
            self.run,
            self.workload.name,
            self.workload.seed,
            self.workload.scale,
            self.workload.params_dict,
            checkpoint_digest=self.checkpoint_ref,
            warmup_mode=self.warmup_mode,
            fidelity=self.fidelity,
            sampling_mode=self.sampling_mode,
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
            self.workload.name,
            self.workload.seed,
            self.workload.scale,
            self.workload.params_dict,
            warmup_transactions=self.run.warmup_transactions,
            warmup_seed=WARMUP_PERTURBATION_SEED,
            max_time_ns=self.run.max_time_ns,
            warmup_mode=self.warmup_mode,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data (JSON-serializable) form of this request.

        Default-valued ``warmup_mode``/``fidelity`` are folded out, so
        the wire form obeys the same stability rule as store keys: old
        readers see exactly the fields they know.
        """
        data = {
            "config": self.config.to_dict(),
            "workload": self.workload.to_dict(),
            "run": self.run.to_dict(),
            "checkpoint_ref": self.checkpoint_ref,
        }
        if self.warmup_mode != "timed":
            data["warmup_mode"] = self.warmup_mode
        if self.fidelity != FIDELITY_FULL:
            data["fidelity"] = self.fidelity
        if self.sampling_mode != SAMPLING_FIXED:
            data["sampling_mode"] = self.sampling_mode
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRequest":
        """Rebuild a request from its :meth:`to_dict` form."""
        return cls(
            config=SystemConfig.from_dict(data["config"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            run=RunConfig.from_dict(data["run"]),
            checkpoint_ref=data.get("checkpoint_ref"),
            warmup_mode=data.get("warmup_mode", "timed"),
            fidelity=data.get("fidelity", FIDELITY_FULL),
            sampling_mode=data.get("sampling_mode", SAMPLING_FIXED),
        )


def execute_request(request: RunRequest, checkpoint=None):
    """Execute one run request and return its ``SimulationResult``.

    This is the single worker body every execution path funnels into:
    ``run_space``'s sequential leg, the fan-out engine's resident
    measurement, and the campaign service worker all produce
    bit-identical results because they all end here.

    ``checkpoint`` is the materialized
    :class:`~repro.system.checkpoint.Checkpoint` when
    ``request.checkpoint_ref`` names one; the request itself carries only
    the ref (identity), so callers that resolved the checkpoint -- from
    the store, or by warming up -- pass the state alongside.
    """
    from repro.system.simulation import run_simulation

    if request.checkpoint_ref is not None and checkpoint is None:
        raise ValueError(
            f"request names checkpoint {request.checkpoint_ref[:16]}... but no "
            "materialized checkpoint was supplied"
        )
    config = request.effective_config
    workload = request.workload.make()
    if request.fidelity == "ffwd" or request.sampling_mode == "live":
        if checkpoint is not None:
            machine = checkpoint.materialize(config, workload=workload)
        else:
            from repro.system.machine import Machine

            machine = Machine(config, workload)
        if request.fidelity == "ffwd":
            from repro.core.fidelity import measure_functional

            return measure_functional(machine, config, request.run)
        from repro.core.livesample import measure_live

        # Live sampling runs several passes (functional scout, pilot
        # windows, allocated windows), each from identical initial
        # conditions: the machine built above is never run, every pass
        # starts from a clone of it.
        return measure_live(
            machine.clone,
            config,
            request.run,
            warmup_mode=request.warmup_mode,
        )
    return run_simulation(
        config,
        workload,
        request.run,
        checkpoint=checkpoint,
        warmup_mode=request.warmup_mode,
    )


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
