"""Content-addressed run keys.

A *run key* names one simulation outcome by its complete cause: the
system configuration, the measurement protocol (including the
perturbation seed), the workload identity (a
:class:`~repro.core.request.WorkloadSpec`: name, seed, scale, parameter
overrides), and -- when the run starts from captured initial conditions
-- the checkpoint digest.  Two runs with equal keys are bit-identical
(the simulator is deterministic given these inputs), so the store can
return a cached result in place of re-execution.

Key stability guarantees:

- keys depend only on field *names and values* via the configs'
  ``to_dict`` forms and canonical JSON (sorted keys, no whitespace);
  dict insertion order, Python hash randomization, and process identity
  do not affect them;
- adding a config field (or bumping :data:`KEY_VERSION` on a semantic
  change to the simulator) changes keys, so stale cache entries miss
  rather than alias -- the failure mode is always re-execution, never a
  wrong cached result.
"""

from __future__ import annotations

import hashlib
import json

from repro.config import RunConfig, SystemConfig
from repro.core.request import WorkloadSpec, fold_modes

#: bump when the meaning of identical inputs changes (simulator semantics)
KEY_VERSION = 1


def canonical_json(obj) -> str:
    """Serialize to the canonical JSON form keys are hashed over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def digest(obj, *, length: int = 32) -> str:
    """SHA-256 (truncated) of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:length]


def run_key(
    config: SystemConfig,
    run: RunConfig,
    workload: WorkloadSpec,
    *,
    checkpoint_digest: str | None = None,
    warmup_mode: str = "timed",
    fidelity: str = "ooo",
    sampling_mode: str = "fixed",
) -> str:
    """The content-addressed key of one simulation run.

    This is the canonical payload behind
    :attr:`repro.core.request.RunRequest.run_key`, which calls it with
    the request's own fields.  The ``"workload"`` entry is
    :meth:`WorkloadSpec.to_dict`: name, seed, scale and params, the four
    keys every stored key has hashed, which keeps old keys valid.

    ``run.seed`` is the perturbation seed of *this* run (callers pass
    ``replace(run, seed=...)`` per sample member, as ``run_space`` does).
    ``checkpoint_digest`` is :meth:`repro.system.checkpoint.Checkpoint.digest`
    when the run starts from a checkpoint, ``None`` for a cold boot.
    ``warmup_mode`` is how a cold boot's warm-up leg executes (``"timed"``
    or ``"functional"``, see :mod:`repro.core.ffwd`); it perturbs the
    post-warm-up state, so it is part of the run's cause.  ``fidelity``
    is the execution tier (``"simple"``/``"ooo"``, see
    :mod:`repro.core.fidelity`): a simple-tier run substitutes the
    SimpleCore for the configured model, so it may never alias the
    full-fidelity result of the same nominal configuration.
    ``sampling_mode`` is how the measured region is observed
    (``"fixed"`` -- one contiguous timed window -- or ``"live"``, the
    phase-detecting stratified sampler of :mod:`repro.core.livesample`,
    which estimates the same region from a subset of timed windows); an estimated result must
    never alias the exhaustively-timed one.  All three are folded in
    only at non-default values (:func:`repro.core.request.fold_modes`),
    keeping every pre-existing key byte-identical.
    """
    payload = {
        "v": KEY_VERSION,
        "system": config.to_dict(),
        "run": run.to_dict(),
        "workload": workload.to_dict(),
        "checkpoint": checkpoint_digest,
        **fold_modes(warmup_mode=warmup_mode, fidelity=fidelity, sampling_mode=sampling_mode),
    }
    return digest(payload)


def warm_key(
    config: SystemConfig,
    workload: WorkloadSpec,
    *,
    warmup_transactions: int,
    warmup_seed: int,
    max_time_ns: int,
    warmup_mode: str = "timed",
) -> str:
    """The cause key of a shared warm-up checkpoint.

    A warm checkpoint is a pure function of its cause -- configuration,
    workload identity, warm-up length, and the fixed warm-up perturbation
    seed -- so, unlike ad-hoc checkpoints (keyed by state content), it
    can be named *before* it exists.  That is what lets campaign planning
    resolve warm-started run keys without running the warm-up, and what
    lets a resumed campaign find both the cached checkpoint and every
    cached run.  Runs started from a warm checkpoint carry
    ``"warm:" + warm_key(...)`` as their ``checkpoint_digest``.

    ``warmup_mode`` distinguishes timed warm-up from functional
    fast-forward (:mod:`repro.core.ffwd`): the two leave different
    machine states, so their checkpoints must never alias.  As with
    protocols, the never-mix rule is enforced by the key itself; the
    ``"timed"`` default is omitted from the payload so existing keys
    stay byte-identical.

    Fidelity tiers need no parameter here: a warm-up leg's state depends
    on the *effective* configuration it executed under, so callers pass
    :func:`repro.core.request.effective_config` (as
    :meth:`repro.core.request.RunRequest.warm_checkpoint_key` does) and
    simple-tier warm state separates from full-fidelity warm state
    through the ``system`` payload itself.
    """
    payload = {
        "v": KEY_VERSION,
        "kind": "warm-checkpoint",
        "system": config.to_dict(),
        "workload": workload.to_dict(),
        "warmup_transactions": warmup_transactions,
        "warmup_seed": warmup_seed,
        "max_time_ns": max_time_ns,
        **fold_modes(warmup_mode=warmup_mode),
    }
    return digest(payload)
