"""The service wire protocol: spec serialization and cell decomposition.

A submitted study is a :class:`~repro.campaign.plan.CampaignSpec` in
JSON form (:func:`spec_to_dict` / :func:`spec_from_dict`), and the unit
of scheduling is a *cell*: one (configuration × workload × seed) grid
point resolved to its content-addressed run key.  Decomposition
(:func:`enumerate_cells`) reuses the exact key construction of
:func:`repro.campaign.plan.plan_campaign` -- the shared
:func:`~repro.campaign.plan.cell_request` template -- which is what
makes a served campaign's cache entries interchangeable with an
in-process campaign's: plan, serve, execute, and resume all agree on
what each grid point *is*.

The wire format is version 3 and only version 3 (the ``fidelity`` and
``sampling_mode`` fields, :mod:`repro.core.request`); any other version
is refused.  Mode values are validated *at submit time* by the one
validator (:func:`repro.core.request.check_modes`), so a typo fails the
submission with one clear error instead of failing N cells into
quarantine worker by worker.

Only fixed-N specs are serializable for now: an adaptive stop rule
grows cells from results sequentially, which contradicts decomposing
the whole grid up front.  Submitting one raises :class:`ServiceError`
with that explanation rather than silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.campaign.plan import CampaignSpec
from repro.config import RunConfig, SystemConfig
from repro.core.request import WorkloadSpec, check_modes, decode_modes, modes_of

#: bump on incompatible changes to the submission wire format
PROTOCOL_VERSION = 3


class ServiceError(ValueError):
    """A request the campaign service cannot honour (bad spec, unknown
    campaign, protocol mismatch); the message is safe to show a client."""


def spec_to_dict(spec: CampaignSpec) -> dict:
    """The JSON wire form of a fixed-N campaign spec."""
    if spec.stop_rule is not None:
        raise ServiceError(
            "adaptive campaigns cannot be submitted to the service yet: an "
            "adaptive cell grows from its own results, which contradicts "
            "decomposing the grid into independent cells up front; submit a "
            "fixed-N spec (n_runs) instead"
        )
    return {
        "version": PROTOCOL_VERSION,
        "name": spec.name,
        "configs": [[label, config.to_dict()] for label, config in spec.configs],
        "workloads": [wspec.to_dict() for wspec in spec.workloads],
        "run": spec.run.to_dict(),
        "n_runs": spec.n_runs,
        "warm_start": spec.warm_start,
        **modes_of(spec),
    }


def spec_from_dict(data: dict) -> CampaignSpec:
    """Rebuild a campaign spec from its wire form (inverse of
    :func:`spec_to_dict`)."""
    if not isinstance(data, dict):
        raise ServiceError(
            f"campaign spec must be a JSON object, not {type(data).__name__}"
        )
    version = data.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            f"unsupported submission version {version} "
            f"(this service speaks {PROTOCOL_VERSION})"
        )
    modes = decode_modes(data)
    try:
        check_modes(**modes)
    except ValueError as exc:
        raise ServiceError(str(exc)) from exc
    try:
        return CampaignSpec(
            configs=[
                (label, SystemConfig.from_dict(config)) for label, config in data["configs"]
            ],
            workloads=[WorkloadSpec.from_dict(w) for w in data["workloads"]],
            run=RunConfig.from_dict(data["run"]),
            n_runs=data["n_runs"],
            name=data.get("name", "campaign"),
            warm_start=data.get("warm_start", False),
            **modes,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed campaign spec: {exc}") from exc


@dataclass(frozen=True)
class Cell:
    """One schedulable grid point of a submitted campaign.

    ``config_index``/``workload_index`` locate the cell's configuration
    and workload inside the campaign's own spec (labels and names may
    repeat; indices cannot), ``run_key`` is the content address its
    result will be stored under, and ``cached`` marks cells the store
    already satisfied at submission time.
    """

    config_index: int
    workload_index: int
    config_label: str
    workload: str
    seed: int
    run_key: str
    cached: bool = False


def enumerate_cells(spec: CampaignSpec, store=None) -> list[Cell]:
    """Decompose a fixed-N spec into cells, deduplicated against ``store``.

    The grid and its keys are :meth:`CampaignSpec.grid`, the enumeration
    :func:`repro.campaign.plan.plan_campaign` uses, so a cell executed by
    a remote worker lands on the very key an in-process campaign would
    read it back from.  With a store, every key is
    resolved in one batched :meth:`~repro.store.RunStore.get_many`-style
    backend pass and already-satisfied cells come back ``cached=True``
    -- the submit-side dedup that keeps N tenants from ever re-running
    one another's grid points.

    A campaign's cells are keyed by their run keys, so a spec that lists
    one configuration (or workload) twice does not decompose: it is
    refused here, naming both grid points.
    """
    if spec.stop_rule is not None:
        raise ServiceError("adaptive specs cannot be decomposed into cells")
    cells = [
        Cell(
            config_index=ci,
            workload_index=wi,
            config_label=label,
            workload=wspec.name,
            seed=seed,
            run_key=key,
        )
        for ci, wi, label, wspec, seed, key in spec.grid()
    ]
    first: dict[str, Cell] = {}
    for cell in cells:
        twin = first.setdefault(cell.run_key, cell)
        if twin is not cell:
            raise ServiceError(
                f"configurations {twin.config_label!r} and {cell.config_label!r} name "
                f"the same run ({cell.workload}, seed {cell.seed}): list each "
                "configuration and workload once"
            )
    if store is not None:
        present = store.backend.contains_many([c.run_key for c in cells])
        cells = [replace(cell, cached=cell.run_key in present) for cell in cells]
    return cells
