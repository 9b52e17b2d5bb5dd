"""Resumable experiment campaigns over the persistent run store.

A campaign turns the paper's "N runs per configuration" methodology into
a durable, restartable service: the grid of (configuration × workload ×
seed) runs is planned against :mod:`repro.store`, only missing runs
execute (fault-tolerantly, in parallel), every completion is persisted
immediately, and sample sizes can adapt to the measured variance via
:class:`repro.core.sampling.AdaptiveStopRule` instead of being fixed up
front.  ``python -m repro campaign`` is the CLI entry point.
"""

from repro.campaign.campaign import Campaign, CampaignReport, CellResult
from repro.campaign.plan import CampaignPlan, CampaignSpec, PlannedRun, plan_campaign
from repro.core.fanout import SharedRunContext, execute_shared

__all__ = [
    "Campaign",
    "CampaignReport",
    "CellResult",
    "SharedRunContext",
    "execute_shared",
    "CampaignPlan",
    "CampaignSpec",
    "PlannedRun",
    "plan_campaign",
]
