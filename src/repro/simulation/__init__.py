"""Campaign simulator: the batch kernel, caps, campaigns, the 3-year study."""

from repro.simulation.cap import SoftCapPolicy, SoftCapTracker
from repro.simulation.params import SimParams
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.simulation.study import StudyConfig, Study, default_campaign_config

__all__ = [
    "SoftCapPolicy",
    "SoftCapTracker",
    "SimParams",
    "CampaignConfig",
    "run_campaign",
    "StudyConfig",
    "Study",
    "default_campaign_config",
]
