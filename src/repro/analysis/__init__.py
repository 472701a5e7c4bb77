"""The paper's analysis pipeline: one module per figure/table family."""

from repro.analysis.context import (
    AnalysisContext,
    CacheStats,
    DatasetOrContext,
)
from repro.analysis.users import UserDayClasses, classify_user_days
from repro.analysis.aggregate import (
    AggregateTraffic,
    aggregate_traffic,
    peak_hours,
    weekend_weekday_ratio,
    diurnal_peaks,
)
from repro.analysis.daily_volume import (
    DailyVolumeDistributions,
    daily_volume_distributions,
    VolumeGrowthTable,
    volume_growth_table,
)
from repro.analysis.heatmap import WifiCellHeatmap, wifi_cell_heatmap
from repro.analysis.ratios import WifiRatios, wifi_ratios
from repro.analysis.interface_state import (
    InterfaceStateRatios,
    interface_state_ratios,
    ios_android_gap,
)
from repro.analysis.ap_classification import APClassification, classify_aps
from repro.analysis.ap_density import (
    DensityMaps,
    association_density_maps,
)
from repro.analysis.location_traffic import LocationTraffic, location_traffic
from repro.analysis.association import (
    ApsPerDay,
    aps_per_day,
    HpoBreakdown,
    hpo_breakdown,
    AssociationDurations,
    association_durations,
)
from repro.analysis.spectrum import (
    BandFractions,
    band_fractions,
    ChannelDistributions,
    channel_distributions,
)
from repro.analysis.signal import RssiDistributions, rssi_distributions
from repro.analysis.availability import (
    PublicAvailability,
    public_availability,
    OffloadEstimate,
    offload_estimate,
)
from repro.analysis.app_breakdown import AppBreakdown, app_breakdown, infer_home_cells
from repro.analysis.software_update import UpdateTiming, update_timing
from repro.analysis.bandwidth_cap import (
    CapEffect,
    cap_effect,
)
from repro.analysis.implications import OffloadImpact, offload_impact
from repro.analysis.battery import BatteryDrain, battery_drain
from repro.analysis.shared_infra import SharedInfrastructure, shared_infrastructure
from repro.analysis.interference import InterferenceSummary, channel_interference
from repro.analysis.mobility_stats import MobilityStats, mobility_stats
from repro.analysis.survey_gap import SurveyGap, survey_gap
from repro.analysis.evolution import (
    CampaignOverview,
    campaign_overview,
    yearly,
)

__all__ = [
    "AnalysisContext", "CacheStats", "DatasetOrContext",
    "UserDayClasses", "classify_user_days",
    "AggregateTraffic", "aggregate_traffic", "peak_hours",
    "weekend_weekday_ratio", "diurnal_peaks",
    "DailyVolumeDistributions", "daily_volume_distributions",
    "VolumeGrowthTable", "volume_growth_table",
    "WifiCellHeatmap", "wifi_cell_heatmap",
    "WifiRatios", "wifi_ratios",
    "InterfaceStateRatios", "interface_state_ratios", "ios_android_gap",
    "APClassification", "classify_aps",
    "DensityMaps", "association_density_maps",
    "LocationTraffic", "location_traffic",
    "ApsPerDay", "aps_per_day",
    "HpoBreakdown", "hpo_breakdown",
    "AssociationDurations", "association_durations",
    "BandFractions", "band_fractions",
    "ChannelDistributions", "channel_distributions",
    "RssiDistributions", "rssi_distributions",
    "PublicAvailability", "public_availability",
    "OffloadEstimate", "offload_estimate",
    "AppBreakdown", "app_breakdown", "infer_home_cells",
    "UpdateTiming", "update_timing",
    "CapEffect", "cap_effect",
    "OffloadImpact", "offload_impact",
    "BatteryDrain", "battery_drain",
    "SharedInfrastructure", "shared_infrastructure",
    "InterferenceSummary", "channel_interference",
    "SurveyGap", "survey_gap",
    "MobilityStats", "mobility_stats",
    "CampaignOverview", "campaign_overview", "yearly",
]
