"""Discrete-event IEEE 802.11b DCF network simulator.

The trace-producing substitute for the paper's IETF-62 testbed: DCF
MACs with pluggable rate adaptation contend on a shared medium with
path-loss/shadowing propagation, collisions and capture, while passive
sniffers record what a vicinity-sniffing laptop would have captured.
"""

from .builder import MAX_FRAME_AIRTIME_US, BuiltScenario, StationRole, build
from .channel_manager import ChannelManager, ChannelSwitch
from .dcf import DcfMac, MacConfig, MacStats
from .engine import EventHandle, Simulator
from .fastpath import FIDELITY_MODES, FastBuiltScenario
from .medium import Medium, SimFrame, Transmission
from .node import BEACON_INTERVAL_US, AccessPoint, Station
from .phy import BASIC_RATE_MBPS, snr_db_to_linear
from .power_control import PowerControlConfig, TransmitPowerControl
from .propagation import Position, PropagationModel
from .roaming import Roam, RoamingManager
from .rate_adaptation import (
    AarfRateAdaptation,
    ArfRateAdaptation,
    FixedRate,
    RateAdaptation,
    SnrOracleRateAdaptation,
    make_rate_adaptation,
)
from .scenarios import (
    RAMP_MIX,
    ScenarioConfig,
    ScenarioResult,
    ietf_day_config,
    ietf_plenary_config,
    load_ramp_config,
    run_scenario,
    stream_scenario,
)
from .library import (
    SCENARIO_LIBRARY,
    UnknownParameterError,
    available_scenarios,
    build_scenario,
    co_channel_config,
    roaming_storm_config,
    scenario_config,
    scenario_parameters,
    uniform_config,
    validate_scenario_params,
)
from .sniffer import Sniffer, SnifferConfig, ground_truth_trace
from .topology import (
    EndClusterPlacement,
    HotspotPlacement,
    RoomPlacement,
    place_aps,
    place_stations,
    sniffer_position,
)
from .traffic import (
    ModulatedRate,
    ScaledRate,
    CONFERENCE_MIX,
    ConstantRate,
    LinearRamp,
    PoissonSource,
    StepSchedule,
    class_mixture,
    uniform_sizes,
)

__all__ = [
    "AarfRateAdaptation",
    "AccessPoint",
    "ArfRateAdaptation",
    "BASIC_RATE_MBPS",
    "BEACON_INTERVAL_US",
    "BuiltScenario",
    "CONFERENCE_MIX",
    "ChannelManager",
    "ChannelSwitch",
    "ConstantRate",
    "DcfMac",
    "EndClusterPlacement",
    "EventHandle",
    "FIDELITY_MODES",
    "FastBuiltScenario",
    "FixedRate",
    "HotspotPlacement",
    "LinearRamp",
    "MAX_FRAME_AIRTIME_US",
    "MacConfig",
    "MacStats",
    "Medium",
    "ModulatedRate",
    "PoissonSource",
    "Position",
    "PowerControlConfig",
    "PropagationModel",
    "RAMP_MIX",
    "RateAdaptation",
    "Roam",
    "RoamingManager",
    "RoomPlacement",
    "SCENARIO_LIBRARY",
    "ScaledRate",
    "ScenarioConfig",
    "ScenarioResult",
    "SimFrame",
    "Simulator",
    "Sniffer",
    "SnifferConfig",
    "SnrOracleRateAdaptation",
    "Station",
    "StationRole",
    "StepSchedule",
    "Transmission",
    "TransmitPowerControl",
    "UnknownParameterError",
    "available_scenarios",
    "build",
    "build_scenario",
    "class_mixture",
    "co_channel_config",
    "ground_truth_trace",
    "ietf_day_config",
    "ietf_plenary_config",
    "load_ramp_config",
    "make_rate_adaptation",
    "place_aps",
    "place_stations",
    "roaming_storm_config",
    "run_scenario",
    "scenario_config",
    "scenario_parameters",
    "sniffer_position",
    "stream_scenario",
    "uniform_config",
    "uniform_sizes",
    "validate_scenario_params",
]
