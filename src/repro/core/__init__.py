"""Core library: the paper's congestion-analysis contribution.

Public surface for computing channel busy-time and utilization (paper
§5.1), throughput/goodput curves (§5.2), congestion classification
(§5.3), unrecorded-frame estimation (§4.4) and the §6 link-layer effect
analyses (RTS/CTS, rate share, transmissions, reception, acceptance
delay), plus the one-call :func:`analyze_trace` report.

The paper's constants are read, not passed: busy time always uses the
Table 2 delays (:data:`DOT11B_TIMING`), every "versus utilization"
series bins in 1 % steps and keeps each non-empty bin, and the
congestion classifier falls back to :data:`PAPER_THRESHOLDS`.  So each
analysis here takes the same inputs as its streaming consumer in
:mod:`repro.pipeline`, and the pipeline≡core suites, which hold the
consumers to these functions, cover every configuration either accepts.
"""

from .acking import AckMatch, match_acks
from .ap_stats import (
    ApActivity,
    DatasetSummary,
    ap_frame_ranking,
    dataset_summary,
    user_association_series,
)
from .busytime import cbt_by_second, cbt_by_second_per_rate, frame_cbt_us, trace_cbt_us
from .categories import ALL_CATEGORIES, Category, category_codes, category_mask, category_name
from .congestion import (
    PAPER_THRESHOLDS,
    CongestionClassifier,
    CongestionLevel,
    CongestionThresholds,
)
from .merge import CoverageGain, coverage_gain, merge_captures
from .stations import StationStats, jain_fairness_index, station_stats
from .delay import (
    FIGURE15_CATEGORIES,
    DelaySeries,
    acceptance_delay_vs_utilization,
    acceptance_delays,
)
from .rate_share import (
    RateShareSeries,
    busytime_share_vs_utilization,
    bytes_per_rate_vs_utilization,
)
from .reception import ReceptionSeries, first_attempt_ack_vs_utilization
from .report import CongestionReport, analyze_trace
from .rts_cts import RtsCtsFairness, RtsCtsSeries, rts_cts_fairness, rts_cts_vs_utilization
from .throughput import (
    ThroughputSeries,
    goodput_per_second,
    throughput_per_second,
    throughput_vs_utilization,
)
from .timing import (
    DOT11B_TIMING,
    TimingParameters,
    data_frame_duration_us,
    data_frame_duration_us_array,
)
from .transmissions import (
    CategoryCounts,
    figure10_categories,
    figure11_categories,
    figure12_categories,
    figure13_categories,
    transmissions_vs_utilization,
)
from .unrecorded import UnrecordedEstimate, estimate_unrecorded, unrecorded_by_ap
from .utilization import UtilizationSeries, utilization_histogram, utilization_series

__all__ = [
    "ALL_CATEGORIES",
    "AckMatch",
    "ApActivity",
    "Category",
    "CategoryCounts",
    "CongestionClassifier",
    "CongestionLevel",
    "CongestionReport",
    "CongestionThresholds",
    "CoverageGain",
    "DOT11B_TIMING",
    "DatasetSummary",
    "DelaySeries",
    "FIGURE15_CATEGORIES",
    "PAPER_THRESHOLDS",
    "RateShareSeries",
    "ReceptionSeries",
    "RtsCtsFairness",
    "StationStats",
    "RtsCtsSeries",
    "ThroughputSeries",
    "TimingParameters",
    "UnrecordedEstimate",
    "UtilizationSeries",
    "acceptance_delay_vs_utilization",
    "acceptance_delays",
    "analyze_trace",
    "ap_frame_ranking",
    "busytime_share_vs_utilization",
    "bytes_per_rate_vs_utilization",
    "category_codes",
    "coverage_gain",
    "category_mask",
    "category_name",
    "cbt_by_second",
    "cbt_by_second_per_rate",
    "data_frame_duration_us",
    "data_frame_duration_us_array",
    "dataset_summary",
    "estimate_unrecorded",
    "figure10_categories",
    "figure11_categories",
    "figure12_categories",
    "figure13_categories",
    "first_attempt_ack_vs_utilization",
    "frame_cbt_us",
    "goodput_per_second",
    "jain_fairness_index",
    "match_acks",
    "merge_captures",
    "rts_cts_fairness",
    "station_stats",
    "rts_cts_vs_utilization",
    "throughput_per_second",
    "throughput_vs_utilization",
    "trace_cbt_us",
    "transmissions_vs_utilization",
    "unrecorded_by_ap",
    "user_association_series",
    "utilization_histogram",
    "utilization_series",
]
