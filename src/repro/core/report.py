"""One-call trace analysis bundling every result in the paper.

``analyze_trace`` runs the complete pipeline — utilization, congestion
classification, throughput/goodput curves, RTS/CTS behaviour, per-rate
busy-time and bytes, category transmission counts, first-attempt
reception, acceptance delays, unrecorded-frame estimation and per-AP
statistics — and returns a :class:`CongestionReport` that examples,
benchmarks and downstream users consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import ColumnTable
from ..frames import NodeRoster, Trace
from .ap_stats import ApActivity, DatasetSummary, ap_frame_ranking, dataset_summary, user_association_series
from .congestion import CongestionClassifier, CongestionLevel, CongestionThresholds
from .delay import DelaySeries, acceptance_delay_vs_utilization
from .rate_share import RateShareSeries, busytime_share_vs_utilization, bytes_per_rate_vs_utilization
from .reception import ReceptionSeries, first_attempt_ack_vs_utilization
from .rts_cts import RtsCtsSeries, rts_cts_vs_utilization
from .throughput import ThroughputSeries
from .transmissions import CategoryCounts, transmissions_vs_utilization
from .unrecorded import UnrecordedEstimate, estimate_unrecorded, unrecorded_by_ap
from .utilization import UtilizationSeries, utilization_series

__all__ = ["CongestionReport", "analyze_trace"]


@dataclass
class CongestionReport:
    """All analyses of one captured data set, in paper order."""

    name: str
    summary: DatasetSummary                      # Table 1
    utilization: UtilizationSeries               # Fig 5
    thresholds: CongestionThresholds             # §5.3
    level_occupancy: dict[CongestionLevel, float]
    throughput: ThroughputSeries                 # Fig 6
    rts_cts: RtsCtsSeries                        # Fig 7
    busytime_share: RateShareSeries              # Fig 8
    bytes_per_rate: RateShareSeries              # Fig 9
    transmissions: CategoryCounts                # Figs 10-13
    reception: ReceptionSeries                   # Fig 14
    delays: DelaySeries                          # Fig 15
    unrecorded: UnrecordedEstimate               # §4.4
    ap_activity: ApActivity | None = None        # Fig 4a
    unrecorded_per_ap: ColumnTable | None = None # Fig 4c
    user_series: ColumnTable | None = None       # Fig 4b

    def headline(self) -> dict[str, float]:
        """The scalar findings the paper leads with."""
        peak_util, peak_tput = self.throughput.peak()
        high = self.thresholds.high
        return {
            "throughput_peak_mbps": peak_tput,
            "throughput_peak_utilization": peak_util,
            "high_congestion_threshold": high,
            "mode_utilization": self.utilization.mode_percent(),
            "unrecorded_percent": self.unrecorded.unrecorded_percent,
            "high_congestion_fraction": self.level_occupancy[CongestionLevel.HIGH],
        }


def analyze_trace(
    trace: Trace,
    roster: NodeRoster | None = None,
    name: str = "trace",
) -> CongestionReport:
    """Run the full paper pipeline on ``trace``.

    ``roster`` enables the AP-aware analyses (Fig 4a/4b/4c); without it
    those report fields are ``None``.
    """
    trace = trace.sorted_by_time()
    classifier = CongestionClassifier().fit(trace)
    assert classifier.thresholds is not None and classifier.curves is not None

    report = CongestionReport(
        name=name,
        summary=dataset_summary(trace, name),
        utilization=utilization_series(trace),
        thresholds=classifier.thresholds,
        level_occupancy=classifier.occupancy(trace),
        throughput=classifier.curves,
        rts_cts=rts_cts_vs_utilization(trace),
        busytime_share=busytime_share_vs_utilization(trace),
        bytes_per_rate=bytes_per_rate_vs_utilization(trace),
        transmissions=transmissions_vs_utilization(trace),
        reception=first_attempt_ack_vs_utilization(trace),
        delays=acceptance_delay_vs_utilization(trace),
        unrecorded=estimate_unrecorded(trace),
    )
    if roster is not None:
        report.ap_activity = ap_frame_ranking(trace, roster)
        report.unrecorded_per_ap = unrecorded_by_ap(trace, roster)
        report.user_series = user_association_series(trace, roster)
    return report
