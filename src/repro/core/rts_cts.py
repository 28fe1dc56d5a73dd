"""RTS/CTS behaviour under congestion (paper §6.1, Figure 7).

Figure 7 plots the average number of RTS and CTS frames transmitted per
second against channel utilization: RTS counts climb through moderate
congestion (5 -> 8 per second over the 80-84 % band at IETF) and collapse
under high congestion; CTS counts trail RTS because RTS receptions fail.

The module also quantifies the paper's *fairness* observation: stations
that rely on the RTS-CTS handshake need two extra frame deliveries per
data frame, so under congestion their goodput share falls below their
population share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BinnedSeries, bin_by_utilization, count_per_interval
from ..frames import FrameType, NodeRoster, Trace
from .acking import match_acks
from .utilization import utilization_series

__all__ = ["RtsCtsSeries", "rts_cts_vs_utilization", "RtsCtsFairness", "rts_cts_fairness"]


@dataclass(frozen=True)
class RtsCtsSeries:
    """Average RTS and CTS frames per second, per utilization bin."""

    rts: BinnedSeries
    cts: BinnedSeries

    def handshake_success_ratio(self) -> np.ndarray:
        """CTS/RTS ratio per bin (1.0 where no RTS observed)."""
        rts = np.maximum(self.rts.value, 1e-12)
        return np.minimum(self.cts.value / rts, 1.0)


def rts_cts_vs_utilization(trace: Trace) -> RtsCtsSeries:
    """Reproduce Figure 7 for ``trace``."""
    trace = trace.sorted_by_time()
    util = utilization_series(trace)
    n = len(util)
    rts_counts = count_per_interval(
        trace.only_type(FrameType.RTS),
        start_us=util.start_us,
        n_intervals=n,
    ).astype(np.float64)
    cts_counts = count_per_interval(
        trace.only_type(FrameType.CTS),
        start_us=util.start_us,
        n_intervals=n,
    ).astype(np.float64)
    return RtsCtsSeries(
        rts=bin_by_utilization(util.percent, rts_counts),
        cts=bin_by_utilization(util.percent, cts_counts),
    )


@dataclass(frozen=True)
class RtsCtsFairness:
    """Channel-access fairness for RTS/CTS users vs plain users (§6.1).

    ``*_share`` values are fractions of total acked data frames;
    ``*_population`` are fractions of transmitting stations.  A
    fairness index < 1 means RTS/CTS users obtained less than their
    population share — the paper's unfairness finding.

    ``*_airtime_per_delivery_us`` measures the channel time each
    population consumed per successfully delivered frame: the handshake
    users pay RTS + CTS + two extra SIFS per delivery, so their cost is
    structurally higher — the efficiency argument behind the paper's
    "avoid RTS/CTS during congestion" recommendation.
    """

    rtscts_population: float
    rtscts_share: float
    plain_population: float
    plain_share: float
    rtscts_airtime_per_delivery_us: float = float("nan")
    plain_airtime_per_delivery_us: float = float("nan")

    @property
    def fairness_index(self) -> float:
        """(RTS/CTS goodput share) / (RTS/CTS population share)."""
        if self.rtscts_population == 0:
            return float("nan")
        return self.rtscts_share / self.rtscts_population

    @property
    def airtime_overhead_ratio(self) -> float:
        """RTS/CTS users' airtime cost per delivery over plain users'."""
        if not self.plain_airtime_per_delivery_us > 0:
            return float("nan")
        return self.rtscts_airtime_per_delivery_us / self.plain_airtime_per_delivery_us


def rts_cts_fairness(trace: Trace, roster: NodeRoster) -> RtsCtsFairness:
    """Compare acked-data share of RTS/CTS stations to their population share.

    Only station-originated data frames count (APs transmit for everyone,
    so including them would mask per-station unfairness).
    """
    trace = trace.sorted_by_time()
    match = match_acks(trace)
    station_ids = [n.node_id for n in roster if not n.is_ap]
    rtscts_ids = {n.node_id for n in roster if not n.is_ap and n.uses_rtscts}
    if not station_ids:
        return RtsCtsFairness(0.0, 0.0, 0.0, 0.0)

    is_data = trace.ftype == int(FrameType.DATA)
    src = trace.src
    from_station = np.isin(src, np.array(station_ids, dtype=src.dtype))
    from_rtscts = np.isin(
        src, np.array(sorted(rtscts_ids), dtype=src.dtype)
    ) if rtscts_ids else np.zeros(len(trace), dtype=np.bool_)

    acked_station = match.acked & is_data & from_station
    total_acked = int(np.count_nonzero(acked_station))
    rtscts_acked = int(np.count_nonzero(acked_station & from_rtscts))

    # Airtime attribution: every frame a population's stations put on
    # the air (DATA attempts and RTS) counts toward that population's
    # channel cost; responses (CTS/ACK) are charged to the station that
    # solicited them, identified by the response's destination.
    from .busytime import trace_cbt_us

    cbt = trace_cbt_us(trace)
    transmitted_by = from_station & (
        is_data | (trace.ftype == int(FrameType.RTS))
    )
    solicited_by = np.isin(
        trace.dst, np.array(station_ids, dtype=trace.dst.dtype)
    ) & (
        (trace.ftype == int(FrameType.ACK))
        | (trace.ftype == int(FrameType.CTS))
    )
    dst_rtscts = np.isin(
        trace.dst, np.array(sorted(rtscts_ids), dtype=trace.dst.dtype)
    ) if rtscts_ids else np.zeros(len(trace), dtype=np.bool_)

    airtime_rtscts = float(
        cbt[(transmitted_by & from_rtscts) | (solicited_by & dst_rtscts)].sum()
    )
    airtime_plain = float(
        cbt[(transmitted_by & ~from_rtscts) | (solicited_by & ~dst_rtscts)].sum()
    )
    plain_acked = total_acked - rtscts_acked

    pop_total = len(station_ids)
    pop_rtscts = len(rtscts_ids)
    share_rtscts = rtscts_acked / total_acked if total_acked else 0.0
    return RtsCtsFairness(
        rtscts_population=pop_rtscts / pop_total,
        rtscts_share=share_rtscts,
        plain_population=(pop_total - pop_rtscts) / pop_total,
        plain_share=1.0 - share_rtscts if total_acked else 0.0,
        rtscts_airtime_per_delivery_us=(
            airtime_rtscts / rtscts_acked if rtscts_acked else float("nan")
        ),
        plain_airtime_per_delivery_us=(
            airtime_plain / plain_acked if plain_acked else float("nan")
        ),
    )
