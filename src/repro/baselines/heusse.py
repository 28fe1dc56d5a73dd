"""The 802.11b performance anomaly (Heusse et al., INFOCOM 2003).

The paper's reference [8] and the mechanism behind its Figure 6
collapse: because DCF gives every station an equal long-run channel
*access* probability, one station transmitting at 1 Mbps stretches
every cycle it wins, dragging the throughput of all fast stations down
to roughly the slow station's level.

This module computes the anomaly analytically for a population of
stations at mixed rates under saturation: every station wins the
channel equally often, each win costs that station's full exchange
time, so per-station throughput is

    x = payload_bits / sum_over_stations(cycle_time_of_station)

(the Heusse et al. "useful throughput" formula with the collision terms
dropped; collisions shift the absolute level, not the anomaly itself).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.timing import DOT11B_TIMING

__all__ = ["AnomalyResult", "anomaly_throughput", "anomaly_penalty"]


@dataclass(frozen=True)
class AnomalyResult:
    """Saturation throughput of a mixed-rate cell."""

    per_station_mbps: float        # every station gets this much goodput
    total_mbps: float
    cycle_times_us: tuple[float, ...]

    @property
    def n_stations(self) -> int:
        return len(self.cycle_times_us)


def _cycle_us(size_bytes: int, rate_mbps: float) -> float:
    return (
        DOT11B_TIMING.difs_us
        + DOT11B_TIMING.data_frame_duration_us(size_bytes, rate_mbps)
        + DOT11B_TIMING.sifs_us
        + DOT11B_TIMING.ack_us
    )


def anomaly_throughput(
    station_rates_mbps: tuple[float, ...],
    size_bytes: int = 1500,
) -> AnomalyResult:
    """Per-station saturation throughput of a mixed-rate cell.

    >>> fast_only = anomaly_throughput((11.0, 11.0, 11.0))
    >>> mixed = anomaly_throughput((11.0, 11.0, 1.0))
    >>> mixed.per_station_mbps < fast_only.per_station_mbps / 2
    True
    """
    if not station_rates_mbps:
        raise ValueError("need at least one station")
    cycles = tuple(_cycle_us(size_bytes, rate) for rate in station_rates_mbps)
    # Round-robin in expectation: one frame per station per "super-cycle".
    super_cycle = sum(cycles)
    per_station = 8.0 * size_bytes / super_cycle
    return AnomalyResult(
        per_station_mbps=per_station,
        total_mbps=per_station * len(cycles),
        cycle_times_us=cycles,
    )


def anomaly_penalty(
    n_fast: int,
    n_slow: int,
    fast_rate_mbps: float = 11.0,
    slow_rate_mbps: float = 1.0,
    size_bytes: int = 1500,
) -> float:
    """Throughput penalty on fast stations from ``n_slow`` slow peers.

    Returns fast-station throughput *with* the slow stations divided by
    the throughput they would enjoy in an all-fast cell of the same
    population (1.0 = no penalty; the paper's anomaly drives this far
    below 1).
    """
    if n_fast <= 0:
        raise ValueError("need at least one fast station")
    mixed = anomaly_throughput(
        (fast_rate_mbps,) * n_fast + (slow_rate_mbps,) * n_slow, size_bytes
    )
    uniform = anomaly_throughput((fast_rate_mbps,) * (n_fast + n_slow), size_bytes)
    return mixed.per_station_mbps / uniform.per_station_mbps
