"""Node placement for conference-room scenarios.

The IETF venue (paper Figs 2-3) was a block of ballrooms roughly
70 ft x 120 ft per room with APs along the walls and users filling the
floor.  We model a rectangular room: APs evenly spaced on the long axis,
stations uniform over the floor, sniffers near the room centre (the
paper co-located sniffers centrally during the plenary).
"""

from __future__ import annotations

import numpy as np

from .propagation import Position

__all__ = ["STATION_MARGIN_M", "place_aps", "place_stations", "sniffer_position"]

#: No station stands closer than this to a wall.
STATION_MARGIN_M = 1.0


def place_aps(n_aps: int, width_m: float, depth_m: float) -> list[Position]:
    """Evenly space APs along the room's centre line."""
    if n_aps < 1:
        raise ValueError("need at least one AP")
    xs = np.linspace(width_m / (n_aps + 1), width_m * n_aps / (n_aps + 1), n_aps)
    return [Position(float(x), depth_m / 2.0) for x in xs]


def place_stations(
    n_stations: int,
    width_m: float,
    depth_m: float,
    rng: np.random.Generator,
) -> list[Position]:
    """Scatter stations uniformly over the floor."""
    margin = STATION_MARGIN_M
    xs = rng.uniform(margin, max(width_m - margin, margin), n_stations)
    ys = rng.uniform(margin, max(depth_m - margin, margin), n_stations)
    return [Position(float(x), float(y)) for x, y in zip(xs, ys)]


def sniffer_position(width_m: float, depth_m: float) -> Position:
    """Central sniffer placement (plenary configuration, paper Fig 3)."""
    return Position(width_m / 2.0, depth_m / 2.0)
