"""Where things stand in a conference room.

The IETF venue (paper Figs 2-3) was a block of ballrooms roughly
70 ft x 120 ft per room with APs along the walls and users filling the
floor.  We model a rectangular room: APs evenly spaced on the long axis
(:func:`place_aps`) and sniffers at the room centre
(:func:`sniffer_position`; the paper co-located sniffers centrally
during the plenary), for every scenario.  Only the stations move
between scenarios: a :class:`Placement`, held in
:attr:`ScenarioConfig.placement <repro.sim.scenarios.ScenarioConfig>`,
decides where they stand.  Placements are frozen dataclasses, so a
campaign cell key hashes the geometry it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from .propagation import Position

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .scenarios import ScenarioConfig

__all__ = [
    "STATION_MARGIN_M",
    "Placement",
    "RoomPlacement",
    "HotspotPlacement",
    "EndClusterPlacement",
    "place_aps",
    "place_stations",
    "sniffer_position",
]

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


class Placement(Protocol):
    """Where a scenario's stations stand, given its config and the
    builder's seeded stream."""

    def station_positions(
        self, config: "ScenarioConfig", rng: np.random.Generator
    ) -> list[Position]: ...


@dataclass(frozen=True)
class RoomPlacement:
    """Stations uniform over the floor (paper Figs 2-3)."""

    def station_positions(
        self, config: "ScenarioConfig", rng: np.random.Generator
    ) -> list[Position]:
        return place_stations(
            config.n_stations, config.room_width_m, config.room_depth_m, rng
        )


@dataclass(frozen=True)
class HotspotPlacement:
    """Stations cluster around hotspot foci instead of filling the floor.

    ``centres`` are (x, y) fractions of the room; each station picks a
    focus uniformly and lands a Gaussian ``spread_m`` away (clipped to
    the floor).  Models the registration desk / coffee-break crowding
    that makes conference cells locally much denser than a uniform
    scatter.
    """

    centres: tuple[tuple[float, float], ...] = ((0.5, 0.5),)
    spread_m: float = 3.0

    def __post_init__(self) -> None:
        if not self.centres:
            raise ValueError("need at least one hotspot centre")
        if self.spread_m <= 0:
            raise ValueError("spread_m must be positive")

    def station_positions(
        self, config: "ScenarioConfig", rng: np.random.Generator
    ) -> list[Position]:
        margin = STATION_MARGIN_M
        width, depth = config.room_width_m, config.room_depth_m
        positions = []
        for _ in range(config.n_stations):
            cx, cy = self.centres[int(rng.integers(0, len(self.centres)))]
            x = float(np.clip(
                cx * width + rng.normal(0.0, self.spread_m),
                margin, max(width - margin, margin),
            ))
            y = float(np.clip(
                cy * depth + rng.normal(0.0, self.spread_m),
                margin, max(depth - margin, margin),
            ))
            positions.append(Position(x, y))
        return positions


@dataclass(frozen=True)
class EndClusterPlacement:
    """Stations alternate between the two ends of the room, 1-3 m from
    each end wall and at least 1 m from the side walls, so both clusters
    stay populated for any count.

    In a long room the clusters sit out of each other's carrier-sense
    range while the centred AP hears both: hidden terminals.  The
    positions come from their own stream, seeded ``config.seed + 7``;
    the builder's stream is not drawn.
    """

    def station_positions(
        self, config: "ScenarioConfig", rng: np.random.Generator
    ) -> list[Position]:
        width, depth = config.room_width_m, config.room_depth_m
        own = np.random.default_rng(config.seed + 7)
        positions = []
        for j in range(config.n_stations):
            x_lo, x_hi = (1.0, 3.0) if j % 2 == 0 else (width - 3.0, width - 1.0)
            positions.append(
                Position(
                    float(own.uniform(x_lo, x_hi)),
                    float(own.uniform(1.0, depth - 1.0)),
                )
            )
        return positions
