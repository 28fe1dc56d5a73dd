"""Radio propagation: log-distance path loss with optional shadowing.

A standard indoor model: received power (dBm) at distance ``d`` metres is

    rx = tx_power - PL(d0) - 10 * n * log10(d / d0) - X_sigma

with reference loss PL(1 m) = 40 dB, path-loss exponent n ~= 3 (indoor
conference hall with people), and optional log-normal shadowing X_sigma
drawn once per (tx, rx) pair — shadowing is a property of the link
geometry, not of time, over the paper's one-second analysis scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NOISE_FLOOR_DBM", "REFERENCE_LOSS_DB", "Position", "PropagationModel"]

#: Path loss at the 1 m reference distance.
REFERENCE_LOSS_DB = 40.0

#: Thermal noise plus receiver noise figure over the 22 MHz channel.
NOISE_FLOOR_DBM = -96.0


@dataclass(frozen=True)
class Position:
    """Planar node position, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass
class PropagationModel:
    """Log-distance path loss + per-link log-normal shadowing."""

    exponent: float = 3.0             # indoor path-loss exponent
    shadowing_sigma_db: float = 4.0   # per-link shadowing std-dev
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    _shadowing: dict[tuple[int, int], float] = field(default_factory=dict)
    #: Extra per-node attenuation (dB) applied to every link touching the
    #: node — models obstructed users (bodies, bags, partition walls).
    node_extra_loss_db: dict[int, float] = field(default_factory=dict)

    def path_loss_db(self, distance_m: float) -> float:
        """Deterministic log-distance path loss."""
        d = max(distance_m, 1.0)
        return REFERENCE_LOSS_DB + 10.0 * self.exponent * math.log10(d)

    def link_shadowing_db(self, tx_id: int, rx_id: int) -> float:
        """Per-link shadowing, symmetric and fixed for a run."""
        if self.shadowing_sigma_db <= 0:
            return 0.0
        key = (min(tx_id, rx_id), max(tx_id, rx_id))
        value = self._shadowing.get(key)
        if value is None:
            value = float(self.rng.normal(0.0, self.shadowing_sigma_db))
            self._shadowing[key] = value
        return value

    def received_power_dbm(
        self,
        tx_power_dbm: float,
        tx_pos: Position,
        rx_pos: Position,
        tx_id: int = -1,
        rx_id: int = -1,
    ) -> float:
        """Received signal power for one link."""
        loss = self.path_loss_db(tx_pos.distance_to(rx_pos))
        shadow = self.link_shadowing_db(tx_id, rx_id) if tx_id >= 0 and rx_id >= 0 else 0.0
        extra = self.node_extra_loss_db.get(tx_id, 0.0) + self.node_extra_loss_db.get(
            rx_id, 0.0
        )
        return tx_power_dbm - loss - shadow - extra

    def snr_db(self, rx_power_dbm: float, interference_mw: float = 0.0) -> float:
        """SINR given received power and summed interference power (mW)."""
        noise_mw = 10.0 ** (NOISE_FLOOR_DBM / 10.0)
        signal_mw = 10.0 ** (rx_power_dbm / 10.0)
        return 10.0 * math.log10(signal_mw / (noise_mw + interference_mw))
