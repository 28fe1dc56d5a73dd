"""Congestion classification (paper §5.3).

The paper defines three congestion classes for the IETF network from the
throughput/goodput-versus-utilization curve:

* **uncongested**          — utilization below 30 %
* **moderately congested** — 30 % to the throughput knee (84 % at IETF)
* **highly congested**     — above the knee

The low threshold is an observational floor (the data set simply has
almost no seconds under 30 %); the high threshold is *derived* from where
throughput peaks before collapsing.  :class:`CongestionClassifier`
reproduces that derivation: ``fit`` locates the knee on a trace's
throughput curve, falling back to the paper's 84 % when no knee is
observable; the low threshold is always the paper's 30 %.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..analysis import find_knee
from ..frames import Trace
from .throughput import ThroughputSeries, throughput_vs_utilization
from .utilization import utilization_series

__all__ = [
    "CongestionLevel",
    "CongestionThresholds",
    "CongestionClassifier",
    "PAPER_THRESHOLDS",
]


class CongestionLevel(enum.IntEnum):
    """The paper's three congestion states, ordered by severity."""

    UNCONGESTED = 0
    MODERATE = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return {
            CongestionLevel.UNCONGESTED: "uncongested",
            CongestionLevel.MODERATE: "moderately congested",
            CongestionLevel.HIGH: "highly congested",
        }[self]


@dataclass(frozen=True)
class CongestionThresholds:
    """Utilization boundaries between congestion classes (percent)."""

    low: float = 30.0
    high: float = 84.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.low < self.high:
            raise ValueError(
                f"thresholds must satisfy 0 <= low < high, got {self.low}/{self.high}"
            )

    def classify(self, utilization_percent: float) -> CongestionLevel:
        """Congestion level of one utilization value."""
        if utilization_percent < self.low:
            return CongestionLevel.UNCONGESTED
        if utilization_percent <= self.high:
            return CongestionLevel.MODERATE
        return CongestionLevel.HIGH

    def classify_array(self, percent: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`classify`; returns uint8 level codes."""
        percent = np.asarray(percent, dtype=np.float64)
        levels = np.full(percent.shape, int(CongestionLevel.MODERATE), dtype=np.uint8)
        levels[percent < self.low] = int(CongestionLevel.UNCONGESTED)
        levels[percent > self.high] = int(CongestionLevel.HIGH)
        return levels


#: The thresholds the paper reports for the IETF data set.
PAPER_THRESHOLDS = CongestionThresholds(low=30.0, high=84.0)


@dataclass
class CongestionClassifier:
    """Derive congestion thresholds from a trace and label its seconds.

    Typical use::

        classifier = CongestionClassifier().fit(trace)
        levels = classifier.classify_seconds(trace)

    After ``fit``, ``thresholds.high`` is the utilization of the
    throughput knee (the paper's 84 %) and ``curves`` holds the Figure-6
    series the decision was based on.
    """

    smooth_window: int = 5
    thresholds: CongestionThresholds | None = None
    curves: ThroughputSeries | None = None

    def fit(self, trace: Trace) -> "CongestionClassifier":
        """Estimate thresholds from ``trace``'s throughput knee."""
        return self.fit_curves(throughput_vs_utilization(trace))

    def fit_curves(self, curves: ThroughputSeries) -> "CongestionClassifier":
        """Estimate thresholds from precomputed Figure-6 curves.

        The streaming pipeline computes the throughput series in its
        single pass and hands it here, so both entry points share one
        knee-detection rule.
        """
        self.curves = curves
        knee = find_knee(curves.throughput_mbps, smooth_window=self.smooth_window)
        low = PAPER_THRESHOLDS.low
        if knee is not None and knee.is_significant:
            high = max(knee.utilization, low + 1.0)
        else:
            high = PAPER_THRESHOLDS.high
        self.thresholds = CongestionThresholds(low=low, high=high)
        return self

    def _require_fit(self) -> CongestionThresholds:
        if self.thresholds is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        return self.thresholds

    def classify_percent(self, percent: np.ndarray) -> np.ndarray:
        """Level codes for an array of utilization percentages."""
        return self._require_fit().classify_array(percent)

    def classify_seconds(self, trace: Trace) -> np.ndarray:
        """Level code for every one-second interval of ``trace``."""
        return self.classify_percent(utilization_series(trace).percent)

    def occupancy(self, trace: Trace) -> dict[CongestionLevel, float]:
        """Fraction of trace seconds spent in each congestion state."""
        levels = self.classify_seconds(trace)
        n = max(len(levels), 1)
        return {
            level: float(np.count_nonzero(levels == int(level))) / n
            for level in CongestionLevel
        }
