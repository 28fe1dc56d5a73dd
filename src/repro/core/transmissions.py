"""Per-category frame-transmission counts (paper §6.3, Figures 10-13).

Each figure plots, against utilization, the average number of data
frames transmitted per second (first attempts *and* retransmissions) for
four of the 16 size-rate categories:

* Figure 10 — S-1, S-2, S-5.5, S-11   (small frames across rates)
* Figure 11 — XL-1, XL-2, XL-5.5, XL-11 (extra-large frames across rates)
* Figure 12 — S-1, M-1, L-1, XL-1     (1 Mbps frames across sizes)
* Figure 13 — S-11, M-11, L-11, XL-11 (11 Mbps frames across sizes)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BinnedSeries, bin_by_utilization, count_per_interval
from ..frames import SizeClass, Trace
from .categories import ALL_CATEGORIES, Category, category_mask
from .utilization import utilization_series

__all__ = [
    "CategoryCounts",
    "transmissions_vs_utilization",
    "figure10_categories",
    "figure11_categories",
    "figure12_categories",
    "figure13_categories",
]


@dataclass(frozen=True)
class CategoryCounts:
    """Average transmitted frames/second per category per utilization bin."""

    per_category: dict[str, BinnedSeries]

    def __getitem__(self, name: str) -> BinnedSeries:
        return self.per_category[name]

    def __contains__(self, name: str) -> bool:
        return name in self.per_category

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.per_category)

    def dominant_at(self, utilization: float) -> str:
        """Category with the highest mean count at a utilization bin."""
        best_name, best = "", -np.inf
        for name, series in self.per_category.items():
            v = series.value_at(utilization)
            if not np.isnan(v) and v > best:
                best_name, best = name, v
        return best_name


def transmissions_vs_utilization(
    trace: Trace, categories: tuple[Category, ...] = ALL_CATEGORIES
) -> CategoryCounts:
    """Per-second transmitted-frame counts per category, binned by utilization.

    Counts include retransmissions, matching §6.3 ("includes both the
    frames sent at the first attempt and retransmitted frames").
    """
    trace = trace.sorted_by_time()
    util = utilization_series(trace)
    n = len(util)
    out: dict[str, BinnedSeries] = {}
    for cat in categories:
        sub = trace.select(category_mask(trace, cat))
        counts = count_per_interval(
            sub, start_us=util.start_us, n_intervals=n
        ).astype(np.float64)
        out[cat.name] = bin_by_utilization(util.percent, counts)
    return CategoryCounts(per_category=out)


def _by_size(size: SizeClass) -> tuple[Category, ...]:
    return tuple(c for c in ALL_CATEGORIES if c.size_class == size)


def _by_rate(rate_code: int) -> tuple[Category, ...]:
    return tuple(c for c in ALL_CATEGORIES if c.rate_code == rate_code)


def figure10_categories() -> tuple[Category, ...]:
    """S-class frames across the four rates."""
    return _by_size(SizeClass.S)


def figure11_categories() -> tuple[Category, ...]:
    """XL-class frames across the four rates."""
    return _by_size(SizeClass.XL)


def figure12_categories() -> tuple[Category, ...]:
    """1 Mbps frames across the four size classes."""
    return _by_rate(0)


def figure13_categories() -> tuple[Category, ...]:
    """11 Mbps frames across the four size classes."""
    return _by_rate(3)
