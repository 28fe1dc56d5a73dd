"""The 16 size x rate frame categories (paper §6).

A category pairs one of the four size classes (S/M/L/XL) with one of the
four 802.11b data rates (1/2/5.5/11 Mbps), named ``{size}-{rate}`` as in
the paper's figures: ``S-11`` is a small frame at 11 Mbps, ``XL-1`` an
extra-large frame at 1 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frames import DOT11_RATES_MBPS, FrameType, SizeClass, Trace

__all__ = ["Category", "ALL_CATEGORIES", "category_name", "category_codes", "category_mask"]


def _rate_label(rate: float) -> str:
    return f"{rate:g}"  # 5.5 -> "5.5", 11.0 -> "11"


@dataclass(frozen=True)
class Category:
    """One of the paper's 16 size-rate frame categories."""

    size_class: SizeClass
    rate_code: int

    @property
    def rate_mbps(self) -> float:
        return DOT11_RATES_MBPS[self.rate_code]

    @property
    def code(self) -> int:
        """Column in a per-category table: ``rate_code * 4 + size_class``,
        the index :func:`category_codes` gives each frame."""
        return self.rate_code * 4 + int(self.size_class)

    @property
    def name(self) -> str:
        """Paper naming: ``{size}-{rate}``, e.g. ``S-11``, ``XL-1``."""
        return f"{self.size_class.name}-{_rate_label(self.rate_mbps)}"

    @classmethod
    def from_name(cls, name: str) -> "Category":
        """Parse a ``{size}-{rate}`` name back into a category."""
        size_str, _, rate_str = name.partition("-")
        try:
            size = SizeClass[size_str]
            rate_code = [
                i for i, r in enumerate(DOT11_RATES_MBPS) if _rate_label(r) == rate_str
            ][0]
        except (KeyError, IndexError):
            raise ValueError(f"not a valid category name: {name!r}") from None
        return cls(size_class=size, rate_code=rate_code)


#: All 16 categories, rate-major then size (S-1, M-1, ..., XL-11).
ALL_CATEGORIES = tuple(
    Category(size_class=size, rate_code=code)
    for code in range(len(DOT11_RATES_MBPS))
    for size in SizeClass
)


def category_name(size_class: SizeClass, rate_code: int) -> str:
    """Category name for a (size class, rate code) pair."""
    return Category(size_class=size_class, rate_code=rate_code).name


def category_codes(trace: Trace) -> np.ndarray:
    """Per-frame category index ``rate_code * 4 + size_class`` (0..15).

    Only meaningful for data frames; callers should mask on frame type.
    """
    return trace.rate_code.astype(np.int64) * 4 + trace.size_class.astype(np.int64)


def category_mask(trace: Trace, category: Category) -> np.ndarray:
    """Boolean mask of data frames belonging to ``category``."""
    return (
        (trace.ftype == int(FrameType.DATA))
        & (trace.rate_code == category.rate_code)
        & (trace.size_class == int(category.size_class))
    )
