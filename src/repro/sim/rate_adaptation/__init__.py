"""Multirate adaptation algorithms (paper §3 and §7).

The 802.11 standard leaves rate adaptation to vendors; the paper blames
loss-triggered schemes (the ARF family) for the congestion collapse it
measures, because they cannot tell collision losses from channel-error
losses.  We implement:

* :class:`FixedRate` — no adaptation (baseline/ablation).
* :class:`ArfRateAdaptation` — Auto Rate Fallback (Kamerman & Monteban),
  the "generic ARF implementation" the paper describes.
* :class:`AarfRateAdaptation` — Adaptive ARF, which backs off its probe
  frequency after failed upgrades.
* :class:`SnrOracleRateAdaptation` — an SNR-aware scheme in the spirit
  of RBAR/OAR, the paper's §7 recommendation: pick the highest rate
  whose predicted error rate at the observed SNR is acceptable,
  regardless of collision losses.
"""

from ..._suggest import unknown_name_message
from .base import RateAdaptation
from .fixed import FixedRate
from .arf import AarfRateAdaptation, ArfRateAdaptation
from .snr import SnrOracleRateAdaptation

__all__ = [
    "RateAdaptation",
    "FixedRate",
    "ArfRateAdaptation",
    "AarfRateAdaptation",
    "SnrOracleRateAdaptation",
    "RATE_ALGORITHMS",
    "rate_adaptation_class",
    "make_rate_adaptation",
]

_CLASSES: dict[str, type[RateAdaptation]] = {
    "fixed": FixedRate,
    "arf": ArfRateAdaptation,
    "aarf": AarfRateAdaptation,
    "snr": SnrOracleRateAdaptation,
}

#: The algorithm names :func:`make_rate_adaptation` knows (any case).
RATE_ALGORITHMS = tuple(_CLASSES)


def rate_adaptation_class(name: str) -> type[RateAdaptation]:
    """The class :func:`make_rate_adaptation` builds for ``name``."""
    try:
        return _CLASSES[name.lower()]
    except KeyError:
        raise ValueError(
            unknown_name_message("rate adaptation algorithm", name, RATE_ALGORITHMS)
        ) from None


def make_rate_adaptation(name: str, **kwargs) -> RateAdaptation:
    """Factory by algorithm name: ``fixed``, ``arf``, ``aarf``, ``snr``."""
    return rate_adaptation_class(name)(**kwargs)
