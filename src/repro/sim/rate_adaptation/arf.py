"""ARF and AARF loss-triggered rate adaptation.

ARF (Auto Rate Fallback, Kamerman & Monteban 1997) is the "generic"
scheme the paper describes in §3: drop one rate step after
``down_threshold`` consecutive failures, climb one step after
``up_threshold`` consecutive successes.  Because ARF cannot distinguish
collision losses from channel-error losses, congestion drives it toward
1 Mbps — the mechanism behind the paper's Figure 6/8 collapse.

AARF (Lacage et al. 2004) doubles the success threshold each time a
probe to the higher rate immediately fails, making upgrade probing
rarer; it reduces, but does not eliminate, the congestion misbehaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...frames import DOT11_RATES_MBPS
from .base import RateAdaptation

__all__ = ["ArfRateAdaptation", "AarfRateAdaptation"]


@dataclass
class _LinkState:
    rate_index: int
    consecutive_successes: int = 0
    consecutive_failures: int = 0
    just_upgraded: bool = False
    up_threshold: int = 10  # AARF mutates this per link


class ArfRateAdaptation(RateAdaptation):
    """Classic ARF: N failures step down, M successes step up."""

    def __init__(self, up_threshold: int = 10, down_threshold: int = 2) -> None:
        if up_threshold < 1 or down_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self._links: dict[int, _LinkState] = {}

    def _link(self, dst: int) -> _LinkState:
        state = self._links.get(dst)
        if state is None:
            # A new link starts at the top rate.
            state = _LinkState(
                rate_index=len(DOT11_RATES_MBPS) - 1,
                up_threshold=self.up_threshold,
            )
            self._links[dst] = state
        return state

    def rate_for(self, dst: int) -> float:
        return DOT11_RATES_MBPS[self._link(dst).rate_index]

    def on_success(self, dst: int) -> None:
        state = self._link(dst)
        state.consecutive_failures = 0
        state.consecutive_successes += 1
        state.just_upgraded = False
        if (
            state.consecutive_successes >= state.up_threshold
            and state.rate_index < len(DOT11_RATES_MBPS) - 1
        ):
            state.rate_index += 1
            state.consecutive_successes = 0
            state.just_upgraded = True

    def on_failure(self, dst: int) -> None:
        state = self._link(dst)
        state.consecutive_successes = 0
        state.consecutive_failures += 1
        self._maybe_step_down(state)

    def _maybe_step_down(self, state: _LinkState) -> None:
        # A failure straight after an upgrade is an immediate revert.
        if state.just_upgraded or state.consecutive_failures >= self.down_threshold:
            if state.rate_index > 0:
                state.rate_index -= 1
            state.consecutive_failures = 0
            state.just_upgraded = False

    def reset(self, dst: int) -> None:
        self._links.pop(dst, None)


class AarfRateAdaptation(ArfRateAdaptation):
    """Adaptive ARF: failed upgrade probes double the success threshold."""

    def __init__(
        self,
        up_threshold: int = 10,
        down_threshold: int = 2,
        max_up_threshold: int = 160,
    ) -> None:
        super().__init__(up_threshold, down_threshold)
        self.max_up_threshold = max_up_threshold

    def _maybe_step_down(self, state: _LinkState) -> None:
        if state.just_upgraded:
            # Probe failed: back off and make the next probe rarer.
            state.up_threshold = min(state.up_threshold * 2, self.max_up_threshold)
        elif state.consecutive_failures >= self.down_threshold:
            # Sustained failure at an established rate: reset probe cadence.
            state.up_threshold = self.up_threshold
        else:
            return
        if state.rate_index > 0:
            state.rate_index -= 1
        state.consecutive_failures = 0
        state.just_upgraded = False
