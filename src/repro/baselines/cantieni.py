"""Analytical multirate DCF model (after Cantieni et al., Comput. Commun. 2005).

The paper's reference [4]: a Bianchi-style fixed-point analysis of
802.11b under load, extended to stations transmitting at different
rates and frame sizes.  The paper cites its prediction that *small
frames sent at the highest rate have the highest probability of
successful transmission under saturation* and confirms it empirically
in §6.3; we implement the model to make that cross-check runnable.

Components:

* Bianchi's fixed point for the per-slot transmission probability tau
  and conditional collision probability p of n saturated stations.
* Heterogeneous frame classes (size, rate) contributing their own
  channel occupancy, so slow/large classes stretch the renewal cycle.
* A frame-error term from the PHY model, which is what differentiates
  success probabilities across (size, rate) classes beyond collisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.timing import DOT11B_TIMING
from ..sim import phy

__all__ = ["FrameClass", "DcfModelResult", "bianchi_fixed_point", "multirate_dcf_model"]


@dataclass(frozen=True)
class FrameClass:
    """A (size, rate) traffic class with a station population."""

    size_bytes: int
    rate_mbps: float
    n_stations: int

    @property
    def name(self) -> str:
        return f"{self.size_bytes}B@{self.rate_mbps:g}"


@dataclass(frozen=True)
class DcfModelResult:
    """Fixed-point outputs of the multirate saturation model."""

    tau: float                       # per-slot transmit probability
    collision_probability: float     # p: attempt collides
    success_probability: dict[str, float]   # per class: attempt succeeds
    throughput_mbps: dict[str, float]        # per class totals
    total_throughput_mbps: float


def bianchi_fixed_point(
    n_stations: int,
    cw_min: int = 31,
    cw_max: int = 255,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> tuple[float, float]:
    """Solve Bianchi's (tau, p) fixed point for n saturated stations.

    ``cw_min``/``cw_max`` follow the paper's MaxBO range (§3).  Returns
    ``(tau, p)``.
    """
    if n_stations < 1:
        raise ValueError("need at least one station")
    if n_stations == 1:
        return 2.0 / (cw_min + 2.0), 0.0
    # m: number of CW doublings available.
    m = 0
    w = cw_min
    while w < cw_max:
        w = min((w + 1) * 2 - 1, cw_max)
        m += 1
    tau = 0.1
    for _ in range(max_iterations):
        p = 1.0 - (1.0 - tau) ** (n_stations - 1)
        w0 = cw_min + 1
        if p >= 1.0:
            p = 1.0 - 1e-12
        denom = (1 - 2 * p) * (w0 + 1) + p * w0 * (1 - (2 * p) ** m)
        new_tau = 2.0 * (1 - 2 * p) / denom
        new_tau = min(max(new_tau, 1e-9), 1.0)
        if abs(new_tau - tau) < tolerance:
            tau = new_tau
            break
        tau = 0.5 * tau + 0.5 * new_tau  # damped iteration
    p = 1.0 - (1.0 - tau) ** (n_stations - 1)
    return tau, p


def multirate_dcf_model(
    classes: tuple[FrameClass, ...],
    snr_db: float = 15.0,
) -> DcfModelResult:
    """Saturation throughput and per-class success probability.

    All stations share one collision environment (same tau); a class's
    attempt succeeds when it neither collides nor suffers a frame error
    at the operating SNR.  Renewal-cycle accounting weights each class's
    occupancy by its population share, so slow classes stretch the
    cycle exactly as in the Heusse anomaly.
    """
    if not classes:
        raise ValueError("need at least one class")
    n_total = sum(c.n_stations for c in classes)
    tau, p = bianchi_fixed_point(n_total, DOT11B_TIMING.cw_min, DOT11B_TIMING.cw_max)

    # Per-slot event probabilities.
    p_tr = 1.0 - (1.0 - tau) ** n_total            # some transmission
    p_one = n_total * tau * (1.0 - tau) ** (n_total - 1)
    p_success_slot = p_one / p_tr if p_tr > 0 else 0.0

    # Expected busy time of a transmission slot: population-weighted.
    def exchange_us(c: FrameClass) -> float:
        return (
            DOT11B_TIMING.difs_us
            + DOT11B_TIMING.data_frame_duration_us(c.size_bytes, c.rate_mbps)
            + DOT11B_TIMING.sifs_us
            + DOT11B_TIMING.ack_us
        )

    weights = [c.n_stations / n_total for c in classes]
    mean_exchange = sum(w * exchange_us(c) for w, c in zip(weights, classes))
    slot = DOT11B_TIMING.slot_us
    mean_slot_us = (
        (1 - p_tr) * slot
        + p_tr * p_success_slot * mean_exchange
        + p_tr * (1 - p_success_slot) * mean_exchange  # collision burns a cycle
    )

    success_probability: dict[str, float] = {}
    throughput: dict[str, float] = {}
    for c, w in zip(classes, weights):
        per = 1.0 - phy.frame_success_probability(snr_db, c.size_bytes, c.rate_mbps)
        # Collision exposure scales with on-air duration (the vulnerable
        # window of an unslotted channel): this is what gives short
        # frames at fast rates their success-probability advantage —
        # the Cantieni et al. prediction the paper confirms in §6.3.
        exposure = exchange_us(c) / mean_exchange if mean_exchange > 0 else 1.0
        p_coll = 1.0 - (1.0 - p) ** exposure
        p_ok = (1.0 - p_coll) * (1.0 - per)
        success_probability[c.name] = p_ok
        # Class throughput: share of successful slots x payload bits.
        class_success_rate = (
            p_tr * p_success_slot * w * (1.0 - per) / mean_slot_us
        )  # successes per microsecond
        throughput[c.name] = class_success_rate * 8.0 * c.size_bytes

    return DcfModelResult(
        tau=tau,
        collision_probability=p,
        success_probability=success_probability,
        throughput_mbps=throughput,
        total_throughput_mbps=sum(throughput.values()),
    )
