"""Scenario configs and runners: a config is the whole network.

A :class:`ScenarioConfig` holds everything one simulated capture
session needs, the station :class:`~repro.sim.topology.Placement`
included, so the config a campaign cell key hashes is exactly the
network the cell runs.  Three config families reproduce the paper's
measurement settings at laptop scale:

* :func:`run_scenario` / :func:`stream_scenario` — run any config: one
  room, one or more AP/channel cells, configurable traffic, rate
  adaptation and RTS/CTS population (buffered result vs live
  bounded-memory chunk stream).
* :func:`load_ramp_config` — offered load climbing over the run so the
  captured trace sweeps channel utilization across the paper's 30-99 %
  analysis range (the workload behind Figures 6-15).
* :func:`ietf_day_config` / :func:`ietf_plenary_config` — scaled
  analogues of the two IETF data sets: three channels, multiple APs,
  station populations that rise and fall like the meeting schedule.

Both runners are :func:`repro.sim.builder.build` followed by
``run()`` or ``stream()``.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterator
import numpy as np

from ..frames import NodeRoster, Trace
from ..frames.dot11 import CHANNEL_FREQ_MHZ
from .dcf import MacConfig
from .engine import Simulator
from .medium import Medium
from .node import AccessPoint, Station
from .builder import build
from .rate_adaptation import rate_adaptation_class
from .channel_manager import ChannelManager
from .roaming import RoamingManager
from .sniffer import Sniffer, SnifferConfig
from .topology import Placement, RoomPlacement
from .traffic import (
    CONFERENCE_MIX,
    ConstantRate,
    LinearRamp,
    ModulatedRate,
    RateSchedule,
    SizeSampler,
    class_mixture,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "SessionBlocks",
    "run_scenario",
    "stream_scenario",
    "load_ramp_config",
    "ietf_day_config",
    "ietf_plenary_config",
]


def _is_finite(value) -> bool:
    """``math.isfinite``, reading an int too large for a float as infinite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _run_length_us(duration_s: float) -> int:
    """A run length in whole microseconds; a non-finite one is refused by
    name, before any factory builds a schedule from it."""
    if not _is_finite(duration_s):
        raise ValueError(f"duration_s must be finite, got {duration_s!r}")
    return int(duration_s * 1_000_000)


def _is_integer(value) -> bool:
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real)


def _is_sequence_of(value, is_item) -> bool:
    return isinstance(value, Sequence) and all(is_item(v) for v in value)


#: Each field's kind: a test, and what a refusal says the field must be.
#: Integers pass :func:`operator.index`, so a numpy seed stays what it
#: is and keys like the int it equals.  The three flags are read for
#: their truth, so any value serves.
_FIELD_KINDS = {
    **dict.fromkeys(("n_stations", "n_aps", "seed"), (_is_integer, "an integer")),
    **dict.fromkeys(
        ("duration_s", "room_width_m", "room_depth_m", "rtscts_fraction",
         "obstructed_fraction", "obstructed_load_factor", "station_tx_power_dbm",
         "ap_tx_power_dbm", "path_loss_exponent", "shadowing_sigma_db"),
        (_is_real, "a real number"),
    ),
    "channels": (lambda v: _is_sequence_of(v, _is_integer), "a sequence of integers"),
    "obstructed_snr_band_db": (
        lambda v: _is_sequence_of(v, _is_real) and len(v) == 2,
        "a (low, high) pair in dB",
    ),
    "rate_algorithm": (lambda v: isinstance(v, str), "an algorithm name"),
    "rate_adaptation_kwargs": (lambda v: isinstance(v, Mapping), "a mapping"),
    **dict.fromkeys(
        ("uplink", "downlink"),
        (lambda v: hasattr(v, "rate_at"), "a rate schedule (with rate_at)"),
    ),
    "size_mix": (callable, "a size sampler (a callable)"),
    "activity": (lambda v: v is None or callable(v), "None or a callable"),
    "placement": (
        lambda v: hasattr(v, "station_positions"),
        "a placement (with station_positions)",
    ),
    "mac_config": (lambda v: isinstance(v, MacConfig), "a MacConfig"),
    "sniffer_config": (lambda v: isinstance(v, SnifferConfig), "a SnifferConfig"),
}

#: The range of each physical quantity of the right kind: a test, and
#: what a refusal says the field must be.
_FIELD_RANGES = {
    **dict.fromkeys(
        ("room_width_m", "room_depth_m", "path_loss_exponent"),
        (lambda v: _is_finite(v) and v > 0, "finite and positive"),
    ),
    **dict.fromkeys(
        ("shadowing_sigma_db", "obstructed_load_factor"),
        (lambda v: _is_finite(v) and v >= 0, "finite and non-negative"),
    ),
    **dict.fromkeys(
        ("station_tx_power_dbm", "ap_tx_power_dbm"), (_is_finite, "finite")
    ),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one simulated capture session.

    Frozen, and the whole network: where the stations stand is the
    ``placement`` field.  A library config holds only declared data
    (numbers, strings, tuples, mappings, frozen dataclasses), so a
    campaign store keys its cells by what they run
    (:func:`repro.store.canonical`).  A value of the wrong kind is
    refused by its field's name.
    """
    n_stations: int = 10
    n_aps: int = 1
    duration_s: float = 30.0
    seed: int = 7
    channels: tuple[int, ...] = (1,)
    room_width_m: float = 25.0
    room_depth_m: float = 20.0
    #: Where the stations stand (APs always stand on the room's centre
    #: line and sniffers at its centre).
    placement: Placement = RoomPlacement()
    rate_algorithm: str = "arf"
    rate_adaptation_kwargs: dict = field(default_factory=dict)
    rtscts_fraction: float = 0.0

    #: Fraction of stations with a heavily attenuated link (bodies,
    #: bags, partition walls) — these live at the low data rates, the
    #: population behind the paper's persistent 1 Mbps airtime share.
    obstructed_fraction: float = 0.0

    #: Obstructed stations have their link budget *calibrated* so the
    #: weaker link direction lands in this SNR band (dB): workable at
    #: 1-2 Mbps with occasional bit-error losses, hopeless at 5.5/11.
    #: Calibration (rather than a fixed extra loss) keeps the low-rate
    #: population seed-robust; it models users at the edge of coverage
    #: wherever they happen to sit.
    obstructed_snr_band_db: tuple[float, float] = (-1.0, 3.0)

    #: Offered-load multiplier for obstructed stations (their upper
    #: layers would back off on a bad link; keeping this < 1 stops two
    #: bad links from consuming the whole channel at 1 Mbps).
    obstructed_load_factor: float = 0.35
    uplink: RateSchedule = field(default_factory=lambda: ConstantRate(8.0))
    downlink: RateSchedule = field(default_factory=lambda: ConstantRate(8.0))
    size_mix: SizeSampler = CONFERENCE_MIX
    station_tx_power_dbm: float = 15.0
    ap_tx_power_dbm: float = 18.0
    #: Enable closed-loop transmit power control on stations (the
    #: paper's §7 second recommendation).
    power_control: bool = False
    #: Enable Airespace-style dynamic channel rebalancing (§4.1).
    channel_management: bool = False
    #: Enable station roaming/handoff to the strongest-beacon AP
    #: (Mishra et al. [15] behaviour; only meaningful with several APs).
    roaming: bool = False
    path_loss_exponent: float = 3.0
    shadowing_sigma_db: float = 4.0
    mac_config: MacConfig = field(default_factory=MacConfig)
    sniffer_config: SnifferConfig = field(default_factory=SnifferConfig)

    #: Optional per-station activity window factory: given (station
    #: index, rng) return (start_us, end_us).  Default: always active.
    #: A store keys only a dataclass one, such as :class:`SessionBlocks`.
    activity: Callable[[int, np.random.Generator], tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        for name, (is_kind, expected) in _FIELD_KINDS.items():
            value = getattr(self, name)
            if not is_kind(value):
                raise TypeError(f"{name} must be {expected}, got {value!r}")
        for name, (in_range, expected) in _FIELD_RANGES.items():
            value = getattr(self, name)
            if not in_range(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_stations < 1 or self.n_aps < 1:
            raise ValueError("need at least one station and one AP")
        _run_length_us(self.duration_s)  # refuses a non-finite length by name
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.rtscts_fraction <= 1.0:
            raise ValueError("rtscts_fraction must be in [0, 1]")
        if not 0.0 <= self.obstructed_fraction <= 1.0:
            raise ValueError("obstructed_fraction must be in [0, 1]")
        if not self.channels:
            raise ValueError("need at least one channel")
        for channel in self.channels:
            if channel not in CHANNEL_FREQ_MHZ:
                raise ValueError(
                    f"channels: {channel!r} is not an 802.11b channel "
                    f"({min(CHANNEL_FREQ_MHZ)}-{max(CHANNEL_FREQ_MHZ)})"
                )
        if len(set(self.channels)) != len(self.channels):
            # One sniffer per listed channel: a repeat records every
            # frame on that channel twice.
            raise ValueError(f"channels: {self.channels} repeats a channel")
        low, high = self.obstructed_snr_band_db
        if low > high:
            raise ValueError(
                f"obstructed_snr_band_db: low {low} dB is above high {high} dB"
            )
        try:
            ra_class = rate_adaptation_class(self.rate_algorithm)
        except ValueError as error:
            raise ValueError(f"rate_algorithm: {error}") from None
        try:
            inspect.signature(ra_class).bind(**self.rate_adaptation_kwargs)
        except TypeError as error:
            raise ValueError(
                f"rate_adaptation_kwargs: {error} ({ra_class.__name__}, "
                f"rate_algorithm {self.rate_algorithm!r})"
            ) from None

    @property
    def duration_us(self) -> int:
        return _run_length_us(self.duration_s)


@dataclass
class ScenarioResult:
    """Artifacts of one scenario run."""
    trace: Trace                 # merged sniffer captures (what the paper had)
    ground_truth: Trace          # every frame actually transmitted
    roster: NodeRoster
    stations: list[Station]
    aps: list[AccessPoint]
    sniffers: list[Sniffer]
    medium: Medium
    sim: Simulator
    config: ScenarioConfig
    channel_manager: "ChannelManager | None" = None
    roaming_manager: "RoamingManager | None" = None

    @property
    def capture_ratio(self) -> float:
        """Fraction of transmitted frames the sniffers recorded.

        Guarded against zero-frame ground truth: a degenerate config
        (e.g. zero offered load over a short run) reports 0.0 rather
        than raising ``ZeroDivisionError``.
        """
        total = len(self.ground_truth)
        return len(self.trace) / total if total else 0.0


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build the network described by ``config``, run it, collect traces.

    Buffers the full capture and ground truth in memory; for day-long
    runs feed :func:`stream_scenario` to the analysis pipeline instead.
    """
    return build(config).run()


def stream_scenario(config: ScenarioConfig) -> Iterator[Trace]:
    """Run ``config`` live, yielding the merged sniffer capture as one
    time-sorted segment per one-second drain window while the
    simulation advances.

    The concatenated segments equal ``run_scenario(config).trace``
    (already merged across sniffers in time order — the row order
    every analysis works on), but no full-run trace (or per-frame
    ground truth) is ever materialised: peak memory is one drain window
    however long the session.  Feed the iterator straight to
    :func:`repro.pipeline.run_all`.
    """
    yield from build(config).stream()


#: Size mixture calibrated for the load-ramp scenario: S and XL dominate


#: (TCP acks + downloads), matching the paper's Figs 10-13 populations.
RAMP_MIX = class_mixture({"S": 0.38, "M": 0.06, "L": 0.06, "XL": 0.50})


def load_ramp_config(
    n_stations: int = 12,
    duration_s: float = 240.0,
    peak_downlink_pps: float = 50.0,
    peak_uplink_pps: float = 16.0,
    seed: int = 11,
    rate_algorithm: str = "arf",
    rtscts_fraction: float = 0.15,
    size_mix: SizeSampler | None = None,
    burst_sigma: float = 1.0,
) -> ScenarioConfig:
    """Bursty offered load ramping from near-idle to past saturation.
    This is the workload that sweeps channel utilization across the
    paper's 30-99 % analysis range; every "versus utilization" figure
    (6 through 15) is regenerated from one such run.  Calibration notes:
    * Downlink-dominated traffic (conference floors download) keeps the
      contender count low enough that the network stays healthy through
      the moderate band and collapses only near the knee.
    * Log-normal burst modulation populates the intermediate
      utilization bins; steady open-loop load snaps from underload to
      saturation and leaves the 40-80 % bins empty.
    * A quarter of the stations are obstructed (extra 22 dB link loss):
      the population that legitimately occupies the 1-2 Mbps rates and
      produces the paper's persistent 1 Mbps airtime share (Fig 8).
    """
    duration_us = _run_length_us(duration_s)
    up = ModulatedRate(
        LinearRamp(0.3, peak_uplink_pps, duration_us),
        sigma=burst_sigma,
        period_us=1_000_000,
        seed=seed + 51,
    )
    down = ModulatedRate(
        LinearRamp(1.0, peak_downlink_pps, duration_us),
        sigma=burst_sigma,
        period_us=1_000_000,
        seed=seed + 52,
    )
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=1,
        duration_s=duration_s,
        seed=seed,
        channels=(1,),
        room_width_m=36.0,
        room_depth_m=24.0,
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        rate_algorithm=rate_algorithm,
        rate_adaptation_kwargs=(
            {"up_threshold": 5, "down_threshold": 3}
            if rate_algorithm in ("arf", "aarf")
            else {}
        ),
        rtscts_fraction=rtscts_fraction,
        obstructed_fraction=0.25,
        obstructed_load_factor=0.35,
        uplink=up,
        downlink=down,
        size_mix=size_mix or RAMP_MIX,
    )


@dataclass(frozen=True)
class SessionBlocks:
    """Attendance: each station attends one of ``blocks`` of the run.

    ``blocks`` are (start, end) fractions of ``duration_us``.  A station
    draws its block uniformly, then shifts it by a jitter of up to 3 %
    of the run, its end clamped to the run's end.
    """

    blocks: tuple[tuple[float, float], ...]
    duration_us: int

    def __call__(self, index: int, rng: np.random.Generator) -> tuple[int, int]:
        start_frac, end_frac = self.blocks[int(rng.integers(0, len(self.blocks)))]
        jitter = float(rng.uniform(0.0, 0.03))
        start = int((start_frac + jitter) * self.duration_us)
        end = int(min(end_frac + jitter, 1.0) * self.duration_us)
        return start, end


def ietf_day_config(
    n_stations: int = 36,
    duration_s: float = 120.0,
    seed: int = 21,
) -> ScenarioConfig:
    """Scaled analogue of the day session (Table 1, row 1).
    Three channels, two APs each; stations attend one of three parallel
    session blocks, so the active population rises and falls during the
    run as in Figure 4(b).
    """
    duration_us = _run_length_us(duration_s)
    blocks = ((0.0, 0.45), (0.30, 0.75), (0.55, 1.0))
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=6,
        duration_s=duration_s,
        seed=seed,
        channels=(1, 6, 11),
        room_width_m=65.0,
        room_depth_m=25.0,
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        rate_adaptation_kwargs={"up_threshold": 5, "down_threshold": 3},
        obstructed_fraction=0.2,
        size_mix=RAMP_MIX,
        uplink=ModulatedRate(ConstantRate(9.0), sigma=0.8, seed=seed + 51),
        downlink=ModulatedRate(ConstantRate(26.0), sigma=0.8, seed=seed + 52),
        activity=SessionBlocks(blocks, duration_us),
    )


def ietf_plenary_config(
    n_stations: int = 30,
    duration_s: float = 120.0,
    seed: int = 22,
) -> ScenarioConfig:
    """Scaled analogue of the plenary session (Table 1, row 2).
    One large room, all channels co-located, everyone attending the same
    block with heavier per-station load — the configuration that drove
    the network deep into congestion in the paper (mode ~86 %
    utilization vs ~55 % during the day).
    """
    duration_us = _run_length_us(duration_s)
    blocks = ((0.0, 1.0), (0.05, 0.95), (0.0, 0.9))
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=3,
        duration_s=duration_s,
        seed=seed,
        channels=(1, 6, 11),
        room_width_m=40.0,
        room_depth_m=25.0,
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        rate_adaptation_kwargs={"up_threshold": 5, "down_threshold": 3},
        obstructed_fraction=0.25,
        size_mix=RAMP_MIX,
        uplink=ModulatedRate(ConstantRate(14.0), sigma=0.9, seed=seed + 51),
        downlink=ModulatedRate(ConstantRate(42.0), sigma=0.9, seed=seed + 52),
        activity=SessionBlocks(blocks, duration_us),
    )
