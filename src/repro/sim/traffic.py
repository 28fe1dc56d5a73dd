"""Traffic generation: Poisson arrivals with application size mixes.

The paper maps its size classes onto applications (§6): S frames are
voice/audio and control-ish traffic, M/L interactive and web, XL file
transfer and video.  Generators produce MSDUs with a configurable size
mixture and a (possibly time-varying) arrival rate — the load ramp used
to sweep channel utilization across the 30-99 % range the paper studies
is just a generator whose rate grows over the run.  The one blend
defined here is :data:`CONFERENCE_MIX`; :func:`class_mixture` builds
any other from class weights.

Samplers and schedules are frozen dataclasses: what they draw is their
declared fields, which is all a store key hashes
(:func:`repro.store.canonical`).  A table derived from the fields, or a
memo filled while a run draws, is a plain attribute beside them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..frames import FrameType
from .engine import Simulator

__all__ = [
    "SizeSampler",
    "SizeMix",
    "UniformSizes",
    "uniform_sizes",
    "class_mixture",
    "size_pool",
    "CONFERENCE_MIX",
    "RateSchedule",
    "ConstantRate",
    "LinearRamp",
    "StepSchedule",
    "ScaledRate",
    "ModulatedRate",
    "PoissonSource",
]

SizeSampler = Callable[[np.random.Generator], int]


def _poisson_gap_us(rng: np.random.Generator, rate_pps: float) -> int:
    """One exponential inter-arrival gap in µs, clamped to at least 1.

    The single gap definition ``PoissonSource`` uses after an idle poll
    and after an arrival alike: the clamp keeps the integer-µs clock
    advancing at extreme rates.
    """
    return max(1, int(rng.exponential(1e6 / rate_pps)))


@dataclass(frozen=True)
class UniformSizes:
    """Frame sizes uniform in [low, high] bytes: one ``integers`` call."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(f"invalid size range [{self.low}, {self.high}]")

    def __call__(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))


def uniform_sizes(low: int, high: int) -> UniformSizes:
    """Frame sizes uniform in [low, high] bytes."""
    return UniformSizes(low, high)


#: Representative byte ranges per size class (midpoints of the paper's bands).
_CLASS_RANGES = {
    "S": (60, 400),
    "M": (401, 800),
    "L": (801, 1200),
    "XL": (1201, 1500),
}


@dataclass(frozen=True)
class SizeMix:
    """Sizes from the S/M/L/XL classes, ``weights`` as ((class, weight), ...).

    A draw is one ``random()`` double picking the class, searched in
    the normalised cumulative weights (the walk ``Generator.choice(p=)``
    makes on the same double) by ``bisect.bisect_right`` over a tuple of
    their floats, then one ``integers`` call inside the class's byte
    range.  The weights' order is the search order, so it is part of
    what the mix draws.  :attr:`table` holds the cumulative weights,
    class lows and spans that :func:`size_pool` replays; it is derived
    from the weights, not a field.
    """

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.weights]
        unknown = set(names) - set(_CLASS_RANGES)
        if unknown:
            raise ValueError(f"unknown size classes: {sorted(unknown)}")
        probs = np.array([weight for _, weight in self.weights], dtype=np.float64)
        if probs.sum() <= 0:
            raise ValueError("weights must sum to a positive value")
        probs = probs / probs.sum()
        # The cumsum normalization Generator.choice applies internally.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        ranges = [_CLASS_RANGES[name] for name in names]
        lows = np.array([low for low, _ in ranges], dtype=np.int64)
        spans = np.array([high - low + 1 for low, high in ranges], dtype=np.uint64)
        object.__setattr__(self, "_ranges", ranges)
        object.__setattr__(self, "_cdf", tuple(cdf.tolist()))
        object.__setattr__(self, "table", (cdf, lows, spans))

    def __call__(self, rng: np.random.Generator) -> int:
        low, high = self._ranges[bisect.bisect_right(self._cdf, rng.random())]
        return int(rng.integers(low, high + 1))


def class_mixture(weights: dict[str, float]) -> SizeMix:
    """Sample sizes from the S/M/L/XL classes with the given weights.

    >>> sampler = class_mixture({"S": 0.5, "XL": 0.5})
    """
    return SizeMix(tuple(weights.items()))


def _scalar_pool(sampler: SizeSampler, seed, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.fromiter((sampler(rng) for _ in range(n)), dtype=np.int64, count=n)


def _replay_pool(table, seed, n: int) -> np.ndarray | None:
    """``n`` draws of the :class:`SizeMix` with ``table`` from
    ``default_rng(seed)``, replayed from raw PCG64 outputs.

    Each scalar draw is one ``random()`` (output ``u`` as
    ``(u >> 11) * 2**-53``) picking the class, then one bounded
    ``integers`` by Lemire's method on a 32-bit word, and PCG64 serves
    32-bit words as the low then the high half of one output.  So the
    draw pair (2k, 2k+1) reads outputs 3k and 3k+2 as its doubles and
    output 3k+1 as its two words.  ``None`` when a draw would take
    Lemire's rejection branch, which reads further words.
    """
    cdf, lows, spans = table
    pairs = -(-n // 2)
    raw = np.random.default_rng(seed).bit_generator.random_raw(3 * pairs)
    raw = raw.reshape(pairs, 3)
    doubles = (raw[:, ::2] >> 11).ravel()[:n] * 2.0**-53
    words = np.stack((raw[:, 1] & 0xFFFFFFFF, raw[:, 1] >> 32), axis=1)
    idx = cdf.searchsorted(doubles, side="right")
    span = spans[idx]
    product = words.ravel()[:n] * span
    if np.any((product & 0xFFFFFFFF) < span):
        return None
    return lows[idx] + (product >> 32).astype(np.int64)


#: Lazily-determined: does :func:`_replay_pool` equal the scalar draws
#: on this numpy?  Checked once per process.
_REPLAY_OK: bool | None = None


def _replay_supported() -> bool:
    global _REPLAY_OK
    if _REPLAY_OK is None:
        ok = True
        for seed, n in ((12345, 129), ((7, 0x512E), 64)):
            replay = _replay_pool(CONFERENCE_MIX.table, seed, n)
            ok = ok and replay is not None and np.array_equal(
                replay, _scalar_pool(CONFERENCE_MIX, seed, n)
            )
        _REPLAY_OK = ok
    return _REPLAY_OK


def size_pool(sampler: SizeSampler, seed, n: int) -> np.ndarray:
    """The first ``n`` draws of ``sampler`` from
    ``np.random.default_rng(seed)``, as int64.

    A :class:`SizeMix`'s draws are replayed from the generator's raw
    outputs in one vectorised pass; any other sampler, a draw that
    would take Lemire's rejection branch, or a numpy on which the
    replay differs from the scalar draws runs the scalar loop on a
    fresh generator instead.  Either way the pool is the same, draw
    for draw.
    """
    if isinstance(sampler, SizeMix) and _replay_supported():
        pool = _replay_pool(sampler.table, seed, n)
        if pool is not None:
            return pool
    return _scalar_pool(sampler, seed, n)


#: Conference-floor blend: lots of small frames (TCP acks, SSH, audio)
#: plus a heavy XL tail (downloads, slide decks) and thin M/L middle —
#: the shape that makes S and XL dominate as in the paper's Figs 10-13.
CONFERENCE_MIX = class_mixture({"S": 0.45, "M": 0.08, "L": 0.07, "XL": 0.40})


class RateSchedule(Protocol):
    """Offered-load schedule: packets/second as a function of sim time."""

    def rate_at(self, time_us: int) -> float: ...


@dataclass(frozen=True)
class ConstantRate:
    """Fixed arrival rate."""

    pps: float

    def rate_at(self, time_us: int) -> float:
        return self.pps


@dataclass(frozen=True)
class LinearRamp:
    """Rate climbing linearly from ``start_pps`` to ``end_pps``."""

    start_pps: float
    end_pps: float
    duration_us: int

    def rate_at(self, time_us: int) -> float:
        if self.duration_us <= 0:
            return self.end_pps
        f = min(max(time_us / self.duration_us, 0.0), 1.0)
        return self.start_pps + f * (self.end_pps - self.start_pps)


@dataclass(frozen=True)
class ScaledRate:
    """A base schedule multiplied by a constant factor."""

    base: "RateSchedule"
    factor: float

    def rate_at(self, time_us: int) -> float:
        return self.base.rate_at(time_us) * self.factor


@dataclass(frozen=True)
class ModulatedRate:
    """Multiplicative burst modulation of a base schedule.

    Real WLAN traffic is bursty: per-second offered load at a fixed mean
    varies over an order of magnitude (web page fetches, file transfers
    starting and finishing).  This wrapper redraws a log-normal
    multiplier (unit mean) every ``period_us``, which is what populates
    the intermediate utilization bins of Figures 6-15 — without it an
    open-loop network snaps straight from underload to saturation.
    Drawn multipliers are memoised by epoch beside the fields.
    """

    base: "RateSchedule"
    sigma: float = 0.8
    period_us: int = 2_000_000
    seed: int = 99

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")
        object.__setattr__(self, "_cache", {})

    def _multiplier(self, epoch: int) -> float:
        value = self._cache.get(epoch)
        if value is None:
            rng = np.random.default_rng((self.seed, epoch))
            # mean-one log-normal: E[exp(N(-s^2/2, s^2))] = 1
            value = float(
                np.exp(rng.normal(-self.sigma**2 / 2.0, self.sigma))
            )
            self._cache[epoch] = value
        return value

    def rate_at(self, time_us: int) -> float:
        epoch = int(time_us) // self.period_us
        return self.base.rate_at(time_us) * self._multiplier(epoch)


@dataclass(frozen=True)
class StepSchedule:
    """Piecewise-constant rate: ``steps`` is [(start_us, pps), ...] sorted."""

    steps: tuple[tuple[int, float], ...]

    def rate_at(self, time_us: int) -> float:
        rate = 0.0
        for start_us, pps in self.steps:
            if time_us >= start_us:
                rate = pps
            else:
                break
        return rate


class PoissonSource:
    """Non-homogeneous Poisson MSDU source feeding one MAC queue.

    Arrivals are generated by sampling an exponential gap at the current
    rate; for slowly-varying schedules (our ramps) this is an accurate
    approximation of thinning and costs one event per packet.

    Each value is drawn when its event fires: an arrival draws its size,
    enqueues it, then draws the gap to the next arrival at the rate of
    the moment.  While the rate is zero the source polls every 100 ms
    without touching its generator.  The generator is this source's
    alone, so its stream depends only on the seed and the schedule.
    """

    def __init__(
        self,
        sim: Simulator,
        enqueue: Callable[[int, int, FrameType], object],
        dst: int,
        schedule: RateSchedule,
        sizes: SizeSampler,
        rng: np.random.Generator,
        start_us: int = 0,
        end_us: int | None = None,
    ) -> None:
        self.sim = sim
        self.enqueue = enqueue
        self.dst = dst
        self.schedule = schedule
        self.sizes = sizes
        self.rng = rng
        self.start_us = max(start_us, 0)
        self.end_us = end_us
        self.packets_offered = 0
        sim.schedule_at(self.start_us, self._poll)

    def _ended(self) -> bool:
        return self.end_us is not None and self.sim.now_us >= self.end_us

    def _poll(self) -> None:
        """Idle tick: schedule the first arrival once the rate is positive."""
        if not self._ended():
            self._schedule_next()

    def _arrive(self) -> None:
        """Offer one MSDU, then schedule the next arrival."""
        if self._ended():
            return
        self.enqueue(self.dst, self.sizes(self.rng), FrameType.DATA)
        self.packets_offered += 1
        self._schedule_next()

    def _schedule_next(self) -> None:
        rate = self.schedule.rate_at(self.sim.now_us)
        if rate <= 0:
            self.sim.schedule_in(100_000, self._poll)
        else:
            self.sim.schedule_in(_poisson_gap_us(self.rng, rate), self._arrive)
