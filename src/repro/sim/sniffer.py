"""Vicinity sniffer capture model (paper §4.2, §4.4).

A sniffer is a passive medium listener on one channel (the paper ran one
Netgate radio per channel in RFMon mode).  It records every frame it
decodes, with the RFMon side information the paper used: timestamp,
rate, channel and SNR.  Frames go unrecorded for the paper's three
reasons, all of which this model produces:

1. **Bit errors** — decoding is sampled from the PHY error model at the
   sniffer's own SINR, so distant or collided frames are lost.
2. **Hardware drops under load** — commodity radios drop frames when
   capture rates spike [Yeo et al.]; modelled as a drop probability that
   grows linearly with the number of frames captured in the last 100 ms.
3. **Hidden terminals** — transmitters below the sniffer's sensitivity
   are never heard at all (this falls out of the propagation model).

A decoded frame is only queued (decode time, frame, SNR).  A settle step
applies the drop law to the whole queue at once: one ``rng.random(n)``
from the sniffer's own generator, in decode order, which is the draw
sequence the per-frame law made, and the kept rows go into a
:class:`~repro.frames.TraceBuffer` as one trace.  It runs only at
``drain_trace`` and on a read of ``frames_captured``, ``hardware_drops``
or ``frames_buffered``.  Nothing the simulation does reads the capture
or the sniffer's generator, so when a frame settles changes no outcome.
A scenario's window loop drains every sniffer once per window, so the
queue and the buffer hold about one window of frames however long the
run; the medium keeps that window's frames alive for its ground truth
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..frames import Trace, TraceBuffer, rate_to_code
from .engine import Simulator
from .medium import Medium, SimFrame
from .propagation import Position

__all__ = ["SnifferConfig", "Sniffer", "ground_truth_trace"]

#: The fields of a frame that a trace row records, read in one call.
_ROW_FIELDS = attrgetter(
    "ftype", "rate_mbps", "size", "src", "dst", "retry", "channel", "seq"
)
_DURATION = attrgetter("duration_us")


def _frame_trace(time_us, frames, snr_db) -> Trace:
    """One trace row per frame in ``frames``, stamped at ``time_us``."""
    n = len(frames)
    ftype, rate, size, src, dst, retry, channel, seq = zip(
        *map(_ROW_FIELDS, frames)
    )
    return Trace(
        {
            "time_us": time_us,
            "ftype": np.fromiter(ftype, np.uint8, n),
            "rate_code": np.fromiter(map(rate_to_code, rate), np.uint8, n),
            "size": size,
            "src": src,
            "dst": dst,
            "retry": retry,
            "channel": channel,
            "snr_db": snr_db,
            "seq": seq,
        }
    )


@dataclass(frozen=True)
class SnifferConfig:
    """Capture-model parameters.

    ``drop_per_frame`` is the per-captured-frame increment of the drop
    probability over the trailing ``load_window_us``; with the default
    2e-4 and a 100 ms window, 500 frames/s of capture load produces a
    1 % drop rate and 5000 frames/s produces 10 % — the range the paper
    observed (3-20 % unrecorded)."""

    sensitivity_dbm: float = -92.0
    drop_floor: float = 0.005
    drop_per_frame: float = 2e-4
    drop_ceiling: float = 0.35
    load_window_us: int = 100_000


class Sniffer:
    """Passive capture device; attach to a medium like any listener."""

    #: Sniffers never consult carrier sense (``on_medium_busy``/``idle``
    #: are no-ops and nothing queries their busy state), so the medium
    #: skips their sense bookkeeping entirely.
    medium_passive = True

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        position: Position,
        channel: int,
        rng: np.random.Generator,
        config: SnifferConfig | None = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.position = position
        self.channel = channel
        self.rng = rng
        self.config = config or SnifferConfig()
        self.sense_threshold_dbm = self.config.sensitivity_dbm
        # Capture cards decode what they can hear; the configured
        # sensitivity is the decode gate too (unlike MACs, which sense
        # at -85 dBm but decode down to the noise floor).
        self.decode_threshold_dbm = self.config.sensitivity_dbm
        # Decoded frames not yet settled: (decode time, frame, SNR).
        self._queue: list[tuple[int, SimFrame, float]] = []
        # Decode times (kept or dropped) that can still count towards
        # the load window of a later frame.
        self._recent = np.empty(0, dtype=np.int64)
        # Hot-path copies of the frozen config's drop-model fields.
        self._load_window_us = self.config.load_window_us
        self._drop_floor = self.config.drop_floor
        self._drop_per_frame = self.config.drop_per_frame
        self._drop_ceiling = self.config.drop_ceiling
        self._drops = 0
        self._captured_total = 0
        self._buffer = TraceBuffer()
        medium.attach(self)

    # -- medium listener interface (passive) ------------------------------

    def on_medium_busy(self) -> None:
        pass

    def on_medium_idle(self) -> None:
        pass

    def on_frame_received(self, frame: SimFrame, snr_db: float) -> None:
        """A frame decoded at the sniffer: queue it for the drop law."""
        self._queue.append((self.sim.now_us, frame, snr_db))

    def _settle(self) -> None:
        """Apply the hardware-drop law to the queue and record the kept rows.

        A frame is dropped with probability ``drop_floor +
        drop_per_frame * load``, capped at ``drop_ceiling``, where
        ``load`` counts the earlier decodes, kept or dropped, at most
        ``load_window_us`` before its own.  One ``rng.random(n)`` gives
        the queue its draws in decode order, the doubles n scalar draws
        would give.
        """
        queue = self._queue
        n = len(queue)
        if not n:
            return
        self._queue = []
        decoded, frames, snrs = zip(*queue)
        decoded = np.array(decoded, dtype=np.int64)
        times = np.concatenate((self._recent, decoded))
        first = times.searchsorted(decoded - self._load_window_us)
        load = np.arange(len(self._recent), len(times)) - first
        p_drop = np.minimum(
            self._drop_ceiling, self._drop_floor + self._drop_per_frame * load
        )
        kept = self.rng.random(n) >= p_drop
        self._recent = times[first[-1]:]
        k = int(np.count_nonzero(kept))
        self._drops += n - k
        if not k:
            return
        if k < n:
            rows = np.flatnonzero(kept).tolist()
            frames = [frames[i] for i in rows]
            snrs = [snrs[i] for i in rows]
            decoded = decoded[kept]
        # Timestamp a frame at its start of transmission, like a capture
        # card stamping the preamble.
        start = decoded - np.fromiter(map(_DURATION, frames), np.int64, k)
        self._buffer.append(_frame_trace(start, frames, snrs))
        self._captured_total += k

    # -- output --------------------------------------------------------

    @property
    def frames_captured(self) -> int:
        """Total frames recorded over the run (drained or still buffered)."""
        self._settle()
        return self._captured_total

    @property
    def hardware_drops(self) -> int:
        """Decoded frames the drop law discarded over the run."""
        self._settle()
        return self._drops

    @property
    def frames_buffered(self) -> int:
        """Rows held until a drain (shrinks as a stream drains)."""
        self._settle()
        return len(self._buffer)

    def drain_trace(self, before_us: int | None = None) -> Trace:
        """Remove and return the captured rows with ``time_us < before_us``.

        A scenario's window loop drains each sniffer once per simulated
        window, so the sniffer holds one window of rows instead of the
        whole run.  The watermark is strictly exclusive: a row with
        ``time_us == before_us`` stays buffered now and is drained by
        the first later call whose watermark exceeds it, exactly once.
        (A frame's timestamp is its transmission *start*, so rows land
        slightly out of record order, and a too-eager cut would
        misorder the stream.)  ``None`` drains everything.  The returned
        trace is stably time-sorted, see :class:`~repro.frames.TraceBuffer`.
        """
        self._settle()
        return self._buffer.drain(before_us)


def ground_truth_trace(medium: Medium) -> Trace:
    """The frames on ``medium.ground_truth`` as an ideal (lossless) trace.

    The medium appends each frame as it goes on the air, so the rows are
    already in time order.  SNR is not meaningful for ground truth and
    is recorded as 40 dB.
    """
    if not medium.ground_truth:
        return Trace.empty()
    start, frames = zip(*medium.ground_truth)
    snr_db = np.full(len(frames), 40.0, dtype=np.float32)
    return _frame_trace(start, frames, snr_db)
