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
sequence the per-frame law made, and the kept rows go into
geometrically-grown preallocated numpy column buffers as slices.  It
runs at every ``to_trace``/``drain_trace``, on any read of
``frames_captured``, ``hardware_drops`` or ``frames_buffered``, and
when the queue reaches :data:`SETTLE_BOUND` frames, so a buffered run
holds a bounded queue.  Nothing the simulation does reads the capture or
the sniffer's generator, so when a frame settles changes no outcome.
``to_trace``/``drain_trace`` assemble output from array slices, and a
draining stream compacts the columns in place: buffer capacity tracks
the *peak undrained* window, not the run length.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..frames import Trace, rate_to_code
from .engine import Simulator
from .medium import Medium, SimFrame
from .propagation import Position

__all__ = ["SnifferConfig", "Sniffer", "ground_truth_trace"]

#: Initial per-column buffer capacity; doubles when full.
_INITIAL_CAPACITY = 1024

#: Decoded frames a sniffer queues before it settles them: the frames
#: a queue keeps alive between drains, in a buffered ``run()`` and in a
#: streamed window alike.  A settle costs a few numpy calls.
SETTLE_BOUND = 128

#: The captured fields a settle reads off each kept frame.
_FRAME_FIELDS = attrgetter(
    "duration_us", "ftype", "rate_mbps", "size", "src", "dst", "retry", "seq"
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


#: (attribute, trace column, dtype) for the captured column buffers,
#: trace-schema order minus ``channel`` (constant per sniffer,
#: synthesized on output) — see ``repro.frames.TRACE_SCHEMA``.
_CAPTURE_COLUMNS = (
    ("_time", "time_us", np.int64),
    ("_ftype", "ftype", np.uint8),
    ("_rate", "rate_code", np.uint8),
    ("_size", "size", np.uint32),
    ("_src", "src", np.uint16),
    ("_dst", "dst", np.uint16),
    ("_retry", "retry", np.bool_),
    ("_snr", "snr_db", np.float32),
    ("_seq", "seq", np.uint16),
)


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
        # Columnar capture buffers: preallocated, geometrically grown,
        # compacted in place by a draining stream.
        self._n = 0
        self._capacity = _INITIAL_CAPACITY
        for attr, _, dtype in _CAPTURE_COLUMNS:
            setattr(self, attr, np.empty(_INITIAL_CAPACITY, dtype=dtype))
        medium.attach(self)

    # -- medium listener interface (passive) ------------------------------

    def on_medium_busy(self) -> None:
        pass

    def on_medium_idle(self) -> None:
        pass

    def on_frame_received(self, frame: SimFrame, snr_db: float) -> None:
        """A frame decoded at the sniffer: queue it for the drop law."""
        queue = self._queue
        queue.append((self.sim.now_us, frame, snr_db))
        if len(queue) >= SETTLE_BOUND:
            self._settle()

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
        duration, ftype, rate, size, src, dst, retry, seq = zip(
            *map(_FRAME_FIELDS, frames)
        )
        i, j = self._n, self._n + k
        if j > self._capacity:
            self._grow(j)
        # Timestamp a frame at its start of transmission, like a capture
        # card stamping the preamble.
        self._time[i:j] = decoded - np.array(duration, dtype=np.int64)
        self._ftype[i:j] = np.fromiter(ftype, np.uint8, k)
        self._rate[i:j] = list(map(rate_to_code, rate))
        self._size[i:j] = size
        self._src[i:j] = src
        self._dst[i:j] = dst
        self._retry[i:j] = retry
        self._snr[i:j] = snrs
        self._seq[i:j] = seq
        self._n = j
        self._captured_total += k

    def _grow(self, rows: int) -> None:
        """Double the column buffers until ``rows`` rows fit."""
        while self._capacity < rows:
            self._capacity *= 2
        n = self._n
        for attr, _, dtype in _CAPTURE_COLUMNS:
            grown = np.empty(self._capacity, dtype=dtype)
            grown[:n] = getattr(self, attr)[:n]
            setattr(self, attr, grown)

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
        """Rows currently held in the buffer (shrinks as a stream drains)."""
        self._settle()
        return self._n

    def _output_columns(self, mask: np.ndarray | None) -> dict[str, np.ndarray]:
        """Trace columns for the selected buffered rows.

        Output never aliases the live buffers: full slices are copied
        explicitly, boolean-mask selection copies by construction.
        """
        n = self._n
        if mask is None:
            cols = {
                name: getattr(self, attr)[:n].copy()
                for attr, name, _ in _CAPTURE_COLUMNS
            }
            count = n
        else:
            cols = {
                name: getattr(self, attr)[:n][mask]
                for attr, name, _ in _CAPTURE_COLUMNS
            }
            count = int(mask.sum())
        cols["channel"] = np.full(count, self.channel, dtype=np.uint8)
        return cols

    def to_trace(self) -> Trace:
        """Materialise the current capture buffer as a :class:`Trace`."""
        self._settle()
        return Trace(self._output_columns(None)).sorted_by_time()

    def drain_trace(self, before_us: int | None = None) -> Trace:
        """Remove and return buffered rows with ``time_us < before_us``.

        The live-capture hook: a streaming scenario run drains each
        sniffer once per simulated window, so buffers hold one window of
        rows instead of the whole run.  The watermark is strictly
        exclusive: a row with ``time_us == before_us`` stays buffered
        now and is drained by the first later call whose watermark
        exceeds it — exactly once across consecutive drains, never
        zero or twice.  (Rows at or after the watermark must stay
        because a frame's timestamp is its transmission *start*, so
        rows land slightly out of record order and a too-eager cut
        would misorder the stream.)  ``None`` drains everything.  The
        returned trace is stably time-sorted, matching the ordering
        :meth:`to_trace` would have produced over the full run.  Kept
        rows are compacted to the front of the column buffers in
        place; no Python-object row conversion happens either way.
        """
        self._settle()
        n = self._n
        if before_us is None:
            trace = self.to_trace()
            self._n = 0
            return trace
        keep = self._time[:n] >= before_us
        drained = Trace(self._output_columns(~keep)).sorted_by_time()
        kept = int(keep.sum())
        if kept:
            for attr, _, _ in _CAPTURE_COLUMNS:
                col = getattr(self, attr)
                col[:kept] = col[:n][keep]
        self._n = kept
        return drained


def ground_truth_trace(medium: Medium) -> Trace:
    """Every frame actually transmitted, as an ideal (lossless) trace.

    SNR is not meaningful for ground truth and is recorded as 40 dB.
    """
    records = medium.ground_truth
    n = len(records)
    time = np.empty(n, dtype=np.int64)
    ftype = np.empty(n, dtype=np.uint8)
    rate = np.empty(n, dtype=np.uint8)
    size = np.empty(n, dtype=np.uint32)
    src = np.empty(n, dtype=np.uint16)
    dst = np.empty(n, dtype=np.uint16)
    retry = np.empty(n, dtype=np.bool_)
    channel = np.empty(n, dtype=np.uint8)
    seq = np.empty(n, dtype=np.uint16)
    for i, (start_us, frame) in enumerate(records):
        time[i] = start_us
        ftype[i] = int(frame.ftype)
        rate[i] = rate_to_code(frame.rate_mbps)
        size[i] = frame.size
        src[i] = frame.src
        dst[i] = frame.dst
        retry[i] = frame.retry
        channel[i] = frame.channel
        seq[i] = frame.seq
    return Trace(
        {
            "time_us": time,
            "ftype": ftype,
            "rate_code": rate,
            "size": size,
            "src": src,
            "dst": dst,
            "retry": retry,
            "channel": channel,
            "snr_db": np.full(n, 40.0, dtype=np.float32),
            "seq": seq,
        }
    ).sorted_by_time()
