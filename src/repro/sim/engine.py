"""Discrete-event simulation engine.

A minimal event loop: an integer-microsecond virtual clock and one
binary heap of ``(time, sequence, handle)`` entries.  Ties break in
scheduling order, which keeps runs deterministic for a fixed seed.

Cancellation is O(1): ``cancel()`` marks the handle, and the loop drops
the entry when it pops it.  Nothing compacts the heap.  The only events
a DCF run cancels are backoff countdowns and ACK/CTS timeouts, each at
most one backoff or one frame exchange ahead, so the cancelled entries
still queued are bounded by the network, not by the run's length.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """Handle to a scheduled event; ``cancel()`` stops it from firing."""

    __slots__ = ("time_us", "callback", "cancelled", "_sim")

    def __init__(
        self,
        time_us: int,
        callback: Callable[[], None],
        sim: "Simulator | None" = None,
    ) -> None:
        self.time_us = time_us
        self.callback: Callable[[], None] | None = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (safe to call repeatedly)."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        sim = self._sim
        if sim is not None:
            sim._cancelled += 1
            sim._tombstones += 1

    @property
    def pending(self) -> bool:
        return not self.cancelled


class Simulator:
    """Event loop with an integer microsecond clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(10, lambda: fired.append(sim.now_us))
    >>> sim.run_until(100)
    >>> fired
    [10]
    """

    def __init__(self) -> None:
        self.now_us: int = 0
        self._heap: list[tuple[int, int, EventHandle]] = []
        self._sequence = 0
        self._processed = 0
        self._cancelled = 0
        self._tombstones = 0  # cancelled entries still sitting in the heap

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    @property
    def events_cancelled(self) -> int:
        """Number of events cancelled before firing (diagnostics)."""
        return self._cancelled

    @property
    def events_pending(self) -> int:
        """Live (non-cancelled) entries in the heap."""
        return len(self._heap) - self._tombstones

    def schedule_at(self, time_us: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time_us``."""
        time_us = int(time_us)
        if time_us < self.now_us:
            raise ValueError(
                f"cannot schedule in the past: {time_us} < now {self.now_us}"
            )
        handle = EventHandle(time_us, callback, self)
        self._sequence += 1
        heapq.heappush(self._heap, (time_us, self._sequence, handle))
        return handle

    def schedule_in(self, delay_us: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after a relative delay.

        Inlined push (a non-negative delay can never land in the past):
        this is the hottest scheduling call in the simulator.
        """
        if delay_us < 0:
            raise ValueError(f"delay must be non-negative, got {delay_us}")
        time_us = self.now_us + int(delay_us)
        handle = EventHandle(time_us, callback, self)
        self._sequence += 1
        heapq.heappush(self._heap, (time_us, self._sequence, handle))
        return handle

    def _drain(self, end_us: int | None, safety_limit: int | None) -> None:
        """Pop-and-fire loop shared by :meth:`run_until` and :meth:`run_all`.

        Cancelled entries are dropped as they are popped, without
        counting against ``safety_limit``; ``end_us=None`` means no
        time bound.
        """
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        while heap:
            if end_us is not None and heap[0][0] > end_us:
                break
            time_us, _, handle = heappop(heap)
            if handle.cancelled:
                self._tombstones -= 1
                continue
            executed += 1
            if safety_limit is not None and executed > safety_limit:
                raise RuntimeError("event limit exceeded; runaway simulation?")
            self.now_us = time_us
            callback = handle.callback
            handle.cancelled = True  # one-shot; not a tombstone (already popped)
            self._processed += 1
            callback()  # type: ignore[misc]

    def run_until(self, end_us: int) -> None:
        """Execute events with ``time <= end_us``; clock ends at ``end_us``."""
        end_us = int(end_us)
        self._drain(end_us, None)
        self.now_us = max(self.now_us, end_us)

    def run_all(self, safety_limit: int = 50_000_000) -> None:
        """Drain the queue entirely (bounded by ``safety_limit`` events)."""
        self._drain(None, safety_limit)
