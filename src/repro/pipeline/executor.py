"""Single-pass streaming executor and the one-call facades.

``analyze_trace`` computes every figure of the paper, but each core
analysis re-walks the whole trace — sorting it, re-deriving per-frame
busy time, re-matching ACKs — so a full report costs ~15 passes.  The
executor walks the stream **once**: per chunk it derives the shared
per-frame state (second index, channel busy-time, DATA-ACK matching),
accumulates total busy time, and fans the chunk out to every consumer.
Finalization then assembles exactly the objects the core functions
return.  Segment size is the source's business (see
:mod:`repro.pipeline.stream`): the report is identical for any
segmentation, so the executor takes no size of its own.

    from repro.pipeline import run_all
    report = run_all(trace, roster)          # == analyze_trace(trace, roster)

Multi-trace batches (one report per capture session, like the paper's
day/plenary splits) run in parallel via :func:`run_batch`.

>>> from repro.frames import FrameRow, FrameType, Trace
>>> rows = [
...     FrameRow(time_us=t * 250_000, ftype=FrameType.DATA,
...              rate_mbps=11.0, size=1000, src=10, dst=1)
...     for t in range(8)
... ]
>>> report = run_all(Trace.from_rows(rows), name="doc")
>>> report.summary.n_frames
8
>>> len(report.utilization)
2
"""

from __future__ import annotations

import copy
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.report import CongestionReport
from ..core.acking import ack_match_pairs
from ..core.busytime import trace_cbt_us
from ..core.utilization import UtilizationSeries
from ..frames import NodeRoster, Trace
from ..jobs import JobError, run_jobs
from .accumulate import SecondAccumulator
from .consumers import Consumer  # noqa: F401  (registers default consumers)
from .registry import DEFAULT_CONSUMERS, ROSTER_CONSUMERS, create_consumers
from .stream import (
    Chunk,
    StreamContext,
    UnsortedStreamError,
    as_stream,
    trace_chunks,
)

__all__ = [
    "PipelineExecutor",
    "assemble_report",
    "run_all",
    "run_consumers",
    "run_batch",
]


def _match_chunk(trace: Trace, next_segment: Trace | None):
    """DATA-ACK matching for one chunk, looking one frame ahead.

    Applies :func:`repro.core.acking.ack_match_pairs` — the same rule
    :func:`repro.core.match_acks` uses — over the concatenated stream:
    the chunk's last frame is judged against the first frame of the
    next segment.
    """
    n = len(trace)
    acked = np.zeros(n, dtype=np.bool_)
    ack_time = np.full(n, -1, dtype=np.int64)
    ftype = trace.ftype
    if n > 1:
        hit = ack_match_pairs(
            ftype[:-1],
            ftype[1:],
            trace.src[:-1],
            trace.dst[1:],
            trace.channel[:-1],
            trace.channel[1:],
        )
        idx = np.nonzero(hit)[0]
        acked[idx] = True
        ack_time[idx] = trace.time_us[idx + 1]
    if next_segment is not None and bool(
        ack_match_pairs(
            ftype[-1:],
            next_segment.ftype[:1],
            trace.src[-1:],
            next_segment.dst[:1],
            trace.channel[-1:],
            next_segment.channel[:1],
        )[0]
    ):
        acked[-1] = True
        ack_time[-1] = int(next_segment.time_us[0])
    return acked, ack_time


class PipelineExecutor:
    """Drive a set of consumers over a stream — one-shot or incremental.

    ``consumers`` is an ordered list of :class:`Consumer` instances
    with unique names; any ``requires`` must name another consumer in
    the set (finalization runs in dependency order).

    Two driving styles share the exact same per-chunk machinery:

    * **one-shot** — :meth:`run` walks an entire source and returns the
      finalized results (the historical batch interface);
    * **incremental** — :meth:`feed` pushes time-sorted segments one at
      a time (a live feed), :meth:`snapshot` returns at any moment the
      results a batch run over everything fed so far would produce, and
      :meth:`close` ends the stream and finalizes for good.

    The incremental contract is exact, not approximate: after
    ``feed(c1) ... feed(ck)``, ``snapshot()`` equals
    ``PipelineExecutor(...).run(iter([c1, ..., ck]))`` field for field
    (one segment is always held back for DATA-ACK lookahead across the
    boundary; ``snapshot`` folds it in on a deep-copied state so the
    live pass is never disturbed).
    """

    def __init__(
        self,
        consumers: Sequence[Consumer],
        *,
        name: str = "trace",
        roster: NodeRoster | None = None,
    ) -> None:
        names = [c.name for c in consumers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate consumer names: {names}")
        for consumer in consumers:
            for dep in consumer.requires:
                if dep not in names:
                    raise ValueError(
                        f"consumer {consumer.name!r} requires {dep!r}, "
                        "which is not part of this run"
                    )
        self.consumers = list(consumers)
        self._ctx_args = dict(name=name, roster=roster)
        self.reset()

    # -- incremental protocol ---------------------------------------------

    def reset(self) -> None:
        """Start a fresh pass: new context, fresh consumer state."""
        self.ctx = StreamContext(**self._ctx_args)
        for consumer in self.consumers:
            consumer.start(self.ctx)
        self._busy = SecondAccumulator()
        self._max_second = -1
        self._tail_time: int | None = None
        self._pending: Trace | None = None
        self._need_ack = any(c.needs_ack_match for c in self.consumers)
        self._need_cbt = any(c.needs_cbt for c in self.consumers)
        self._results: dict[str, object] | None = None
        self.frames_fed = 0

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has finalized this pass."""
        return self._results is not None

    def feed(self, segment: Trace) -> int:
        """Push one time-sorted segment of a live stream; returns its size.

        Segments must be non-overlapping and globally ordered (an
        out-of-order segment raises :class:`UnsortedStreamError`).
        The segment is held back until the next ``feed``/``close`` so
        DATA-ACK pairs straddling the boundary match exactly as in a
        batch pass.  Empty segments are ignored.
        """
        if self.closed:
            raise RuntimeError(
                "executor already closed; call reset() for a new stream"
            )
        if len(segment) == 0:
            return 0
        if not segment.is_time_sorted():
            raise UnsortedStreamError("stream segments must be time-sorted")
        first = int(segment.time_us[0])
        if self._tail_time is not None and first < self._tail_time:
            raise UnsortedStreamError(
                "stream segments must be non-overlapping and ordered: "
                f"segment starts at {first} before previous end "
                f"{self._tail_time}"
            )
        if self._pending is not None:
            self._consume_segment(self._pending, segment)
        self._pending = segment
        self._tail_time = int(segment.time_us[-1])
        self.frames_fed += len(segment)
        return len(segment)

    def snapshot(self) -> dict[str, object]:
        """Results of a batch run over everything fed so far.

        The live pass state (consumers, accumulators) is deep-copied and
        the copy is closed, so feeding may continue afterwards; a
        snapshot at stream position *k* equals :meth:`run` over the
        first *k* segments exactly.  The held-back lookahead segment is
        shared, not copied: closing only reads it.  After :meth:`close`
        this returns the final results.
        """
        if self.closed:
            return self._results
        clone = copy.deepcopy(self, {id(self._pending): self._pending})
        return clone.close()

    def close(self) -> dict[str, object]:
        """End the stream: fold in the held-back segment and finalize."""
        if self.closed:
            return self._results
        if self._pending is not None:
            pending, self._pending = self._pending, None
            self._consume_segment(pending, None)
        self.ctx.n_seconds = self._max_second + 1
        if self._need_cbt:
            self.ctx.utilization = UtilizationSeries(
                start_us=int(self.ctx.start_us or 0),
                percent=self._busy.totals(self.ctx.n_seconds)
                / 1_000_000.0
                * 100.0,
            )
        self._results = self._finalize()
        return self._results

    def _consume_segment(self, segment: Trace, next_segment: Trace | None):
        """Fold one segment into every consumer (the shared chunk body)."""
        ctx = self.ctx
        if ctx.start_us is None:
            ctx.start_us = int(segment.time_us[0])
        second = ((segment.time_us - ctx.start_us) // 1_000_000).astype(
            np.int64
        )
        if self._need_cbt:
            cbt = trace_cbt_us(segment)
            self._busy.add(second, weights=cbt)
        else:  # no consumer reads busy time or utilization
            cbt = None
        if self._need_ack:
            acked, ack_time = _match_chunk(segment, next_segment)
        else:  # no consumer in this run reads ACK-match state
            acked = ack_time = None
        chunk = Chunk(
            trace=segment,
            second=second,
            cbt_us=cbt,
            acked=acked,
            ack_time_us=ack_time,
        )
        for consumer in self.consumers:
            consumer.consume(chunk)
        self._max_second = int(second[-1])

    # -- one-shot -----------------------------------------------------------

    def run(self, source) -> dict[str, object]:
        """Stream ``source`` through every consumer; return results by name.

        ``source`` may be a :class:`~repro.frames.Trace`, a pcap path,
        or any iterable of time-sorted trace segments.  An executor may
        be reused: each call starts from a fresh context and fresh
        consumer state.  A pcap whose disorder exceeds the streaming
        reader's per-batch sort falls back to a load-and-sort pass.
        """
        try:
            return self._run(source)
        except UnsortedStreamError:
            if not isinstance(source, (str, Path)):
                raise
            from ..pcap import read_trace

            return self._run(trace_chunks(read_trace(source)))

    def _run(self, source) -> dict[str, object]:
        self.reset()
        for segment in as_stream(source):
            self.feed(segment)
        return self.close()

    def _finalize(self) -> dict[str, object]:
        results: dict[str, object] = {}
        pending = list(self.consumers)
        while pending:
            progressed = False
            for consumer in list(pending):
                if all(dep in results for dep in consumer.requires):
                    results[consumer.name] = consumer.finalize(self.ctx, results)
                    pending.remove(consumer)
                    progressed = True
            if not progressed:
                cycle = [c.name for c in pending]
                raise ValueError(f"consumer dependency cycle: {cycle}")
        return results


def run_consumers(
    source,
    names: Sequence[str],
    *,
    name: str = "trace",
    roster: NodeRoster | None = None,
) -> dict[str, object]:
    """One-pass run of the named registered consumers over ``source``."""
    executor = PipelineExecutor(
        create_consumers(names),
        name=name,
        roster=roster,
    )
    return executor.run(source)


def assemble_report(
    results: Mapping[str, object], name: str = "trace"
) -> CongestionReport:
    """Build a :class:`CongestionReport` from full-run consumer results.

    ``results`` must hold every :data:`DEFAULT_CONSUMERS` entry (the
    roster analyses are optional) — the dict :meth:`PipelineExecutor.run`,
    :meth:`~PipelineExecutor.snapshot` or :meth:`~PipelineExecutor.close`
    returns for a default consumer set.  This is the assembly
    :func:`run_all` performs; the serve layer reuses it to turn rolling
    snapshots into reports.
    """
    congestion = results["congestion"]
    return CongestionReport(
        name=name,
        summary=results["summary"],
        utilization=results["utilization"],
        thresholds=congestion.thresholds,
        level_occupancy=congestion.level_occupancy,
        throughput=congestion.classifier.curves,
        rts_cts=results["rts_cts"],
        busytime_share=results["busytime_share"],
        bytes_per_rate=results["bytes_per_rate"],
        transmissions=results["transmissions"],
        reception=results["reception"],
        delays=results["delays"],
        unrecorded=results["unrecorded"],
        ap_activity=results.get("ap_activity"),
        unrecorded_per_ap=results.get("unrecorded_per_ap"),
        user_series=results.get("user_series"),
    )


def run_all(
    source,
    roster: NodeRoster | None = None,
    name: str = "trace",
) -> CongestionReport:
    """Single-pass equivalent of :func:`repro.core.analyze_trace`.

    Walks ``source`` once and returns the identical
    :class:`~repro.core.report.CongestionReport` — same numbers, one
    trace traversal instead of ~15.
    """
    names = DEFAULT_CONSUMERS + (ROSTER_CONSUMERS if roster is not None else ())
    results = run_consumers(
        source,
        names,
        name=name,
        roster=roster,
    )
    return assemble_report(results, name=name)


def report_job(job) -> CongestionReport:
    """``(name, source, run_all kwargs)`` → report: the job of
    :func:`run_batch` and corpus analysis (module-level, so pools can
    pickle it)."""
    name, source, kwargs = job
    return run_all(source, name=name, **kwargs)


def run_batch(
    traces,
    roster: NodeRoster | None = None,
    *,
    max_workers: int | None = None,
) -> dict[str, CongestionReport | JobError]:
    """Analyze many captures in parallel, one single-pass run each.

    ``traces`` may be a mapping ``{name: source}``, a sequence of
    ``(name, source)`` pairs, or a bare sequence of sources (named
    ``trace-0`` .. ``trace-N``).  Sources are anything :func:`run_all`
    accepts.  Results preserve input order.

    One capture raising (a truncated pcap, an unsortable feed), or
    whose pool worker dies, does **not** abort the batch: its entry
    becomes a :class:`~repro.jobs.JobError` failure record (``name``
    the capture's, ``source`` its path or, for an in-memory source, its
    type name) and every other capture still returns its report.

    Captures run on :func:`repro.jobs.run_jobs`: on processes when every
    source is a path (pcap decode is GIL-bound Python), on threads when
    any is an in-memory trace (nothing to pickle).
    """
    if isinstance(traces, Mapping):
        items = list(traces.items())
    else:
        items = []
        for i, entry in enumerate(traces):
            if isinstance(entry, tuple) and len(entry) == 2:
                items.append(entry)
            else:
                items.append((f"trace-{i}", entry))
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"duplicate batch names {dupes}: results are keyed by name"
        )
    kwargs = dict(roster=roster)
    outcomes = run_jobs(
        report_job,
        [(name, source, kwargs) for name, source in items],
        workers=max_workers,
        threads=not all(isinstance(s, (str, Path)) for _, s in items),
    )
    return {
        name: (
            replace(
                outcome,
                name=name,
                source=str(source)
                if isinstance(source, (str, Path))
                else type(source).__name__,
            )
            if isinstance(outcome, JobError)
            else outcome
        )
        for (name, source), outcome in zip(items, outcomes)
    }
