"""Campaign execution: grid cells → :mod:`repro.jobs` → reports.

Each cell builds its scenario from the library, *streams* the live
sniffer capture straight into the single-pass analysis pipeline
(:func:`repro.pipeline.run_all`) and keeps only the per-cell findings —
so a campaign's memory footprint is one drain window per worker, not
one trace per cell, and wall-clock scales with the worker count
(``benchmarks/bench_campaign.py`` measures the scaling).

Campaigns are **crash-safe and resumable** when given a ``store_dir``:
results stream into a content-addressed
:class:`~repro.campaign.store.CampaignStore` *as jobs resolve*, a
cell that raises becomes a :class:`~repro.jobs.JobError` failure
record instead of sinking the whole run, and a re-invocation consults
the store first and dispatches only the cells it is missing.

A campaign has one body, ``_CellRun``; ``dispatch`` only picks what
resolves its jobs — :func:`repro.jobs.run_jobs`, or the lease
coordinator of :mod:`repro.campaign.dispatch` with local worker
subprocesses — and both call its ``record`` once per job.

    from repro.campaign import ParameterGrid, run_campaign

    grid = ParameterGrid("ramp", axes={"n_stations": [10, 20, 40]}, seeds=2)
    result = run_campaign(grid, workers=4, store_dir="campaign-store")
    print(result.cells[0].delivery_ratio)
    # ... Ctrl-C and re-run: only unfinished cells are simulated.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Sequence

from ..jobs import JobError, run_jobs
from .grid import CampaignCell, ParameterGrid
from .merge import MergeReport, merge_shards, shard_roots
from .store import CampaignStore

if TYPE_CHECKING:  # pragma: no cover
    from ..core.report import CongestionReport
    from ..frames import Trace

__all__ = ["CellResult", "CampaignResult", "Timeout", "run_campaign"]

#: Dispatch backends ``run_campaign`` routes between.
DISPATCH_MODES = ("local", "distributed")


def _safe_ratio(numerator: float, denominator: float) -> float:
    """0.0 instead of ZeroDivisionError for degenerate (empty) cells."""
    return numerator / denominator if denominator else 0.0


class Timeout(Exception):
    """A cell exceeded ``run_campaign(timeout_s=...)`` and was aborted.

    Named so the failure record reads ``type="Timeout"``.
    """


def _within_deadline(
    chunks: Iterator["Trace"], start: float, timeout_s: float
) -> Iterator["Trace"]:
    """Pass ``chunks`` through; raise :class:`Timeout` at the first one
    past the deadline — a known point between chunks, on any thread."""
    for chunk in chunks:
        if time.perf_counter() - start > timeout_s:
            raise Timeout(f"cell exceeded timeout_s={timeout_s:g}")
        yield chunk


@dataclass(frozen=True)
class CellResult:
    """The findings of one campaign cell, aggregated and picklable.

    Ratios are guarded: degenerate cells (zero frames captured or
    transmitted) report 0.0 rather than raising.
    """

    cell: CampaignCell
    n_frames: int                      # frames captured and analyzed
    frames_transmitted: int            # simulator ground-truth count
    offered_packets: int               # MSDUs offered by all sources
    duration_s: float
    delivery_ratio: float              # MAC DATA successes / attempts
    capture_ratio: float               # captured / transmitted
    mode_utilization: float            # % — the paper's headline mode
    peak_throughput_mbps: float
    peak_throughput_utilization: float  # % — the Fig 6 knee position
    high_congestion_fraction: float
    unrecorded_percent: float
    elapsed_s: float
    report: "CongestionReport | None" = None
    #: Simulator event-loop diagnostics, surfaced in the summary table
    #: (``events`` column) so wall-clock outliers are attributable to
    #: event churn.
    events_processed: int = 0
    events_cancelled: int = 0

    @property
    def name(self) -> str:
        return self.cell.name

    @property
    def offered_pps(self) -> float:
        """Offered load normalised per second of simulated time."""
        return _safe_ratio(self.offered_packets, self.duration_s)

    def as_row(self) -> dict[str, object]:
        """One summary-table row."""
        return {
            "cell": self.name,
            "frames": self.n_frames,
            "offered_pps": round(self.offered_pps, 1),
            "delivery": round(self.delivery_ratio, 3),
            "mode_util_%": round(self.mode_utilization, 1),
            "peak_mbps": round(self.peak_throughput_mbps, 3),
            "knee_util_%": round(self.peak_throughput_utilization, 1),
            "high_cong": round(self.high_congestion_fraction, 3),
            "capture_%": round(100.0 * self.capture_ratio, 1),
            "events": self.events_processed,
            "wall_s": round(self.elapsed_s, 2),
        }


@dataclass
class CampaignResult:
    """Everything a finished campaign produced, input order preserved.

    ``cells`` holds the successful results; cells whose simulation
    raised are in ``failed`` (the campaign itself always completes).
    ``store_hits`` counts cells answered from the store without any
    simulation work, ``dispatched`` the cells actually simulated this
    invocation — a fully-stored campaign has ``dispatched == 0``.
    """

    cells: list[CellResult]
    workers: int
    elapsed_s: float
    failed: list[JobError] = field(default_factory=list)
    store_hits: int = 0
    dispatched: int = 0
    store_dir: str | None = None
    #: Corrupt store records quarantined (renamed ``*.corrupt``) while
    #: this campaign consulted its store — nonzero means disk trouble.
    quarantined: int = 0

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def n_total(self) -> int:
        """All cells the campaign covered, successful or failed."""
        return len(self.cells) + len(self.failed)

    def by_name(self) -> dict[str, CellResult]:
        return {cell.name: cell for cell in self.cells}

    def scenarios(self) -> list[str]:
        """Distinct scenario names, first-seen order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.cell.scenario, None)
        return list(seen)


def _simulate_cell(job: tuple[CampaignCell, dict]) -> CellResult:
    """One ``(cell, options)`` job (module-level, so pools can pickle it).

    The ``timeout_s`` clock starts before the scenario build."""
    from ..pipeline import run_all
    from ..sim import build_scenario

    cell, options = job
    start = time.perf_counter()
    built = build_scenario(
        cell.scenario, fidelity=cell.fidelity or "default", **cell.kwargs
    )
    chunks = built.stream()
    if options.get("timeout_s"):
        chunks = _within_deadline(chunks, start, options["timeout_s"])
    report = run_all(chunks, roster=built.roster, name=cell.name)
    elapsed = time.perf_counter() - start
    if report.summary.n_frames:
        headline = report.headline()
    else:  # degenerate cell: nothing captured, no curves to summarise
        headline = {}
    return CellResult(
        cell=cell,
        n_frames=report.summary.n_frames,
        frames_transmitted=built.frames_transmitted,
        offered_packets=built.offered_packets,
        duration_s=built.config.duration_s,
        delivery_ratio=built.delivery_ratio,
        capture_ratio=built.capture_ratio,
        mode_utilization=float(headline.get("mode_utilization", 0.0)),
        peak_throughput_mbps=float(headline.get("throughput_peak_mbps", 0.0)),
        peak_throughput_utilization=float(
            headline.get("throughput_peak_utilization", 0.0)
        ),
        high_congestion_fraction=float(
            headline.get("high_congestion_fraction", 0.0)
        ),
        unrecorded_percent=float(headline.get("unrecorded_percent", 0.0)),
        elapsed_s=elapsed,
        report=report if options["keep_reports"] else None,
        events_processed=built.sim.events_processed,
        events_cancelled=built.sim.events_cancelled,
    )


class _CellRun:
    """One campaign's body, whatever resolves its jobs.

    Checks the run options and grid before opening the store, merges
    any worker shards into it (crash recovery: a shard can hold cells a
    dead coordinator never stored), and partitions the cells by what it
    holds.  :meth:`record` is the ``on_done`` of whatever runs :attr:`jobs`.
    """

    def __init__(
        self,
        grid: ParameterGrid | Sequence[CampaignCell],
        store_dir: str | os.PathLike | None = None,
        *,
        salt: str | None = None,
        keep_reports: bool = False,
        timeout_s: float | None = None,
        resume: bool = True,
        retry_failed: bool = False,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("run option 'timeout_s' must be > 0")
        cells = grid.cells() if isinstance(grid, ParameterGrid) else list(grid)
        if not cells:
            raise ValueError("campaign has no cells")
        names = [cell.name for cell in cells]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate campaign cells: {dupes}")
        self.cells = cells
        self.options = {
            "keep_reports": keep_reports,
            "timeout_s": timeout_s,
        }
        self.start = time.perf_counter()
        self.store_dir = store_dir
        self.store = CampaignStore(store_dir, salt=salt) if store_dir is not None else None
        self.recovery = MergeReport()
        # `store is not None`, never `if store:` — CampaignStore has __len__.
        if self.store is not None:
            self.recovery = merge_shards(self.store, shard_roots(store_dir))
        if self.store is not None and resume:
            status = self.store.partition(
                self.cells, retry_failed=retry_failed, with_report=keep_reports
            )
            self.keys, self.pending = status.keys, status.pending
            self.results, self.failures = dict(status.done), dict(status.failed)
        else:
            self.keys = [
                None if self.store is None else self.store.key_for(cell)
                for cell in self.cells
            ]
            self.pending = list(range(len(self.cells)))
            self.results, self.failures = {}, {}
        self.store_hits = len(self.results)
        self.jobs = [(self.cells[index], self.options) for index in self.pending]

    def record(self, slot: int, outcome: CellResult | JobError) -> None:
        """Keep and store the outcome of pending job ``slot``, under the
        key its cell was partitioned with."""
        index = self.pending[slot]
        cell, key = self.cells[index], self.keys[index]
        if isinstance(outcome, JobError):
            outcome = replace(outcome, name=cell.name, source=cell)
            self.failures[index] = outcome
            # A dead worker's failure is not the cell's: never persisted.
            if self.store is not None and outcome.ran:
                self.store.put_failure(outcome, key=key)
        else:
            self.results[index] = outcome
            if self.store is not None:
                self.store.put(outcome, key=key)

    def result(self, workers: int) -> CampaignResult:
        return CampaignResult(
            cells=[self.results[i] for i in sorted(self.results)],
            workers=workers,
            elapsed_s=time.perf_counter() - self.start,
            failed=[self.failures[i] for i in sorted(self.failures)],
            store_hits=self.store_hits,
            dispatched=len(self.pending),
            store_dir=os.fspath(self.store_dir) if self.store_dir is not None else None,
            quarantined=(
                self.store.quarantined + self.recovery.quarantined
                if self.store is not None
                else 0
            ),
        )


def run_campaign(
    grid: ParameterGrid | Sequence[CampaignCell],
    *,
    workers: int | None = None,
    keep_reports: bool = False,
    store_dir: str | os.PathLike | None = None,
    resume: bool = True,
    retry_failed: bool = False,
    timeout_s: float | None = None,
    dispatch: str = "local",
) -> CampaignResult:
    """Run every cell of ``grid`` and collect per-cell findings.

    ``workers`` > 1 fans cells across :func:`repro.jobs.run_jobs`'s
    process pool (simulation is GIL-bound Python, so processes give
    true parallelism); ``None`` uses the pool default, 1 runs serially
    in-process.  Results are deterministic and identical for any
    worker count — cells carry their own seeds.  ``keep_reports=True``
    attaches each cell's full :class:`~repro.core.report.CongestionReport`
    (heavier pickles; leave off for wide sweeps).

    With ``store_dir`` every finished cell is persisted immediately
    (atomic write) to a content-addressed
    :class:`~repro.campaign.store.CampaignStore`, so an interrupted
    campaign loses at most the cells in flight.  ``resume=True`` (the
    default) answers cells from the store when their content key
    matches; ``resume=False`` recomputes (and overwrites) everything.
    Recorded failures are *not* retried on resume unless
    ``retry_failed=True``.  A bad ``timeout_s`` (``<= 0``) raises
    ``ValueError`` before the store is opened.

    A cell that raises never aborts the campaign: it is captured as a
    :class:`~repro.jobs.JobError` (``source`` the cell, with its
    traceback) in ``result.failed`` and — when a store is attached —
    persisted alongside the results.  A dead pool worker's
    ``JobError(error_type="BrokenProcessPool")`` is not persisted: a
    broken pool also fails cells that never started.

    ``timeout_s`` bounds each cell's wall-clock: the first stream chunk
    that arrives past the deadline aborts the cell, which is captured as
    a ``JobError(error_type="Timeout")`` instead of stalling its slot.

    ``dispatch="distributed"`` resolves the same jobs through the lease
    coordinator (:class:`repro.campaign.dispatch.Coordinator`) and
    ``workers`` local ``repro campaign-worker`` subprocesses (default:
    one per CPU), surviving dead workers via lease reclaim, bounded
    retries and respawns; ``store_dir=None`` uses a private temporary
    store, and ``keep_reports=True`` is refused.
    """
    if dispatch not in DISPATCH_MODES:
        from .._suggest import unknown_name_message

        raise ValueError(
            unknown_name_message("dispatch mode", dispatch, DISPATCH_MODES)
        )
    options = dict(
        timeout_s=timeout_s,
        resume=resume,
        retry_failed=retry_failed,
    )
    if dispatch == "local":
        run = _CellRun(grid, store_dir, keep_reports=keep_reports, **options)
        run_jobs(_simulate_cell, run.jobs, run.record, workers=workers)
        serial = len(run.pending) <= 1 or workers == 1
        return run.result(1 if serial else workers or os.cpu_count() or 1)

    if keep_reports:
        raise ValueError(
            "distributed dispatch does not support keep_reports=True — "
            "full reports do not travel the wire; use the store's "
            "summary records or local dispatch"
        )
    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    if n_workers < 1:
        raise ValueError("workers must be >= 1")
    from .dispatch import Coordinator, _drive_local_workers

    with (
        tempfile.TemporaryDirectory(prefix="repro-campaign-")
        if store_dir is None
        else contextlib.nullcontext(store_dir)
    ) as root, Coordinator(grid, root, **options) as coordinator:
        return _drive_local_workers(coordinator, n_workers)
