"""Query-planned batch analysis over an indexed corpus.

The planner turns "analyze everything matching this query" into the
smallest possible batch of jobs for :func:`repro.jobs.run_jobs`:

* captures whose ``(content hash, code salt)`` already has a
  stored report are **skipped** — their report is served from the
  analysis store, so a warm re-run dispatches zero work (the same
  content addressing and code-version salt every :mod:`repro.store`
  uses, so results are invalidated when the analysis source changes);
* the remainder is dispatched **largest file first**, so the process
  pool never ends a run idling on one straggler that happened to sort
  last (classic LPT scheduling; ``run_jobs`` submits in input order).

Each fresh report is stored the moment its job resolves, under
``<root>/.repro-corpus/analyses/`` — a :class:`repro.store.RecordStore`
JSON record (the commit point) plus a report blob sidecar per key.
Failures are deliberately **not** stored: a truncated download fixed
in place, or a flaky worker, retries on the next run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.report import CongestionReport
from ..core.timing import DOT11B_TIMING
from ..store import RecordStore, canonical, canonical_key, code_version_salt
from .index import INDEX_DIRNAME, CaptureRecord, CorpusIndex
from .query import Query, filter_records

__all__ = [
    "analysis_key",
    "AnalysisStore",
    "AnalysisPlan",
    "plan_analysis",
    "CorpusAnalysis",
    "analyze_corpus",
]


def analysis_key(content_hash: str, *, salt: str | None = None) -> str:
    """Content-addressed key for one capture's stored analysis.

    Everything that can change the report participates: the capture's
    content hash and the code-version salt.  Every report is complete
    and computed with the paper's 802.11b timing, each non-empty
    utilization bin kept; no analysis takes either as an input.  The
    ``"consumers"``, ``"timing"`` and ``"min_count"`` entries hash
    those constants only so existing stores keep their keys.
    """
    return canonical_key(
        {
            "capture": content_hash,
            "consumers": ["report"],
            "timing": canonical(DOT11B_TIMING),
            "min_count": 1,
            "salt": salt if salt is not None else code_version_salt(),
        }
    )


class AnalysisStore:
    """Stored per-capture reports under ``<root>/.repro-corpus/analyses``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.store_dir = self.root / INDEX_DIRNAME / "analyses"
        self._store = RecordStore(self.store_dir, kinds=("analysis",))

    @property
    def quarantined(self) -> int:
        """Corrupt analysis records renamed ``*.corrupt`` by this instance."""
        return self._store.quarantined

    def get(self, key: str) -> CongestionReport | None:
        """The stored report for ``key``, or None (recompute)."""
        if self._store.get(key) is None:
            return None
        report = self._store.get_blob(key)
        return report if isinstance(report, CongestionReport) else None

    def put(
        self, key: str, content_hash: str, path: str, report: CongestionReport
    ) -> None:
        """Store ``report``; the JSON record is the commit point."""
        self._store.put_blob(key, report)
        self._store.put(
            key, {"kind": "analysis", "key": key, "capture": content_hash, "path": path}
        )

    def drop(self, key: str) -> None:
        self._store.discard(key)


@dataclass(frozen=True)
class AnalysisPlan:
    """What a corpus analysis will and will not dispatch."""

    #: (record, key, stored report) — served without dispatch.
    cached: tuple[tuple[CaptureRecord, str, CongestionReport], ...]
    #: (record, key) — dispatched, largest capture first.
    to_run: tuple[tuple[CaptureRecord, str], ...]
    #: path → status for matched records that cannot be analyzed.
    skipped: dict[str, str]


def plan_analysis(
    store: AnalysisStore,
    records: list[CaptureRecord],
    *,
    salt: str | None = None,
) -> AnalysisPlan:
    """Partition matched records into cached / to-run / skipped."""
    resolved_salt = salt if salt is not None else code_version_salt()
    cached: list[tuple[CaptureRecord, str, CongestionReport]] = []
    to_run: list[tuple[CaptureRecord, str]] = []
    skipped: dict[str, str] = {}
    for record in records:
        if record.status != "ok":
            skipped[record.path] = record.status
            continue
        key = analysis_key(record.content_hash, salt=resolved_salt)
        report = store.get(key)
        if report is not None:
            cached.append((record, key, report))
        else:
            to_run.append((record, key))
    to_run.sort(key=lambda item: (-item[0].byte_size, item[0].path))
    return AnalysisPlan(
        cached=tuple(cached), to_run=tuple(to_run), skipped=skipped
    )


@dataclass(frozen=True)
class CorpusAnalysis:
    """The outcome of one query-planned corpus analysis."""

    root: Path
    where: str
    matched: int  # records the query selected
    cached: int  # served from the analysis store
    dispatched: int  # actually analyzed this run
    reports: dict[str, CongestionReport]  # path → report (cached + fresh)
    failures: dict = field(default_factory=dict)  # path → JobError
    skipped: dict[str, str] = field(default_factory=dict)  # path → status

    @property
    def results(self) -> dict:
        """Reports and failures merged, in sorted path order."""
        merged: dict = {**self.reports, **self.failures}
        return {path: merged[path] for path in sorted(merged)}


def analyze_corpus(
    root: str | Path,
    where: str | Query | None = None,
    *,
    workers: int | None = None,
    refresh: bool = True,
    verify: bool = False,
    salt: str | None = None,
) -> CorpusAnalysis:
    """Analyze every catalogued capture matching ``where``.

    Refreshes the index (unless ``refresh=False``), filters records
    with the query, serves already-stored reports, and dispatches only
    the remainder through :func:`repro.jobs.run_jobs` — largest capture
    first.  Each fresh report is stored as its job resolves, so a
    repeated (or interrupted and re-run) call dispatches only the rest.
    """
    from ..jobs import JobError, run_jobs
    from ..pipeline.executor import report_job

    index = CorpusIndex(root)
    catalog = index.refresh(verify=verify).records if refresh else index.records()
    records = filter_records(catalog, where)
    store = AnalysisStore(index.root)
    plan = plan_analysis(store, records, salt=salt)

    def persist(slot: int, outcome) -> None:
        record, key = plan.to_run[slot]
        if not isinstance(outcome, JobError):
            store.put(key, record.content_hash, record.path, outcome)

    jobs = [(r.path, index.root / r.path, {}) for r, _ in plan.to_run]
    outcomes = run_jobs(report_job, jobs, persist, workers=workers)
    reports = {record.path: report for record, _, report in plan.cached}
    failures: dict = {}
    for (path, source, _), outcome in zip(jobs, outcomes):
        if isinstance(outcome, JobError):
            failures[path] = replace(outcome, name=path, source=str(source))
        else:
            reports[path] = outcome

    where_text = where.text if isinstance(where, Query) else (where or "")
    return CorpusAnalysis(
        root=index.root,
        where=where_text,
        matched=len(records),
        cached=len(plan.cached),
        dispatched=len(plan.to_run),
        reports=reports,
        failures=failures,
        skipped=plan.skipped,
    )
