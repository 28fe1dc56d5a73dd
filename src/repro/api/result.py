"""Uniform typed results: whatever ran, you get an ``ExperimentResult``.

Every execution mode — pcap analysis, a single simulated session, a
campaign sweep — comes back as the same object: reports and/or per-cell
rows, knee estimates, perf counters, and provenance (spec hash, code
salt, store keys) tying the numbers to the exact spec and code that
produced them.  ``result.spec()`` returns the resolved
:class:`~repro.api.spec.ExperimentSpec`, so any result re-runs
bit-exactly via ``Experiment.from_spec(result.spec())``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping

from .spec import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..campaign import CampaignResult
    from ..core.report import CongestionReport
    from ..sim import ScenarioResult

__all__ = ["ExperimentResult"]


class ExperimentResult:
    """What one :meth:`Experiment.run` produced (see module docstring).

    Attributes
    ----------
    mode : ``'analysis'`` | ``'single'`` | ``'campaign'``
    reports : mapping of display name → full
        :class:`~repro.core.report.CongestionReport` (analysis/single
        runs; campaign runs populate it only with ``keep_reports``).
    metrics : mapping of display name → {analysis name → result} when
        the spec selected an analysis *subset* instead of full reports.
    campaign : the underlying
        :class:`~repro.campaign.runner.CampaignResult` (campaign mode).
    scenario_result : the buffered
        :class:`~repro.sim.ScenarioResult` (single mode with
        ``keep_trace=True`` — e.g. to write the capture as a pcap).
    provenance : spec hash, code-version salt, mode, worker count and
        store directory — enough to audit where a number came from.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        mode: str,
        *,
        reports: "Mapping[str, CongestionReport] | None" = None,
        metrics: Mapping[str, Mapping[str, object]] | None = None,
        campaign: "CampaignResult | None" = None,
        scenario_result: "ScenarioResult | None" = None,
        sources: tuple[tuple[str, str], ...] = (),
        failures: tuple = (),
        elapsed_s: float = 0.0,
    ) -> None:
        from ..store import code_version_salt

        self._spec = spec
        self.mode = mode
        self.reports = dict(reports or {})
        #: per-capture :class:`~repro.jobs.JobError` failure records
        #: (analysis mode) — captures that raised instead of reporting.
        self.failures = tuple(failures)
        self.metrics = {k: dict(v) for k, v in (metrics or {}).items()}
        self.campaign = campaign
        self.scenario_result = scenario_result
        #: (display name, pcap path) pairs for analysis mode, so
        #: callers can map reports back to input files.
        self.sources = sources
        self.elapsed_s = elapsed_s
        self.provenance: dict[str, object] = {
            "spec_hash": spec.hash,
            "code_salt": code_version_salt(),
            "mode": mode,
            "workers": campaign.workers if campaign is not None else (spec.workers or 1),
            "store_dir": campaign.store_dir if campaign is not None else None,
        }

    # -- access ------------------------------------------------------------

    def spec(self) -> ExperimentSpec:
        """The resolved spec this result ran — re-run it bit-exactly via
        ``Experiment.from_spec(result.spec())`` (same store keys)."""
        return self._spec

    @property
    def report(self) -> "CongestionReport":
        """The report of a one-report experiment (single run, one pcap)."""
        if len(self.reports) != 1:
            raise ValueError(
                f"experiment has {len(self.reports)} reports; "
                f"use .reports[name]"
            )
        return next(iter(self.reports.values()))

    def table(self) -> list[dict[str, object]]:
        """Summary rows: campaign cells, or per-capture Table-1 rows."""
        if self.campaign is not None:
            return [cell.as_row() for cell in self.campaign.cells]
        return [
            report.summary.as_row()
            for report in self.reports.values()
            if report.summary.n_frames
        ]

    def knees(self) -> dict[str, dict[str, float | None]]:
        """Per-scenario knee estimates (campaign mode; else empty).

        ``load_knee_pps`` — offered load where mean delivery first dips
        below 0.9; ``utilization_knee_percent`` — mean utilization at
        peak throughput (the paper's Fig 6 knee).
        """
        if self.campaign is None:
            return {}
        from ..campaign import load_knee, utilization_knee

        return {
            scenario: {
                "load_knee_pps": load_knee(self.campaign, scenario),
                "utilization_knee_percent": utilization_knee(self.campaign, scenario),
            }
            for scenario in self.campaign.scenarios()
        }

    def perf_counters(self) -> dict[str, object]:
        """Aggregate execution counters across whatever ran."""
        out: dict[str, object] = {"elapsed_s": round(self.elapsed_s, 3)}
        if self.campaign is not None:
            out.update(
                cells=len(self.campaign.cells),
                failed=len(self.campaign.failed),
                store_hits=self.campaign.store_hits,
                dispatched=self.campaign.dispatched,
                events_processed=sum(
                    c.events_processed for c in self.campaign.cells
                ),
                events_cancelled=sum(
                    c.events_cancelled for c in self.campaign.cells
                ),
            )
        if self.scenario_result is not None:
            out.update(
                frames_captured=len(self.scenario_result.trace),
                frames_transmitted=len(self.scenario_result.ground_truth),
            )
        return out

    # -- rendering ---------------------------------------------------------

    def render(self, title: str | None = None) -> str:
        """Human-readable text artifact for the whole experiment."""
        spec = self._spec
        if self.campaign is not None:
            from ..campaign import render_campaign

            default = spec.name or f"Campaign [{spec.scenario}]"
            return render_campaign(self.campaign, title=title or default)
        if self.metrics:
            lines = [title or spec.name or "Experiment (analysis subset)"]
            for name, results in self.metrics.items():
                lines.append(f"  [{name}] computed: {', '.join(results)}")
            lines += [
                f"  [{f.name}] analysis failed [{f.error_type}: {f.error}]"
                for f in self.failures
            ]
            return "\n".join(lines) + "\n"
        from ..core.render import render_report

        parts = []
        for name, report in self.reports.items():
            if report.summary.n_frames:
                parts.append(render_report(report))
            else:
                parts.append(f"{name}: empty capture")
        for failure in self.failures:
            parts.append(
                f"{failure.name}: analysis failed "
                f"[{failure.error_type}: {failure.error}]"
            )
        return "\n\n".join(parts)

    def to_json(self, indent: int | None = 2) -> str:
        """Machine-readable summary: spec, provenance, rows, knees."""
        payload = {
            "spec": self._spec.to_mapping(),
            "mode": self.mode,
            "provenance": self.provenance,
            "perf": self.perf_counters(),
            "table": self.table(),
            "knees": self.knees(),
        }
        if self.campaign is not None and self.campaign.failed:
            payload["failed"] = [
                {"cell": f.name, "error_type": f.error_type, "error": f.error}
                for f in self.campaign.failed
            ]
        if self.failures:
            payload["failed_captures"] = [
                {
                    "name": f.name,
                    "source": f.source,
                    "error_type": f.error_type,
                    "error": f.error,
                }
                for f in self.failures
            ]
        return json.dumps(payload, indent=indent, default=str)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = (
            len(self.campaign.cells)
            if self.campaign is not None
            else len(self.reports) or len(self.metrics)
        )
        return (
            f"<ExperimentResult mode={self.mode!r} items={n} "
            f"spec={self._spec.hash}>"
        )
