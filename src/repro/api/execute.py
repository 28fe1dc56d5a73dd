"""Spec execution: route one validated spec to the right subsystem.

This is deliberately a *thin* router: analysis specs run
:func:`repro.pipeline.run_batch`'s jobs (or a
:func:`~repro.pipeline.run_consumers` subset per capture) on
:func:`repro.jobs.run_jobs`; campaign specs call
:func:`repro.campaign.run_campaign` on the grid the spec describes;
and single-scenario specs stream one built scenario through
:func:`repro.pipeline.run_all` — the same calls a hand-written script
would make, with the same defaults, so spec-driven results are
numerically identical to direct use of the underlying layers
(equivalence-tested in ``tests/api/``).
"""

from __future__ import annotations

import time
from dataclasses import replace

from .result import ExperimentResult
from .spec import ExperimentSpec

__all__ = ["execute", "grid_for"]


def grid_for(spec: ExperimentSpec):
    """The :class:`~repro.campaign.grid.ParameterGrid` a campaign spec
    describes — exactly the grid a hand-built ``run_campaign`` call
    would use, so store keys and cell names match bit for bit."""
    from ..campaign import ParameterGrid

    return ParameterGrid(
        spec.scenario,
        axes={key: list(values) for key, values in spec.vary},
        seeds=spec.seeds if spec.seeds is not None else 1,
        fixed=dict(spec.params),
        fidelity=spec.fidelity,
    )


def _named_sources(spec: ExperimentSpec) -> list[tuple[str, str]]:
    """Display-name/path pairs for pcap analysis, names de-duplicated.

    Spec entries may be files, directories or glob patterns — expanded
    deterministically (sorted) by :func:`repro.corpus.expand_captures`
    before naming.  A single capture takes the spec's name as its
    report title; repeated paths get ``#2``, ``#3``... suffixes
    because downstream results are keyed by name.
    """
    from ..corpus import CorpusError, expand_captures

    try:
        paths = [str(p) for p in expand_captures(spec.pcaps)]
    except CorpusError as error:
        from .spec import SpecError

        raise SpecError(str(error)) from None
    sources: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in paths:
        base = spec.name or path if len(paths) == 1 else path
        name, suffix = base, 2
        while name in used:
            name = f"{base}#{suffix}"
            suffix += 1
        used.add(name)
        sources.append((name, path))
    return sources


def _subset_job(job) -> dict[str, object]:
    """One capture's analysis subset (module-level, so pools can pickle it)."""
    from ..pipeline import run_consumers

    name, path, names = job
    return run_consumers(path, names, name=name)


def _execute_corpus(spec: ExperimentSpec) -> ExperimentResult:
    """Corpus analysis specs: refresh, query, plan, dispatch the rest."""
    from ..corpus import analyze_corpus

    start = time.perf_counter()
    analysis = analyze_corpus(
        spec.corpus,
        spec.corpus_where,
        workers=spec.workers,
    )
    reports = {
        path: analysis.reports[path] for path in sorted(analysis.reports)
    }
    sources = tuple(
        (path, str(analysis.root / path))
        for path in sorted({*analysis.reports, *analysis.failures})
    )
    failures = tuple(
        analysis.failures[path] for path in sorted(analysis.failures)
    )
    return ExperimentResult(
        spec,
        "analysis",
        reports=reports,
        sources=sources,
        failures=failures,
        elapsed_s=time.perf_counter() - start,
    )


def _execute_analysis(spec: ExperimentSpec) -> ExperimentResult:
    from ..jobs import JobError, run_jobs
    from ..pipeline import resolve_consumer_names
    from ..pipeline.executor import report_job

    if spec.corpus is not None:
        return _execute_corpus(spec)
    sources = _named_sources(spec)
    start = time.perf_counter()
    subset = bool(spec.analyses) and tuple(spec.analyses) != ("all",)
    if subset:
        names = resolve_consumer_names(spec.analyses)
        jobs = [(name, path, names) for name, path in sources]
    else:  # full reports: exactly run_batch's jobs over these paths
        jobs = [(name, path, {}) for name, path in sources]
    outcomes = run_jobs(
        _subset_job if subset else report_job, jobs, workers=spec.workers
    )
    done, failures = {}, []
    for (name, path), outcome in zip(sources, outcomes):
        if isinstance(outcome, JobError):
            failures.append(replace(outcome, name=name, source=str(path)))
        else:
            done[name] = outcome
    return ExperimentResult(
        spec,
        "analysis",
        reports={} if subset else done,
        metrics=done if subset else {},
        sources=tuple(sources),
        failures=tuple(failures),
        elapsed_s=time.perf_counter() - start,
    )


def _execute_single(spec: ExperimentSpec, keep_trace: bool) -> ExperimentResult:
    from ..pipeline import resolve_consumer_names, run_all, run_consumers
    from ..sim import build_scenario

    name = spec.name or spec.scenario
    start = time.perf_counter()
    built = build_scenario(
        spec.scenario, fidelity=spec.fidelity or "default", **dict(spec.params)
    )
    roster = built.roster
    scenario_result = None
    if keep_trace:
        scenario_result = built.run()
        source = scenario_result.trace
    else:
        source = built.stream()
    if spec.analyses and tuple(spec.analyses) != ("all",):
        names = resolve_consumer_names(spec.analyses)
        metrics = {name: run_consumers(source, names, name=name, roster=roster)}
        return ExperimentResult(
            spec,
            "single",
            metrics=metrics,
            scenario_result=scenario_result,
            elapsed_s=time.perf_counter() - start,
        )
    report = run_all(source, roster=roster, name=name)
    return ExperimentResult(
        spec,
        "single",
        reports={name: report},
        scenario_result=scenario_result,
        elapsed_s=time.perf_counter() - start,
    )


def _execute_campaign(spec: ExperimentSpec) -> ExperimentResult:
    from ..campaign import run_campaign

    grid = grid_for(spec).validate()
    start = time.perf_counter()
    campaign = run_campaign(
        grid,
        workers=spec.workers,
        keep_reports=spec.keep_reports,
        store_dir=spec.store,
        resume=spec.resume,
        retry_failed=spec.retry_failed,
        timeout_s=spec.timeout_s,
        dispatch=spec.dispatch or "local",
    )
    reports = {}
    if spec.keep_reports:
        reports = {
            cell.name: cell.report
            for cell in campaign.cells
            if cell.report is not None
        }
    return ExperimentResult(
        spec,
        "campaign",
        reports=reports,
        campaign=campaign,
        elapsed_s=time.perf_counter() - start,
    )


def execute(spec: ExperimentSpec, *, keep_trace: bool = False) -> ExperimentResult:
    """Validate ``spec`` and run it, returning an :class:`ExperimentResult`.

    ``keep_trace`` (single-scenario mode only) runs the simulation
    buffered and attaches the full :class:`~repro.sim.ScenarioResult`
    so the capture can be written out as a pcap.
    """
    spec.validate()
    mode = spec.mode
    if keep_trace and mode != "single":
        raise ValueError(
            "keep_trace applies to single-scenario experiments "
            f"(this spec is {mode!r})"
        )
    if mode == "analysis":
        return _execute_analysis(spec)
    if mode == "campaign":
        return _execute_campaign(spec)
    return _execute_single(spec, keep_trace)
