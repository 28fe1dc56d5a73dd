"""The one front door: build and run experiments fluently or from specs.

An :class:`Experiment` wraps an immutable
:class:`~repro.api.spec.ExperimentSpec` and executes it through the
same underlying calls scripts always used (``pipeline.run_all``,
``pipeline.run_batch``, ``campaign.run_campaign``) — one object model
across simulation, analysis and campaigns:

    from repro.api import Experiment

    # A campaign, fluently:
    result = (
        Experiment.scenario("ramp")
        .vary(n_stations=[10, 30, 60])
        .seeds(4)
        .fix(duration_s=12.0)
        .run(workers=4, store_dir="campaign-store")
    )
    print(result.render())

    # The same campaign, declaratively:
    result = Experiment.from_spec("study.toml").run()

    # Analyze captures:
    reports = Experiment.pcaps("day.pcap", "plenary.pcap").run(workers=2).reports

Every fluent method returns a *new* Experiment (they are cheap spec
rewrites), so partial experiments can be shared and forked.  ``.run()``
keyword arguments override the spec's ``[run]`` options for that
invocation only.

>>> exp = Experiment.scenario("ramp").vary(n_stations=[10, 20]).seeds(2)
>>> exp.spec().mode
'campaign'
>>> len(exp.cells())
4
>>> Experiment.from_spec(exp.spec()).spec() == exp.spec()
True
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .execute import execute, grid_for
from .result import ExperimentResult
from .spec import ExperimentSpec, SpecError

__all__ = ["Experiment", "run_spec"]


class Experiment:
    """Immutable fluent wrapper around an :class:`ExperimentSpec`."""

    __slots__ = ("_spec",)

    def __init__(self, spec: ExperimentSpec | None = None) -> None:
        self._spec = spec if spec is not None else ExperimentSpec()

    # -- constructors ------------------------------------------------------

    @classmethod
    def scenario(cls, name: str, **params) -> "Experiment":
        """Start from a library scenario (``repro.sim.available_scenarios``).

        ``params`` fix scenario parameters for every run/cell, exactly
        like :meth:`fix`.
        """
        spec = ExperimentSpec(scenario=name, params=tuple(params.items()))
        return cls(spec)

    @classmethod
    def pcaps(cls, *paths: str | Path) -> "Experiment":
        """Start from captured pcap file(s) instead of a simulation."""
        if not paths:
            raise SpecError("Experiment.pcaps needs at least one path")
        return cls(ExperimentSpec(pcaps=tuple(str(p) for p in paths)))

    #: Singular alias — ``Experiment.pcap("day.pcap")`` reads naturally.
    pcap = pcaps

    @classmethod
    def corpus(cls, root: str | Path, where: str | None = None) -> "Experiment":
        """Start from an indexed capture corpus (see :mod:`repro.corpus`).

        ``where`` filters the catalog (``"channel=6 frames>10k"``);
        analysis is query-planned — already-stored reports are served
        without dispatch.
        """
        return cls(ExperimentSpec(corpus=str(root), corpus_where=where))

    def where(self, query: str) -> "Experiment":
        """Replace the corpus query (corpus experiments only)."""
        if self._spec.corpus is None:
            raise SpecError(
                "where() applies to corpus experiments — start with "
                "Experiment.corpus(root)"
            )
        return self._replace(corpus_where=query)

    @classmethod
    def from_spec(
        cls, source: "ExperimentSpec | Mapping | str | Path"
    ) -> "Experiment":
        """Load a spec — a path to ``.toml``/``.json``, a parsed
        mapping, or an :class:`ExperimentSpec` (e.g. ``result.spec()``).
        """
        if isinstance(source, ExperimentSpec):
            return cls(source)
        if isinstance(source, Mapping):
            return cls(ExperimentSpec.from_mapping(source))
        return cls(ExperimentSpec.from_file(source))

    # -- fluent refinement -------------------------------------------------

    def _replace(self, **changes) -> "Experiment":
        from dataclasses import replace

        return Experiment(replace(self._spec, **changes))

    def vary(self, **axes: Sequence[object]) -> "Experiment":
        """Add sweep axes: ``.vary(n_stations=[10, 30, 60])``.

        Each axis multiplies the campaign grid; values run in the given
        order.  Re-declaring an axis replaces its values.
        """
        merged = [(k, v) for k, v in self._spec.vary if k not in axes]
        for key, values in axes.items():
            merged.append((key, tuple(values)))
        return self._replace(vary=tuple(merged))

    def fix(self, **params) -> "Experiment":
        """Fix scenario parameters for every cell (``duration_s=12.0``)."""
        merged = [(k, v) for k, v in self._spec.params if k not in params]
        merged.extend(params.items())
        return self._replace(params=tuple(merged))

    def seeds(self, seeds: int | Sequence[int]) -> "Experiment":
        """Replicate every grid point: a count (seeds ``0..n-1``) or an
        explicit seed list.  Setting seeds makes the experiment a
        campaign even without axes."""
        if not isinstance(seeds, int):
            seeds = tuple(int(s) for s in seeds)
        return self._replace(seeds=seeds)

    def fidelity(self, mode: str) -> "Experiment":
        """Select the simulation engine (see ``repro.sim.FIDELITY_MODES``).

        ``"default"`` is the golden-digest-pinned discrete-event engine;
        ``"fast"`` is the columnar batch-stepped core — statistically
        equivalent headline metrics at a fraction of the wall-clock.
        """
        return self._replace(fidelity=mode)

    def analyses(self, *names: str) -> "Experiment":
        """Select analyses by registered consumer name.

        Default (or ``"all"``) computes the full congestion report.  A
        subset makes single runs and pcap analyses return just those
        results in ``result.metrics``; campaign cells always compute
        the full set (their summary rows need the headline metrics) —
        the names are still validated up front.
        """
        return self._replace(analyses=tuple(names))

    def named(self, name: str) -> "Experiment":
        """Set the experiment/report title."""
        return self._replace(name=name)

    def workers(self, workers: int) -> "Experiment":
        """Default worker-process count (overridable at :meth:`run`)."""
        return self._replace(workers=workers)

    def store(
        self, store_dir: str | Path, *, resume: bool = True, retry_failed: bool = False
    ) -> "Experiment":
        """Attach a content-addressed campaign store (crash-safe resume)."""
        return self._replace(
            store=str(store_dir), resume=resume, retry_failed=retry_failed
        )

    def keep_reports(self, keep: bool = True) -> "Experiment":
        """Attach each campaign cell's full report to the result."""
        return self._replace(keep_reports=keep)

    def timeout(self, timeout_s: float) -> "Experiment":
        """Per-cell wall-clock budget: a cell still running at the
        deadline is captured as ``JobError(error_type="Timeout")`` instead
        of stalling its worker."""
        return self._replace(timeout_s=timeout_s)

    def dispatch(self, mode: str) -> "Experiment":
        """Campaign dispatch backend: ``"local"`` (one process pool) or
        ``"distributed"`` (fault-tolerant coordinator + worker
        subprocesses — see :mod:`repro.campaign.dispatch`)."""
        return self._replace(dispatch=mode)

    # -- introspection -----------------------------------------------------

    def spec(self) -> ExperimentSpec:
        """The current immutable spec (serialize with ``.to_toml()``)."""
        return self._spec

    def cells(self):
        """The campaign cells this experiment would run (campaign mode)."""
        if self._spec.mode != "campaign":
            raise SpecError(f"a {self._spec.mode!r} experiment has no cells")
        return grid_for(self._spec).cells()

    def validate(self) -> "Experiment":
        """Eager full validation (spec files: catches typos pre-run)."""
        self._spec.validate()
        return self

    # -- execution ---------------------------------------------------------

    def run(
        self,
        *,
        workers: int | None = None,
        store_dir: str | Path | None = None,
        resume: bool | None = None,
        retry_failed: bool | None = None,
        keep_reports: bool | None = None,
        timeout_s: float | None = None,
        dispatch: str | None = None,
        keep_trace: bool = False,
    ) -> ExperimentResult:
        """Execute the experiment and return an :class:`ExperimentResult`.

        Keyword arguments override the spec's ``[run]`` options for
        this invocation; the result's ``.spec()`` reflects what
        actually ran.  Routing: pcaps → the streaming analysis
        pipeline; axes/seeds → the parallel (resumable) campaign
        runner; otherwise one simulated session streamed through the
        pipeline.  ``keep_trace=True`` (single mode) buffers the run
        and attaches the :class:`~repro.sim.ScenarioResult`.
        """
        spec = self._spec.with_options(
            workers=workers,
            store=str(store_dir) if store_dir is not None else None,
            resume=resume,
            retry_failed=retry_failed,
            keep_reports=keep_reports,
            timeout_s=timeout_s,
            dispatch=dispatch,
        )
        return execute(spec, keep_trace=keep_trace)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spec = self._spec
        source = spec.scenario or (
            f"corpus {spec.corpus}" if spec.corpus is not None
            else f"{len(spec.pcaps)} pcap(s)" if spec.pcaps else "?"
        )
        has_source = spec.scenario or spec.pcaps or spec.corpus is not None
        return f"<Experiment {spec.mode if has_source else 'empty'}: {source}>"


def run_spec(
    source: "ExperimentSpec | Mapping | str | Path", **run_options
) -> ExperimentResult:
    """One-call convenience: ``run_spec("study.toml", workers=4)``."""
    return Experiment.from_spec(source).run(**run_options)
