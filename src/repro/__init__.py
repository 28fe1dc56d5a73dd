"""repro — reproduction of "Understanding Congestion in IEEE 802.11b
Wireless Networks" (Jardosh, Ramachandran, Almeroth, Belding-Royer;
IMC 2005).

The one front door is :mod:`repro.api` — experiments built fluently or
from declarative spec files, returning uniform typed results:

>>> from repro import Experiment
>>> exp = Experiment.scenario("ramp").vary(n_stations=[10, 20]).seeds(2)
>>> len(exp.cells())
4
>>> report = Experiment.scenario("uniform", n_stations=8,
...                              duration_s=5.0).run().report  # doctest: +SKIP

CLI: ``repro run study.toml`` (or ``python -m repro run study.toml``).

Subpackages
-----------
``repro.api``       unified experiment layer: specs, fluent builder,
                    typed results (start here).
``repro.core``      the paper's contribution: channel busy-time,
                    utilization, congestion classification and the §6
                    link-layer effect analyses.
``repro.pipeline``  single-pass streaming analysis executor.
``repro.sim``       discrete-event IEEE 802.11b DCF network simulator
                    with the named scenario library.
``repro.campaign``  parameter-grid sweeps: process pool + resumable
                    content-addressed store.
``repro.corpus``    capture library: content-addressed catalog,
                    queries, query-planned batches.
``repro.frames``    802.11 frame model and columnar trace container.
``repro.pcap``      capture codec: radiotap pcap and RFC 1761 snoop,
                    each optionally gzipped, and the one content
                    sniffer that tells them apart.
``repro.analysis``  numpy columnar tables, binning, knee detection.
``repro.baselines`` analytical comparators (Jun TMT, Heusse anomaly,
                    Cantieni finite-load model, beacon reliability).
``repro.viz``       ASCII chart rendering for terminal reports.

The deeper entry points (``repro.pipeline.run_all``,
``repro.campaign.run_campaign``, ``repro.sim.run_scenario`` ...) remain
first-class public API — the api layer routes to them unchanged.
"""

__version__ = "1.1.0"

#: Public name → defining submodule.  Resolved lazily (PEP 562) so that
#: importing :mod:`repro` costs nothing until a name is touched — in
#: particular, dependency-free corners like ``python -m repro.lint``
#: must import on a bare interpreter (no numpy, Python 3.10) even
#: though the analysis stack needs numpy and 3.11+.
_EXPORTS = {
    "Experiment": "repro.api",
    "ExperimentResult": "repro.api",
    "ExperimentSpec": "repro.api",
    "SpecError": "repro.api",
    "load_spec": "repro.api",
    "run_spec": "repro.api",
    "CampaignStore": "repro.campaign",
    "ParameterGrid": "repro.campaign",
    "render_campaign": "repro.campaign",
    "run_campaign": "repro.campaign",
    "CorpusIndex": "repro.corpus",
    "analyze_corpus": "repro.corpus",
    "analyze_trace": "repro.core",
    "render_report": "repro.core.render",
    "run_all": "repro.pipeline",
    "run_batch": "repro.pipeline",
    "ScenarioConfig": "repro.sim",
    "available_scenarios": "repro.sim",
    "build_scenario": "repro.sim",
    "run_scenario": "repro.sim",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CampaignStore",
    "CorpusIndex",
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "ParameterGrid",
    "ScenarioConfig",
    "SpecError",
    "__version__",
    "analyze_corpus",
    "analyze_trace",
    "available_scenarios",
    "build_scenario",
    "load_spec",
    "render_campaign",
    "render_report",
    "run_all",
    "run_batch",
    "run_campaign",
    "run_scenario",
    "run_spec",
]
