"""Shared benchmark fixtures: cached scenario traces + report output.

Every bench consumes one of three session-cached traces:

* ``ramp_result``     — the offered-load ramp behind Figures 6-15
* ``day_result``      — the scaled IETF day-session analogue
* ``plenary_result``  — the scaled IETF plenary analogue

and writes its paper-vs-measured report (rows + ASCII chart) into
``benchmarks/output/`` so a run leaves an inspectable artifact per
table/figure.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import CongestionReport
from repro.pipeline import run_all
from repro.sim import (
    ScenarioResult,
    ietf_day_config,
    ietf_plenary_config,
    load_ramp_config,
    run_scenario,
)

#: Simulated durations; scaled from the paper's multi-hour sessions.
RAMP_DURATION_S = 200.0
SESSION_DURATION_S = 60.0


@pytest.fixture(scope="session")
def ramp_result() -> ScenarioResult:
    """The utilization-sweeping workload (Figures 6-15)."""
    return run_scenario(load_ramp_config(duration_s=RAMP_DURATION_S, seed=11))


@pytest.fixture(scope="session")
def ramp_report(ramp_result) -> CongestionReport:
    """Full paper report, computed by the one-pass streaming pipeline
    (bit-compatible with ``analyze_trace``; see bench_pipeline.py)."""
    return run_all(ramp_result.trace, ramp_result.roster, name="ramp")


@pytest.fixture(scope="session")
def day_result() -> ScenarioResult:
    """Scaled day session: three channels, parallel meeting blocks."""
    return run_scenario(ietf_day_config(duration_s=SESSION_DURATION_S, seed=21))


@pytest.fixture(scope="session")
def plenary_result() -> ScenarioResult:
    """Scaled plenary session: one hall, heavy load."""
    return run_scenario(ietf_plenary_config(duration_s=SESSION_DURATION_S, seed=22))


@pytest.fixture(scope="session")
def output_dir() -> Path:
    path = Path(__file__).parent / "output"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture()
def report_file(output_dir, request):
    """A writer that saves this bench's report under its module name."""
    name = request.module.__name__.replace("bench_", "").replace("test_", "")

    def write(text: str) -> None:
        (output_dir / f"{name}.txt").write_text(text)

    return write
