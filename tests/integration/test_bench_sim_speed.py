"""``benchmarks/bench_sim_speed.py --check``: a run is compared with a
baseline it never overwrites.

``run_benchmark`` is replaced by a stub returning a fixed payload, so
no scenario runs; what is under test is the order of reading the
baseline, writing ``--out`` and comparing.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_sim_speed.py"


def payload(frames_per_sec: float) -> dict:
    """A results document with one quick default-engine cell."""
    cell = {
        "frames_per_sec": frames_per_sec,
        "frames_transmitted": 1000,
        "wall_s": 1.0,
        "peak_rss_mb": 40.0,
    }
    return {
        "schema": 3,
        "calibration_score": 10.0,
        "modes": {"quick": {"default": {"day": cell}}},
    }


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The script as a module, its repository root at ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("bench_sim_speed", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    return module


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps(payload(1000.0)))
    return path


def run_at(bench, monkeypatch, frames_per_sec):
    monkeypatch.setattr(
        bench, "run_benchmark", lambda quick, fidelities: payload(frames_per_sec)
    )


def test_a_slow_run_fails_and_the_baseline_stays(
    bench, baseline, monkeypatch, tmp_path
):
    before = baseline.read_bytes()
    run_at(bench, monkeypatch, 500.0)
    # No --out: the default is under benchmarks/output/, not the baseline.
    assert bench.main(["--quick", "--check", str(baseline)]) == 1
    assert baseline.read_bytes() == before
    written = tmp_path / "benchmarks" / "output" / "BENCH_sim.json"
    assert json.loads(written.read_text()) == payload(500.0)


def test_a_run_as_fast_as_the_baseline_passes(bench, baseline, monkeypatch):
    run_at(bench, monkeypatch, 1000.0)
    assert bench.main(["--quick", "--check", str(baseline)]) == 0


def test_out_naming_the_baseline_exits_2(bench, baseline, monkeypatch, capsys):
    before = baseline.read_bytes()

    def refuse(quick, fidelities):
        raise AssertionError("ran against a baseline it would overwrite")

    monkeypatch.setattr(bench, "run_benchmark", refuse)
    relative = Path("..") / baseline.parent.name / baseline.name
    monkeypatch.chdir(baseline.parent)
    code = bench.main(["--quick", "--check", str(relative), "--out", "BENCH_sim.json"])
    assert code == 2
    assert baseline.read_bytes() == before
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--out and --check both name" in err
