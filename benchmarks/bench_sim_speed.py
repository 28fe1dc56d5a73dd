"""Simulator trace-generation speed benchmark — the committed baseline.

Measures frames/second of *trace generation* (build + stream-consume,
the campaign hot path) plus peak RSS for named library scenarios, and
writes ``BENCH_sim.json``.  Each scenario runs in a fresh subprocess so
peak-RSS numbers are per-scenario, not cumulative.

The JSON includes a pure-Python *calibration score* so the regression
check is meaningful across machines: a committed baseline measured on a
fast workstation is scaled by the current machine's calibration ratio
before comparing.

Every scenario is measured once per fidelity (``default`` — the
golden-digest-pinned event-stepped engine — and ``fast``, the columnar
batch-stepped core); the JSON stores per-fidelity sections and the
regression check compares strictly like-for-like (same mode, same
fidelity, same scenario).  A speedup line reports fast vs default for
each scenario.

Usage::

    python benchmarks/bench_sim_speed.py                  # full run
    python benchmarks/bench_sim_speed.py --quick          # short durations
    python benchmarks/bench_sim_speed.py --fidelity fast  # one engine only
    python benchmarks/bench_sim_speed.py --quick --check BENCH_sim.json
                                                          # fail on >20% fps regression
    python benchmarks/bench_sim_speed.py --out BENCH_sim.json
                                                          # new committed baseline

Results go to ``--out`` (default ``benchmarks/output/BENCH_sim.json``).
``--check`` reads its baseline before the run, and an ``--out`` that
names the baseline itself is refused (exit 2).  CI runs the
``--quick --check`` form (the ``bench-smoke`` job).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: scenario name -> (full duration_s, quick duration_s)
SCENARIOS = {
    "day": (20.0, 6.0),
    "hotspot-plenary": (20.0, 6.0),
    "ramp": (20.0, 6.0),
}

#: Engines measured (see ``repro.sim.FIDELITY_MODES``).
FIDELITIES = ("default", "fast")

#: Allowed frames/sec drop vs. the (calibration-scaled) baseline.
REGRESSION_TOLERANCE = 0.20


def calibration_score(iterations: int = 400_000) -> float:
    """Relative single-core Python speed (bigger = faster machine).

    A fixed pure-Python workload shaped like the simulator hot path
    (attribute-free arithmetic, math calls, list traffic); the ratio of
    two machines' scores tracks how their simulator fps relate, which
    lets a committed baseline travel between machines.
    """
    start = time.perf_counter()
    acc = 0.0
    values = [1.000003] * 64
    for i in range(iterations):
        acc += math.exp(-values[i & 63] * 1e-6) - 1.0
    elapsed = time.perf_counter() - start
    assert acc != 1.0  # keep the loop live
    return iterations / elapsed / 1e6


def measure_scenario(
    name: str, duration_s: float, fidelity: str = "default"
) -> dict[str, object]:
    """Build + stream one scenario to exhaustion; return its metrics.

    Best of two passes: identical fixed-seed runs, so the faster pass is
    the same work with less scheduler noise — that stabilises the CI
    regression check.
    """
    from repro.sim import build_scenario

    best = None
    for _ in range(2):
        built = build_scenario(name, duration_s=duration_s, fidelity=fidelity)
        start = time.perf_counter()
        frames_streamed = 0
        for chunk in built.stream():
            frames_streamed += len(chunk)
        elapsed = time.perf_counter() - start
        # Capture counters now and drop the scenario before the next
        # pass — keeping it alive would double the recorded peak RSS.
        counters = built.perf_counters
        del built
        if best is None or elapsed < best[0]:
            best = (elapsed, frames_streamed, counters)
    elapsed, frames_streamed, counters = best
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    frames = counters["frames_transmitted"]
    return {
        "duration_s": duration_s,
        "frames_transmitted": frames,
        "frames_captured": frames_streamed,
        "wall_s": round(elapsed, 3),
        "frames_per_sec": round(frames / elapsed, 1),
        "events_processed": counters["events_processed"],
        "events_cancelled": counters["events_cancelled"],
        "peak_rss_mb": round(peak_rss_mb, 1),
    }


def _run_child(name: str, duration_s: float, fidelity: str) -> dict[str, object]:
    """Run one scenario in a fresh interpreter for clean peak-RSS."""
    proc = subprocess.run(
        [sys.executable, __file__, "--_child", name, str(duration_s), fidelity],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def run_benchmark(quick: bool, fidelities: tuple[str, ...]) -> dict[str, object]:
    """Measure the quick durations always, plus the full ones unless --quick.

    Storing both modes in one JSON lets a fast CI job (``--quick
    --check``) compare against the committed full-run baseline without
    comparing different simulation durations against each other.  Each
    mode holds one section per fidelity, so engines are also never
    compared against each other by the regression gate.
    """
    modes = {}
    for mode in (("quick",) if quick else ("quick", "full")):
        sections: dict[str, dict] = {}
        for fidelity in fidelities:
            results = {}
            print(f"[{mode}/{fidelity}]")
            for name, (full, short) in SCENARIOS.items():
                duration = short if mode == "quick" else full
                results[name] = _run_child(name, duration, fidelity)
                print(
                    f"{name:>16}: {results[name]['frames_per_sec']:>9,.0f} frames/s "
                    f"({results[name]['frames_transmitted']} frames in "
                    f"{results[name]['wall_s']}s, peak RSS "
                    f"{results[name]['peak_rss_mb']} MB)"
                )
            sections[fidelity] = results
        if "default" in sections and "fast" in sections:
            speedups = ", ".join(
                f"{name} {sections['fast'][name]['frames_per_sec'] / sections['default'][name]['frames_per_sec']:.1f}x"
                for name in SCENARIOS
            )
            print(f"[{mode}] fast vs default speedup: {speedups}")
        modes[mode] = sections
    return {
        "schema": 3,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_score": round(calibration_score(), 3),
        "modes": modes,
    }


def _per_fidelity_modes(payload: dict) -> dict:
    """Normalise a results payload to mode → fidelity → scenario.

    Schema 2 files (pre-fidelity) stored scenarios directly under the
    mode; they compare as the ``default`` engine.
    """
    if payload.get("schema", 2) >= 3:
        return payload["modes"]
    return {
        mode: {"default": entries} for mode, entries in payload["modes"].items()
    }


def check_regression(current: dict, baseline: dict) -> int:
    """Exit code 1 if any scenario regressed >20% vs. the scaled baseline.

    Strictly like-for-like: only (mode, fidelity, scenario) triples
    present in both runs are compared — the fast engine is never gated
    against default numbers or vice versa.  Baseline frames/sec are
    scaled by the machines' calibration ratio so a baseline committed
    from a fast workstation remains meaningful on a slower CI runner.
    """
    scale = current["calibration_score"] / baseline["calibration_score"]
    current_modes = _per_fidelity_modes(current)
    failed = False
    compared = 0
    for mode, fidelities in _per_fidelity_modes(baseline).items():
        got_mode = current_modes.get(mode)
        if got_mode is None:
            continue
        for fidelity, entries in fidelities.items():
            got_fidelity = got_mode.get(fidelity)
            if got_fidelity is None:
                continue
            for name, entry in entries.items():
                label = f"{mode}/{fidelity}/{name}"
                got = got_fidelity.get(name)
                if got is None:
                    print(f"{label}: missing from current run", file=sys.stderr)
                    failed = True
                    continue
                compared += 1
                floor = (
                    entry["frames_per_sec"] * scale * (1.0 - REGRESSION_TOLERANCE)
                )
                status = "ok" if got["frames_per_sec"] >= floor else "REGRESSION"
                print(
                    f"{label:>28}: {got['frames_per_sec']:>9,.0f} frames/s "
                    f"vs floor {floor:,.0f} (baseline "
                    f"{entry['frames_per_sec']:,.0f} × {scale:.2f} machine scale)"
                    f" — {status}"
                )
                if status != "ok":
                    failed = True
    if not compared:
        print("no comparable scenarios between runs", file=sys.stderr)
        return 1
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="short durations")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "benchmarks" / "output" / "BENCH_sim.json"),
        help="where to write the results JSON (never the --check baseline)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE_JSON",
        help="compare against a committed baseline; exit 1 on >20%% regression",
    )
    parser.add_argument(
        "--fidelity",
        choices=FIDELITIES + ("all",),
        default="all",
        help="which engine(s) to measure (default: all)",
    )
    parser.add_argument("--_child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args._child:
        name, duration, fidelity = args._child
        print(json.dumps(measure_scenario(name, float(duration), fidelity)))
        return 0

    out_path = Path(args.out)
    baseline = None
    if args.check:
        if out_path.resolve() == Path(args.check).resolve():
            print(
                f"--out and --check both name {args.check}: the run would "
                "overwrite the baseline it is checked against",
                file=sys.stderr,
            )
            return 2
        baseline = json.loads(Path(args.check).read_text())
    fidelities = FIDELITIES if args.fidelity == "all" else (args.fidelity,)
    current = run_benchmark(quick=args.quick, fidelities=fidelities)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {out_path}")
    if baseline is not None:
        return check_regression(current, baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
