"""Campaign runner: worker scaling and streamed-cell memory bounds.

A campaign fans scenario×seed cells across a process pool, each cell
streaming its live simulated capture straight into the single-pass
analysis pipeline.  This benchmark checks the two properties that make
campaigns usable at scale:

* **near-linear scaling** — the same grid on 2 workers beats 1 worker
  by a real margin (simulation is GIL-bound Python, so the pool buys
  true parallelism), with identical per-cell numbers either way;
* **bounded memory** — a streamed cell materialises no full-run trace
  and no per-frame ground truth; peak buffered rows stay around one
  drain window regardless of run length (the equivalence guarantee is
  tested in ``tests/pipeline/test_live_stream.py``).
"""

import os
import resource
import time

from repro.campaign import ParameterGrid, run_campaign
from repro.sim import build, load_ramp_config

#: Grid sized so per-cell work dominates pool startup: 6 cells of a
#: 30-second ramp take ~0.3-1 s of simulation each (2 vCPUs).
GRID = ParameterGrid(
    "ramp",
    axes={"n_stations": [8, 12, 16]},
    seeds=2,
    fixed={"duration_s": 30.0},
)


def _rows(result):
    rows = [cell.as_row() for cell in result.cells]
    for row in rows:
        row.pop("wall_s")  # timing differs between runs, numbers must not
    return sorted(rows, key=lambda row: row["cell"])


def test_campaign_scales_with_workers(report_file):
    t0 = time.perf_counter()
    serial = run_campaign(GRID, workers=1)
    serial_s = time.perf_counter() - t0

    # Longest cell first, by the serial run's cell times: the pool
    # hands cells out in order, so the last one a worker picks up is
    # short and neither worker idles long at the end.
    longest_first = sorted(serial.cells, key=lambda cell: -cell.elapsed_s)
    t0 = time.perf_counter()
    parallel = run_campaign([cell.cell for cell in longest_first], workers=2)
    parallel_s = time.perf_counter() - t0

    # -- contract: worker count never changes the numbers ---------------
    assert _rows(serial) == _rows(parallel)

    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    report_file(
        "Campaign runner scaling (6-cell ramp grid)\n"
        f"cells               : {len(serial)}\n"
        f"cpu cores           : {cores}\n"
        f"1 worker            : {serial_s:8.2f} s\n"
        f"2 workers           : {parallel_s:8.2f} s\n"
        f"speedup             : {speedup:8.2f}x\n"
    )

    if cores >= 2:
        # 2 workers over 6 cells, longest first, should approach 2x;
        # 1.25 guards against pool startup and noisy CI machines.
        assert speedup > 1.25, f"campaign not scaling: {speedup:.2f}x"
    else:
        # A single-core box cannot show parallel speedup; require only
        # that the pool adds no pathological overhead.
        assert speedup > 0.5, f"pool overhead pathological: {speedup:.2f}x"


def test_store_resume_is_nearly_free(tmp_path, report_file):
    """A fully-stored campaign re-invocation does zero simulation work
    and costs key hashing + JSON reads — orders of magnitude below the
    cold run it replaces."""
    store_dir = tmp_path / "store"
    t0 = time.perf_counter()
    cold = run_campaign(GRID, workers=2, store_dir=store_dir)
    cold_s = time.perf_counter() - t0
    assert cold.dispatched == len(GRID)

    t0 = time.perf_counter()
    warm = run_campaign(GRID, workers=2, store_dir=store_dir)
    warm_s = time.perf_counter() - t0
    assert warm.dispatched == 0
    assert warm.store_hits == len(GRID)
    assert _rows(cold) == _rows(warm)

    report_file(
        "Campaign store: cold vs fully-stored re-invocation (6-cell grid)\n"
        f"cold (simulated)    : {cold_s:8.2f} s\n"
        f"warm (store-served) : {warm_s:8.2f} s\n"
        f"speedup             : {cold_s / warm_s:8.1f}x\n"
        f"cells dispatched    : {cold.dispatched} -> {warm.dispatched}\n"
    )
    # Generous bound: warm runs take ~100 ms of hashing/IO against tens
    # of seconds of simulation; 5x keeps slow CI boxes green.
    assert warm_s * 5 < cold_s, f"store hit not cheap: {warm_s:.2f}s vs {cold_s:.2f}s"


def test_streamed_cell_memory_stays_bounded(output_dir):
    """A long streamed scenario holds one drain window, not the run."""
    built = build(load_ramp_config(duration_s=60.0, seed=3))
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    peak_buffered = 0
    total = 0
    for chunk in built.stream():
        total += len(chunk)
        peak_buffered = max(
            peak_buffered,
            sum(s.frames_buffered for s in built.sniffers),
        )

    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert total == built.frames_captured
    # No full-run materialisation anywhere:
    assert len(built.medium.ground_truth) == 0
    assert sum(s.frames_buffered for s in built.sniffers) == 0
    # The buffer high-water mark is a couple of drain windows, far below
    # the full capture (~total frames).
    assert peak_buffered < max(2_000, total // 4), (
        f"buffered {peak_buffered} of {total} frames"
    )
    (output_dir / "campaign_memory.txt").write_text(
        "Streamed day-session memory profile\n"
        f"frames streamed     : {total}\n"
        f"peak buffered rows  : {peak_buffered}\n"
        f"ru_maxrss before    : {rss_before_kb} kB\n"
        f"ru_maxrss after     : {rss_after_kb} kB\n"
    )
