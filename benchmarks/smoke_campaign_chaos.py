"""Chaos smoke: a distributed campaign survives a SIGKILLed worker.

Drives the real coordinator/worker stack the way CI's ``chaos-smoke``
job does:

1. run a ~40-cell grid serially (no store) — the ground truth;
2. boot a :class:`repro.campaign.Coordinator` on an ephemeral loopback
   port and spawn two real ``repro campaign-worker`` subprocesses;
3. once the victim worker has completed at least one cell and holds a
   fresh lease (both cells unfinished) — checked, and the signal sent,
   under the coordinator's lock — SIGKILL it;
4. assert the survivor drains the grid: every cell resolved, zero
   failures, zero lost work;
5. assert the merged store equals the serial run cell for cell
   (everything except per-cell wall clock, which necessarily jitters)
   and that recomputation is bounded by one lease batch: only the
   dead worker's in-flight cells are ever redone, nothing it already
   completed is recomputed.

Exits non-zero with a diff on any violation.

Usage::

    python benchmarks/smoke_campaign_chaos.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaign import Coordinator, ParameterGrid, run_campaign  # noqa: E402

#: 10 station counts x 4 seeds = 40 cells, each a short fast-fidelity run.
GRID = ParameterGrid(
    "ramp",
    axes={"n_stations": list(range(2, 12))},
    seeds=4,
    fixed={"duration_s": 1.0},
    fidelity="fast",
)

#: Cells per lease — the recomputation bound after a worker death.
BATCH = 2

#: Far longer than the run: a reclaim can only come from connection
#: death, never a lease timeout, so the recomputation bound is exact.
LEASE_S = 600.0

KILL_DEADLINE_S = 120.0
DRAIN_DEADLINE_S = 600.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(ok: bool, message: str) -> None:
    if not ok:
        fail(message)
    print(f"ok: {message}")


def normalized(cells):
    """Cell results with the volatile wall-clock field zeroed."""
    return [dataclasses.replace(cell, elapsed_s=0.0) for cell in cells]


def spawn_worker(index: int, address: tuple[str, int], workdir: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    log = (workdir / f"worker-{index}.log").open("w")
    host, port = address
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "campaign-worker",
            "--connect",
            f"{host}:{port}",
            "--id",
            f"smoke-{index}",
        ],
        env=env,
        cwd=REPO,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    proc._smoke_log = log  # closed in the finally block
    return proc


def completed_by(coordinator: Coordinator, prefix: str) -> int:
    """Cells completed by workers whose id starts with ``prefix``."""
    return sum(
        stats.completed
        for name, stats in coordinator.state.workers.items()
        if name.startswith(prefix)
    )


def owns_full_lease(coordinator: Coordinator, prefix: str) -> bool:
    """Whether a worker whose id starts with ``prefix`` holds a lease
    with all ``BATCH`` cells unfinished.  Caller holds the coordinator's
    lock, so no completion can land between this check and the kill."""
    return any(
        lease.worker.startswith(prefix) and len(lease.indices) == BATCH
        for lease in coordinator.state.leases.values()
    )


def run(workdir: Path) -> None:
    n_cells = len(GRID)
    print(f"== serial ground truth ({n_cells} cells)")
    serial = run_campaign(GRID, workers=1)
    check(not serial.failed, f"serial run clean ({len(serial.cells)} cells)")

    store_dir = workdir / "store"
    print("== distributed run: coordinator + 2 workers, SIGKILL one mid-run")
    procs = []
    try:
        with Coordinator(
            GRID, store_dir, lease_s=LEASE_S, batch=BATCH
        ) as coordinator:
            print(f"coordinator listening on {coordinator.address}")
            procs = [
                spawn_worker(i, coordinator.address, workdir) for i in range(2)
            ]
            victim, survivor = procs

            # Wait for the victim to finish at least one cell, then
            # strike while it holds a lease with every cell unfinished.
            # Killing between leases would leave nothing to reclaim.  The
            # worker waits for each completion's ack before starting its
            # next cell, so at most one completion is in flight at the
            # kill and the lease survives it: exactly one reclaim.
            deadline = time.monotonic() + KILL_DEADLINE_S
            while True:
                if coordinator.finished:
                    fail("campaign drained before the worker could be killed")
                with coordinator._lock:
                    if completed_by(
                        coordinator, "smoke-0"
                    ) >= 1 and owns_full_lease(coordinator, "smoke-0"):
                        victim.send_signal(signal.SIGKILL)
                        before_kill = completed_by(coordinator, "smoke-0")
                        break
                if time.monotonic() > deadline:
                    fail("victim worker never held a fresh lease after a cell")
                time.sleep(0.01)
            victim.wait(timeout=30)
            print(
                f"SIGKILLed worker smoke-0 after {before_kill} completed "
                f"cell(s), {coordinator.state.outstanding} outstanding"
            )

            check(
                coordinator.wait(timeout=DRAIN_DEADLINE_S),
                "survivor drained the campaign",
            )
            result = coordinator.result()
            state = coordinator.state

        check(not result.failed, "no failed cells")
        check(
            len(result.cells) == n_cells,
            f"all {n_cells} cells resolved (got {len(result.cells)})",
        )
        check(result.store_hits == 0, "fresh store: zero store hits")
        check(result.quarantined == 0, "zero quarantined records")
        check(
            state.reclaims == 1,
            f"exactly one lease reclaimed (got {state.reclaims})",
        )
        recomputed = sum(1 for attempts in state.attempts if attempts > 0)
        check(
            recomputed <= BATCH,
            f"recomputation bounded by one lease batch: "
            f"{recomputed} cell(s) redone <= batch {BATCH}",
        )
        survivor_done = completed_by(coordinator, "smoke-1")
        check(
            completed_by(coordinator, "smoke-0") + survivor_done >= n_cells,
            f"every cell completed by a worker (victim "
            f"{completed_by(coordinator, 'smoke-0')}, survivor {survivor_done})",
        )

        mismatches = [
            (ours.cell.name, ours, theirs)
            for ours, theirs in zip(
                normalized(result.cells), normalized(serial.cells)
            )
            if ours != theirs
        ]
        if mismatches:
            for name, ours, theirs in mismatches[:5]:
                print(f"-- {name}\n  distributed: {ours}\n  serial:      {theirs}")
            fail(f"{len(mismatches)} cell(s) differ from the serial run")
        print(f"ok: all {n_cells} cells bit-identical to serial (modulo wall clock)")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc._smoke_log.close()

    print("chaos smoke: PASS")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        help="working directory (default: a fresh temp dir, removed on exit)",
    )
    args = parser.parse_args()
    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        run(workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
            run(Path(tmp))


if __name__ == "__main__":
    main()
