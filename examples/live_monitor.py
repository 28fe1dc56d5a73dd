#!/usr/bin/env python
"""Live congestion monitoring of a streaming capture.

The paper's busy-time metric is computed offline, but its motivation is
the robust operation of *live* networks.  This example replays a
simulated capture into an incremental
:class:`repro.pipeline.PipelineExecutor` one second of frames at a
time — exactly what a monitoring daemon sitting on an RFMon interface
(or ``repro serve``) does — and prints a one-line status per second as
it closes, with the congestion class transitions highlighted.

Usage::

    python examples/live_monitor.py
"""

from __future__ import annotations

import numpy as np

from repro.core import CongestionLevel, PAPER_THRESHOLDS
from repro.pipeline import PipelineExecutor, create_consumers
from repro.sim import LinearRamp, ScenarioConfig, run_scenario
from repro.sim.traffic import ModulatedRate


def main() -> None:
    duration = 30.0
    ramp = LinearRamp(1.0, 45.0, int(duration * 1e6))
    config = ScenarioConfig(
        n_stations=10,
        duration_s=duration,
        seed=19,
        room_width_m=36.0,
        room_depth_m=24.0,
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        obstructed_fraction=0.25,
        uplink=ModulatedRate(ramp, sigma=0.7, seed=5),
        downlink=ModulatedRate(ramp, sigma=0.7, seed=6),
    )
    print(f"simulating a {duration:.0f} s ramp ...")
    trace = run_scenario(config).trace

    # Seconds are counted from the first frame, as the executor does.
    second_of = (trace.time_us - trace.time_us[0]) // 1_000_000
    n_seconds = int(second_of[-1]) + 1
    frames = np.bincount(second_of, minlength=n_seconds)
    bounds = np.searchsorted(second_of, np.arange(n_seconds + 1))

    executor = PipelineExecutor(create_consumers(["utilization"]))
    levels: list[CongestionLevel] = []
    bar_scale = 50

    def show(second: int, percent: float) -> None:
        level = PAPER_THRESHOLDS.classify(percent)
        bar = "#" * int(min(percent, 100.0) / 100 * bar_scale)
        marker = ""
        if not levels or level != levels[-1]:
            marker = f"  <-- {level.label.upper()}"
        levels.append(level)
        print(
            f"t={second:3d}s util={percent:5.1f}% "
            f"frames={frames[second]:4d} |{bar:<{bar_scale}}|{marker}"
        )

    print("\nstreaming capture through the incremental executor:\n")
    closed = 0  # seconds printed so far
    for second in range(n_seconds):
        segment = trace.slice_rows(bounds[second], bounds[second + 1])
        if not len(segment):
            continue  # an idle second closes nothing until a frame arrives
        executor.feed(segment)
        if second > closed:
            # A frame in a later second closes every second before it.
            percent = executor.snapshot()["utilization"].percent
            for index in range(closed, second):
                show(index, percent[index])
            closed = second
    tail = executor.close()["utilization"].percent[closed]
    levels.append(PAPER_THRESHOLDS.classify(tail))
    print(f"t={closed:3d}s (partial) util={tail:5.1f}%")

    print("\nsession congestion occupancy:")
    for level in CongestionLevel:
        print(f"  {level.label:22s} {levels.count(level) / len(levels):6.1%}")


if __name__ == "__main__":
    main()
