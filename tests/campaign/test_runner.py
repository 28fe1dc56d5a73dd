"""Tests for the parallel campaign runner and its summaries."""

import pytest

from repro.campaign import (
    CampaignCell,
    ParameterGrid,
    campaign_table,
    delivery_curve,
    load_knee,
    render_campaign,
    run_campaign,
    utilization_knee,
)

#: A small but meaningful grid: 4 cells, ~2 s of simulation each.
GRID = ParameterGrid(
    "ramp",
    axes={"n_stations": [4, 8]},
    seeds=2,
    fixed={"duration_s": 2.0},
)


@pytest.fixture(scope="module")
def campaign_result():
    return run_campaign(GRID, workers=1, keep_reports=True)


class TestRunCampaign:
    def test_one_result_per_cell_in_order(self, campaign_result):
        assert len(campaign_result) == 4
        assert [c.name for c in campaign_result] == [
            c.name for c in GRID.cells()
        ]

    def test_cell_findings_are_populated(self, campaign_result):
        for cell in campaign_result:
            assert cell.n_frames > 0
            assert cell.frames_transmitted >= cell.n_frames
            assert 0.0 < cell.capture_ratio <= 1.0
            assert 0.0 <= cell.delivery_ratio <= 1.0
            assert cell.offered_pps > 0
            assert cell.elapsed_s > 0
            assert cell.report is not None
            assert cell.report.summary.n_frames == cell.n_frames

    def test_reports_dropped_unless_requested(self):
        single = [CampaignCell(scenario="ramp", params=(("duration_s", 1.0),))]
        result = run_campaign(single, workers=1)
        assert result.cells[0].report is None

    def test_parallel_matches_serial(self):
        """Worker count is invisible in the numbers (cells own their seeds)."""
        grid = ParameterGrid(
            "ramp", axes={"n_stations": [4, 6]}, fixed={"duration_s": 1.5}
        )
        serial = run_campaign(grid, workers=1)
        parallel = run_campaign(grid, workers=2)
        assert parallel.workers == 2

        def rows(result):
            out = []
            for cell in result:
                row = cell.as_row()
                row.pop("wall_s")
                out.append(row)
            return out

        assert rows(serial) == rows(parallel)

    def test_workers_one_vs_four_bit_identical(self):
        """Full-precision cell results are identical for 1 vs 4 workers —
        the simulator optimizations must not leak scheduling or RNG
        state across cells or processes."""
        grid = ParameterGrid(
            "ramp",
            axes={"n_stations": [4, 6]},
            seeds=2,
            fixed={"duration_s": 1.5},
        )
        serial = run_campaign(grid, workers=1)
        parallel = run_campaign(grid, workers=4)
        assert parallel.workers == 4
        compared = (
            "n_frames",
            "frames_transmitted",
            "offered_packets",
            "events_processed",
            "events_cancelled",
            "duration_s",
            "delivery_ratio",
            "capture_ratio",
            "mode_utilization",
            "peak_throughput_mbps",
            "peak_throughput_utilization",
            "high_congestion_fraction",
            "unrecorded_percent",
        )
        for a, b in zip(serial.cells, parallel.cells):
            assert a.name == b.name
            for field_name in compared:
                assert getattr(a, field_name) == getattr(b, field_name), (
                    a.name,
                    field_name,
                )

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="no cells"):
            run_campaign([], workers=1)

    def test_raising_cell_does_not_sink_completed_cells(self):
        """Regression: a worker exception used to propagate out of the
        pool and discard every finished result.  Now the failing cell's
        config and traceback are captured and the rest complete."""
        cells = [
            CampaignCell("ramp", params=(("duration_s", 1.0),), seed=0),
            CampaignCell(
                "ramp", params=(("duration_s", 1.0), ("n_stations", -1)), seed=0
            ),
            CampaignCell("ramp", params=(("duration_s", 1.0),), seed=1),
        ]
        result = run_campaign(cells, workers=1)
        assert [c.name for c in result.cells] == [cells[0].name, cells[2].name]
        assert all(c.n_frames > 0 for c in result.cells)
        (failure,) = result.failed
        assert failure.name == cells[1].name
        assert failure.error_type == "ValueError"
        assert "n_stations" in str(dict(failure.source.params))
        assert "Traceback" in failure.traceback

    def test_raising_cell_in_process_pool(self):
        """Same regression through the pool path: the exception crosses
        the process boundary as a record, the campaign completes."""
        cells = [
            CampaignCell("ramp", params=(("duration_s", 1.0),), seed=s)
            for s in range(3)
        ] + [
            CampaignCell(
                "ramp", params=(("duration_s", 1.0), ("n_stations", -1)), seed=0
            )
        ]
        result = run_campaign(cells, workers=2)
        assert len(result.cells) == 3
        assert len(result.failed) == 1
        assert result.failed[0].error_type == "ValueError"
        # Summary keeps the failure visible instead of dropping it.
        text = render_campaign(result, title="T")
        assert "1 failed" in text
        assert "ValueError" in text
        assert result.failed[0].name in text

    def test_duplicate_cells_rejected(self):
        cell = CampaignCell(scenario="ramp", seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign([cell, cell], workers=1)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"timeout_s": -1}, "run option 'timeout_s' must be > 0"),
            ({"timeout_s": 0}, "run option 'timeout_s' must be > 0"),
        ],
    )
    def test_bad_run_options_write_nothing_to_the_store(
        self, tmp_path, options, message
    ):
        """The timeout is not part of a cell's key, so a failure record
        written for a bad value would be served to every later resume:
        reject it before the store is opened."""
        cell = CampaignCell("ramp", params=(("duration_s", 1.0),), seed=0)
        with pytest.raises(ValueError, match=message):
            run_campaign([cell], workers=1, store_dir=tmp_path / "s", **options)
        assert not (tmp_path / "s").exists()


class TestSummaries:
    def test_table_has_one_row_per_cell(self, campaign_result):
        text = campaign_table(campaign_result)
        for cell in campaign_result:
            assert cell.name in text

    def test_delivery_curve_aggregates_seeds(self, campaign_result):
        curve = delivery_curve(campaign_result, "ramp")
        # Two parameter points (n_stations 4 and 8), seeds averaged out.
        assert len(curve) == 2
        offered = [p[0] for p in curve]
        assert offered == sorted(offered)
        for _, delivery in curve:
            assert 0.0 <= delivery <= 1.0

    def test_knees(self, campaign_result):
        util = utilization_knee(campaign_result, "ramp")
        assert util is None or 0.0 <= util <= 100.0
        knee = load_knee(campaign_result, "ramp", min_delivery=2.0)
        # Threshold 2.0 is unreachable, so the knee is the first point.
        assert knee == delivery_curve(campaign_result, "ramp")[0][0]
        assert load_knee(campaign_result, "ramp", min_delivery=-1.0) is None

    def test_render_campaign_mentions_everything(self, campaign_result):
        text = render_campaign(campaign_result, title="T")
        assert "T: 4 cells" in text
        assert "utilization knee" in text
        assert "delivery ratio vs offered load" in text
